(* Terminal rendering for the benchmark harness: aligned tables,
   scatter/line plots, and histograms, so each figure of the paper can
   be "re-drawn" in the bench output without a plotting stack. *)

let si_float ?(digits = 3) v =
  let fmt mag suffix = Printf.sprintf "%.*f %s" digits (v /. mag) suffix in
  let a = abs_float v in
  if a = 0. then "0"
  else if a >= 1e18 then fmt 1e18 "E"
  else if a >= 1e15 then fmt 1e15 "P"
  else if a >= 1e12 then fmt 1e12 "T"
  else if a >= 1e9 then fmt 1e9 "G"
  else if a >= 1e6 then fmt 1e6 "M"
  else if a >= 1e3 then fmt 1e3 "k"
  else if a >= 1. then Printf.sprintf "%.*f" digits v
  else if a >= 1e-3 then fmt 1e-3 "m"
  else if a >= 1e-6 then fmt 1e-6 "u"
  else fmt 1e-9 "n"

let flops v = si_float v ^ "Flop/s"

let seconds v =
  if v >= 3600. then Printf.sprintf "%.2f h" (v /. 3600.)
  else if v >= 60. then Printf.sprintf "%.2f min" (v /. 60.)
  else if v >= 1. then Printf.sprintf "%.2f s" v
  else if v >= 1e-3 then Printf.sprintf "%.2f ms" (v *. 1e3)
  else if v >= 1e-6 then Printf.sprintf "%.2f us" (v *. 1e6)
  else Printf.sprintf "%.2f ns" (v *. 1e9)

(* ---- Tables ---- *)

let render_table ~header rows =
  let all = header :: rows in
  let n_cols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let cell r i = try List.nth r i with _ -> "" in
  let widths =
    Array.init n_cols (fun i ->
        List.fold_left (fun m r -> max m (String.length (cell r i))) 0 all)
  in
  let buf = Buffer.create 1024 in
  let sep () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let row r =
    Buffer.add_char buf '|';
    Array.iteri
      (fun i w ->
        let c = cell r i in
        Buffer.add_string buf
          (Printf.sprintf " %s%s |" c (String.make (w - String.length c) ' ')))
      widths;
    Buffer.add_char buf '\n'
  in
  sep ();
  row header;
  sep ();
  List.iter row rows;
  sep ();
  Buffer.contents buf

let print_table ~header rows = print_string (render_table ~header rows)

(* ---- Plots ---- *)

type series = { label : string; points : (float * float) array; glyph : char }

let series ?(glyph = '*') label points = { label; points; glyph }

let render_plot ?(height = 20) ?(x_label = "x") ?(y_label = "y") ?(zero_y = true)
    series_list =
  let width = 72 in
  let all_points = List.concat_map (fun s -> Array.to_list s.points) series_list in
  match all_points with
  | [] -> "(empty plot)\n"
  | _ ->
    let xs = List.map fst all_points in
    let ys = List.map snd all_points in
    let xmin = List.fold_left Float.min infinity xs in
    let xmax = List.fold_left Float.max neg_infinity xs in
    let ymin = List.fold_left Float.min infinity ys in
    let ymax = List.fold_left Float.max neg_infinity ys in
    let ymin = if zero_y then Float.min ymin 0. else ymin in
    let xspan = if xmax > xmin then xmax -. xmin else 1. in
    let yspan = if ymax > ymin then ymax -. ymin else 1. in
    let grid = Array.make_matrix height width ' ' in
    List.iter
      (fun s ->
        Array.iter
          (fun (x, y) ->
            let cx =
              int_of_float ((x -. xmin) /. xspan *. float_of_int (width - 1))
            in
            let cy =
              height - 1
              - int_of_float ((y -. ymin) /. yspan *. float_of_int (height - 1))
            in
            if cx >= 0 && cx < width && cy >= 0 && cy < height then
              grid.(cy).(cx) <- s.glyph)
          s.points)
      series_list;
    let buf = Buffer.create 2048 in
    Buffer.add_string buf
      (Printf.sprintf "  %s (top=%s bottom=%s)\n" y_label (si_float ymax)
         (si_float ymin));
    Array.iter
      (fun line ->
        Buffer.add_string buf "  |";
        Array.iter (Buffer.add_char buf) line;
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf ("  +" ^ String.make width '-' ^ "\n");
    Buffer.add_string buf
      (Printf.sprintf "   %s: %s .. %s\n" x_label (si_float xmin) (si_float xmax));
    List.iter
      (fun s -> Buffer.add_string buf (Printf.sprintf "   [%c] %s\n" s.glyph s.label))
      series_list;
    Buffer.contents buf

let print_plot ?height ?x_label ?y_label ?zero_y series_list =
  print_string (render_plot ?height ?x_label ?y_label ?zero_y series_list)

let render_histogram (h : Stats.histogram) =
  let centers = Stats.histogram_bin_centers h in
  let peak = Array.fold_left max 1 h.counts in
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun i c ->
      let bar = c * 50 / peak in
      Buffer.add_string buf
        (Printf.sprintf "  %10s | %s %d\n"
           (si_float ~digits:2 centers.(i))
           (String.make bar '#') c))
    h.counts;
  Buffer.add_string buf (Printf.sprintf "  (%d entries)\n" h.n_total);
  Buffer.contents buf

let print_histogram h = print_string (render_histogram h)

let banner title =
  let line = String.make 72 '=' in
  Printf.printf "\n%s\n== %s\n%s\n" line title line
