(* QUDA-style run-time kernel autotuner (Sec. IV):

   "a brute-force search through launch parameter space is performed
    the first time an un-tuned kernel or algorithm is encountered.
    Once the optimum launch configuration is known, this is stored in
    a std::map, and is subsequently looked up on demand."

   This is exactly that, for OCaml kernels: candidates are measured
   once per (kernel, signature) key, the winner is cached with its
   performance metadata, and the cache can be saved to and restored
   from disk, like QUDA's tunecache. *)

type entry = {
  kernel : string;
  signature : string;  (* problem shape: volume, precision, ... *)
  winner : string;  (* label of the chosen launch configuration *)
  time_s : float;  (* median measured time of the winner *)
  candidates_tried : int;
  tuned_at : float;  (* wall-clock, metadata only *)
}

type t = {
  cache : (string * string, entry) Hashtbl.t;
  mutable tune_count : int;  (* brute-force searches performed *)
  mutable hit_count : int;  (* cache lookups that avoided a search *)
  repeats : int;  (* timing repetitions per candidate *)
}

exception Corrupt of { path : string; line : int; reason : string }

let create ?(repeats = 3) () = { cache = Hashtbl.create 64; tune_count = 0; hit_count = 0; repeats }

type 'a candidate = { label : string; run : 'a }

let candidate label run = { label; run }

(* Monotonic per-run samples of one candidate. *)
let time_candidate t (c : (unit -> unit) candidate) =
  Array.init t.repeats (fun _ ->
      let t0 = Util.Clock.now_s () in
      c.run ();
      Util.Clock.now_s () -. t0)

(* The win rule. The first candidate is the baseline; the fastest
   median displaces it only by beating the baseline median by more
   than the baseline's own interquartile spread — a "win" inside the
   run-to-run noise is not a win, and caching one would record a
   slowdown as the tuned launch. With one repeat the spread is zero
   and the strictly fastest wins. *)
let pick = function
  | [] -> invalid_arg "Tuner.pick: no candidates"
  | (base, bs) :: _ as samples ->
    let base_med = Util.Stats.median bs in
    let spread = Util.Stats.percentile bs 75. -. Util.Stats.percentile bs 25. in
    let fastest =
      List.fold_left
        (fun (bl, bt) (l, s) ->
          let m = Util.Stats.median s in
          if m < bt then (l, m) else (bl, bt))
        (base, base_med) samples
    in
    if base_med -. snd fastest > spread then fastest else (base, base_med)

(* [tune t ~kernel ~signature candidates] returns the label of the best
   candidate, measuring on first encounter and hitting the cache after.
   A cached winner is only served if its label still names a live
   candidate: a cache loaded from disk (or kept across a variant-space
   change) may hold a winner the space no longer contains. Such stale
   entries are re-tuned and overwritten, not trusted. *)
let tune t ~kernel ~signature (candidates : (unit -> unit) candidate list) =
  if candidates = [] then invalid_arg "Tuner.tune: no candidates";
  let key = (kernel, signature) in
  match Hashtbl.find_opt t.cache key with
  | Some e when List.exists (fun c -> c.label = e.winner) candidates ->
    t.hit_count <- t.hit_count + 1;
    e.winner
  | Some _ | None ->
    t.tune_count <- t.tune_count + 1;
    let winner, time_s =
      pick (List.map (fun c -> (c.label, time_candidate t c)) candidates)
    in
    Hashtbl.replace t.cache key
      {
        kernel;
        signature;
        winner;
        time_s;
        candidates_tried = List.length candidates;
        tuned_at = Unix.gettimeofday ();
      };
    winner

let lookup t ~kernel ~signature = Hashtbl.find_opt t.cache (kernel, signature)
let entries t = Hashtbl.fold (fun _ e acc -> e :: acc) t.cache []
let tune_count t = t.tune_count
let hit_count t = t.hit_count

(* ---- persistence (QUDA's tunecache file) ---- *)

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Hashtbl.iter
        (fun _ e ->
          Printf.fprintf oc "%s\t%s\t%s\t%.9e\t%d\t%.3f\n" e.kernel e.signature
            e.winner e.time_s e.candidates_tried e.tuned_at)
        t.cache)

(* A line that does not parse is a corrupt cache, never a skipped
   entry: a silently dropped line would re-tune quietly, and a bad
   number must not surface as an anonymous [Failure]. *)
let load t path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go line =
        match input_line ic with
        | exception End_of_file -> ()
        | text ->
          let corrupt reason = raise (Corrupt { path; line; reason }) in
          let num what parse s =
            match parse s with
            | Some v -> v
            | None -> corrupt (Printf.sprintf "%s %S is not a number" what s)
          in
          (match String.split_on_char '\t' text with
          | [ kernel; signature; winner; time_s; tried; tuned_at ] ->
            Hashtbl.replace t.cache (kernel, signature)
              {
                kernel;
                signature;
                winner;
                time_s = num "time_s" float_of_string_opt time_s;
                candidates_tried = num "candidates_tried" int_of_string_opt tried;
                tuned_at = num "tuned_at" float_of_string_opt tuned_at;
              }
          | fields ->
            corrupt
              (Printf.sprintf "%d tab-separated fields, expected 6"
                 (List.length fields)));
          go (line + 1)
      in
      go 1)
