type span = { id : int; name : string; parent : int; start : float; stop : float }

let enabled = ref false
let recorded : span list ref = ref []  (* most recent first *)
let n_recorded = ref 0
let open_ids : int list ref = ref []
let next_id = ref 0

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start = Timing.now () in
    Fun.protect f ~finally:(fun () ->
        let stop = Timing.now () in
        open_ids := List.tl !open_ids;
        recorded := { id; name; parent; start; stop } :: !recorded;
        incr n_recorded)
  end

let mark () = !n_recorded

let since m =
  let rec take k acc = function
    | s :: rest when k > 0 -> take (k - 1) (s :: acc) rest
    | _ -> acc
  in
  take (!n_recorded - m) [] !recorded

let duration s = s.stop -. s.start
let named spans name = List.filter (fun s -> s.name = name) spans
let total spans name = List.fold_left (fun acc s -> acc +. duration s) 0. (named spans name)
let count spans name = List.length (named spans name)

let self_total spans name =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt children s.parent) ~default:0. in
      Hashtbl.replace children s.parent (prev +. duration s))
    spans;
  List.fold_left
    (fun acc s ->
      acc +. duration s -. Option.value (Hashtbl.find_opt children s.id) ~default:0.)
    0. (named spans name)

let coverage spans name =
  let t = total spans name in
  if t > 0. then 1. -. (self_total spans name /. t) else 0.

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f}\n"
        s.id s.name s.parent s.start s.stop)
    (List.rev !recorded);
  close_out oc

let reset () =
  recorded := [];
  n_recorded := 0;
  open_ids := [];
  next_id := 0
