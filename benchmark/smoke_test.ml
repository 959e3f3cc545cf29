(* Every workload at toy sizes, untraced then traced, checked against
   the metric names and units BENCHMARK.json declares: each is emitted
   with its unit and a finite value, no gate fails, the traced solve
   reproduces the untraced one bitwise, and the spans cover the timed
   units. *)

open Neutron_bench

(* Just enough JSON to read BENCHMARK.json. *)
type json = Obj of (string * json) list | Arr of json list | Str of string | Other

let parse text =
  let pos = ref 0 in
  let peek () = text.[!pos] in
  let rec skip () =
    if !pos < String.length text && String.contains " \t\r\n" (peek ()) then begin
      incr pos;
      skip ()
    end
  in
  let expect c =
    skip ();
    if peek () <> c then failwith (Printf.sprintf "BENCHMARK.json: expected %c at %d" c !pos);
    incr pos
  in
  let string () =
    expect '"';
    let start = !pos in
    while peek () <> '"' do
      if peek () = '\\' then incr pos;
      incr pos
    done;
    incr pos;
    String.sub text start (!pos - start - 1)
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' -> Obj (items '}' (fun () -> let k = string () in expect ':'; (k, value ())))
    | '[' -> Arr (items ']' value)
    | '"' -> Str (string ())
    | _ ->
      while !pos < String.length text && not (String.contains ",]} \t\r\n" (peek ())) do
        incr pos
      done;
      Other
  and items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    incr pos;
    skip ();
    if peek () = close then begin
      incr pos;
      []
    end
    else
      let first = item () in
      let rest = ref [ first ] in
      skip ();
      while peek () = ',' do
        incr pos;
        rest := item () :: !rest;
        skip ()
      done;
      expect close;
      List.rev !rest
  in
  value ()

let field k = function Obj kv -> List.assoc k kv | _ -> failwith ("BENCHMARK.json: no " ^ k)
let str = function Str s -> s | _ -> failwith "BENCHMARK.json: expected a string"
let list = function Arr l -> l | _ -> failwith "BENCHMARK.json: expected an array"

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let () =
  let spec = parse (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all) in
  let metrics key = List.map (fun m -> (str (field "name" m), str (field "unit" m))) (list (field key spec)) in
  let end_to_end = metrics "end_to_end" and per_layer = metrics "per_layer" in
  check "workload names"
    (List.map (fun w -> str (field "name" w)) (list (field "workloads" spec)) = Workloads.names);
  let t0 = Timing.now () in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let what = Printf.sprintf "%s (trace %b)" workload trace in
          let r =
            Workloads.run Workloads.toy ~workload ~seed:7 ~seconds:0. ~trace ~out_dir:"smoke_out"
          in
          check (what ^ ": fail_frac = 0") (r.Workloads.failed = 0 && r.Workloads.attempted > 0);
          List.iter
            (fun (name, unit) ->
              match List.find_opt (fun (n, _, _) -> n = name) r.Workloads.metrics with
              | Some (_, v, u) ->
                check (Printf.sprintf "%s: %s unit %s" what name unit) (u = unit);
                check (Printf.sprintf "%s: %s finite" what name) (Float.is_finite v)
              | None -> check (Printf.sprintf "%s: %s emitted" what name) false)
            (if trace then per_layer else end_to_end);
          check (what ^ ": only the declared metrics")
            (List.length r.Workloads.metrics = List.length (if trace then per_layer else end_to_end));
          let value name =
            match List.find_opt (fun (n, _, _) -> n = name) r.Workloads.metrics with
            | Some (_, v, _) -> v
            | None -> nan
          in
          if trace then begin
            check (what ^ ": trace.solve_match = 1") (value "trace.solve_match" = 1.);
            if workload <> "dd_halo" then
              check
                (Printf.sprintf "%s: trace.coverage %.4f >= 0.95" what (value "trace.coverage"))
                (value "trace.coverage" >= 0.95)
          end
          else check (what ^ ": best_unit_s > 0") (value "best_unit_s" > 0.))
        [ false; true ])
    Workloads.names;
  Printf.printf "smoke_test: %.1f s\n" (Timing.now () -. t0);
  if !failures > 0 then exit 1;
  print_endline "smoke_test: ok"
