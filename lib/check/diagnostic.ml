(* The unified diagnostic currency of the checker: every pass (DAG
   verifier, halo race detector, numeric sanitizer, spec validator)
   reports findings as values of this one type, so the CLI driver,
   tests and CI alias can aggregate, render and gate on them
   uniformly. *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  rule : string;  (* stable rule id, e.g. "CAMP003" *)
  location : string;  (* artifact coordinates, e.g. "task 17", "rank 3 face x-" *)
  message : string;
  hint : string option;  (* how to fix it *)
}

let make ?hint severity ~rule ~loc message =
  { severity; rule; location = loc; message; hint }

let error ?hint ~rule ~loc message = make ?hint Error ~rule ~loc message
let warning ?hint ~rule ~loc message = make ?hint Warning ~rule ~loc message
let info ~rule ~loc message = make Info ~rule ~loc message

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let is_error d = d.severity = Error

let count_errors ds = List.length (List.filter is_error ds)
let count_warnings ds = List.length (List.filter (fun d -> d.severity = Warning) ds)
let has_errors ds = List.exists is_error ds

(* Errors first, then by rule id, stable within a rule. *)
let sort ds =
  List.stable_sort
    (fun a b ->
      match compare (severity_rank a.severity) (severity_rank b.severity) with
      | 0 -> compare a.rule b.rule
      | c -> c)
    ds

let to_string d =
  Printf.sprintf "%s[%s] %s: %s%s" (severity_label d.severity) d.rule d.location
    d.message
    (match d.hint with None -> "" | Some h -> " (hint: " ^ h ^ ")")

(* A named collection of pass results, as produced by Check.run_all. *)
type report = (string * t list) list

let report_errors (r : report) =
  List.fold_left (fun acc (_, ds) -> acc + count_errors ds) 0 r

let report_warnings (r : report) =
  List.fold_left (fun acc (_, ds) -> acc + count_warnings ds) 0 r

let summary (r : report) =
  let passes = List.length r in
  Printf.sprintf "%d pass%s, %d error%s, %d warning%s" passes
    (if passes = 1 then "" else "es")
    (report_errors r)
    (if report_errors r = 1 then "" else "s")
    (report_warnings r)
    (if report_warnings r = 1 then "" else "s")

let exit_code (r : report) = if report_errors r > 0 then 1 else 0

let print_report ?(verbose = false) (r : report) =
  List.iter
    (fun (pass, ds) ->
      let shown =
        if verbose then sort ds
        else sort (List.filter (fun d -> d.severity <> Info) ds)
      in
      Printf.printf "== %s: %d error%s, %d warning%s\n" pass
        (count_errors ds)
        (if count_errors ds = 1 then "" else "s")
        (count_warnings ds)
        (if count_warnings ds = 1 then "" else "s");
      List.iter (fun d -> Printf.printf "   %s\n" (to_string d)) shown)
    r;
  Printf.printf "%s\n" (summary r)
