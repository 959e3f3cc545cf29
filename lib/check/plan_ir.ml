(* Kernel-effect intermediate representation of a solve plan: the
   static artifact Plan_check verifies *without running a solve*. A
   plan is a vector length, a set of named buffers with storage
   precision tags (and optional abstract magnitude ranges for the
   precision-flow pass), and a step sequence — kernel launches with
   per-operand effects and half-codec quantize points. Plan_record
   builds it from a Util.Prof recording of live code (Cg.solve,
   Mixed.solve, Bicgstab.solve, Dwf_solve.solve, the Wilson/Mobius
   entries and the pooled Field/Fused launches); the printer/parser
   pair below is exact (round-trip asserted by a qcheck property), so
   plans can be dumped by `neutron_check --plan-dump` and diffed. *)

type precision =
  | Double
  | Single
  | Half of int  (* floats per codec block *)
  | Su3 of Linalg.Su3_codec.codec
      (* compressed gauge-link store (Lattice.Recon): reconstructed in
         registers at the point of use, never quantized *)

type role = Util.Prof.role = Read | Write | Update | Reduce
(* [Read]/[Write] are whole-buffer stream effects; [Update] is a
   read-modify-write; [Reduce] names the scalar a reduction kernel
   produces (a register/allreduce value, not a vector buffer). *)

type buffer = {
  bname : string;
  prec : precision;
  range : (float * float) option;
      (* abstract magnitude interval [lo, hi] of the data this buffer
         carries at plan entry — the seed of the precision-flow pass;
         [None] = unknown (the pass starts from the other buffers) *)
}

type kernel = {
  kname : string;
  args : (string * role) list;  (* operand name -> effect, call order *)
  geometry : (int * int) option;  (* pooled (domains, chunk); None = serial *)
  partition : (int * int) array option;
      (* explicit chunk partition when the launch hand-schedules one;
         [None] with a geometry means the canonical [Util.Pool.chunks] *)
  block : int option;  (* reduction block for Reduce-bearing kernels *)
  sweeps : int;
      (* full-vector memory sweeps this launch costs; 0 for kernels
         whose traffic the model prices elsewhere (the stencil) *)
}

type step =
  | Launch of kernel
  | Quantize of { qbuf : string; qblock : int }
      (* half-codec encode/decode point: the buffer's contents are
         forced through int16 mantissas against a float32 block norm *)

type plan = {
  pname : string;
  n : int;  (* vector length in floats *)
  fusion : bool option;
      (* when the plan is a CG BLAS-1 tail, the fusion mode
         [Machine.Perf_model.blas1_sweeps] prices it at — the
         consistency pass diffs the IR sweep count against the model;
         [None] = the plan is not model-priced *)
  buffers : buffer list;
  steps : step list;
}

(* ---- constructors ---- *)

let buffer ?range ~prec bname = { bname; prec; range }

let kernel ?geometry ?partition ?block ?(sweeps = 1) ~args kname =
  { kname; args; geometry; partition; block; sweeps }

let plan ?fusion ~n ~buffers ~steps pname =
  { pname; n; fusion; buffers; steps }

let find_buffer p name = List.find_opt (fun b -> b.bname = name) p.buffers

let launches p =
  List.filter_map (function Launch k -> Some k | _ -> None) p.steps

(* ---- printer (exact, parseable) ----
   One step per line; floats in hex (%h) so the round-trip is
   bit-exact. Names must match [a-zA-Z0-9_.+-]+ (no spaces, ':' or
   ','), which every recorded plan satisfies and the parser enforces. *)

let name_ok s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '.' || c = '+' || c = '-')
       s

let string_of_precision = function
  | Double -> "double"
  | Single -> "single"
  | Half b -> Printf.sprintf "half:%d" b
  | Su3 c -> Printf.sprintf "su3:%s" (Linalg.Su3_codec.name c)

let string_of_role = function
  | Read -> "read"
  | Write -> "write"
  | Update -> "update"
  | Reduce -> "reduce"

let string_of_kernel k =
  let b = Buffer.create 64 in
  Buffer.add_string b (Printf.sprintf "launch %s sweeps=%d" k.kname k.sweeps);
  (match k.block with
  | Some blk -> Buffer.add_string b (Printf.sprintf " block=%d" blk)
  | None -> ());
  (match k.geometry with
  | Some (d, c) -> Buffer.add_string b (Printf.sprintf " geom=d%d_c%d" d c)
  | None -> ());
  (match k.partition with
  | Some parts ->
    Buffer.add_string b " partition=";
    Buffer.add_string b
      (String.concat ","
         (Array.to_list
            (Array.map (fun (lo, hi) -> Printf.sprintf "%d-%d" lo hi) parts)))
  | None -> ());
  Buffer.add_string b " args=";
  Buffer.add_string b
    (String.concat ","
       (List.map
          (fun (name, role) -> name ^ ":" ^ string_of_role role)
          k.args));
  Buffer.contents b

let string_of_step = function
  | Launch k -> string_of_kernel k
  | Quantize { qbuf; qblock } ->
    Printf.sprintf "quantize %s block=%d" qbuf qblock

let to_string (p : plan) =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "plan %s n=%d" p.pname p.n);
  (match p.fusion with
  | Some fused ->
    Buffer.add_string b
      (Printf.sprintf " fusion=%s" (if fused then "fused" else "unfused"))
  | None -> ());
  Buffer.add_char b '\n';
  List.iter
    (fun bf ->
      Buffer.add_string b
        (Printf.sprintf "buffer %s %s" bf.bname (string_of_precision bf.prec));
      (match bf.range with
      | Some (lo, hi) -> Buffer.add_string b (Printf.sprintf " range=%h:%h" lo hi)
      | None -> ());
      Buffer.add_char b '\n')
    p.buffers;
  List.iter
    (fun s ->
      Buffer.add_string b (string_of_step s);
      Buffer.add_char b '\n')
    p.steps;
  Buffer.add_string b "end\n";
  Buffer.contents b

(* ---- parser ---- *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let parse_int what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail "%s: expected an integer, got %S" what s

let parse_float what s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail "%s: expected a float, got %S" what s

let parse_precision s =
  match String.split_on_char ':' s with
  | [ "double" ] -> Double
  | [ "single" ] -> Single
  | [ "half"; b ] -> Half (parse_int "half block" b)
  | [ "su3"; c ] -> (
    match Linalg.Su3_codec.of_name c with
    | Some codec -> Su3 codec
    | None -> fail "bad su3 codec %S" c)
  | _ -> fail "bad precision %S" s

let parse_role = function
  | "read" -> Read
  | "write" -> Write
  | "update" -> Update
  | "reduce" -> Reduce
  | s -> fail "bad role %S" s

(* "key=value" tokens after the positional head of a line. *)
let kv tok =
  match String.index_opt tok '=' with
  | Some i ->
    (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
  | None -> fail "expected key=value, got %S" tok

let parse_args s =
  if s = "" then []
  else
    List.map
      (fun pair ->
        match String.split_on_char ':' pair with
        | [ name; role ] when name_ok name -> (name, parse_role role)
        | _ -> fail "bad arg %S" pair)
      (String.split_on_char ',' s)

let parse_partition s =
  if s = "" then [||]
  else
    Array.of_list
      (List.map
         (fun pair ->
           match String.split_on_char '-' pair with
           | [ lo; hi ] ->
             (parse_int "partition lo" lo, parse_int "partition hi" hi)
           | _ -> fail "bad partition range %S" pair)
         (String.split_on_char ',' s))

let parse_geometry s =
  (* "d<domains>_c<chunk>" *)
  match String.split_on_char '_' s with
  | [ d; c ]
    when String.length d > 1 && d.[0] = 'd' && String.length c > 1
         && c.[0] = 'c' ->
    ( parse_int "geometry domains" (String.sub d 1 (String.length d - 1)),
      parse_int "geometry chunk" (String.sub c 1 (String.length c - 1)) )
  | _ -> fail "bad geometry %S" s

let parse_kernel = function
  | name :: rest when name_ok name ->
    let sweeps = ref 1 in
    let block = ref None and geometry = ref None in
    let partition = ref None and args = ref [] in
    List.iter
      (fun tok ->
        match kv tok with
        | "sweeps", v -> sweeps := parse_int "sweeps" v
        | "block", v -> block := Some (parse_int "block" v)
        | "geom", v -> geometry := Some (parse_geometry v)
        | "partition", v -> partition := Some (parse_partition v)
        | "args", v -> args := parse_args v
        | k, _ -> fail "unknown launch field %S" k)
      rest;
    {
      kname = name;
      args = !args;
      geometry = !geometry;
      partition = !partition;
      block = !block;
      sweeps = !sweeps;
    }
  | toks -> fail "bad launch line %S" (String.concat " " toks)

let split_ws line =
  List.filter (fun s -> s <> "") (String.split_on_char ' ' line)

let of_string s =
  try
    let lines =
      List.filter
        (fun l -> String.trim l <> "")
        (String.split_on_char '\n' s)
    in
    match lines with
    | [] -> Error "empty plan text"
    | head :: rest ->
      let pname, n, fusion =
        match split_ws head with
        | "plan" :: name :: fields when name_ok name ->
          let n = ref (-1) and fusion = ref None in
          List.iter
            (fun tok ->
              match kv tok with
              | "n", v -> n := parse_int "n" v
              | "fusion", v ->
                fusion :=
                  Some
                    (match v with
                    | "fused" -> true
                    | "unfused" -> false
                    | _ -> fail "bad fusion %S" v)
              | k, _ -> fail "unknown plan field %S" k)
            fields;
          if !n < 0 then fail "plan line missing n=";
          (name, !n, !fusion)
        | _ -> fail "expected 'plan <name> n=... ...', got %S" head
      in
      let buffers = ref [] and steps = ref [] in
      let ended = ref false in
      List.iter
        (fun line ->
          if !ended then fail "content after 'end'"
          else
            match split_ws line with
            | [ "end" ] -> ended := true
            | "buffer" :: name :: prec :: rest when name_ok name ->
              let range =
                match rest with
                | [] -> None
                | [ tok ] -> (
                  match kv tok with
                  | "range", v -> (
                    match String.split_on_char ':' v with
                    | [ lo; hi ] ->
                      Some (parse_float "range lo" lo, parse_float "range hi" hi)
                    | _ -> fail "bad range %S" v)
                  | k, _ -> fail "unknown buffer field %S" k)
                | _ -> fail "bad buffer line %S" line
              in
              buffers :=
                { bname = name; prec = parse_precision prec; range } :: !buffers
            | "launch" :: rest -> steps := Launch (parse_kernel rest) :: !steps
            | [ "quantize"; name; block ] when name_ok name -> (
              match kv block with
              | "block", v ->
                steps := Quantize { qbuf = name; qblock = parse_int "block" v } :: !steps
              | k, _ -> fail "unknown quantize field %S" k)
            | _ -> fail "unparseable line %S" line)
        rest;
      if not !ended then fail "missing 'end'";
      Ok
        {
          pname;
          n;
          fusion;
          buffers = List.rev !buffers;
          steps = List.rev !steps;
        }
  with Parse_error msg -> Error msg
