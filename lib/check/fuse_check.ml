(* Static checker for fused BLAS-1 kernel plans (Linalg.Fused). A
   fused launch is summarized as a [plan] — which fused kernel, the
   vector length, the reduction block its single-pass term accumulates
   over, the pool geometry it will run on, the operand roles — and the
   pass verifies the contract the fused≡unfused bit-identity rests on:

   FUSE001  the fused reduction accumulates over a block size other
            than the canonical Field.reduce_block: partials associate
            differently from the standalone norm2/dot_re, so the fused
            result silently diverges from the unfused one in the last
            bits — exactly the drift the fusion layer promises away
   FUSE002  an output (read-modify-write) operand aliases an operand
            of a different role: a fused kernel caches operands in
            registers across the update+reduce pass, so the aliased
            reader observes half-updated data (the host fallback
            happens to agree element-wise; an accelerator build does
            not) *)

type role = Read | Update

type plan = {
  kernel : string;  (* fused kernel name, e.g. "cg_update" *)
  n : int;  (* vector length in floats *)
  block : int;  (* reduction block the fused term accumulates over *)
  geometry : (int * int) option;  (* (domains, chunk); None = serial *)
  buffers : (string * role) list;  (* operand name -> role *)
}

let rules =
  [
    ( "FUSE001",
      "fused reduction block diverges from the canonical unfused association" );
    ("FUSE002", "output operand of a fused kernel aliases a different role");
  ]

let plan ?geometry ~kernel ~n ~block ~buffers () =
  { kernel; n; block; geometry; buffers }

let geom_str = function
  | None -> "serial"
  | Some (d, c) -> Printf.sprintf "d%d_c%d" d c

let loc p =
  Printf.sprintf "%s[n=%d,block=%d,%s]" p.kernel p.n p.block
    (geom_str p.geometry)

let check_association p =
  if p.block <> Linalg.Field.reduce_block then
    [
      Diagnostic.error ~rule:"FUSE001" ~loc:(loc p)
        ~hint:
          (Printf.sprintf
             "fold through Field.block_fold with ~block:Field.reduce_block \
              (%d floats) — the association of the standalone reductions"
             Linalg.Field.reduce_block)
        (Printf.sprintf
           "fused reduction accumulates %d-float blocks where the unfused \
            kernels accumulate %d: partials associate differently and the \
            fused result is not bit-identical to the unfused sequence"
           p.block Linalg.Field.reduce_block);
    ]
  else []

(* An Update operand must not share a buffer with any *other* operand
   position: another reader sees half-updated data mid-pass, a second
   writer races it. Read/Read repetition is fine (and load-bearing:
   xpay_dot's p·r monitor passes r as both x and q). *)
let check_aliasing p =
  let arr = Array.of_list p.buffers in
  let ds = ref [] in
  Array.iteri
    (fun i (name_i, role_i) ->
      if role_i = Update then
        Array.iteri
          (fun j (name_j, role_j) ->
            if j > i && name_i = name_j then
              let what =
                if role_j = Update then "a second output operand"
                else "a read operand"
              in
              ds :=
                Diagnostic.error ~rule:"FUSE002" ~loc:(loc p)
                  ~hint:
                    "give the fused kernel distinct buffers per role; the \
                     runtime guard (Invalid_argument) only catches physical \
                     equality"
                  (Printf.sprintf
                     "output operand %S aliases %s: the fused single pass \
                      updates it while the other role still reads or writes \
                      it"
                     name_i what)
                :: !ds)
          arr)
    arr;
  (* symmetric case: a later Update aliasing an earlier Read *)
  Array.iteri
    (fun i (name_i, role_i) ->
      if role_i = Read then
        Array.iteri
          (fun j (name_j, role_j) ->
            if j > i && role_j = Update && name_i = name_j then
              ds :=
                Diagnostic.error ~rule:"FUSE002" ~loc:(loc p)
                  ~hint:
                    "give the fused kernel distinct buffers per role; the \
                     runtime guard (Invalid_argument) only catches physical \
                     equality"
                  (Printf.sprintf
                     "output operand %S aliases a read operand: the fused \
                      single pass updates it while the other role still \
                      reads it"
                     name_j)
                :: !ds)
          arr)
    arr;
  List.rev !ds

let verify_plan p = check_association p @ check_aliasing p
let verify_plans ps = List.concat_map verify_plan ps
