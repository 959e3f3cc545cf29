(* Launch recorder. Only the domain that called [record] appends: a
   pool worker sees [on] but not ownership, so launches nested inside
   a pooled range never race on the event list. *)

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type role = Read | Write | Update | Reduce

type operand = {
  role : role;
  vec : vec option;
  rhs : int;
  range : (float * float) option;
}

type launch = {
  kernel : string;
  operands : operand list;
  n : int;
  geometry : (int * int) option;
  block : int option;
  sweeps : int;
}

module Halo = struct
  type stencil = Full | Interior | Boundary
  type op =
    | Scatter
    | Write of int list
    | Exchange of int array option
    | Post of int array option
    | Complete of int array option
    | Stencil of stencil
    | Stencil_faces of int array
end

type event = Launch of launch | Quantize of vec * int | Mark of int * float | Halo of Halo.op

let on = ref false
let owner = ref (Domain.self ())
let events : event list ref = ref []

let recording () = !on && Domain.self () = !owner
let push e = if recording () then events := e :: !events

let record f =
  let on0 = !on and owner0 = !owner and events0 = !events in
  on := true;
  owner := Domain.self ();
  events := [];
  Fun.protect
    ~finally:(fun () ->
      on := on0;
      owner := owner0;
      events := events0)
    (fun () ->
      let x = f () in
      (x, List.rev !events))

let operand role vec = { role; vec = Some vec; rhs = 0; range = None }
let read = operand Read
let write = operand Write
let update = operand Update
let reduce = { role = Reduce; vec = None; rhs = 0; range = None }

let batch k f =
  List.concat (List.init k (fun i -> List.map (fun o -> { o with rhs = i }) (f i)))

(* The aliasing rule, shared by the kernels' runtime check and
   PLAN002: each pair with a written member is tested once, the
   written one passed first. Every kernel call runs it, so it
   allocates only what it returns. *)
let writes = function Write | Update -> true | Read | Reduce -> false

let rec clashes role same o acc = function
  | [] -> acc
  | x :: rest ->
    let acc =
      if writes (role o) && same o x then o :: acc
      else if writes (role x) && same x o then x :: acc
      else acc
    in
    clashes role same o acc rest

let aliased role same ops =
  let rec pairs acc = function
    | [] -> List.rev acc
    | o :: rest -> pairs (clashes role same o acc rest) rest
  in
  pairs [] ops

(* Smallest nonzero and largest magnitude; (0, 0) for an all-zero
   vector. *)
let magnitudes (v : vec) =
  let lo = ref infinity and hi = ref 0. in
  for i = 0 to Bigarray.Array1.dim v - 1 do
    let a = abs_float (Bigarray.Array1.unsafe_get v i) in
    if a > 0. && a < !lo then lo := a;
    if a > !hi then hi := a
  done;
  if !hi = 0. then (0., 0.) else (!lo, !hi)

let with_range o =
  match (o.role, o.vec) with
  | (Read | Update), Some v -> { o with range = Some (magnitudes v) }
  | _ -> o

let launch ~kernel ~n ~geometry ~block ~sweeps operands =
  if recording () then
    events :=
      Launch
        { kernel; operands = List.map with_range operands; n; geometry; block; sweeps }
      :: !events

let quantize v ~block = push (Quantize (v, block))
let mark ~rhs r2 = push (Mark (rhs, r2))
let halo op = push (Halo op)
