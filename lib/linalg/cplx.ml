(* Complex numbers as unboxed (re, im) float pairs. The stdlib Complex
   module boxes a record per value; in the hot kernels we instead pass
   the two components explicitly, and this module exists for the
   non-critical call sites (tests, analysis, contractions). *)

type t = { re : float; im : float }

let make re im = { re; im }
let zero = { re = 0.; im = 0. }
let one = { re = 1.; im = 0. }
let i = { re = 0.; im = 1. }
let re t = t.re
let im t = t.im
let add a b = { re = a.re +. b.re; im = a.im +. b.im }
let sub a b = { re = a.re -. b.re; im = a.im -. b.im }
let neg a = { re = -.a.re; im = -.a.im }
let conj a = { re = a.re; im = -.a.im }

let mul a b =
  { re = (a.re *. b.re) -. (a.im *. b.im); im = (a.re *. b.im) +. (a.im *. b.re) }

let scale s a = { re = s *. a.re; im = s *. a.im }
let norm2 a = (a.re *. a.re) +. (a.im *. a.im)
let abs a = sqrt (norm2 a)

let div a b =
  let d = norm2 b in
  if d = 0. then invalid_arg "Cplx.div: divide by zero";
  { re = ((a.re *. b.re) +. (a.im *. b.im)) /. d;
    im = ((a.im *. b.re) -. (a.re *. b.im)) /. d }

let inv a = div one a
let exp_i theta = { re = cos theta; im = sin theta }
let equal ?(eps = 1e-12) a b = abs (sub a b) <= eps
let pp ppf a = Format.fprintf ppf "(%g%+gi)" a.re a.im
