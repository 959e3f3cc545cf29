(* xoshiro256** by Blackman & Vigna: fast, 2^256-1 period, and — unlike
   Stdlib.Random — stable across OCaml releases, so every test and bench
   in this repository is reproducible bit-for-bit from a seed. *)

(* The four state words live unboxed in 32 bytes: mutable [int64]
   record fields would box a fresh value on every step. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* splitmix64, used to expand a single seed into a full xoshiro state. *)
let splitmix64_next state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_seed seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  for w = 0 to 3 do
    set t (8 * w) (splitmix64_next state)
  done;
  t

let create seed = of_seed (Int64.of_int seed)

let[@inline] next_int64 t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 8 (Int64.logxor s1 s2);
  set t 0 (Int64.logxor s0 s3);
  set t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set t 24 (rotl s3 45);
  result

(* Derive an independent stream: hash the parent's next output through
   splitmix64 so parent and child sequences do not overlap in practice. *)
let split t = of_seed (next_int64 t)

let copy = Bytes.copy

let float t =
  (* 53 random bits into [0,1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let mask = Int64.of_int (bound - 1) in
  if bound land (bound - 1) = 0 then
    Int64.to_int (Int64.logand (next_int64 t) mask)
  else
    let rec loop () =
      let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 1) in
      let v = r mod bound in
      if r - v + (bound - 1) < 0 then loop () else v
    in
    loop ()

let gaussian t =
  (* Marsaglia polar method; no cached second value, to keep [copy]
     and [split] semantics trivial. *)
  let rec loop () =
    let x = uniform t ~lo:(-1.) ~hi:1. in
    let y = uniform t ~lo:(-1.) ~hi:1. in
    let s = (x *. x) +. (y *. y) in
    if s >= 1. || s = 0. then loop ()
    else x *. sqrt (-2. *. log s /. s)
  in
  loop ()

let gaussian_sigma t ~mu ~sigma = mu +. (sigma *. gaussian t)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let exponential t ~mean = -.mean *. log (1. -. float t)
