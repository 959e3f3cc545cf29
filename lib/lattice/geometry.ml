(* 4D periodic lattice geometry: lexicographic site indexing, neighbor
   tables, and even/odd (red-black) checkerboarding. Directions are
   mu = 0..3 for x, y, z, t. *)

type t = {
  dims : int array;
  volume : int;
  half_volume : int;
  fwd : int array;  (* fwd.(4*site + mu) = site of x + mu-hat *)
  bwd : int array;
  parity : int array;  (* 0 = even, 1 = odd *)
  eo_of_site : int array;  (* site -> index within its parity block *)
  site_of_eo : int array;  (* parity * half_volume + eo_index -> site *)
}

let n_dim = 4

let coords_of_site dims site =
  let c = Array.make n_dim 0 in
  let rem = ref site in
  for mu = 0 to n_dim - 1 do
    c.(mu) <- !rem mod dims.(mu);
    rem := !rem / dims.(mu)
  done;
  c

let site_of_coords dims c =
  let s = ref 0 in
  for mu = n_dim - 1 downto 0 do
    s := (!s * dims.(mu)) + (((c.(mu) mod dims.(mu)) + dims.(mu)) mod dims.(mu))
  done;
  !s

let create dims =
  if Array.length dims <> n_dim then invalid_arg "Geometry.create: need 4 dims";
  (* an odd extent's periodic wrap joins two sites of one parity, so
     the even/odd tables below would not be a checkerboard *)
  Array.iteri
    (fun mu d ->
      if d < 2 || d mod 2 <> 0 then
        invalid_arg
          (Printf.sprintf "Geometry.create: extent %d in dim %d must be even and >= 2"
             d mu))
    dims;
  let volume = Array.fold_left ( * ) 1 dims in
  let half_volume = volume / 2 in
  let fwd = Array.make (volume * n_dim) 0 in
  let bwd = Array.make (volume * n_dim) 0 in
  let parity = Array.make volume 0 in
  let eo_of_site = Array.make volume 0 in
  let site_of_eo = Array.make volume 0 in
  let counts = [| 0; 0 |] in
  for site = 0 to volume - 1 do
    let c = coords_of_site dims site in
    let p = (c.(0) + c.(1) + c.(2) + c.(3)) land 1 in
    parity.(site) <- p;
    eo_of_site.(site) <- counts.(p);
    site_of_eo.((p * half_volume) + counts.(p)) <- site;
    counts.(p) <- counts.(p) + 1;
    for mu = 0 to n_dim - 1 do
      let cf = Array.copy c in
      cf.(mu) <- cf.(mu) + 1;
      fwd.((site * n_dim) + mu) <- site_of_coords dims cf;
      let cb = Array.copy c in
      cb.(mu) <- cb.(mu) - 1;
      bwd.((site * n_dim) + mu) <- site_of_coords dims cb
    done
  done;
  { dims; volume; half_volume; fwd; bwd; parity; eo_of_site; site_of_eo }

let volume t = t.volume
let dims t = t.dims
let fwd_table t = t.fwd
let bwd_table t = t.bwd
let half_volume t = t.half_volume
let fwd t site mu = Array.unsafe_get t.fwd ((site * n_dim) + mu)
let bwd t site mu = Array.unsafe_get t.bwd ((site * n_dim) + mu)
let parity t site = t.parity.(site)
let coords t site = coords_of_site t.dims site
let site t c = site_of_coords t.dims c
let eo_index t site = t.eo_of_site.(site)
let site_of_eo t ~parity ~index = t.site_of_eo.((parity * t.half_volume) + index)

let time_extent t = t.dims.(3)
let spatial_volume t = t.dims.(0) * t.dims.(1) * t.dims.(2)

(* True when moving forward from [site] in direction [mu] wraps the
   lattice — used for fermion boundary phases. *)
let crosses_boundary_fwd t site mu =
  (coords t site).(mu) = t.dims.(mu) - 1

let iter_sites t f =
  for site = 0 to t.volume - 1 do
    f site
  done

let iter_parity t p f =
  for i = 0 to t.half_volume - 1 do
    f (site_of_eo t ~parity:p ~index:i)
  done
