(* Domain decomposition of a 4D lattice over a process grid: the index
   machinery behind the virtual-rank halo exchange. Each rank owns a
   subgrid; neighbor tables point boundary hops into per-face ghost
   regions that the exchange fills. Works for grid extent 1 in a
   direction (self-exchange), so the same code path always runs. *)

type face = {
  mu : int;
  dir : int;  (* 0 = forward face, 1 = backward face *)
  send_sites : int array;  (* local sites whose data leaves through this face *)
  ghost_base : int;  (* first ext index of ghosts received through this face *)
  neighbor : int;  (* rank on the other side *)
}

type rank_geometry = {
  rank : int;
  coords : int array;  (* position in process grid *)
  local_dims : int array;
  local_volume : int;
  ext_volume : int;  (* local + ghost slots *)
  fwd : int array;  (* local_site*4 + mu -> ext index *)
  bwd : int array;
  local_to_global : int array;  (* ext index -> global site *)
  global_offset : int array;  (* origin of this subgrid in global coords *)
  faces : face array;  (* 8 faces, ordered (mu, dir) lex *)
  interior_sites : int array;  (* no hop reaches a ghost slot *)
  boundary_sites : int array;  (* some hop reaches a ghost slot *)
}

type t = {
  global : Geometry.t;
  grid : int array;
  n_ranks : int;
  ranks : rank_geometry array;
  rank_of_site : int array;  (* global site -> owning rank *)
}

let n_dim = Geometry.n_dim

let rank_of_grid_coords grid c =
  let r = ref 0 in
  for mu = n_dim - 1 downto 0 do
    r := (!r * grid.(mu)) + (((c.(mu) mod grid.(mu)) + grid.(mu)) mod grid.(mu))
  done;
  !r

let grid_coords_of_rank grid rank =
  let c = Array.make n_dim 0 in
  let rem = ref rank in
  for mu = 0 to n_dim - 1 do
    c.(mu) <- !rem mod grid.(mu);
    rem := !rem / grid.(mu)
  done;
  c

(* Lexicographic index of a local coordinate vector within dims. *)
let local_site_of_coords dims c =
  let s = ref 0 in
  for mu = n_dim - 1 downto 0 do
    s := (!s * dims.(mu)) + c.(mu)
  done;
  !s

let local_coords_of_site dims s =
  let c = Array.make n_dim 0 in
  let rem = ref s in
  for mu = 0 to n_dim - 1 do
    c.(mu) <- !rem mod dims.(mu);
    rem := !rem / dims.(mu)
  done;
  c

(* Enumerate the face slice {x | x_mu = fixed} in lexicographic order of
   the transverse coordinates — both sides of an exchange agree on it. *)
let face_sites dims ~mu ~fixed =
  let t_dims = Array.init (n_dim - 1) (fun i -> dims.(if i < mu then i else i + 1)) in
  let n = Array.fold_left ( * ) 1 t_dims in
  Array.init n (fun idx ->
      let c = Array.make n_dim 0 in
      let rem = ref idx in
      for i = 0 to n_dim - 2 do
        let d = if i < mu then i else i + 1 in
        c.(d) <- !rem mod dims.(d);
        rem := !rem / dims.(d)
      done;
      c.(mu) <- fixed;
      local_site_of_coords dims c)

let create global grid =
  if Array.length grid <> n_dim then invalid_arg "Domain.create: grid must be 4d";
  let gdims = Geometry.dims global in
  Array.iteri
    (fun mu p ->
      if p < 1 then invalid_arg "Domain.create: grid extents must be >= 1";
      if gdims.(mu) mod p <> 0 then
        invalid_arg "Domain.create: grid must divide lattice dims")
    grid;
  let n_ranks = Array.fold_left ( * ) 1 grid in
  let local_dims = Array.init n_dim (fun mu -> gdims.(mu) / grid.(mu)) in
  let local_volume = Array.fold_left ( * ) 1 local_dims in
  let rank_of_site = Array.make (Geometry.volume global) 0 in
  let make_rank rank =
    let coords = grid_coords_of_rank grid rank in
    let global_offset = Array.init n_dim (fun mu -> coords.(mu) * local_dims.(mu)) in
    (* Ghost layout: faces in (mu, dir) order after the local block. *)
    let face_size mu = local_volume / local_dims.(mu) in
    let ghost_bases = Array.make (2 * n_dim) 0 in
    let total = ref local_volume in
    for mu = 0 to n_dim - 1 do
      for dir = 0 to 1 do
        ghost_bases.((2 * mu) + dir) <- !total;
        total := !total + face_size mu
      done
    done;
    let ext_volume = !total in
    let local_to_global = Array.make ext_volume 0 in
    for s = 0 to local_volume - 1 do
      let c = local_coords_of_site local_dims s in
      let gc = Array.init n_dim (fun mu -> global_offset.(mu) + c.(mu)) in
      let gsite = Geometry.site global gc in
      local_to_global.(s) <- gsite;
      rank_of_site.(gsite) <- rank
    done;
    (* Face position of a boundary site: index within the face slice. *)
    let face_pos mu s =
      let c = local_coords_of_site local_dims s in
      let idx = ref 0 in
      for i = n_dim - 2 downto 0 do
        let d = if i < mu then i else i + 1 in
        idx := (!idx * local_dims.(d)) + c.(d)
      done;
      !idx
    in
    let fwd = Array.make (local_volume * n_dim) 0 in
    let bwd = Array.make (local_volume * n_dim) 0 in
    for s = 0 to local_volume - 1 do
      let c = local_coords_of_site local_dims s in
      for mu = 0 to n_dim - 1 do
        (if c.(mu) = local_dims.(mu) - 1 then
           fwd.((s * n_dim) + mu) <- ghost_bases.(2 * mu) + face_pos mu s
         else begin
           let cf = Array.copy c in
           cf.(mu) <- cf.(mu) + 1;
           fwd.((s * n_dim) + mu) <- local_site_of_coords local_dims cf
         end);
        if c.(mu) = 0 then
          bwd.((s * n_dim) + mu) <- ghost_bases.((2 * mu) + 1) + face_pos mu s
        else begin
          let cb = Array.copy c in
          cb.(mu) <- cb.(mu) - 1;
          bwd.((s * n_dim) + mu) <- local_site_of_coords local_dims cb
        end
      done
    done;
    (* Global sites of ghost slots, for gauge gathering and testing. *)
    for mu = 0 to n_dim - 1 do
      let fsites = face_sites local_dims ~mu ~fixed:(local_dims.(mu) - 1) in
      Array.iteri
        (fun i s ->
          let g = local_to_global.(s) in
          local_to_global.(ghost_bases.(2 * mu) + i) <- Geometry.fwd global g mu)
        fsites;
      let bsites = face_sites local_dims ~mu ~fixed:0 in
      Array.iteri
        (fun i s ->
          let g = local_to_global.(s) in
          local_to_global.(ghost_bases.((2 * mu) + 1) + i) <- Geometry.bwd global g mu)
        bsites
    done;
    let neighbor_rank mu step =
      let c = Array.copy coords in
      c.(mu) <- c.(mu) + step;
      rank_of_grid_coords grid c
    in
    let faces =
      Array.init (2 * n_dim) (fun f ->
          let mu = f / 2 and dir = f mod 2 in
          let send_sites =
            (* Forward face sends the last slice (to the fwd neighbor),
               backward face sends slice 0 (to the bwd neighbor). *)
            if dir = 0 then face_sites local_dims ~mu ~fixed:(local_dims.(mu) - 1)
            else face_sites local_dims ~mu ~fixed:0
          in
          {
            mu;
            dir;
            send_sites;
            ghost_base = ghost_bases.(f);
            neighbor = (if dir = 0 then neighbor_rank mu 1 else neighbor_rank mu (-1));
          })
    in
    let is_boundary s =
      let c = local_coords_of_site local_dims s in
      let b = ref false in
      for mu = 0 to n_dim - 1 do
        if c.(mu) = 0 || c.(mu) = local_dims.(mu) - 1 then b := true
      done;
      !b
    in
    let interior = ref [] and boundary = ref [] in
    for s = local_volume - 1 downto 0 do
      if is_boundary s then boundary := s :: !boundary
      else interior := s :: !interior
    done;
    {
      rank;
      coords;
      local_dims;
      local_volume;
      ext_volume;
      fwd;
      bwd;
      local_to_global;
      global_offset;
      faces;
      interior_sites = Array.of_list !interior;
      boundary_sites = Array.of_list !boundary;
    }
  in
  let ranks = Array.init n_ranks make_rank in
  { global; grid; n_ranks; ranks; rank_of_site }

let global t = t.global
let grid t = t.grid
let n_ranks t = t.n_ranks
let rank_geometry t r = t.ranks.(r)
let owner t gsite = t.rank_of_site.(gsite)

let fwd rg s mu = Array.unsafe_get rg.fwd ((s * n_dim) + mu)
let bwd rg s mu = Array.unsafe_get rg.bwd ((s * n_dim) + mu)

(* Count of halo sites one exchange moves, per rank (all 8 faces). *)
let halo_sites rg =
  Array.fold_left (fun acc f -> acc + Array.length f.send_sites) 0 rg.faces

let check_length name ~len (f : Linalg.Field.t) =
  if Linalg.Field.length f <> len then
    invalid_arg
      (Printf.sprintf "%s: field of %d floats, expected %d" name
         (Linalg.Field.length f) len)

(* Scatter a global field (dof floats per site) into a rank-local array
   covering local sites only. *)
let scatter_field t ~dof (global_field : Linalg.Field.t) r : Linalg.Field.t =
  check_length "Domain.scatter_field" ~len:(Geometry.volume t.global * dof)
    global_field;
  let rg = t.ranks.(r) in
  let local = Linalg.Field.create (rg.local_volume * dof) in
  for s = 0 to rg.local_volume - 1 do
    let g = rg.local_to_global.(s) in
    for d = 0 to dof - 1 do
      Bigarray.Array1.unsafe_set local ((s * dof) + d)
        (Bigarray.Array1.unsafe_get global_field ((g * dof) + d))
    done
  done;
  local

(* Gather rank-local arrays (local sites only, ghosts ignored) back
   into a global field. *)
let gather_field t ~dof (locals : Linalg.Field.t array) : Linalg.Field.t =
  let out = Linalg.Field.create (Geometry.volume t.global * dof) in
  Array.iteri
    (fun r local ->
      let rg = t.ranks.(r) in
      check_length "Domain.gather_field" ~len:(rg.local_volume * dof) local;
      for s = 0 to rg.local_volume - 1 do
        let g = rg.local_to_global.(s) in
        for d = 0 to dof - 1 do
          Bigarray.Array1.unsafe_set out ((g * dof) + d)
            (Bigarray.Array1.unsafe_get local ((s * dof) + d))
        done
      done)
    locals;
  out

(* Rank-local gauge copy over the extended (local + ghost) volume; the
   gauge field is read-only during a solve, so ghosts are filled once
   here rather than exchanged each iteration. *)
let gather_gauge t (gauge : Gauge.t) r : Linalg.Field.t =
  if Geometry.dims (Gauge.geom gauge) <> Geometry.dims t.global then
    invalid_arg "Domain.gather_gauge: gauge field on a different lattice";
  let rg = t.ranks.(r) in
  let data = Linalg.Field.create (rg.ext_volume * n_dim * Gauge.link_floats) in
  for s = 0 to rg.ext_volume - 1 do
    let g = rg.local_to_global.(s) in
    for mu = 0 to n_dim - 1 do
      let link = Gauge.get gauge g mu in
      let b = ((s * n_dim) + mu) * Gauge.link_floats in
      for k = 0 to Gauge.link_floats - 1 do
        Bigarray.Array1.unsafe_set data (b + k) link.(k)
      done
    done
  done;
  data
