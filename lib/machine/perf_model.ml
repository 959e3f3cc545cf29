(* Analytic performance model for the mixed-precision red-black CG on
   a GPU machine. Reproduces the scaling studies of Figs. 3-7.

   Calibration policy (see DESIGN.md): inputs are Table II specs plus
   the paper's own achieved-bandwidth statement (139/516/975 GB/s per
   GPU at the point of peak efficiency) and its flop conventions
   (10-12 kflop per 5D site, arithmetic intensity 1.9, 1.675x
   percent-of-peak scaling). The scaling curves themselves are model
   OUTPUT, checked against the figures in EXPERIMENTS.md.

   Model components per stencil application:
     t_stencil  local 5D sites x bytes/site / bw(local volume)
                with bw saturating at small volumes (GPU occupancy)
     t_comm     halo bytes split intra-node (NVLink) / inter-node
                (policy path x network contention) + message latency
     t_overhead kernel launches + allreduce latency (log2 tree)
   combined with or without communication/compute overlap according to
   the communication policy's granularity. *)

type problem = { dims : int array; l5 : int }

let problem ~dims ~l5 = { dims; l5 }
let sites_4d p = Array.fold_left ( * ) 1 p.dims

(* The paper's conventional units. *)
let flops_per_site = Dirac.Flops.paper_stencil_per_5d_site
let bytes_per_site = Dirac.Flops.paper_bytes_per_5d_site
let peak_scaling = Dirac.Flops.paper_peak_scaling
let arithmetic_intensity = Dirac.Flops.paper_arithmetic_intensity

(* Halo payload per 5D face site: a spin-projected half spinor in half
   precision (12 reals x 2 bytes) — the paper's compressed wire, baked
   into the calibration. *)
let halo_bytes_per_face_site = 24.

(* The same face site shipped uncompressed: 12 double-precision reals.
   What a halo exchange pays when the compression knob is explicitly
   off (Vrank.Comm without [~compress]). *)
let halo_bytes_per_face_site_double = 96.

(* Codec passes the compressed wire costs at GPU memory bandwidth:
   encode on the send side + decode on the receive side, each
   streaming the double-precision face once. *)
let compress_codec_passes = 2.

(* Reference local volume at which the calibration bandwidths were
   measured: 48^3 x 64 x 20 on 16 GPUs (the paper's production group). *)
let reference_local_sites = 48. *. 48. *. 48. *. 64. *. 20. /. 16.

(* Occupancy saturation: solver bandwidth scales with local volume as
   v / (v + sat), normalized to the calibration point. *)
let solver_bw m ~local_sites =
  let gpu = m.Spec.gpu in
  let sat = gpu.Spec.sat_sites in
  let shape v = v /. (v +. sat) in
  gpu.Spec.solver_bw_gbs *. 1e9 *. shape local_sites /. shape reference_local_sites

(* ---- process-grid selection ---- *)

let divisors n =
  let rec loop d acc = if d > n then acc else if n mod d = 0 then loop (d + 1) (d :: acc) else loop (d + 1) acc in
  loop 1 []

(* All ways to factor n into 4 ordered factors with each factor
   dividing the corresponding lattice extent. *)
let grids p n_gpus =
  let fits mu g = p.dims.(mu) mod g = 0 && g <= p.dims.(mu) in
  List.concat_map
    (fun g0 ->
      if not (fits 0 g0) then []
      else
        List.concat_map
          (fun g1 ->
            if not (fits 1 g1) || n_gpus mod (g0 * g1) <> 0 then []
            else
              List.concat_map
                (fun g2 ->
                  if not (fits 2 g2) || n_gpus mod (g0 * g1 * g2) <> 0 then []
                  else
                    let g3 = n_gpus / (g0 * g1 * g2) in
                    if fits 3 g3 then [ [| g0; g1; g2; g3 |] ] else [])
                (divisors (n_gpus / (g0 * g1))))
          (divisors (n_gpus / g0)))
    (divisors n_gpus)

(* Surface (4D face sites, both directions, decomposed dims only). *)
let surface_sites p grid =
  let local = Array.init 4 (fun mu -> p.dims.(mu) / grid.(mu)) in
  let v = Array.fold_left ( * ) 1 local in
  let acc = ref 0 in
  for mu = 0 to 3 do
    if grid.(mu) > 1 then acc := !acc + (2 * v / local.(mu))
  done;
  !acc

let best_grid p n_gpus =
  match grids p n_gpus with
  | [] -> None
  | gs ->
    Some
      (List.fold_left
         (fun best g -> if surface_sites p g < surface_sites p best then g else best)
         (List.hd gs) gs)

(* Node-internal subgrid: absorb gpus_per_node into the dims with the
   largest faces so the most traffic stays on NVLink. Greedy by factors
   of 2 (node GPU counts are 1, 4 or 6 — treat 6 as 2x3). *)
let node_subgrid (m : Spec.t) p grid =
  let local = Array.init 4 (fun mu -> p.dims.(mu) / grid.(mu)) in
  let v = Array.fold_left ( * ) 1 local in
  let nsub = Array.make 4 1 in
  let remaining = ref m.Spec.gpus_per_node in
  let factors = ref [] in
  let n = ref !remaining in
  let d = ref 2 in
  while !n > 1 do
    if !n mod !d = 0 then begin
      factors := !d :: !factors;
      n := !n / !d
    end
    else incr d
  done;
  List.iter
    (fun f ->
      (* dim with the largest face still having room in the grid *)
      let best = ref (-1) in
      for mu = 0 to 3 do
        if grid.(mu) / nsub.(mu) >= f then
          if !best < 0 || v / local.(mu) > v / local.(!best) then best := mu
      done;
      if !best >= 0 then nsub.(!best) <- nsub.(!best) * f)
    (List.sort compare !factors);
  ignore !remaining;
  nsub

(* Half-precision storage bytes of one full vector sweep per 5D site:
   24 reals x 2 bytes (the inner solver's working precision, where the
   BLAS-1 tail lives). *)
let blas1_bytes_per_site_sweep = 48.

(* Full-vector memory sweeps of the CG BLAS-1 tail per iteration.
   Unfused: axpy x, axpy r, norm2 r, xpay p, dot_re p.Ap = 5.
   Fused: cg_update (x,r,|r|2 in one pass) + xpay_dot = 2 — the p.Ap
   reduction rides the stencil tail (QUDA fuses the slash with its
   dot), so its sweep is accounted to the stencil, not here, in both
   columns. *)
let blas1_sweeps ~fused = if fused then 2. else 5.

(* ---- multi-RHS stencil traffic ----
   One double-precision Wilson hop moves, per site: the 8 neighbour
   gauge links (8 x 18 reals) and the spinor stream (8 projected
   neighbour spinors re-counted as the 9-spinor read side plus the
   result write, 9x24 + 24 reals) — together the per-hop half of
   Dirac.Flops.actual_bytes_per_5d_site_double. Batching k right-hand
   sides through Wilson.hop_multi loads each gauge element once for
   the whole batch while the spinor stream stays per-vector, so the
   per-site-per-RHS bytes drop by link/k — the amortization the
   @multirhs exact-formula tests pin. *)
let link_bytes_per_site = float_of_int (8 * 18 * 8)
let spinor_bytes_per_site = float_of_int (((9 * 24) + 24) * 8)

(* Compressed gauge links (Linalg.Su3_codec / Lattice.Recon): the hop
   streams [reals] floats per link instead of 18 and reconstructs the
   rest in registers — 1152 drops to 768 (Recon12) / 512 (Recon8)
   bytes per site, at reconstruction flops the bandwidth-bound stencil
   hides. The per-link sign byte is negligible and excluded, matching
   Lattice.Recon's own accounting. *)
let link_bytes_per_site_recon ~recon =
  float_of_int (8 * Linalg.Su3_codec.reals recon * 8)

let mrhs_bytes_per_site ~k =
  if k < 1 then invalid_arg "Perf_model.mrhs_bytes_per_site: k must be >= 1";
  spinor_bytes_per_site +. (link_bytes_per_site /. float_of_int k)

let mrhs_traffic_ratio ~k =
  mrhs_bytes_per_site ~k /. mrhs_bytes_per_site ~k:1

(* The codec axis composed with the batch-width axis: a width-k hop on
   a recon-[r] store streams [spinor + link(r)/k] bytes per site per
   RHS. [recon = Full18, k = 1] recovers mrhs_bytes_per_site ~k:1. *)
let mrhs_bytes_per_site_recon ~recon ~k =
  if k < 1 then
    invalid_arg "Perf_model.mrhs_bytes_per_site_recon: k must be >= 1";
  spinor_bytes_per_site +. (link_bytes_per_site_recon ~recon /. float_of_int k)

let recon_traffic_ratio ~recon ~k =
  mrhs_bytes_per_site_recon ~recon ~k /. mrhs_bytes_per_site ~k:1

(* ---- low-mode deflation pricing (Solver.Lanczos / Solver.Deflate) ----
   The deflation axis trades a one-off eigenspace setup per gauge
   configuration against a per-solve iteration reduction on every one
   of the campaign's correlated solves (24 = 12 spin-color columns × 2
   sources in the paper's workflow). The functions price the three
   legs separately — setup cost, amortization, predicted reduction —
   so a caller can report the break-even solve count honestly. *)

(* Operator applications of a thick-restart Lanczos build: the first
   cycle fills the whole working basis of [basis] vectors; each of the
   [restarts] later cycles keeps the [rank] Ritz vectors (and their
   stored operator images — the thick restart) and refills only the
   remaining basis − rank slots. *)
let deflation_setup_applies ~rank ~basis ~restarts =
  if rank < 1 then invalid_arg "Perf_model.deflation_setup_applies: rank >= 1";
  if basis <= rank then
    invalid_arg "Perf_model.deflation_setup_applies: basis must exceed rank";
  if restarts < 0 then
    invalid_arg "Perf_model.deflation_setup_applies: restarts >= 0";
  basis + (restarts * (basis - rank))

(* Setup flops over vectors of [n] floats: the stencil applications
   (priced by the caller's flops_per_apply), full reorthogonalization
   (two classical Gram-Schmidt passes of dot + axpy, 2n flops each,
   against up to [basis] vectors per filled slot), and the basis²
   projection dots (2n each) of the Rayleigh–Ritz step per cycle. *)
let deflation_setup_flops ~rank ~basis ~restarts ~n ~flops_per_apply =
  let applies =
    float_of_int (deflation_setup_applies ~rank ~basis ~restarts)
  in
  let nf = float_of_int n in
  (applies *. flops_per_apply)
  +. (applies *. 8. *. nf *. float_of_int basis)
  +. (float_of_int (restarts + 1) *. float_of_int (basis * basis) *. 2. *. nf)

(* Per-application cost of the deflated guess itself: rank dots (2n
   each) plus the single rank-wide Multi_blas.block_axpy combination
   (2n per basis vector, one sweep over memory). *)
let deflation_guess_flops ~rank ~n =
  if rank < 1 then invalid_arg "Perf_model.deflation_guess_flops: rank >= 1";
  4. *. float_of_int rank *. float_of_int n

let deflation_amortized_flops ~setup_flops ~solves =
  if solves < 1 then
    invalid_arg "Perf_model.deflation_amortized_flops: solves >= 1";
  setup_flops /. float_of_int solves

(* Condition number after deflating every mode below [lambda_cut]
   (the (rank+1)-th eigenvalue): the Ritz-compressed spectrum CG
   actually sees. *)
let deflated_condition ~lambda_max ~lambda_cut =
  if not (lambda_max > 0. && lambda_cut > 0.) then
    invalid_arg "Perf_model.deflated_condition: eigenvalues must be positive";
  lambda_max /. lambda_cut

(* Predicted iteration fraction from the classical CG bound
   ~ sqrt(κ)·ln(2/tol)/2 (Solver.Eigen.cg_iteration_bound): the tol
   factor cancels in the ratio, leaving sqrt(κ_deflated/κ). *)
let deflation_iteration_ratio ~kappa ~kappa_deflated =
  if not (kappa > 0. && kappa_deflated > 0.) then
    invalid_arg "Perf_model.deflation_iteration_ratio: kappa must be positive";
  sqrt (kappa_deflated /. kappa)

(* Solves needed before the setup pays for itself: setup time over the
   per-solve saving; infinite when deflation does not reduce the
   per-solve cost (the tuner's rank-0 fallback). *)
let deflation_break_even_solves ~setup_s ~t_undeflated_s ~t_deflated_s =
  if t_undeflated_s <= t_deflated_s then infinity
  else setup_s /. (t_undeflated_s -. t_deflated_s)

type breakdown = {
  grid : int array;
  local_sites : float;  (* 5D sites per GPU *)
  t_stencil : float;
  t_comm_intra : float;
  t_comm_inter : float;
  t_latency : float;
  t_overhead : float;
  t_copy : float;
      (* transport extra-copy time: Double_buffered pays one rotation
         copy of the halo payload against GPU memory bandwidth; zero
         for Staged/Zero_copy *)
  blas1_sweeps_per_iter : float;
      (* full-vector memory sweeps of the CG BLAS-1 tail per iteration
         under the priced fusion mode: 5. unfused, 2. fused; 0. when
         ?fusion is not passed *)
  blas1_bytes : float;
      (* bytes those sweeps move per iteration (half-precision
         storage); 0. when ?fusion is not passed *)
  t_blas1 : float;
      (* blas1_bytes at solver bandwidth + one launch per sweep; added
         to t_total only when ?fusion is passed *)
  t_total : float;  (* per stencil application *)
  halo_bytes_intra : float;
  halo_bytes_inter : float;
  face_times : (int * float) list;
      (* per posted face (id 0–7, decomposed dims only): message time
         incl. per-message latency — the completion schedule the
         fine-grained policy pipelines against *)
}

type result = {
  machine : Spec.t;
  n_gpus : int;
  policy : Policy.t;
  transport : Transport.t;
  tflops_total : float;
  tflops_per_gpu : float;
  percent_peak : float;
  bw_per_gpu_gbs : float;
  breakdown : breakdown;
}

(* Time components for one stencil application on [n_gpus].
   [transport] prices the halo buffer management: Double_buffered pays
   one extra copy of the full halo payload against GPU memory
   bandwidth; Staged (default) and Zero_copy pay none, keeping the
   calibrated numbers unchanged. [fusion] (when passed) additionally
   prices the CG iteration's BLAS-1 tail into t_blas1/t_total —
   [Some true] at the fused sweep count, [Some false] unfused; omitted
   (the default), the BLAS-1 fields are zero and t_total is the bare
   stencil time as before.

   [compress] prices the halo wire format the same tri-state way:
   omitted keeps the calibrated numbers (whose achieved bandwidths
   already absorb the paper's compressed wire); [Some true] keeps the
   compressed bytes but charges the codec explicitly — encode + decode
   passes over the double-precision face stream at GPU memory
   bandwidth, pack-side serial work accounted into t_copy like the
   rotation copy; [Some false] ships the faces uncompressed
   (double-precision reals, 4x the wire bytes, no codec cost).
   Zero_copy has no staging buffer to compress, so [Some true] with it
   is rejected — the same constraint Vrank.Comm enforces. *)
let stencil_breakdown ?(transport = Transport.Staged) ?fusion ?compress
    (m : Spec.t) (policy : Policy.t) p ~n_gpus =
  if compress = Some true && transport = Transport.Zero_copy then
    invalid_arg
      "Perf_model.stencil_breakdown: compress requires a staging buffer \
       (Staged or Double_buffered)";
  let face_site_bytes =
    match compress with
    | None | Some true -> halo_bytes_per_face_site
    | Some false -> halo_bytes_per_face_site_double
  in
  match best_grid p n_gpus with
  | None -> None
  | Some grid ->
    let local = Array.init 4 (fun mu -> p.dims.(mu) / grid.(mu)) in
    let v4 = Array.fold_left ( * ) 1 local in
    let local_sites = float_of_int (v4 * p.l5) in
    let bw = solver_bw m ~local_sites in
    let t_stencil = local_sites *. bytes_per_site /. bw in
    (* halo *)
    let nsub = node_subgrid m p grid in
    let decomposed = ref 0 in
    let bytes_intra = ref 0. and bytes_inter = ref 0. in
    for mu = 0 to 3 do
      if grid.(mu) > 1 then begin
        incr decomposed;
        let face_sites = float_of_int (2 * v4 / local.(mu) * p.l5) in
        let bytes = face_sites *. face_site_bytes in
        (* a GPU's +-mu neighbors cross the node block with
           probability 1/nsub_mu *)
        let inter_frac = 1. /. float_of_int nsub.(mu) in
        bytes_inter := !bytes_inter +. (bytes *. inter_frac);
        bytes_intra := !bytes_intra +. (bytes *. (1. -. inter_frac))
      end
    done;
    let n_nodes = float_of_int n_gpus /. float_of_int m.Spec.gpus_per_node in
    let contention = 1. /. (1. +. (n_nodes /. m.Spec.contention_nodes)) in
    let bw_inter = Policy.internode_bw_per_gpu policy m *. contention in
    let bw_intra =
      if m.Spec.nvlink_gbs > 0. then m.Spec.nvlink_gbs *. 1e9
      else m.Spec.cpu_gpu_gbs *. 1e9 /. float_of_int m.Spec.gpus_per_node
    in
    let t_comm_inter = if !bytes_inter > 0. then !bytes_inter /. bw_inter else 0. in
    let t_comm_intra = if !bytes_intra > 0. then !bytes_intra /. bw_intra else 0. in
    let n_msgs = if !decomposed > 0 then Policy.messages policy ~decomposed_dims:!decomposed else 0 in
    let t_latency = float_of_int n_msgs *. m.Spec.msg_latency_s in
    (* Per-face message time for the nonblocking protocol: each
       decomposed dimension sends two faces, each carrying half the
       dimension's bytes (same intra/inter split) plus one message
       latency. Sums back to t_comm_inter + t_comm_intra + 2d·latency —
       the fine-grained aggregate. *)
    let face_times =
      List.concat
        (List.init 4 (fun mu ->
             if grid.(mu) <= 1 then []
             else begin
               let face_sites = float_of_int (v4 / local.(mu) * p.l5) in
               let bytes = face_sites *. face_site_bytes in
               let inter_frac = 1. /. float_of_int nsub.(mu) in
               let tf =
                 (bytes *. inter_frac /. bw_inter)
                 +. (bytes *. (1. -. inter_frac) /. bw_intra)
                 +. m.Spec.msg_latency_s
               in
               [ (2 * mu, tf); ((2 * mu) + 1, tf) ]
             end))
    in
    let launches =
      1 + (if !decomposed > 0 then Policy.halo_kernel_launches policy ~decomposed_dims:!decomposed else 0)
    in
    let t_allreduce =
      (* two double-precision reductions per iteration, tree-combined *)
      2. *. m.Spec.allreduce_base_s *. log (float_of_int (max 2 n_gpus)) /. log 2.
    in
    let t_overhead =
      (float_of_int launches *. m.Spec.launch_overhead_s) +. t_allreduce
    in
    let t_copy =
      float_of_int (Transport.extra_copies transport)
      *. (!bytes_intra +. !bytes_inter)
      /. (m.Spec.gpu.Spec.mem_bw_gbs *. 1e9)
    in
    (* explicit codec pricing: encode + decode each stream the
       double-precision face payload once at GPU memory bandwidth;
       pack-side serial work, accounted like the rotation copy *)
    let t_copy =
      if compress = Some true then
        let double_bytes =
          (!bytes_intra +. !bytes_inter)
          *. (halo_bytes_per_face_site_double /. halo_bytes_per_face_site)
        in
        t_copy
        +. compress_codec_passes *. double_bytes
           /. (m.Spec.gpu.Spec.mem_bw_gbs *. 1e9)
      else t_copy
    in
    let sweeps, blas1_bytes, t_blas1 =
      match fusion with
      | None -> (0., 0., 0.)
      | Some fused ->
        let sweeps = blas1_sweeps ~fused in
        let bytes = sweeps *. local_sites *. blas1_bytes_per_site_sweep in
        ( sweeps,
          bytes,
          (bytes /. bw) +. (sweeps *. m.Spec.launch_overhead_s) )
    in
    let t_comm = t_comm_inter +. t_comm_intra +. t_latency in
    let t_total =
      if Policy.overlaps policy && !decomposed > 0 then begin
        (* fine-grained: interior compute hides communication, and each
           face's boundary sub-stencil runs as soon as that face lands.
           Messages serialize on the NIC (arrivals are the running sum
           of face times); boundary work per face is its share of the
           surface. *)
        let surf = float_of_int (surface_sites p grid) in
        let boundary_frac = Float.min 0.9 (surf /. float_of_int v4) in
        let t_interior = t_stencil *. (1. -. boundary_frac) in
        let t_boundary = t_stencil *. boundary_frac in
        let busy = ref t_interior and arrival = ref 0. in
        List.iter
          (fun (fid, tf) ->
            arrival := !arrival +. tf;
            let share = float_of_int (v4 / local.(fid / 2)) /. surf in
            busy := Float.max !busy !arrival +. (t_boundary *. share))
          face_times;
        (* the rotation copy is pack-side serial work: not hidden;
           the BLAS-1 tail is serial stream work after the stencil *)
        !busy +. t_copy +. t_overhead +. t_blas1
      end
      else t_stencil +. t_comm +. t_copy +. t_overhead +. t_blas1
    in
    Some
      {
        grid;
        local_sites;
        t_stencil;
        t_comm_intra;
        t_comm_inter;
        t_latency;
        t_overhead;
        t_copy;
        blas1_sweeps_per_iter = sweeps;
        blas1_bytes;
        t_blas1;
        t_total;
        halo_bytes_intra = !bytes_intra;
        halo_bytes_inter = !bytes_inter;
        face_times;
      }

let solver_performance ?(transport = Transport.Staged) ?compress (m : Spec.t)
    (policy : Policy.t) p ~n_gpus =
  match stencil_breakdown ~transport ?compress m policy p ~n_gpus with
  | None -> None
  | Some b ->
    let flops_app = b.local_sites *. flops_per_site in
    let per_gpu = flops_app /. b.t_total in
    let total = per_gpu *. float_of_int n_gpus in
    Some
      {
        machine = m;
        n_gpus;
        policy;
        transport;
        tflops_total = total /. 1e12;
        tflops_per_gpu = per_gpu /. 1e12;
        percent_peak = per_gpu *. peak_scaling /. (m.Spec.gpu.Spec.fp32_tflops *. 1e12) *. 100.;
        bw_per_gpu_gbs = per_gpu /. arithmetic_intensity /. 1e9;
        breakdown = b;
      }

(* Best policy at a configuration — what the communication autotuner
   would pick (Autotune.Comm_tune drives this via its cache). *)
let best_policy (m : Spec.t) p ~n_gpus =
  let candidates = List.filter (fun pol -> Policy.available pol m) Policy.all in
  let results =
    List.filter_map (fun pol -> solver_performance m pol p ~n_gpus) candidates
  in
  match results with
  | [] -> None
  | r :: rest ->
    Some (List.fold_left (fun best r -> if r.tflops_total > best.tflops_total then r else best) r rest)

(* ---- production (whole-application) sustained performance ----
   Weak scaling runs many independent solves in fixed GPU groups; the
   job-level efficiency factors live here. *)

type mpi_stack = Spectrum | Open_mpi | Mvapich2 | Metaq_jsrun

let stack_name = function
  | Spectrum -> "SpectrumMPI"
  | Open_mpi -> "openMPI: mpi_jm"
  | Mvapich2 -> "MVAPICH2: mpi_jm"
  | Metaq_jsrun -> "SpectrumMPI: METAQ"

(* Whole-application factor: propagators are 96.5% of the work;
   contractions are hidden on the CPUs by mpi_jm; I/O is 0.5%. The
   residual covers setup/teardown per solve. *)
let application_efficiency = 0.85

(* Relative solver throughput under each MPI stack (Sec. VII: MVAPICH2
   needed for DPM was not yet tuned for Sierra). *)
let stack_factor = function
  | Spectrum -> 1.0
  | Open_mpi -> 0.95
  | Mvapich2 -> 0.80
  | Metaq_jsrun -> 0.78

let group_performance (m : Spec.t) p ~group_gpus ~stack =
  match best_policy m p ~n_gpus:group_gpus with
  | None -> None
  | Some r ->
    Some (r.tflops_total *. application_efficiency *. stack_factor stack)

(* Aggregate weak-scaling point: [n_gpus] total across independent
   groups. Near-perfect scaling by construction — the paper's point is
   that group independence makes it so; deviations come only from the
   stack factor. *)
let weak_scaling_point (m : Spec.t) p ~group_gpus ~stack ~n_gpus =
  match group_performance m p ~group_gpus ~stack with
  | None -> None
  | Some g ->
    let groups = float_of_int n_gpus /. float_of_int group_gpus in
    Some (g *. groups)
