(* Launch configurations for the real OCaml kernels, so the autotuner
   has genuine knobs to search — the analogue of CUDA block/grid shape
   for this implementation. One record names a launch on every axis a
   kernel family can have: the BLAS-1 tail fusion mode, the batch
   width, the gauge-link codec, the pool geometry and the deflation
   rank. A family's space crosses the axes it has and leaves the rest
   at the baseline value; [tune] returns the winning record itself,
   and the caller runs it through the same runner the tuner timed.

   Launches of a family differ only in speed: results are
   bit-identical across geometries, widths and modes, and agree within
   tolerance across codecs (link round-trip) and deflation ranks
   (solver tolerance). *)

module Field = Linalg.Field
module Fused = Linalg.Fused
module Wilson = Dirac.Wilson

type launch = {
  mode : Fused.mode;
  k : int;
  recon : Linalg.Su3_codec.codec;
  geometry : (int * int) option;
  rank : int;
}

let baseline =
  {
    mode = Fused.Unfused;
    k = 1;
    recon = Linalg.Su3_codec.Full18;
    geometry = None;
    rank = 0;
  }

(* Every field, as fixed-format fragments in a fixed order (mode and
   codec names carry no '_'): two launches share a label only if they
   are equal, so a cached winner names exactly one plan. *)
let label l =
  Printf.sprintf "%s_%s_k%d_r%d_%s" (Fused.mode_name l.mode)
    (Linalg.Su3_codec.name l.recon)
    l.k l.rank
    (match l.geometry with
    | None -> "serial"
    | Some (d, c) -> Printf.sprintf "d%d_c%d" d c)

let domain_cap max_domains =
  min Util.Pool.max_domains
    (Option.value max_domains ~default:(Domain.recommended_domain_count ()))

(* ---- pool launch geometries ----
   The multicore launch axis: (ndomains, chunk) pairs. Domain counts
   are powers of two up to the machine (capped by
   [Domain.recommended_domain_count], or the explicit [max_domains]
   the tests use to exercise the space on any box); chunks are one and
   a quarter of the per-lane share, floored so tiny problems do not
   degenerate to per-element dispatch. *)
let pool_geometries ?max_domains ?(chunk_floor = 1024) ~n () =
  let dmax = domain_cap max_domains in
  let rec widths d acc = if d > dmax then List.rev acc else widths (d * 2) (d :: acc) in
  List.concat_map
    (fun d ->
      let per_lane = max 1 (n / d) in
      let cands =
        List.sort_uniq compare
          [ max chunk_floor (per_lane / 4); max chunk_floor per_lane ]
      in
      List.map (fun c -> (d, c)) cands)
    (widths 2 [])

(* The first element takes the head of every axis and the serial
   geometry: the baseline whenever each axis leads with its baseline
   value, as every caller's does. *)
let space ?(modes = [ baseline.mode ]) ?(widths = [ baseline.k ])
    ?(codecs = [ baseline.recon ]) ?(geometries = []) ?(ranks = [ baseline.rank ])
    () =
  let ( let* ) xs f = List.concat_map f xs in
  let* mode = modes in
  let* recon = codecs in
  let* k = widths in
  let* rank = ranks in
  let* geometry = None :: List.map Option.some geometries in
  [ { mode; k; recon; geometry; rank } ]

(* [lint] vets each candidate BEFORE it enters the search: Tuner.tune
   caches its winner on first encounter, so this is the only point
   where a statically invalid plan can be kept out of the cache. It is
   a callback rather than a direct Check call so a test can substitute
   a reject-all linter and prove the vetting happens before caching.
   The baseline is exempt: it must always be in the space, and a
   linter rejecting the reference plan is a linter bug, not a tuning
   outcome.

   The signature gains the domain cap and a hash of the label space,
   taken over one string because Hashtbl.hash reads only the first
   few elements of a list: a winner tuned for one machine width, or
   cached before the space changed shape, never keys the same — and
   Tuner.tune independently refuses a cached winner absent from the
   live candidates. *)
let tune ?max_domains ?lint tuner ~kernel ~signature ~space run =
  let dmax = domain_cap max_domains in
  let all = space ~dmax in
  let labels = List.map label all in
  if List.length (List.sort_uniq compare labels) <> List.length labels then
    invalid_arg "Variants.tune: duplicate launches in the space";
  let live =
    match (all, lint) with
    | [], _ -> invalid_arg "Variants.tune: empty space"
    | _, None -> all
    | base :: _, Some vet -> List.filter (fun l -> l = base || vet l = None) all
  in
  let winner =
    Tuner.tune tuner ~kernel
      ~signature:
        (Printf.sprintf "%s:dmax%d:v%x" signature dmax
           (Hashtbl.hash (String.concat " " labels)))
      (List.map (fun l -> Tuner.candidate (label l) (fun () -> run l)) live)
  in
  List.find (fun l -> label l = winner) live

(* ---- runners: the only code that executes a launch ---- *)

let pool l =
  Util.Pool.shared ~domains:(match l.geometry with None -> 1 | Some (d, _) -> d)

let chunk l = Option.map snd l.geometry

(* The full batch in sub-batches of the launch's width, on the
   operator of its codec: a narrow width pays the gauge re-streaming
   it costs and a packed codec its reconstruction on every right-hand
   side, never on fewer vectors. *)
let run_hop ops ~srcs ~dsts =
  let kmax = Array.length srcs in
  if kmax = 0 || Array.length dsts <> kmax then
    invalid_arg "Variants.tune_hop: batch width mismatch";
  fun l ->
    let w = List.find (fun w -> Wilson.recon w = l.recon) ops in
    let off = ref 0 in
    while !off < kmax do
      let width = min l.k (kmax - !off) in
      Wilson.hop_multi ~pool:(pool l) ?chunk:(chunk l) w
        ~srcs:(Array.sub srcs !off width)
        ~dsts:(Array.sub dsts !off width);
      off := !off + width
    done

let run_axpy ~x ~y l = Field.axpy ~pool:(pool l) ?chunk:(chunk l) 0.5 x y

(* One CG BLAS-1 tail iteration as each mode executes it: Unfused =
   dot_re + axpy + axpy + norm2 + xpay (5 sweeps); Fused = dot_re +
   cg_update + xpay_dot (3, the separate-dot fallback); Tail_fused =
   cg_update + xpay_dot (2 — p·Ap rode the stencil). alpha/beta are
   fixed small scalars so repeated timing runs do not drift the data
   towards overflow. *)
let run_fusion ~p ~ap ~x ~r l =
  let pool = pool l and chunk = chunk l in
  let alpha = 1e-3 and beta = 0.5 in
  if l.mode <> Fused.Tail_fused then
    ignore (Field.dot_re ~pool ?chunk p ap : float);
  match l.mode with
  | Fused.Unfused ->
    Field.axpy ~pool ?chunk alpha p x;
    Field.axpy ~pool ?chunk (-.alpha) ap r;
    ignore (Field.norm2 ~pool ?chunk r : float);
    Field.xpay ~pool ?chunk r beta p
  | Fused.Fused | Fused.Tail_fused ->
    ignore (Fused.cg_update ~pool ?chunk alpha p ap x r : float);
    ignore (Fused.xpay_dot ~pool ?chunk r beta p r : float)

(* A whole campaign slice: Lanczos setup for the launch's rank inside
   the run (the setup-vs-iterations amortization is the trade), then
   one CG solve per right-hand side. Cg.solve takes no pool argument,
   so the launch's pool is installed as the default for the run. *)
let run_deflation ~tol ~apply ~bs =
  if Array.length bs = 0 then invalid_arg "Variants.tune_deflation: no right-hand sides";
  let n = Field.length bs.(0) in
  fun l ->
    let prev = Util.Pool.get_default () in
    Util.Pool.set_default (pool l);
    Fun.protect
      ~finally:(fun () -> Util.Pool.set_default prev)
      (fun () ->
        let deflate =
          if l.rank = 0 then None
          else
            Some
              (Solver.Deflate.of_lanczos ~config_hash:0
                 (Solver.Lanczos.lowest ~tol:1e-6 ~rank:l.rank ~apply ~n
                    ~rng:(Util.Rng.create (7 + l.rank))
                    ()))
        in
        Array.iter
          (fun b ->
            ignore
              (Solver.Cg.solve ?deflate ~apply ~b ~tol ~max_iter:(200 * n)
                 ~flops_per_apply:1. ()
                : Field.t * Solver.Cg.stats))
          bs)

(* ---- the kernel families: a space, a runner and a signature ---- *)

let tune_hop ?max_domains tuner ops ~srcs ~dsts ~signature =
  let run = run_hop ops ~srcs ~dsts in
  let kmax = Array.length srcs in
  let sites = Field.length dsts.(0) / Wilson.floats_per_site in
  tune ?max_domains tuner ~kernel:"wilson_hop"
    ~signature:(Printf.sprintf "%s:sites%d:kmax%d" signature sites kmax)
    ~space:(fun ~dmax ->
      space
        ~codecs:(List.map Wilson.recon ops)
        ~widths:(List.filter (fun k -> k <= kmax) [ 1; 2; 4; 8 ])
        ~geometries:(pool_geometries ~max_domains:dmax ~chunk_floor:16 ~n:sites ())
        ())
    run

let tune_axpy ?max_domains tuner ~n =
  let x = Field.create n and y = Field.create n in
  Field.fill x 1.;
  tune ?max_domains tuner ~kernel:"axpy" ~signature:(Printf.sprintf "n%d" n)
    ~space:(fun ~dmax ->
      space ~geometries:(pool_geometries ~max_domains:dmax ~n ()) ())
    (run_axpy ~x ~y)

let tune_fusion ?max_domains ?lint tuner ~n =
  let p = Field.create n and ap = Field.create n in
  let x = Field.create n and r = Field.create n in
  Field.fill p 1e-3;
  Field.fill ap 1e-3;
  Field.fill r 1e-3;
  tune ?max_domains ?lint tuner ~kernel:"cg_blas1"
    ~signature:(Printf.sprintf "n%d" n)
    ~space:(fun ~dmax ->
      space
        ~modes:Fused.[ Unfused; Fused; Tail_fused ]
        ~geometries:(pool_geometries ~max_domains:dmax ~n ())
        ())
    (run_fusion ~p ~ap ~x ~r)

let tune_deflation tuner ~apply ~bs ~signature =
  let run = run_deflation ~tol:1e-8 ~apply ~bs in
  tune tuner ~kernel:"cg_deflate"
    ~signature:
      (Printf.sprintf "%s:n%d:s%d" signature (Field.length bs.(0))
         (Array.length bs))
    ~space:(fun ~dmax:_ -> space ~ranks:[ 0; 2; 4; 8 ] ())
    run
