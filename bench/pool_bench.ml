(* Multicore pool experiment: serial vs pooled axpy/norm2/hop across
   launch geometries, with machine-readable output. Every row lands in
   BENCH_kernels.json (kernel, n, geometry, ns/op, speedup vs serial)
   so the perf trajectory is tracked across PRs.

   Honesty note: the serial baseline is the d=1 pool (inline, chunk by
   chunk — the exact code path the pooled kernels reduce to), and the
   pooled geometries are measured whatever the core count. On a
   single-core box the pooled rows record the fork/join overhead as a
   speedup below 1x; speedups above 1x appear only where the hardware
   provides the lanes. *)

module Field = Linalg.Field
module Pool = Util.Pool
module Ascii = Util.Ascii

type row = Bench_json.row = {
  kernel : string;
  n : int;
  geometry : string;  (* "serial" or "d<domains>_c<chunk>" *)
  ns_per_op : float;
  speedup : float;  (* vs the serial row of the same (kernel, n) *)
}

let time_ns ?(repeats = 9) f =
  f ();
  (* warm-up: page in buffers, wake the pool *)
  let best = ref infinity in
  for _ = 1 to repeats do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best *. 1e9

(* Geometries to sweep: what the tuner would search, but never empty —
   on a single-core cap we still measure d=2 so the overhead of a
   mis-deployed pool is on record. *)
let geometries ~n =
  let dmax = max 2 (Domain.recommended_domain_count ()) in
  Autotune.Variants.pool_geometries ~max_domains:dmax ~n ()

let bench_kernel ~kernel ~n ~serial ~pooled =
  let t_serial = time_ns serial in
  let base = { kernel; n; geometry = "serial"; ns_per_op = t_serial; speedup = 1. } in
  base
  :: List.map
       (fun (d, c) ->
         let t = time_ns (fun () -> pooled (Pool.shared ~domains:d) c) in
         {
           kernel;
           n;
           geometry = Printf.sprintf "d%d_c%d" d c;
           ns_per_op = t;
           speedup = t_serial /. t;
         })
       (geometries ~n)

let run ?(out = "BENCH_kernels.json") () =
  Ascii.banner "multicore pool: serial vs pooled kernels across geometries";
  let n = 1 lsl 20 in
  let x = Field.create n and y = Field.create n in
  Field.gaussian (Util.Rng.create 11) x;
  Field.gaussian (Util.Rng.create 12) y;
  let serial_pool = Pool.shared ~domains:1 in
  let axpy_rows =
    bench_kernel ~kernel:"axpy" ~n
      ~serial:(fun () -> Field.axpy_with serial_pool 1.000001 x y)
      ~pooled:(fun p c -> Field.axpy_with p ~chunk:c 1.000001 x y)
  in
  let norm2_rows =
    bench_kernel ~kernel:"norm2" ~n
      ~serial:(fun () -> ignore (Field.norm2_with serial_pool x))
      ~pooled:(fun p c -> ignore (Field.norm2_with p ~chunk:c x))
  in
  let geom = Lattice.Geometry.create [| 8; 8; 8; 8 |] in
  let gauge = Lattice.Gauge.warm geom (Util.Rng.create 13) ~eps:0.3 in
  let w = Dirac.Wilson.of_geometry geom gauge in
  let vol = Lattice.Geometry.volume geom in
  let nf = vol * Dirac.Wilson.floats_per_site in
  let src = Field.create nf and dst = Field.create nf in
  Field.gaussian (Util.Rng.create 14) src;
  let hop_rows =
    (* the hop's parallel axis is sites, so its geometry sweep uses a
       site-count chunk floor *)
    let t_serial = time_ns (fun () -> Dirac.Wilson.hop_sites w ~src ~dst ()) in
    {
      kernel = "wilson_hop";
      n = vol;
      geometry = "serial";
      ns_per_op = t_serial;
      speedup = 1.;
    }
    :: List.map
         (fun (d, c) ->
           let t =
             time_ns (fun () ->
                 Dirac.Wilson.hop_with (Pool.shared ~domains:d) ~chunk:c w ~src
                   ~dst)
           in
           {
             kernel = "wilson_hop";
             n = vol;
             geometry = Printf.sprintf "d%d_c%d" d c;
             ns_per_op = t;
             speedup = t_serial /. t;
           })
         (Autotune.Variants.pool_geometries
            ~max_domains:(max 2 (Domain.recommended_domain_count ()))
            ~chunk_floor:64 ~n:vol ())
  in
  (* the tuner's chosen winner for this shape, re-measured through the
     runner the tuner timed against the serial baseline launch: the
     row every "the autotuner made it faster" claim is checked
     against. The tuner keeps the baseline unless a candidate beats it
     beyond its own timing spread. *)
  let tuned_rows =
    let module V = Autotune.Variants in
    let winner = V.tune_axpy (Autotune.Tuner.create ()) ~n in
    let t_serial = time_ns (fun () -> V.run_axpy ~x ~y V.baseline)
    and t_winner = time_ns (fun () -> V.run_axpy ~x ~y winner) in
    [
      {
        kernel = "axpy_tuned";
        n;
        geometry = V.label winner;
        ns_per_op = t_winner;
        speedup = t_serial /. t_winner;
      };
    ]
  in
  let rows = axpy_rows @ norm2_rows @ hop_rows @ tuned_rows in
  Bench_json.print_table rows;
  Bench_json.write ~file:out
    ~replacing:[ "axpy"; "norm2"; "wilson_hop"; "axpy_tuned" ]
    rows;
  Printf.printf
    "%d rows -> %s (recommended_domain_count = %d; pooled speedups need the\n\
     hardware lanes — on a single core the rows record the fork/join cost)\n"
    (List.length rows) out
    (Domain.recommended_domain_count ());
  (* don't leave idle workers taxing the GC of later experiments *)
  Pool.shutdown_shared ()
