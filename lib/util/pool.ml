(* Persistent domain pool: the shared-memory analogue of the paper's
   SM grid. Workers are spawned once (Domain.spawn is ~30us, far too
   slow to pay per kernel call) and parked on a Condition; each kernel
   launch hands the workers one job — a (lo, hi) range function over a
   chunked index space — via a generation counter, and joins by
   waiting for the active-worker count to drain.

   Determinism contract:
   - [parallel_for] partitions [0, n) into fixed-size chunks
     [i*chunk, min n ((i+1)*chunk)). Which domain runs which chunk is
     scheduling noise (an Atomic counter), but chunk boundaries are a
     pure function of (n, chunk), so any kernel whose writes depend
     only on the element index is bit-identical to the serial loop.
   - Reductions keep their own ordered per-block partials on
     [parallel_for] (Field.fold_k, the one reduction engine, and
     Field.fold_partials under Wilson.hop_tail): each partial lands in
     a slot indexed by block and the slots fold in index order on the
     calling domain — bit-stable run to run for any geometry.
   - A pool of size 1 has no workers: jobs run inline on the caller,
     chunk by chunk in index order — today's serial code by
     construction.

   Nested calls (a pooled kernel invoked from inside a worker, or from
   the owner while a job is live) degrade to the inline serial path
   instead of deadlocking, so a kernel that calls another pooled
   kernel inside its range body runs the inner one serially. *)

type t = {
  n_workers : int;  (* domains - 1; the caller is the last lane *)
  mutable workers : unit Domain.t array;
  m : Mutex.t;
  cv_new : Condition.t;  (* a new job generation is available *)
  cv_done : Condition.t;  (* all workers drained the current job *)
  mutable gen : int;
  mutable job : (int -> int -> unit) option;
  mutable job_n : int;
  mutable job_chunk : int;
  next : int Atomic.t;  (* next chunk index of the current job *)
  mutable active : int;  (* workers still draining *)
  mutable stop : bool;
  mutable failed : exn option;  (* first exception raised by a chunk *)
  mutable busy : bool;  (* owner is inside a job (re-entrancy guard) *)
  owner : Domain.id;
}

let size t = t.n_workers + 1

let max_domains = 64

(* ---- chunk geometry (pure, shared with Check.Plan_check) ---- *)

let chunks ~n ~chunk =
  if n <= 0 then [||]
  else begin
    if chunk <= 0 then invalid_arg "Pool.chunks: chunk must be positive";
    let n_chunks = (n + chunk - 1) / chunk in
    Array.init n_chunks (fun i -> (i * chunk, min n ((i + 1) * chunk)))
  end

(* Default chunk: ~4 chunks per lane so the atomic counter can balance
   uneven progress, but never below a floor that keeps the per-chunk
   dispatch cost ignorable. *)
let default_chunk t n = max 1024 (n / (4 * size t) + 1)

(* ---- worker protocol ---- *)

let record_failure t e =
  Mutex.lock t.m;
  if t.failed = None then t.failed <- Some e;
  Mutex.unlock t.m

let drain t f n chunk =
  let n_chunks = (n + chunk - 1) / chunk in
  let continue_ = ref true in
  while !continue_ do
    let i = Atomic.fetch_and_add t.next 1 in
    if i >= n_chunks then continue_ := false
    else begin
      let lo = i * chunk and hi = min n ((i + 1) * chunk) in
      try f lo hi with e -> record_failure t e
    end
  done

let rec worker_loop t last_gen =
  Mutex.lock t.m;
  while t.gen = last_gen && not t.stop do
    Condition.wait t.cv_new t.m
  done;
  if t.stop then Mutex.unlock t.m
  else begin
    let gen = t.gen in
    let f = Option.get t.job and n = t.job_n and chunk = t.job_chunk in
    Mutex.unlock t.m;
    drain t f n chunk;
    Mutex.lock t.m;
    t.active <- t.active - 1;
    if t.active = 0 then Condition.broadcast t.cv_done;
    Mutex.unlock t.m;
    worker_loop t gen
  end

let create ?domains () =
  let domains =
    match domains with Some d -> d | None -> Domain.recommended_domain_count ()
  in
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let domains = min domains max_domains in
  let t =
    {
      n_workers = domains - 1;
      workers = [||];
      m = Mutex.create ();
      cv_new = Condition.create ();
      cv_done = Condition.create ();
      gen = 0;
      job = None;
      job_n = 0;
      job_chunk = 1;
      next = Atomic.make 0;
      active = 0;
      stop = false;
      failed = None;
      busy = false;
      owner = Domain.self ();
    }
  in
  t.workers <- Array.init t.n_workers (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

let shutdown t =
  if not t.stop then begin
    Mutex.lock t.m;
    t.stop <- true;
    Condition.broadcast t.cv_new;
    Mutex.unlock t.m;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

(* ---- launch ---- *)

let serial_chunks n chunk f =
  Array.iter (fun (lo, hi) -> f lo hi) (chunks ~n ~chunk)

let parallel_for t ?chunk ~n f =
  if n > 0 then begin
    let chunk =
      match chunk with
      | Some c when c > 0 -> c
      | Some _ -> invalid_arg "Pool.parallel_for: chunk must be positive"
      | None -> default_chunk t n
    in
    if t.n_workers = 0 || t.stop || t.busy || not (Domain.self () = t.owner) then
      serial_chunks n chunk f
    else begin
      Mutex.lock t.m;
      t.busy <- true;
      t.job <- Some f;
      t.job_n <- n;
      t.job_chunk <- chunk;
      t.failed <- None;
      Atomic.set t.next 0;
      t.active <- t.n_workers;
      t.gen <- t.gen + 1;
      Condition.broadcast t.cv_new;
      Mutex.unlock t.m;
      drain t f n chunk;
      Mutex.lock t.m;
      while t.active > 0 do
        Condition.wait t.cv_done t.m
      done;
      t.job <- None;
      t.busy <- false;
      let failed = t.failed in
      t.failed <- None;
      Mutex.unlock t.m;
      match failed with Some e -> raise e | None -> ()
    end
  end

(* ---- default pool and shared registry ---- *)

let parse_domains s =
  match int_of_string_opt (String.trim s) with
  | Some d when d >= 1 -> Ok (min d max_domains)
  | Some d ->
    Error
      (Printf.sprintf
         "NEUTRON_DOMAINS must be a positive integer, got %d (use 1 for \
          serial execution)"
         d)
  | None ->
    Error
      (Printf.sprintf
         "NEUTRON_DOMAINS must be a positive integer, got %S" (String.trim s))

let default_pool : t option ref = ref None

let set_default p = default_pool := Some p

let get_default () =
  match !default_pool with
  | Some p -> p
  | None ->
    let domains =
      match Sys.getenv_opt "NEUTRON_DOMAINS" with
      | Some s -> (
        (* a malformed setting must not silently run serial: the user
           asked for a width and would read parallel timings that are
           nothing of the sort *)
        match parse_domains s with
        | Ok d -> d
        | Error msg -> invalid_arg ("Pool.get_default: " ^ msg))
      | None -> 1
    in
    let p = create ~domains () in
    default_pool := Some p;
    p

(* Spawn-once registry keyed by domain count: the autotuner's pooled
   candidates and the tests draw pools from here so a tuning sweep
   over geometries never spawns the same pool twice. *)
let shared_tbl : (int, t) Hashtbl.t = Hashtbl.create 8
let shared_m = Mutex.create ()

let shared ~domains =
  if domains < 1 then invalid_arg "Pool.shared: domains must be >= 1";
  let domains = min domains max_domains in
  Mutex.lock shared_m;
  let p =
    match Hashtbl.find_opt shared_tbl domains with
    | Some p -> p
    | None ->
      let p = create ~domains () in
      Hashtbl.add shared_tbl domains p;
      p
  in
  Mutex.unlock shared_m;
  p

(* Idle workers are parked on a Condition but still participate in
   every stop-the-world GC section, so a registry left populated taxes
   allocation-heavy code for the rest of the process — quiesce after a
   sweep; the next [shared] call respawns on demand. *)
let shutdown_shared () =
  Mutex.lock shared_m;
  let pools = Hashtbl.fold (fun _ p acc -> p :: acc) shared_tbl [] in
  Hashtbl.reset shared_tbl;
  Mutex.unlock shared_m;
  List.iter shutdown pools;
  match !default_pool with
  | Some p when p.stop -> default_pool := None
  | _ -> ()
