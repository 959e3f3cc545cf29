(* Communication policies for the multi-GPU stencil — the options the
   paper's communication autotuner searches over (Sec. V):

   - staging halo buffers through CPU memory and using plain MPI,
   - zero-copy reads/writes over the host link,
   - GPU Direct RDMA straight to the NIC (when the system supports it),

   each either coarse-grained (one halo-update kernel after all
   communication, fewer launches, no overlap) or fine-grained
   (per-dimension messages that overlap with interior compute). *)

type transfer = Staged_mpi | Zero_copy | Gdr

type granularity = Coarse | Fine

type t = { transfer : transfer; granularity : granularity }

let all_granularities = [ Coarse; Fine ]

(* Ordered best-path-first so that performance ties resolve toward the
   more direct transfer (as a measuring autotuner would, within noise). *)
let all =
  List.concat_map
    (fun transfer ->
      List.map (fun granularity -> { transfer; granularity }) all_granularities)
    [ Gdr; Zero_copy; Staged_mpi ]

let transfer_name = function
  | Staged_mpi -> "staged-mpi"
  | Zero_copy -> "zero-copy"
  | Gdr -> "gdr"

let granularity_name = function Coarse -> "coarse" | Fine -> "fine"

let name t =
  Printf.sprintf "%s/%s" (transfer_name t.transfer) (granularity_name t.granularity)

let available t (m : Spec.t) =
  match t.transfer with Gdr -> m.Spec.has_gdr | Staged_mpi | Zero_copy -> true

(* Effective inter-node bandwidth per GPU (bytes/s) for a transfer
   path, before network contention. Staging pays for the extra
   GPU->CPU->NIC copies; zero-copy avoids one copy but reads across
   the host link at reduced efficiency; GDR gets the NIC directly. *)
let internode_bw_per_gpu t (m : Spec.t) =
  let nic = Spec.nic_gbs_per_gpu m *. 1e9 in
  let host_link = m.Spec.cpu_gpu_gbs *. 1e9 /. float_of_int m.Spec.gpus_per_node in
  match t.transfer with
  | Gdr -> nic
  | Staged_mpi -> 0.55 *. Float.min nic host_link
  | Zero_copy -> 0.7 *. Float.min nic host_link

(* Messages per stencil application per GPU for [d] decomposed
   dimensions. Fine-grained sends each direction separately (and eats
   the latency per message); coarse batches per dimension pair. *)
let messages t ~decomposed_dims =
  match t.granularity with
  | Fine -> 2 * decomposed_dims
  | Coarse -> decomposed_dims

(* Extra kernel launches the halo-update strategy costs. *)
let halo_kernel_launches t ~decomposed_dims =
  match t.granularity with Fine -> 2 * decomposed_dims | Coarse -> 1

(* Can communication overlap the interior stencil? Fine-grained yes;
   coarse waits for all halos then runs one update kernel. *)
let overlaps t = match t.granularity with Fine -> true | Coarse -> false

(* Is a Comm transport model honest for this policy's transfer path?
   A staged transport under a zero-copy/GDR wire hides the real
   send-buffer race (optimistic); a zero-copy transport under the
   staged-MPI wire invents one that the staging copy prevents
   (pessimistic). Either mismatch is what HALO013 flags; the tuner
   only surveys honest combinations. *)
let transport_ok t (tr : Transport.t) =
  match t.transfer with
  | Staged_mpi -> tr <> Transport.Zero_copy
  | Zero_copy | Gdr -> tr <> Transport.Staged
