(** QUDA-style run-time kernel autotuner: brute-force search through a
    candidate space on first encounter of a (kernel, signature) key,
    cached winner afterwards, with tunecache-style persistence. *)

type entry = {
  kernel : string;
  signature : string;  (** problem shape: volume, precision, … *)
  winner : string;  (** label of the chosen launch configuration *)
  time_s : float;  (** median measured time of the winner *)
  candidates_tried : int;
  tuned_at : float;  (** wall-clock, metadata only *)
}

type t

exception Corrupt of { path : string; line : int; reason : string }
(** A tunecache line that does not parse: wrong field count (e.g. a
    truncated last line) or a field that is not a number. *)

val create : ?repeats:int -> unit -> t
(** [repeats] timing repetitions per candidate (default 3). *)

type 'a candidate = { label : string; run : 'a }

val candidate : string -> 'a -> 'a candidate

val pick : (string * float array) list -> string * float
(** The win rule over per-candidate timing samples (seconds), pure.
    The first candidate is the baseline. The candidate with the
    fastest median wins only if it beats the baseline's median by more
    than the baseline's interquartile range (q3 − q1); otherwise the
    baseline is kept. With one sample per candidate the range is zero
    and the strictly fastest wins. Returns the winner's label and
    median.
    @raise Invalid_argument on an empty list. *)

val tune :
  t ->
  kernel:string ->
  signature:string ->
  (unit -> unit) candidate list ->
  string
(** Winning label: measured on first encounter ({!pick} over
    monotonic-clock samples, the first candidate as baseline), cache
    hit after. A cached winner whose label no longer names a live
    candidate (a stale tunecache from before a variant-space change)
    is not served: the search re-runs and overwrites the entry.
    @raise Invalid_argument on an empty candidate list. *)

val lookup : t -> kernel:string -> signature:string -> entry option
val entries : t -> entry list
val tune_count : t -> int
val hit_count : t -> int

val save : t -> string -> unit
(** Persist the cache (QUDA's tunecache file). *)

val load : t -> string -> unit
(** Merge a saved cache into [t].
    @raise Corrupt naming the file and the 1-based line of the first
    line that does not parse. *)
