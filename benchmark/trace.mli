(** In-memory span recorder for the traced run. Spans are opened around
    calls into the library's public functions from the benchmark's own
    code; nothing inside the library is instrumented.

    When disabled (the default), [span name f] is [f ()] plus one
    branch, so the untraced run measures the untouched call sequence. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, [-1] at top level *)
  start : float;  (** seconds, monotonic clock *)
  stop : float;
}

val enabled : bool ref

val span : string -> (unit -> 'a) -> 'a
(** Record a span around [f ()] (also when [f] raises). *)

val mark : unit -> int
(** Number of spans recorded so far; pass to [since]. *)

val since : int -> span list
(** Spans recorded after [mark] returned, in completion order. *)

val total : span list -> string -> float
(** Summed duration of the spans with this name. *)

val count : span list -> string -> int

val self_total : span list -> string -> float
(** Summed self time of the spans with this name: each span's duration
    minus the durations of its direct children in the list. *)

val coverage : span list -> string -> float
(** For the spans with this name: the share of their summed duration
    that their direct children cover (1 − self/duration). *)

val write_jsonl : string -> unit
(** Write every recorded span as one JSON object per line. *)

val reset : unit -> unit
