(** The unified diagnostic type every checker pass reports through:
    severity + stable rule id + artifact location + message + fix
    hint. Rule id families: [CAMP*] campaign/DAG, [HALO*] halo
    exchange schedules and live comms, [NUM*] numeric sanitizer,
    [SPEC*] spec validation, [RECON*] gauge-link unitarity under the
    recon codecs, [DEF*] live deflation spaces, [PLAN*]/[PREC*] static
    launch-plan analysis. *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  rule : string;
  location : string;
  message : string;
  hint : string option;
}

val make : ?hint:string -> severity -> rule:string -> loc:string -> string -> t
val error : ?hint:string -> rule:string -> loc:string -> string -> t
val warning : ?hint:string -> rule:string -> loc:string -> string -> t
val info : rule:string -> loc:string -> string -> t

val severity_label : severity -> string
val is_error : t -> bool
val count_errors : t list -> int
val count_warnings : t list -> int
val has_errors : t list -> bool

val sort : t list -> t list
(** Errors first, then warnings, then info; by rule id within a
    severity; stable otherwise. *)

val to_string : t -> string
(** ["error[CAMP003] task 12: dependency cycle ... (hint: ...)"]. *)

type report = (string * t list) list
(** Pass name × its diagnostics. *)

val report_errors : report -> int
val report_warnings : report -> int
val summary : report -> string

val exit_code : report -> int
(** 1 when any pass reported an error, 0 otherwise. *)

val print_report : ?verbose:bool -> report -> unit
(** Per-pass listing on stdout ([verbose] also shows info-level
    findings) plus a summary line. *)
