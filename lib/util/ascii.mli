(** ASCII rendering of tables, plots and histograms for bench output. *)

val si_float : ?digits:int -> float -> string
(** Format with SI magnitude suffix (k/M/G/T/P/E, m/u/n). *)

val flops : float -> string
val seconds : float -> string

val render_table : header:string list -> string list list -> string
val print_table : header:string list -> string list list -> unit

type series = { label : string; points : (float * float) array; glyph : char }

val series : ?glyph:char -> string -> (float * float) array -> series

val render_plot :
  ?height:int ->
  ?x_label:string ->
  ?y_label:string ->
  ?zero_y:bool ->
  series list ->
  string
(** A 72-column scatter plot on linear axes. [zero_y] (default true)
    pins the y-axis to include zero. *)

val print_plot :
  ?height:int ->
  ?x_label:string ->
  ?y_label:string ->
  ?zero_y:bool ->
  series list ->
  unit

val render_histogram : Stats.histogram -> string
(** One row per bin, bars scaled to at most 50 columns. *)

val print_histogram : Stats.histogram -> unit

val banner : string -> unit
(** Print a section banner. *)
