(** Observability substrate shared by the whole stack: structured span
    tracing exportable as Chrome trace-event JSON (loadable in Perfetto),
    per-pass pipeline metrics, rewrite-pattern application counters, and
    the structured IR-dump reporter.

    All instrumentation funnels into one optional global sink and is off
    by default: every emit site first checks the sink (one load and one
    branch), so disabled builds pay no clock read, allocation or
    formatting on hot paths. *)

val now : unit -> float
(** Current clock reading in seconds (default: [Sys.time], the process's
    processor time summed over all domains — not wall time). *)

val set_clock : (unit -> float) -> unit
(** Install a different clock (tests use a deterministic fake). *)

val enable : unit -> unit
(** Install a fresh sink, discarding any previous one. *)

val set_event_cap : int option -> unit
(** Bound the retained event buffer: keep-first semantics — once the cap
    is reached later events are counted as dropped instead of stored
    ([None] removes the bound).  Defaults to 1,000,000 events.  The
    dropped count is surfaced by {!Trace.pp_summary} and in the Chrome
    export metadata. *)

val event_cap : unit -> int option

val disable : unit -> unit

val enabled : unit -> bool

type arg = Str of string | Int of int | Float of float | Bool of bool
(** Structured event argument values. *)

type phase = Begin | End | Complete | Instant | Counter

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts : float;  (** seconds since the sink was installed *)
  dur : float;  (** seconds; meaningful only for [Complete] *)
  pid : int;
  tid : int;
  ev_args : (string * arg) list;
}

type pass_stat = {
  pipeline : string;
  pass_name : string;
  wall_s : float;  (** pass time on the {!now} clock (processor time) *)
  verify_s : float;
  ops_before : int;
  ops_after : int;
  ir_bytes_before : int;
  ir_bytes_after : int;
  pattern_apps : (string * int) list;
      (** greedy-driver applications per named pattern during this pass *)
}

type rewrite_stat = {
  rw_pass : string;  (** the rewrite-driver run's pass label *)
  rw_enqueued : int;  (** worklist pushes *)
  rw_processed : int;  (** ops popped / visited *)
  rw_max_depth : int;  (** high-water worklist depth *)
  rw_applied : int;  (** successful pattern applications *)
  rw_erased_dead : int;  (** trivially-dead ops the driver erased itself *)
}

(** Span tracing: begin/end spans, complete spans with explicit
    timestamps, instants and counters. *)
module Trace : sig
  val enabled : unit -> bool

  val begin_span :
    ?ts:float ->
    ?cat:string ->
    ?pid:int ->
    ?tid:int ->
    ?args:(string * arg) list ->
    string ->
    unit

  val end_span : ?ts:float -> ?pid:int -> ?tid:int -> string -> unit

  val with_span :
    ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
  (** [with_span name f] wraps [f] in a begin/end pair (exception-safe);
      when disabled it is exactly [f ()]. *)

  val complete :
    ?cat:string ->
    ?pid:int ->
    ?tid:int ->
    ?args:(string * arg) list ->
    ts:float ->
    dur:float ->
    string ->
    unit
  (** A complete span with caller-supplied timestamp and duration (used
      when converting external timelines, e.g. simulated MPI ranks). *)

  val instant :
    ?ts:float ->
    ?cat:string ->
    ?pid:int ->
    ?tid:int ->
    ?args:(string * arg) list ->
    string ->
    unit

  val counter : ?ts:float -> ?pid:int -> ?tid:int -> string -> float -> unit

  val events : unit -> event list
  (** In emission order; empty when disabled. *)

  val event_count : unit -> int
  (** Retained events (those past the cap are not counted here). *)

  val dropped_events : unit -> int
  (** Events discarded because the buffer cap was reached; 0 when
      disabled or unbounded. *)

  val open_spans : unit -> int
  (** Outstanding [Begin] without matching [End]; 0 when balanced. *)

  val to_chrome_json : unit -> string
  (** The whole sink as a Chrome trace-event JSON document. *)

  val write_chrome_json : string -> unit
  (** Write {!to_chrome_json} to a file path. *)

  val pp_summary : Format.formatter -> unit -> unit
  (** Human-readable per-span-name time totals. *)
end

(** Per-pass pipeline metrics recorded by the pass manager. *)
module Passes : sig
  val record : pass_stat -> unit
  val stats : unit -> pass_stat list
  val clear : unit -> unit

  val pp_table : Format.formatter -> unit -> unit
  (** Render the recorded stats as an aligned table (nothing when no
      stats were recorded).  Times are on the {!now} clock, processor
      time by default, so the time column is headed "cpu ms". *)
end

(** Per-run counters recorded by the {!Ir.Rewriter} drivers. *)
module Rewrites : sig
  val record : rewrite_stat -> unit
  val stats : unit -> rewrite_stat list
  val clear : unit -> unit

  val pp_table : Format.formatter -> unit -> unit
  (** Render the recorded driver counters as an aligned table (nothing
      when none were recorded). *)
end

(** Rewrite-pattern application counters (fed by the greedy driver). *)
module Patterns : sig
  val note : string -> unit
  (** Count one application of the named pattern (no-op when disabled). *)

  val counts : unit -> (string * int) list
  (** Cumulative counts, sorted by name. *)

  val diff : (string * int) list -> (string * int) list
  (** [diff snapshot] is the per-name increase of {!counts} since
      [snapshot], dropping zero entries. *)
end

(** Structured reporters: labeled IR dumps (print-after-all). *)
module Report : sig
  val set_formatter : Format.formatter -> unit
  val formatter : unit -> Format.formatter

  val ir_dump :
    pipeline:string -> pass:string -> (Format.formatter -> unit) -> unit
  (** Emit one labeled after-pass IR dump through the reporter. *)
end
