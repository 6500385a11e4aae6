(** End-to-end distributed execution harness: serial reference run,
    distribution + full lowering to MPI_* calls, execution on a chosen
    substrate (simulated fibers or real OCaml 5 domains), interior gather
    and comparison.  Shared by [stencilc --run-par]/[--run-sim], the
    bench [scale] section and the parallel-runtime tests. *)

open Ir

type substrate = Sim | Par

type result = {
  ranks : int;
  grid : int list;  (** rank topology chosen by the distribution pass *)
  substrate_name : string;  (** "sim" or "par" *)
  executor_name : string;  (** backend of the distributed run, e.g. "compiled" *)
  overlap : bool;  (** split-phase swaps with interior/boundary overlap *)
  serial_wall_s : float;  (** wall-clock of the serial interpreter run *)
  wall_s : float;  (** wall-clock of the distributed run (incl. scatter/gather) *)
  max_diff_vs_serial : float;
      (** max abs interior difference vs the serial reference *)
  messages : int;
  bytes : int;
  domain : int list;  (** global interior extents *)
  gathered : Interp.Rtval.buffer list;  (** gathered result buffers *)
  serial : Interp.Rtval.buffer list;  (** serial result buffers *)
  analysis : Analysis.report option;
      (** timeline analytics (breakdown, comm matrix, critical path,
          overlap); [Some] iff the run was traced *)
}

val run_distributed :
  ?substrate:substrate ->
  ?strategy:Core.Decomposition.strategy ->
  ?mode:Core.Decomposition.exchange_mode ->
  ?trace:bool ->
  ?executor:Interp.Executor.t ->
  ?seed:int ->
  ?func:string ->
  ?overlap:bool ->
  ?tiles:int list ->
  ?threads_per_rank:int ->
  ranks:int ->
  Op.t ->
  result
(** Run a stencil-dialect module distributed over [ranks].  [func]
    defaults to the first function with a [sym_name]; inputs are
    deterministically initialized from [seed] (default 0); [substrate]
    defaults to {!Sim}.  [mode] (default [Faces]) selects the neighbor
    set halo exchanges cover.  [executor] selects the backend for the
    distributed run (default: reference interpreter); the serial
    reference always runs interpreted, as the oracle.  [overlap]
    (default true) applies the split-phase communication/computation
    overlap transformation before lowering — the executed distributed
    pipeline.  [tiles] (default [[]], untiled) selects cache-block sizes
    for the tiled omp lowering; [threads_per_rank] (default 1) sizes the
    per-rank domain pool the compiled executor schedules [omp.parallel]
    regions onto (the interpreter ignores it — it is the sequential
    oracle).  Every result
    buffer is gathered and compared against its serial counterpart over
    the global interior. *)

val max_result_diff : result -> result -> float
(** Max abs interior difference between two runs' gathered results
    (infinite when the result counts differ) — the cross-substrate
    equivalence check. *)

val interior_diff :
  domain:int list -> Interp.Rtval.buffer -> Interp.Rtval.buffer -> float
(** Max abs difference over the interior [0, domain_d) per dimension. *)

val default_func : Op.t -> string
(** First function symbol in the module. *)

val field_args : Op.t -> string -> (Typesys.ty * Typesys.bound list) list
(** Field (buffer) arguments of a function: (element type, global bounds)
    per buffer argument. *)

val global_field :
  seed:int -> Typesys.ty * Typesys.bound list -> Interp.Rtval.buffer
(** Deterministically initialized global buffer for one field argument. *)

val rebase : Interp.Rtval.buffer -> Interp.Rtval.buffer
(** Alias of a buffer with all logical lower bounds set to zero (the
    memref view of a field). *)
