(** Compilation as a pure, cacheable, persistable function.

    An artifact is everything that comes out of compiling one module for
    one target with one executor: the fully lowered module and the
    rank-independent compiled program ({!Interp.Executor.shared}).  The
    key is a content hash — the canonical rendering of the input module
    ({!Ir.Printer.canonical_module_string}) combined with the target
    fingerprint and executor name — so structurally identical requests
    share one compilation regardless of value-id history or attribute
    order, across ranks, runs and --serve clients.

    With a {!Store} installed ({!set_store}), every cold compile is also
    persisted to disk, and a restarted process answers previously-seen
    digests by re-parsing the persisted lowered module and re-running
    only the executor's [compile] step — the pass pipeline is skipped. *)

type t = {
  digest : string;  (** hex content hash keying the cache *)
  target : Core.Pipeline.target;
  executor_name : string;
  lowered : Ir.Op.t;  (** the module after the target's full pipeline *)
  program : Interp.Executor.shared;
      (** rank-independent compiled form; [program.instantiate] binds one
          rank's externs *)
  compile_s : float;
      (** seconds spent producing the artifact in this process: full
          lowering + executor compile on a cold compile, parse + executor
          compile on a store restore, 0 on a cache hit *)
}

val digest_of :
  ?executor:Interp.Executor.t -> target:Core.Pipeline.target -> Ir.Op.t -> string
(** The content hash (hex) an artifact for this request would carry. *)

val digest_of_parts :
  fingerprint:string -> executor_name:string -> string -> string
(** The same hash computed from its raw parts (fingerprint, executor
    name, canonical module text) — used to re-verify persisted artifacts
    without parsing them. *)

val compile :
  ?executor:Interp.Executor.t -> target:Core.Pipeline.target -> Ir.Op.t -> t
(** Compile unconditionally (no cache, no store): run the target's pass
    pipeline, verify, and compile the result with [executor] (default:
    the reference interpreter, whose compile step is the identity). *)

val get :
  ?executor:Interp.Executor.t -> target:Core.Pipeline.target -> Ir.Op.t -> t
(** {!compile} through the process-wide cache: the first request for a
    digest compiles, every later (or concurrent) request reuses the same
    artifact. *)

val get_cached :
  ?executor:Interp.Executor.t ->
  target:Core.Pipeline.target ->
  Ir.Op.t ->
  t * [ `Hit | `Miss | `Store ]
(** {!get}, also reporting how the artifact was obtained: [`Hit] from the
    in-memory cache, [`Store] restored from the on-disk store (pipeline
    skipped), [`Miss] compiled cold on the calling domain. *)

val set_store : Store.t option -> unit
(** Install (or remove) the process-wide on-disk artifact store. *)

val store : unit -> Store.t option

val warm_start : ?limit:int -> unit -> int
(** Preload valid persisted artifacts from the installed store into the
    cache (restores, never full compiles); returns how many loaded.
    Entries with unknown targets or executors are skipped. *)

val set_policy : capacity:int -> unit
(** Resize the process-wide cache (see {!Cache.set_policy}). *)

val stats : unit -> Cache.stats
(** Hit/miss/compile-time counters of the process-wide cache. *)

val clear : unit -> unit
(** Drop the process-wide cache (tests, benchmarks, simulated restarts).
    The on-disk store, if any, is left intact. *)

val cache_length : unit -> int
