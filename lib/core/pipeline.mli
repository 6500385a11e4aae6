(** Named pass pipelines: the shared compilation flows of fig. 1b / fig. 6.
    Every frontend lowers into the stencil dialect and then takes one of
    these, sharing all passes below the stencil level. *)

open Ir

type target =
  | Cpu_sequential
  | Cpu_openmp of { tiles : int list }
  | Distributed_cpu of {
      ranks : int;
      strategy : Decomposition.strategy;
      mode : Decomposition.exchange_mode;  (** neighbor set to exchange with *)
      tiles : int list;
      overlap : bool;  (** use the split-phase swap_begin/swap_wait flow *)
    }
  | Gpu of { managed : bool }
  | Fpga of { optimized : bool }

val target_name : target -> string

val tiles_of_string : string -> int list option
(** The one tile-list grammar, shared by [--tile], the serve protocol's
    [tile=] and target fingerprints: comma-separated positive ints
    (["8,8"] is [\[8; 8\]]), or empty for untiled.  [None] when any
    piece is not a positive int. *)

val target_fingerprint : target -> string
(** Deterministic rendering of the full target configuration (not just its
    name): two targets with equal fingerprints select identical pass
    pipelines.  Combined with the canonical module digest to key the
    artifact cache. *)

val target_of_fingerprint : string -> target option
(** Inverse of {!target_fingerprint} (used by the on-disk artifact store
    to rebuild a persisted artifact's target).  [None] on malformed input
    and on custom decomposition strategies, which carry a closure the
    rendering cannot capture. *)

val cleanup_passes : Pass.t list
(** canonicalize, cse, licm, dce — the shared MLIR-community-style passes
    run after every lowering. *)

val pipeline_for : target -> Pass.pipeline

val compile : ?verify:bool -> target -> Op.t -> Op.t
(** Run the target's pipeline; verifies the result by default. *)

val named_pipelines : (string * Pass.pipeline) list
(** Pipelines exposed by the stencilc CLI. *)
