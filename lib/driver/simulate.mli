(** SPMD execution of compiled modules on an MPI substrate: every rank
    interprets the same module with its own external-call state, exactly
    as the generated executable would run under mpirun.

    Substrate-generic via {!Spmd}; {!run_spmd} keeps its historical
    simulator-typed signature and {!run_spmd_par} runs each rank as an
    OCaml 5 domain in parallel. *)

open Ir

(** Substrate-generic SPMD execution over any {!Mpi_intf.MPI_CORE}. *)
module Spmd (M : Mpi_intf.MPI_CORE) : sig
  val run_spmd :
    ?trace:bool ->
    ?executor:Interp.Executor.t ->
    ?program:Interp.Executor.shared ->
    ?threads:int ->
    ?on_timeline:(M.comm -> unit) ->
    ranks:int ->
    func:string ->
    make_args:(M.rank_ctx -> Interp.Rtval.t list) ->
    ?collect:
      (M.rank_ctx -> Interp.Rtval.t list -> Interp.Rtval.t list -> unit) ->
    Op.t ->
    M.comm
  (** Run [func] on [ranks] ranks; [make_args] builds each rank's
      arguments (typically scattered local fields), [collect] receives
      the context, arguments and results when a rank finishes ([collect]
      calls are serialized, so collectors need no locking of their own).
      Returns the communicator for traffic inspection.

      [executor] selects the execution backend (the reference
      interpreter by default).  Per-program preparation — slot
      resolution, closure compilation — happens exactly once, before any
      rank starts; rank bodies only bind their extern handler to the
      shared program.  Callers that already hold a compiled program
      (e.g. from the {!Service.Artifact} cache) pass it as [program] and
      the module argument is not compiled at all.

      [trace] records the runtime's per-rank event timeline; the
      [on_timeline] hook (which implies [trace]) receives the
      communicator once all ranks finish, and when the {!Obs} sink is
      installed the timeline is additionally exported there as one
      Chrome "process" per rank ({!events_to_obs}). *)
end

module Sim_exec : module type of Spmd (Mpi_sim)
module Par_exec : module type of Spmd (Mpi_par)

val run_spmd :
  ?trace:bool ->
  ?executor:Interp.Executor.t ->
  ?program:Interp.Executor.shared ->
  ?threads:int ->
  ?on_timeline:(Mpi_sim.comm -> unit) ->
  ranks:int ->
  func:string ->
  make_args:(Mpi_sim.rank_ctx -> Interp.Rtval.t list) ->
  ?collect:
    (Mpi_sim.rank_ctx -> Interp.Rtval.t list -> Interp.Rtval.t list -> unit) ->
  Op.t ->
  Mpi_sim.comm
(** [Sim_exec.run_spmd]: deterministic cooperative fibers. *)

val run_spmd_par :
  ?trace:bool ->
  ?executor:Interp.Executor.t ->
  ?program:Interp.Executor.shared ->
  ?threads:int ->
  ?on_timeline:(Mpi_par.comm -> unit) ->
  ranks:int ->
  func:string ->
  make_args:(Mpi_par.rank_ctx -> Interp.Rtval.t list) ->
  ?collect:
    (Mpi_par.rank_ctx -> Interp.Rtval.t list -> Interp.Rtval.t list -> unit) ->
  Op.t ->
  Mpi_par.comm
(** [Par_exec.run_spmd]: each rank is a real OCaml 5 domain; a stall
    watchdog ({!Mpi_par.Stall}, 30 s) replaces the simulator's exact
    deadlock detection. *)

val events_to_obs : Mpi_intf.timeline_event list -> unit
(** Export a recorded timeline into the current Obs sink: pid = rank+1,
    the substrate's [ts] as timestamps (logical on sim, wall-clock on
    par), wait/waitall as spans and messages as instants carrying
    src/dst/tag/bytes edges. *)

val run_serial :
  ?executor:Interp.Executor.t ->
  func:string ->
  Op.t ->
  Interp.Rtval.t list ->
  Interp.Rtval.t list
(** Serial execution (no MPI) of [func] on the chosen executor (the
    reference interpreter by default). *)

val max_abs_diff : Interp.Rtval.buffer -> Interp.Rtval.buffer -> float
(** Equivalence metric used throughout tests and examples (infinite when
    shapes differ). *)
