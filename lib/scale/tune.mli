(** The decomposition auto-tuner: enumerate (strategy x exchange mode x
    overlap) candidates for a workload and rank count, price each via
    {!Replay}, and return the cheapest.

    The search space follows the paper's companion work on automated
    MPI code generation: the decomposition and overlap choice dominate
    at scale, and both are mechanical given a cost model.  Candidates
    whose decomposition is invalid for the module (e.g. an extent not
    divisible by the rank grid) are skipped, not errors. *)

open Ir

type candidate = {
  c_strategy : Core.Decomposition.strategy;
  c_mode : Core.Decomposition.exchange_mode;
  c_overlap : bool;
  c_grid : int list;
  c_wall_s : float;  (** replayed cost *)
  c_messages_per_step : int;
  c_bytes_per_step : int;
}

type choice = {
  best : candidate;
  considered : candidate list;  (** every scored candidate, cheapest first *)
  skipped : int;  (** candidates invalid for this module *)
}

val default_strategies : Core.Decomposition.strategy list
(** Slice1d, Slice2d, Slice3d. *)

val candidate_name : candidate -> string
(** e.g. ["slice2d/faces/overlap grid 4x2"]. *)

val tune :
  ?model:Netmodel.t ->
  ?cores:int ->
  ?strategies:Core.Decomposition.strategy list ->
  ?modes:Core.Decomposition.exchange_mode list ->
  ?overlaps:bool list ->
  ranks:int ->
  Op.t ->
  choice option
(** Score every valid candidate for a stencil-dialect module at a rank
    count; [None] when no candidate is valid.  Defaults: all slicing
    strategies, both exchange modes, overlap both off and on, the
    {!Netmodel.reference} model, one core per rank (no host
    time-sharing — tuning targets the deployment machine, not this
    host).  Ties go to the earliest candidate in enumeration order,
    which lists [Slice2d]/[Faces] first so the tuner only departs from
    the stack's defaults when the model predicts a strict win. *)

val schedule_of : candidate -> ranks:int -> Op.t -> Schedule.t
(** Re-derive the schedule of a scored candidate (for reporting). *)
