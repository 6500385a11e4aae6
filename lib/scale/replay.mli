(** Discrete-event replay of a {!Schedule} under a {!Netmodel}: predict
    per-rank timelines and wall-clock for rank counts far beyond what the
    host can execute, without spawning a single domain.

    Every rank runs the same program (SPMD), so the replay advances one
    logical clock per rank through the schedule's per-step items; halo
    messages arrive at [sender post time + alpha + beta * bytes] and a
    wait releases when every expected arrival is in.  The emitted
    timeline uses the exact event vocabulary of the measuring substrates
    ([Span_begin "pack"], [Isend], [Waitall_begin], [Recv_complete], ...)
    so {!Analysis.analyze} — phase breakdowns, comm matrix, critical
    path, overlap efficiency — works unchanged on predicted runs. *)

type prediction = {
  p_wall_s : float;  (** slowest rank's clock at the end of the run *)
  p_rank_span_s : float array;
  p_timeline : Mpi_intf.timeline_event list;
      (** [] when the replay ran with [emit_timeline:false] *)
  p_messages : int;  (** point-to-point messages over the whole run *)
  p_bytes : int;
}

val run :
  ?model:Netmodel.t ->
  ?cores:int ->
  ?emit_timeline:bool ->
  Schedule.t ->
  prediction
(** Replay a schedule.  [model] defaults to {!Netmodel.reference}.
    [cores] (default: the schedule's rank count, i.e. one core per rank)
    time-shares host-side work: compute, pack, unpack and message
    delivery durations are multiplied by [ranks / cores] when ranks
    exceed cores — this is what
    makes predictions comparable to traced runs on an oversubscribed
    host, and is left at the no-slowdown default for cluster-style
    curves.  [emit_timeline] (default true) can be switched off to skip
    event recording when only the clocks matter (the auto-tuner's inner
    loop). *)

val predicted_efficiency :
  baseline_ranks:int -> baseline_wall_s:float -> ranks:int -> wall_s:float ->
  float
(** Strong-scaling parallel efficiency of a prediction against a
    baseline: [(baseline_wall * baseline_ranks) / (wall * ranks)]. *)
