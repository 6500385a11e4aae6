(** Timeline analytics: the decision-making layer over recorded MPI
    substrate timelines.

    [Obs] and the substrates record raw events (isend/irecv/wait spans,
    pcontrol phases); this module turns one run's
    {!Mpi_intf.timeline_event} list into answers: a per-rank
    compute/pack/wait/unpack/collective breakdown, a rank{^ 2}
    communication matrix whose byte totals reconcile with the timeline's
    [Isend] edge bytes, the critical path through the happens-before
    graph induced by send->recv edges, an overlap-efficiency figure
    (hidden-communication time over total in-flight time), and the
    matched (bytes, latency) message samples an alpha-beta network-model
    fit is computed from.

    Everything here is pure: no clocks, no global state.  Timestamps are
    whatever the substrate stamped — wall-clock seconds on [mpi_par]
    (where latencies and the fitted model are physical), the
    deterministic logical clock on [mpi_sim] (where the same analyses
    describe structure: event counts, orderings, message edges). *)

(** Phase classification of one slice of a rank's time.  [Flight] only
    appears on critical-path links (a message in the network between two
    ranks); rank breakdowns use the other five. *)
type phase = Compute | Pack | Exchange_wait | Unpack | Collective_phase | Flight

val phase_name : phase -> string

type rank_phases = {
  bd_rank : int;
  bd_span_s : float;  (** last event ts - first event ts on this rank *)
  bd_compute_s : float;  (** residual: not in any tracked phase *)
  bd_pack_s : float;  (** inside pcontrol "pack" spans *)
  bd_wait_s : float;  (** blocked in wait/waitall on halo exchanges *)
  bd_unpack_s : float;  (** inside pcontrol "unpack" spans *)
  bd_collective_s : float;  (** blocked in collective-tag waits *)
  bd_events : int;
}
(** The five phase durations sum to [bd_span_s] (up to float addition
    error): every inter-event gap is attributed to exactly one phase. *)

type comm_matrix = {
  cm_ranks : int;
  cm_messages : int array array;  (** [(src).(dst)] message count *)
  cm_bytes : int array array;  (** [(src).(dst)] accounted payload bytes *)
  cm_latency_s : float array array;
      (** [(src).(dst)] summed in-flight time (send post to matched
          receive completion) over matched messages on that edge *)
}

val matrix_total_messages : comm_matrix -> int
val matrix_total_bytes : comm_matrix -> int

type msg_sample = {
  ms_src : int;
  ms_dst : int;
  ms_tag : int;
  ms_bytes : int;
  ms_send_ts : float;
  ms_recv_ts : float;  (** >= [ms_send_ts]; clamped if clocks raced *)
}
(** One matched [Isend] -> [Recv_complete] pair (FIFO per (src, dst,
    tag), mirroring both substrates' matching rule). *)

type path_link = {
  pl_rank : int;  (** receiving rank for [Flight] links *)
  pl_phase : phase;
  pl_dur_s : float;
}

type overlap_stats = {
  ov_inflight_s : float;  (** total in-flight time of matched messages *)
  ov_exposed_s : float;  (** total time ranks sat blocked in exchange waits *)
  ov_hidden_s : float;  (** max 0 (inflight - exposed) *)
  ov_efficiency : float option;
      (** hidden / inflight; [None] when no messages were matched *)
}

type report = {
  r_ranks : int;
  r_breakdown : rank_phases array;  (** indexed by rank *)
  r_matrix : comm_matrix;
  r_critical_path : path_link list;
      (** merged (rank, phase, duration) links, run start to run end *)
  r_critical_path_s : float;
      (** length of the longest happens-before chain; at least the
          longest single-rank span *)
  r_slack_s : float array;
      (** per rank: critical path length minus that rank's span *)
  r_overlap : overlap_stats;
  r_samples : msg_sample list;  (** calibration input, matched order *)
  r_unmatched_sends : int;  (** Isend events with no Recv_complete *)
}

val analyze : ranks:int -> Mpi_intf.timeline_event list -> report
(** Analyze one run's timeline (as returned by a substrate's [timeline]
    accessor, any event order — events are re-sorted by [seq]). *)

(** {1 Network-model calibration}

    The alpha-beta postal model [latency = alpha + beta * bytes] fitted
    from matched message samples.  Samples are bucketed per message
    size, latency outliers within each bucket are dropped
    (domain-descheduling stalls on oversubscribed hosts), the line is
    fitted to the bucket means weighted by kept-sample count, and alpha
    and beta are constrained nonnegative.  A fit that cannot be
    identified fails loudly ([Error] with the reason) instead of
    emitting nonsense coefficients. *)

type bucket = {
  bk_bytes : int;  (** message size of this bucket *)
  bk_samples : int;  (** samples observed at this size *)
  bk_kept : int;  (** samples surviving outlier rejection *)
  bk_mean_s : float;  (** mean latency of the kept samples *)
}

type fit = {
  f_alpha_s : float;  (** >= 0 *)
  f_beta_s_per_byte : float;  (** >= 0 *)
  f_r2 : float;
      (** coefficient of determination of the constrained line over the
          weighted bucket means — honest: can be <= 0 when the
          constraints bind *)
  f_samples : int;  (** kept samples across all buckets *)
  f_dropped : int;  (** outliers rejected *)
  f_buckets : bucket list;  (** ascending by size *)
}

val fit_alpha_beta : msg_sample list -> (fit, string) result
(** Bucketed constrained least squares.  Samples whose latency exceeds 4x
    their bucket's median are dropped; 2 distinct message sizes and 8
    surviving samples are required to identify the line — otherwise
    [Error reason]. *)

(** {1 Rendering} *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable multi-section report (breakdown table, comm matrix,
    critical path, overlap, fit). *)

val report_json : report -> string
(** The whole report as a JSON document (machine-readable [--report=json]
    form). *)

val fit_json : (fit, string) result -> string
(** One fit verdict as a JSON object (the [netmodel] member of
    {!report_json}).  On [Error], alpha/beta/r² are [null] with a
    ["fit_error"] field naming the reason. *)
