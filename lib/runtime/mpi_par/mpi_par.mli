(** A true multicore SPMD substrate: each rank is an OCaml 5 [Domain].
    Rank domains are kept between runs (at most one idle domain per
    core) and reused by the next run instead of being spawned again.

    Transport is shared-memory: one bounded FIFO mailbox per
    (destination, source, tag) triple, guarded by a mutex/condvar pair,
    with an eager protocol (payloads are copied out at the send call, so
    an [isend] completes immediately unless the mailbox is full —
    backpressure blocks the sender).  Matching is FIFO per channel and
    wildcard ([any_source]) receives scan sources in ascending rank
    order, mirroring [Mpi_sim]'s deterministic matching.

    Unlike the fiber simulator there is no exact deadlock detection —
    ranks run preemptively in parallel — so a configurable {e stall
    watchdog} replaces it: if no transport operation completes for
    [stall_timeout_s] seconds while every unfinished domain is blocked
    in the transport, the run is poisoned, every domain is woken and
    unwound, and {!Stall} is raised with a report naming each blocked
    domain's pending operation. *)

exception Stall of string
(** No transport progress for the stall timeout while every unfinished
    domain was blocked; the payload is a human-readable report. *)

exception Mpi_error of string

include Mpi_intf.MPI_CORE

val host_cores : unit -> int
(** [Domain.recommended_domain_count ()]: how many domains this host can
    usefully run in parallel. *)

val run_with :
  ?stall_timeout_s:float ->
  ?queue_capacity:int ->
  ?trace:bool ->
  ranks:int ->
  (rank_ctx -> unit) ->
  comm
(** {!run} with explicit transport configuration: [stall_timeout_s] is
    the watchdog timeout (default 30 s), [queue_capacity] the mailbox
    capacity in messages before senders block (default 1024).  {!run}
    always uses the defaults. *)
