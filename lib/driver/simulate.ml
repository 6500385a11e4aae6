(* SPMD execution of a compiled module on an MPI substrate: every rank
   interprets the same module with its own external-call state, exactly as
   the generated executable would run under mpirun.

   Substrate-generic via the [Spmd] functor: [Sim_exec] runs ranks as
   deterministic cooperative fibers (Mpi_sim), [Par_exec] runs each rank
   as an OCaml 5 domain in parallel (Mpi_par).  The top-level [run_spmd]
   keeps its historical simulator-typed signature. *)

open Ir

(* Convert a recorded per-rank timeline into Obs trace events (one Chrome
   "process" per rank; the substrate's [ts] field as the timestamp —
   logical sequence "microseconds" on the simulator, real wall-clock
   seconds on the parallel runtime) so rank timelines land in the same
   exported trace as the compiler's pass spans. *)
let events_to_obs (events : Mpi_intf.timeline_event list) : unit =
  List.iter
    (fun (ev : Mpi_intf.timeline_event) ->
      let pid = ev.Mpi_intf.ev_rank + 1 in
      let ts = ev.Mpi_intf.ts in
      let cat = "mpi" in
      match ev.Mpi_intf.kind with
      | Mpi_intf.Isend { dest; tag; bytes } ->
          Obs.Trace.instant ~ts ~cat ~pid
            ~args:
              [
                ("src", Obs.Int ev.Mpi_intf.ev_rank);
                ("dst", Obs.Int dest);
                ("tag", Obs.Int tag);
                ("bytes", Obs.Int bytes);
              ]
            (Printf.sprintf "isend->%d" dest)
      | Mpi_intf.Irecv { source; tag } ->
          Obs.Trace.instant ~ts ~cat ~pid
            ~args: [ ("src", Obs.Int source); ("tag", Obs.Int tag) ]
            (Printf.sprintf "irecv<-%d" source)
      | Mpi_intf.Recv_complete { source; tag; bytes } ->
          Obs.Trace.instant ~ts ~cat ~pid
            ~args:
              [
                ("src", Obs.Int source);
                ("tag", Obs.Int tag);
                ("bytes", Obs.Int bytes);
              ]
            (Printf.sprintf "recv<-%d" source)
      | Mpi_intf.Wait_begin what ->
          Obs.Trace.begin_span ~ts ~cat ~pid
            ~args: [ ("what", Obs.Str what) ]
            "wait"
      | Mpi_intf.Wait_end -> Obs.Trace.end_span ~ts ~pid "wait"
      | Mpi_intf.Waitall_begin n ->
          Obs.Trace.begin_span ~ts ~cat ~pid
            ~args: [ ("requests", Obs.Int n) ]
            "waitall"
      | Mpi_intf.Waitall_end -> Obs.Trace.end_span ~ts ~pid "waitall"
      | Mpi_intf.Collective name ->
          Obs.Trace.instant ~ts ~cat ~pid ("collective:" ^ name)
      | Mpi_intf.Span_begin name -> Obs.Trace.begin_span ~ts ~cat ~pid name
      | Mpi_intf.Span_end name -> Obs.Trace.end_span ~ts ~pid name)
    events

(* Substrate-generic SPMD execution.  [make_args] builds each rank's
   argument list (typically scattered local fields); [collect] receives
   the rank context, its argument list and the function results once the
   rank finishes.  On the parallel substrate rank bodies run concurrently,
   so [collect] calls are serialized under a mutex — collectors may write
   into shared (per-rank-disjoint or root-only) structures without their
   own locking, exactly as the fiber-based collectors always have. *)
module Spmd (M : Mpi_intf.MPI_CORE) = struct
  module RL = Runtime_link.Make (M)

  let run_spmd ?(trace = false)
      ?(executor = Interp.Executor.interpreter)
      ?(program : Interp.Executor.shared option) ?(threads = 1)
      ?(on_timeline : (M.comm -> unit) option) ~(ranks : int)
      ~(func : string) ~(make_args : M.rank_ctx -> Interp.Rtval.t list)
      ?(collect :
          (M.rank_ctx -> Interp.Rtval.t list -> Interp.Rtval.t list -> unit)
          option) (m : Op.t) : M.comm =
    let trace = trace || on_timeline <> None in
    let collect_mutex = Mutex.create () in
    (* All per-program work (slot resolution, closure compilation) happens
       ONCE, here, before any rank starts: the shared program is
       rank-independent by construction.  Callers that already hold a
       compiled artifact pass it as [program] and skip even that. *)
    let shared =
      match program with
      | Some p -> p
      | None -> executor.Interp.Executor.compile m
    in
    let comm =
      M.run ~trace ~ranks (fun ctx ->
          let st = RL.create ctx in
          (* Per-rank work: bind this rank's extern handler (its MPI_*
             ABI) to the shared program, and spin up its intra-rank
             worker pool when [threads > 1].  The instance must be
             released even on failure — worker domains are a capped
             resource. *)
          let inst =
            shared.Interp.Executor.instantiate
              ~externs: (RL.externs_for st) ~threads ()
          in
          Fun.protect
            ~finally: (fun () -> inst.Interp.Executor.release ())
            (fun () ->
              let args = make_args ctx in
              let results = inst.Interp.Executor.runf func args in
              match collect with
              | Some f ->
                  Mutex.lock collect_mutex;
                  Fun.protect
                    ~finally: (fun () -> Mutex.unlock collect_mutex)
                    (fun () -> f ctx args results)
              | None -> ()))
    in
    if trace then begin
      (match on_timeline with Some f -> f comm | None -> ());
      if Obs.Trace.enabled () then events_to_obs (M.timeline comm)
    end;
    comm
end

module Sim_exec = Spmd (Mpi_sim)
module Par_exec = Spmd (Mpi_par)

(* The historical simulator-typed entry point. *)
let run_spmd = Sim_exec.run_spmd

(* Parallel execution: each rank is a real domain; a stall watchdog
   (Mpi_par.Stall) replaces the simulator's exact deadlock detection. *)
let run_spmd_par = Par_exec.run_spmd

(* Serial execution (no MPI): run [func] with the given arguments on the
   chosen executor (the reference interpreter by default). *)
let run_serial ?(executor = Interp.Executor.interpreter) ~(func : string)
    (m : Op.t) (args : Interp.Rtval.t list) : Interp.Rtval.t list =
  executor.Interp.Executor.prepare m func args

(* Maximum absolute difference between two float buffers, used by
   equivalence checks throughout tests and examples. *)
let max_abs_diff (a : Interp.Rtval.buffer) (b : Interp.Rtval.buffer) : float
    =
  let fa = Interp.Rtval.float_contents a in
  let fb = Interp.Rtval.float_contents b in
  if Array.length fa <> Array.length fb then infinity
  else begin
    let worst = ref 0. in
    Array.iteri
      (fun i v -> worst := Float.max !worst (Float.abs (v -. fb.(i))))
      fa;
    !worst
  end
