(* Each rank is a Domain; transport is one bounded mailbox per
   (dest, source, tag) guarded by a mutex/condvar pair.

   Lock-order discipline (the only nestings allowed, so no cycle exists):
     - a rank's own slot mutex, then reg_mutex (released before any
       mailbox lock) while probing mailboxes from a blocked wait;
     - every other site takes exactly one of {slot, reg, mailbox, trace}
       at a time.
   Wakeups: a sender pushes under the mailbox lock, releases it, then
   broadcasts the destination slot's condvar.  A receiver holds its slot
   mutex continuously from the poison/match check through Condition.wait,
   so a wakeup is either observed by the check or delivered to the wait —
   never lost. *)

open Mpi_intf

exception Stall of string
exception Mpi_error of string

(* Internal: raised inside a domain when the run has been poisoned
   (watchdog fired or a sibling failed); caught by the domain wrapper. *)
exception Poisoned

let substrate = "par"
let host_cores () = Domain.recommended_domain_count ()
let watchdog_timeout_s = 30.0
let mailbox_capacity = 1024

type mailbox = {
  mb_mutex : Mutex.t;
  mb_nonempty : Condition.t;
  mb_nonfull : Condition.t;
  (* Payload plus its accounted byte count, so the receive side stamps
     [Recv_complete] with exactly the bytes the matching [Isend] was
     charged (consistent with mpi_sim). *)
  mb_q : (payload * int) Queue.t;
}

type slot = {
  sl_mutex : Mutex.t;
  sl_cond : Condition.t;
  mutable sl_pending : blocked;
      (* the transport operation this rank is (or may be) blocked in,
         described only when a stall report asks *)
  mutable sl_done : bool;
  sl_stats : stats;
}

and comm = {
  world : int;
  capacity : int;
  reg_mutex : Mutex.t;
  mailboxes : (int * int * int, mailbox) Hashtbl.t; (* (dst, src, tag) *)
  slots : slot array;
  poisoned : bool Atomic.t;
  progress : int Atomic.t; (* completed transport operations *)
  finished : int Atomic.t;
  trace_on : bool;
  trace_mutex : Mutex.t;
  mutable next_seq : int;
  mutable rev_trace : timeline_event list;
  t0 : float;
}

(* [owner] is the Domain.id of the rank's main domain, captured when the
   rank body starts: mailbox mutation is only correct from that domain
   (the slot/pending discipline assumes one blocked waiter per rank), so
   every transport entry point asserts ownership.  A compute worker
   (e.g. an omp pool domain) calling send/recv fails loudly with
   [Mpi_error] instead of racing the substrate. *)
and rank_ctx = { comm : comm; me : int; owner : int }

and request =
  | Null_req of rank_ctx
  | Send_req of rank_ctx (* eager protocol: complete at creation *)
  | Recv_req of {
      ctx : rank_ctx;
      source : int; (* may be any_source *)
      tag : int;
      mutable data : payload option;
    }

(* Plain data, so entering a wait allocates no description: the text is
   built only by a stall report. *)
and blocked =
  | Running
  | Sending of { dest : int; tag : int }  (* isend under backpressure *)
  | Waiting of request
  | Waiting_all of request list

let rank ctx = ctx.me
let size ctx = ctx.comm.world
let slot_of ctx = ctx.comm.slots.(ctx.me)

let record ctx kind =
  let comm = ctx.comm in
  if comm.trace_on then begin
    Mutex.lock comm.trace_mutex;
    let seq = comm.next_seq in
    comm.next_seq <- seq + 1;
    comm.rev_trace <-
      { seq; ts = Unix.gettimeofday () -. comm.t0; ev_rank = ctx.me; kind }
      :: comm.rev_trace;
    Mutex.unlock comm.trace_mutex
  end

let span_begin ctx name = record ctx (Mpi_intf.Span_begin name)
let span_end ctx name = record ctx (Mpi_intf.Span_end name)

let check_poison comm = if Atomic.get comm.poisoned then raise Poisoned

let mailbox_for comm key =
  Mutex.lock comm.reg_mutex;
  let mb =
    match Hashtbl.find_opt comm.mailboxes key with
    | Some mb -> mb
    | None ->
        let mb =
          {
            mb_mutex = Mutex.create ();
            mb_nonempty = Condition.create ();
            mb_nonfull = Condition.create ();
            mb_q = Queue.create ();
          }
        in
        Hashtbl.add comm.mailboxes key mb;
        mb
  in
  Mutex.unlock comm.reg_mutex;
  mb

let set_pending ctx blocked =
  let sl = slot_of ctx in
  Mutex.lock sl.sl_mutex;
  sl.sl_pending <- blocked;
  Mutex.unlock sl.sl_mutex

let wake_rank comm r =
  let sl = comm.slots.(r) in
  Mutex.lock sl.sl_mutex;
  Condition.broadcast sl.sl_cond;
  Mutex.unlock sl.sl_mutex

(* Wake every domain blocked anywhere in the transport.  The mailbox list
   is snapshot under reg_mutex and released before any mailbox lock, so
   this never holds two transport locks at once. *)
let broadcast_all comm =
  Mutex.lock comm.reg_mutex;
  let mbs = Hashtbl.fold (fun _ mb acc -> mb :: acc) comm.mailboxes [] in
  Mutex.unlock comm.reg_mutex;
  List.iter
    (fun mb ->
      Mutex.lock mb.mb_mutex;
      Condition.broadcast mb.mb_nonempty;
      Condition.broadcast mb.mb_nonfull;
      Mutex.unlock mb.mb_mutex)
    mbs;
  Array.iter
    (fun sl ->
      Mutex.lock sl.sl_mutex;
      Condition.broadcast sl.sl_cond;
      Mutex.unlock sl.sl_mutex)
    comm.slots

let check_owner ctx what =
  let self = (Domain.self () :> int) in
  if self <> ctx.owner then
    raise
      (Mpi_error
         (Printf.sprintf
            "%s: rank %d's mailbox substrate touched from a foreign domain \
             (id %d, owner %d) — worker domains compute only"
            what ctx.me self ctx.owner))

let check_peer comm what peer =
  if peer < 0 || peer >= comm.world then
    raise
      (Mpi_error
         (Printf.sprintf "%s: invalid rank %d (communicator size %d)" what peer
            comm.world))

(* {2 Point-to-point} *)

let isend ctx ~dest ~tag ?bytes p =
  let comm = ctx.comm in
  check_owner ctx "isend";
  check_peer comm "isend" dest;
  check_poison comm;
  let data = copy_payload p in
  let nbytes = match bytes with Some b -> b | None -> payload_bytes data in
  let mb = mailbox_for comm (dest, ctx.me, tag) in
  set_pending ctx (Sending { dest; tag });
  Mutex.lock mb.mb_mutex;
  while
    Queue.length mb.mb_q >= comm.capacity && not (Atomic.get comm.poisoned)
  do
    Condition.wait mb.mb_nonfull mb.mb_mutex
  done;
  if Atomic.get comm.poisoned then begin
    Mutex.unlock mb.mb_mutex;
    set_pending ctx Running;
    raise Poisoned
  end;
  Queue.push (data, nbytes) mb.mb_q;
  Condition.signal mb.mb_nonempty;
  Mutex.unlock mb.mb_mutex;
  set_pending ctx Running;
  let st = (slot_of ctx).sl_stats in
  st.messages <- st.messages + 1;
  st.bytes <- st.bytes + nbytes;
  Atomic.incr comm.progress;
  if comm.trace_on then record ctx (Isend { dest; tag; bytes = nbytes });
  wake_rank comm dest;
  Send_req ctx

let try_pop comm key =
  let mb = mailbox_for comm key in
  Mutex.lock mb.mb_mutex;
  let r =
    if Queue.is_empty mb.mb_q then None
    else begin
      let p = Queue.pop mb.mb_q in
      Condition.signal mb.mb_nonfull;
      Some p
    end
  in
  Mutex.unlock mb.mb_mutex;
  r

(* Deterministic wildcard matching: lowest-ranked pending source wins. *)
let try_match ctx ~source ~tag =
  let comm = ctx.comm in
  if source = any_source then begin
    let rec scan s =
      if s >= comm.world then None
      else
        match try_pop comm (ctx.me, s, tag) with
        | Some p -> Some (s, p)
        | None -> scan (s + 1)
    in
    scan 0
  end
  else
    match try_pop comm (ctx.me, source, tag) with
    | Some p -> Some (source, p)
    | None -> None

let irecv ctx ~source ~tag =
  let comm = ctx.comm in
  check_owner ctx "irecv";
  if source <> any_source then check_peer comm "irecv" source;
  check_poison comm;
  if comm.trace_on then record ctx (Irecv { source; tag });
  Recv_req { ctx; source; tag; data = None }

let try_complete = function
  | Null_req _ | Send_req _ -> true
  | Recv_req r -> (
      match r.data with
      | Some _ -> true
      | None -> (
          match try_match r.ctx ~source:r.source ~tag:r.tag with
          | Some (src, (p, bytes)) ->
              r.data <- Some p;
              Atomic.incr r.ctx.comm.progress;
              if r.ctx.comm.trace_on then
                record r.ctx (Recv_complete { source = src; tag = r.tag; bytes });
              true
          | None -> false))

let test req =
  (match req with
  | Null_req ctx | Send_req ctx -> check_owner ctx "test"
  | Recv_req r -> check_owner r.ctx "test");
  try_complete req

let describe_request = function
  | Null_req _ -> "null"
  | Send_req _ -> "send"
  | Recv_req r ->
      Format.asprintf "recv <- %a %a" pp_source r.source pp_tag r.tag

let describe_blocked = function
  | Running -> "(unknown)"
  | Sending { dest; tag } ->
      Format.asprintf "isend -> %d %a (backpressure)" dest pp_tag tag
  | Waiting req -> "wait(" ^ describe_request req ^ ")"
  | Waiting_all reqs ->
      let pending =
        List.filter_map
          (fun r ->
            match r with
            | Recv_req rr when rr.data = None -> Some (describe_request r)
            | _ -> None)
          reqs
      in
      Printf.sprintf "waitall(%d pending: %s)" (List.length pending)
        (String.concat ", " pending)

let completed = function
  | Waiting req -> try_complete req
  | Waiting_all reqs -> List.for_all try_complete reqs
  | Running | Sending _ -> true

(* Block this rank until [completed blocked] holds.  The slot mutex is
   held from the poison/completion check through Condition.wait, so a
   sender's wakeup is either observed by the check or delivered to the
   wait. *)
let slot_wait ctx blocked =
  let comm = ctx.comm in
  let sl = slot_of ctx in
  Mutex.lock sl.sl_mutex;
  let rec loop () =
    if Atomic.get comm.poisoned then begin
      sl.sl_pending <- Running;
      Mutex.unlock sl.sl_mutex;
      raise Poisoned
    end
    else if completed blocked then begin
      sl.sl_pending <- Running;
      Mutex.unlock sl.sl_mutex
    end
    else begin
      sl.sl_pending <- blocked;
      Condition.wait sl.sl_cond sl.sl_mutex;
      loop ()
    end
  in
  loop ()

let wait req =
  match req with
  | Null_req ctx | Send_req ctx ->
      check_owner ctx "wait";
      (* Eager protocol: already complete, but stamp the wait span so both
         substrates' timelines carry the same events. *)
      if ctx.comm.trace_on then record ctx (Wait_begin (describe_request req));
      record ctx Wait_end;
      None
  | Recv_req r ->
      let ctx = r.ctx in
      check_owner ctx "wait";
      if ctx.comm.trace_on then record ctx (Wait_begin (describe_request req));
      slot_wait ctx (Waiting req);
      record ctx Wait_end;
      r.data

let ctx_of_request = function
  | Null_req ctx | Send_req ctx -> ctx
  | Recv_req r -> r.ctx

let waitall reqs =
  match reqs with
  | [] -> ()
  | first :: _ ->
      let ctx = ctx_of_request first in
      check_owner ctx "waitall";
      if ctx.comm.trace_on then record ctx (Waitall_begin (List.length reqs));
      slot_wait ctx (Waiting_all reqs);
      record ctx Waitall_end

let send ctx ~dest ~tag ?bytes p = ignore (isend ctx ~dest ~tag ?bytes p)

let recv ctx ~source ~tag =
  match wait (irecv ctx ~source ~tag) with
  | Some p -> p
  | None -> raise (Mpi_error "recv: request completed without a payload")

let null_request ctx = Null_req ctx

(* {2 Collectives} — shared algorithms, identical reduction order to
   the simulator. *)

module C = Collectives (struct
  type nonrec rank_ctx = rank_ctx

  let rank = rank
  let size = size
  let send = send
  let recv = recv

  let note_collective ctx name =
    let st = (slot_of ctx).sl_stats in
    st.collectives <- st.collectives + 1;
    record ctx (Collective name)

  let payload_error msg = raise (Mpi_error msg)
end)

let bcast = C.bcast
let reduce = C.reduce
let allreduce = C.allreduce
let gather = C.gather
let barrier = C.barrier

(* {2 The runner and its watchdog} *)

let make_comm ~trace ~ranks ~capacity =
  {
    world = ranks;
    capacity;
    reg_mutex = Mutex.create ();
    mailboxes = Hashtbl.create 64;
    slots =
      Array.init ranks (fun _ ->
          {
            sl_mutex = Mutex.create ();
            sl_cond = Condition.create ();
            sl_pending = Running;
            sl_done = false;
            sl_stats = { messages = 0; bytes = 0; collectives = 0 };
          });
    poisoned = Atomic.make false;
    progress = Atomic.make 0;
    finished = Atomic.make 0;
    trace_on = trace;
    trace_mutex = Mutex.create ();
    next_seq = 0;
    rev_trace = [];
    t0 = Unix.gettimeofday ();
  }

(* How many trailing timeline events each blocked rank contributes to a
   stall report. *)
let stall_report_events = 5

let stall_report ~timeout comm =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "mpi_par stall: no transport progress for %.2fs across %d domain(s)"
       timeout comm.world);
  let now = Unix.gettimeofday () -. comm.t0 in
  (* Newest-first tail of a rank's timeline, so a deadlock is diagnosable
     from the report alone: op, peer, tag, bytes and how long ago. *)
  let recent_events r =
    if not comm.trace_on then []
    else begin
      Mutex.lock comm.trace_mutex;
      let rec take n = function
        | ev :: rest when n > 0 && ev.ev_rank = r ->
            ev :: take (n - 1) rest
        | _ :: rest when n > 0 -> take n rest
        | _ -> []
      in
      let evs = take stall_report_events comm.rev_trace in
      Mutex.unlock comm.trace_mutex;
      evs
    end
  in
  Array.iteri
    (fun r sl ->
      Mutex.lock sl.sl_mutex;
      let pending = sl.sl_pending and finished = sl.sl_done in
      Mutex.unlock sl.sl_mutex;
      if not finished then begin
        Buffer.add_string b
          (Printf.sprintf "\n  rank %d blocked in %s" r
             (describe_blocked pending));
        List.iter
          (fun ev ->
            Buffer.add_string b
              (Format.asprintf "\n    %.3fs ago: %a"
                 (Float.max 0. (now -. ev.ts))
                 pp_event ev))
          (recent_events r)
      end)
    comm.slots;
  Buffer.contents b

(* Rank domains outlive their run.  A rank that finished parks its domain
   here, at most one per core, and the next run hands it a new body
   instead of spawning a domain, which saves the spawn and the minor
   collection that tears a domain down (about 1.5 per 2-rank run). *)
module Pool = struct
  type worker = {
    w_mutex : Mutex.t;
    w_cond : Condition.t;
    mutable w_job : ((unit -> unit) * (unit -> unit)) option;
  }

  let lock = Mutex.create ()
  let idle : worker list ref = ref []
  let keep = lazy (host_cores ())

  let rec serve w =
    Mutex.lock w.w_mutex;
    while Option.is_none w.w_job do
      Condition.wait w.w_cond w.w_mutex
    done;
    let job, finish = Option.get w.w_job in
    w.w_job <- None;
    Mutex.unlock w.w_mutex;
    job ();
    let park =
      Mutex.protect lock (fun () ->
          let room = List.length !idle < Lazy.force keep in
          if room then idle := w :: !idle;
          room)
    in
    finish ();
    if park then serve w

  (* Run [job] then [finish], neither of which may raise, on a parked
     domain or a new one.  The domain is parked again before [finish]
     runs, so a run that waits for every [finish] finds its domains back
     in the pool. *)
  let run job finish =
    Mutex.lock lock;
    match !idle with
    | w :: rest ->
        idle := rest;
        Mutex.unlock lock;
        Mutex.lock w.w_mutex;
        w.w_job <- Some (job, finish);
        Condition.signal w.w_cond;
        Mutex.unlock w.w_mutex
    | [] ->
        Mutex.unlock lock;
        let w =
          {
            w_mutex = Mutex.create ();
            w_cond = Condition.create ();
            w_job = Some (job, finish);
          }
        in
        ignore (Domain.spawn (fun () -> serve w))
end

let run_with ?stall_timeout_s ?queue_capacity ?(trace = false) ~ranks body =
  if ranks < 1 then raise (Mpi_error "run: ranks must be >= 1");
  let timeout = Option.value stall_timeout_s ~default: watchdog_timeout_s in
  let capacity = Option.value queue_capacity ~default: mailbox_capacity in
  if capacity < 1 then raise (Mpi_error "run: queue capacity must be >= 1");
  let comm = make_comm ~trace ~ranks ~capacity in
  (* The last rank to finish writes one byte here, so the watchdog below
     wakes the moment the run is over instead of at its next poll. *)
  let done_r, done_w = Unix.pipe ~cloexec: true () in
  let failures = Array.make ranks None in
  let domain_body r () =
    (* Runs inside the rank's domain: this domain IS the rank's main
       domain, so its id is the mailbox owner for the whole rank body. *)
    let ctx = { comm; me = r; owner = (Domain.self () :> int) } in
    (try body ctx with
    | Poisoned -> ()
    | e ->
        failures.(r) <- Some e;
        Atomic.set comm.poisoned true;
        broadcast_all comm);
    let sl = comm.slots.(r) in
    Mutex.lock sl.sl_mutex;
    sl.sl_done <- true;
    sl.sl_pending <- Running;
    Mutex.unlock sl.sl_mutex
  in
  let finish () =
    if Atomic.fetch_and_add comm.finished 1 = ranks - 1 then
      ignore (Unix.write_substring done_w "x" 0 1)
  in
  for r = 0 to ranks - 1 do
    Pool.run (domain_body r) finish
  done;
  (* Watchdog: the calling thread sleeps on [done_r], sampling progress
     every [poll_s], until every domain finished.  A stall is declared
     only when no transport operation completed for [timeout] seconds AND
     every unfinished domain is blocked in the transport (a long
     pure-compute phase is not a stall). *)
  let poll_s = Float.min 0.05 (timeout /. 10.) in
  let stalled = ref None in
  let last_progress = ref (Atomic.get comm.progress) in
  let last_change = ref (Unix.gettimeofday ()) in
  let all_blocked () =
    Array.for_all
      (fun sl ->
        Mutex.lock sl.sl_mutex;
        let b = sl.sl_done || sl.sl_pending != Running in
        Mutex.unlock sl.sl_mutex;
        b)
      comm.slots
  in
  let sleep () =
    match Unix.select [ done_r ] [] [] poll_s with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  while Atomic.get comm.finished < ranks && !stalled = None do
    sleep ();
    let p = Atomic.get comm.progress in
    if p <> !last_progress || Atomic.get comm.poisoned then begin
      last_progress := p;
      last_change := Unix.gettimeofday ()
    end
    else if Unix.gettimeofday () -. !last_change >= timeout && all_blocked ()
    then begin
      stalled := Some (stall_report ~timeout comm);
      Atomic.set comm.poisoned true;
      broadcast_all comm
    end
  done;
  (* Every rank is out (a poisoned run's ranks unwind first) once the
     last one's byte arrives, and only then may the pipe close: [finished]
     reaches [ranks] just before that write, and a descriptor closed under
     the writer fails it (killing a parked pool domain, whose next job
     then never starts) or, once reused, puts the byte into another file
     such as a client socket. *)
  let byte = Bytes.create 1 in
  let rec await_last () =
    match Unix.read done_r byte 0 1 with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> await_last ()
  in
  await_last ();
  Unix.close done_r;
  Unix.close done_w;
  Array.iter (function Some e -> raise e | None -> ()) failures;
  (match !stalled with Some report -> raise (Stall report) | None -> ());
  comm

let run ?trace ~ranks body = run_with ?trace ~ranks body

(* {2 Introspection} *)

let timeline comm = List.rev comm.rev_trace
let rank_timeline comm r = List.filter (fun ev -> ev.ev_rank = r) (timeline comm)

let total_messages comm =
  Array.fold_left (fun acc sl -> acc + sl.sl_stats.messages) 0 comm.slots

let total_bytes comm =
  Array.fold_left (fun acc sl -> acc + sl.sl_stats.bytes) 0 comm.slots

let rank_stats comm r = comm.slots.(r).sl_stats
