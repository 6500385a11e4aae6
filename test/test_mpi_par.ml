(* Tests for the multicore domain substrate (mpi_par) and for the
   behaviour shared across both MPI substrates through the common
   {!Mpi_intf.MPI_CORE} signature: point-to-point transport, collectives,
   deterministic wildcard matching, payload-aliasing safety (qcheck),
   backpressure, the stall watchdog, and end-to-end equivalence of the
   distributed pipeline on domains vs fibers. *)

let check = Alcotest.check
let int_c = Alcotest.int
let float_c = Alcotest.float 1e-9

let contains msg needle = Support.assert_contains ~what: "report" msg needle

(* --- substrate-generic tests, instantiated for both runtimes --- *)

module Shared (M : Mpi_intf.MPI_CORE) = struct
  let floats a = Mpi_intf.Floats a

  let test_send_recv () =
    let received = ref [||] in
    ignore
      (M.run ~ranks: 2 (fun ctx ->
           if M.rank ctx = 0 then
             M.send ctx ~dest: 1 ~tag: 0 (floats [| 1.; 2.; 3. |])
           else
             match M.recv ctx ~source: 0 ~tag: 0 with
             | Mpi_intf.Floats a -> received := a
             | _ -> ()));
    check (Alcotest.array float_c) "payload" [| 1.; 2.; 3. |] !received

  let test_exchange_pair () =
    let results = Array.make 2 0. in
    ignore
      (M.run ~ranks: 2 (fun ctx ->
           let me = M.rank ctx in
           let peer = 1 - me in
           let s =
             M.isend ctx ~dest: peer ~tag: 7 (floats [| float_of_int (10 + me) |])
           in
           let r = M.irecv ctx ~source: peer ~tag: 7 in
           M.waitall [ s; r ];
           match M.wait r with
           | Some (Mpi_intf.Floats x) -> results.(me) <- x.(0)
           | _ -> ()));
    check float_c "rank 0 got 11" 11. results.(0);
    check float_c "rank 1 got 10" 10. results.(1)

  let test_any_source_deterministic () =
    (* Ranks 1 and 2 each send one message to rank 0, then everybody
       synchronizes, and only then does rank 0 post two wildcard receives:
       both messages are pending, so deterministic matching must complete
       them in ascending source order on either substrate. *)
    let order = ref [] in
    let comm =
      M.run ~trace: true ~ranks: 3 (fun ctx ->
          let me = M.rank ctx in
          if me > 0 then M.send ctx ~dest: 0 ~tag: 4 (floats [| float_of_int me |]);
          M.barrier ctx;
          if me = 0 then
            for _ = 1 to 2 do
              match M.recv ctx ~source: Mpi_intf.any_source ~tag: 4 with
              | Mpi_intf.Floats x -> order := x.(0) :: !order
              | _ -> ()
            done)
    in
    check (Alcotest.list float_c) "ascending source order" [ 1.; 2. ]
      (List.rev !order);
    (* The timeline records the wildcard irecv and the resolved source. *)
    let resolved =
      List.filter_map
        (fun (e : Mpi_intf.timeline_event) ->
          match e.Mpi_intf.kind with
          | Mpi_intf.Recv_complete { source; tag = 4; _ } when e.Mpi_intf.ev_rank = 0 ->
              Some source
          | _ -> None)
        (M.timeline comm)
    in
    check (Alcotest.list int_c) "resolved sources" [ 1; 2 ] resolved;
    let wildcards =
      List.exists
        (fun (e : Mpi_intf.timeline_event) ->
          match e.Mpi_intf.kind with
          | Mpi_intf.Irecv { source; _ } -> source = Mpi_intf.any_source
          | _ -> false)
        (M.timeline comm)
    in
    check Alcotest.bool "wildcard irecv recorded" true wildcards

  let test_collectives () =
    let ranks = 4 in
    let bcast_got = Array.make ranks 0. in
    let reduce_got = ref 0. in
    let allreduce_got = Array.make ranks 0. in
    let gather_got = ref [] in
    ignore
      (M.run ~ranks (fun ctx ->
           let me = M.rank ctx in
           (match
              M.bcast ctx ~root: 1
                (if me = 1 then floats [| 7. |] else floats [| 0. |])
            with
           | Mpi_intf.Floats x -> bcast_got.(me) <- x.(0)
           | _ -> ());
           (match M.reduce ctx ~root: 0 `Sum (floats [| float_of_int me |]) with
           | Some (Mpi_intf.Floats x) -> reduce_got := x.(0)
           | _ -> ());
           (match M.allreduce ctx `Max (floats [| float_of_int (me * me) |]) with
           | Mpi_intf.Floats x -> allreduce_got.(me) <- x.(0)
           | _ -> ());
           (match M.gather ctx ~root: 0 (floats [| float_of_int me |]) with
           | Some parts ->
               gather_got :=
                 List.map (function Mpi_intf.Floats x -> x.(0) | _ -> nan) parts
           | None -> ());
           M.barrier ctx));
    Array.iter (fun v -> check float_c "bcast" 7. v) bcast_got;
    check float_c "reduce sum" 6. !reduce_got;
    Array.iter (fun v -> check float_c "allreduce max" 9. v) allreduce_got;
    check (Alcotest.list float_c) "gather" [ 0.; 1.; 2.; 3. ] !gather_got

  (* Satellite: mutating a received payload must never corrupt the
     sender's buffer, and mutating the sender's buffer after the send must
     not alter what the receiver observes (eager copy-out semantics). *)
  let aliasing_prop =
    QCheck.Test.make ~count: 30
      ~name: (Printf.sprintf "no payload aliasing (%s)" M.substrate)
      QCheck.(list_of_size Gen.(1 -- 16) (float_range (-1e3) 1e3))
      (fun values ->
        let original = Array.of_list values in
        let sent = Array.copy original in
        let observed = ref [||] in
        ignore
          (M.run ~ranks: 2 (fun ctx ->
               if M.rank ctx = 0 then begin
                 M.send ctx ~dest: 1 ~tag: 0 (floats sent);
                 (* Mutate the sender's buffer after the send returns. *)
                 Array.fill sent 0 (Array.length sent) nan;
                 ignore (M.recv ctx ~source: 1 ~tag: 1)
               end
               else begin
                 (match M.recv ctx ~source: 0 ~tag: 0 with
                 | Mpi_intf.Floats a ->
                     observed := Array.copy a;
                     (* Mutate the received payload in place. *)
                     Array.fill a 0 (Array.length a) infinity
                 | _ -> ());
                 M.send ctx ~dest: 0 ~tag: 1 (floats [| 0. |])
               end));
        !observed = original)

  
let suite =
    let tag name = Printf.sprintf "%s (%s)" name M.substrate in
    [
      Alcotest.test_case (tag "send/recv") `Quick test_send_recv;
      Alcotest.test_case (tag "exchange pair") `Quick test_exchange_pair;
      Alcotest.test_case
        (tag "any_source deterministic")
        `Quick test_any_source_deterministic;
      Alcotest.test_case (tag "collectives") `Quick test_collectives;
      QCheck_alcotest.to_alcotest aliasing_prop;
    ]
end

module Shared_sim = Shared (Mpi_sim)
module Shared_par = Shared (Mpi_par)

(* --- mpi_par-specific behaviour --- *)

let floats a = Mpi_intf.Floats a

let test_fifo_order () =
  let got = ref [] in
  ignore
    (Mpi_par.run ~ranks: 2 (fun ctx ->
         if Mpi_par.rank ctx = 0 then
           for i = 1 to 8 do
             Mpi_par.send ctx ~dest: 1 ~tag: 0 (floats [| float_of_int i |])
           done
         else
           for _ = 1 to 8 do
             match Mpi_par.recv ctx ~source: 0 ~tag: 0 with
             | Mpi_intf.Floats x -> got := x.(0) :: !got
             | _ -> ()
           done));
  check (Alcotest.list float_c) "fifo" [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. ]
    (List.rev !got)

let test_backpressure () =
  (* Capacity-1 mailboxes: the sender must block on the full queue and be
     woken by each receive; everything still arrives in order. *)
  let got = ref [] in
  ignore
    (Mpi_par.run_with ~queue_capacity: 1 ~stall_timeout_s: 10. ~ranks: 2
       (fun ctx ->
         if Mpi_par.rank ctx = 0 then
           for i = 1 to 16 do
             Mpi_par.send ctx ~dest: 1 ~tag: 0 (floats [| float_of_int i |])
           done
         else
           for _ = 1 to 16 do
             match Mpi_par.recv ctx ~source: 0 ~tag: 0 with
             | Mpi_intf.Floats x -> got := x.(0) :: !got
             | _ -> ()
           done));
  check int_c "all delivered" 16 (List.length !got);
  check (Alcotest.list float_c) "in order"
    (List.init 16 (fun i -> float_of_int (i + 1)))
    (List.rev !got)

let test_stall_watchdog () =
  (* Deliberately mismatched tags: rank 0 waits on tag 0, rank 1 waits on
     tag 1, nobody sends.  The watchdog must poison the run and the report
     must name each blocked domain's pending operation. *)
  match
    Mpi_par.run_with ~stall_timeout_s: 0.3 ~ranks: 2 (fun ctx ->
        let me = Mpi_par.rank ctx in
        ignore (Mpi_par.recv ctx ~source: (1 - me) ~tag: me))
  with
  | _ -> Alcotest.fail "expected Stall"
  | exception Mpi_par.Stall report ->
      contains report "rank 0";
      contains report "rank 1";
      contains report "recv";
      contains report "tag=0";
      contains report "tag=1"

let test_stall_peer_exited () =
  (* Rank 1 waits for a peer that already finished: no progress is possible
     even though one domain completed cleanly. *)
  match
    Mpi_par.run_with ~stall_timeout_s: 0.3 ~ranks: 2 (fun ctx ->
        if Mpi_par.rank ctx = 1 then
          ignore (Mpi_par.recv ctx ~source: 0 ~tag: 9))
  with
  | _ -> Alcotest.fail "expected Stall"
  | exception Mpi_par.Stall report ->
      contains report "rank 1";
      contains report "tag=9"

let test_stall_report_recent_events () =
  (* When the stalled run was traced, the watchdog report must replay each
     blocked rank's most recent timeline events with their age, so the
     deadlock can be diagnosed from the report alone. *)
  match
    Mpi_par.run_with ~stall_timeout_s: 0.3 ~trace: true ~ranks: 2 (fun ctx ->
        let me = Mpi_par.rank ctx in
        let peer = 1 - me in
        (* One successful round first, so the report has history to show. *)
        Mpi_par.send ctx ~dest: peer ~tag: 5 (Mpi_intf.Floats [| 1.; 2. |]);
        ignore (Mpi_par.recv ctx ~source: peer ~tag: 5);
        (* Then a mismatched-tag deadlock. *)
        ignore (Mpi_par.recv ctx ~source: peer ~tag: me))
  with
  | _ -> Alcotest.fail "expected Stall"
  | exception Mpi_par.Stall report ->
      contains report "blocked in";
      contains report "ago:";
      contains report "recv-complete";
      contains report "bytes=16"

let test_body_exception_propagates () =
  (* A domain raising must poison the others (blocked in recv) and the
     original exception must surface, not a stall. *)
  match
    Mpi_par.run_with ~stall_timeout_s: 10. ~ranks: 2 (fun ctx ->
        if Mpi_par.rank ctx = 0 then failwith "boom"
        else ignore (Mpi_par.recv ctx ~source: 0 ~tag: 0))
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg -> check Alcotest.string "original exception" "boom" msg

let test_bad_peer () =
  match
    Mpi_par.run ~ranks: 2 (fun ctx ->
        if Mpi_par.rank ctx = 0 then
          Mpi_par.send ctx ~dest: 5 ~tag: 0 (floats [| 1. |]))
  with
  | _ -> Alcotest.fail "expected Mpi_error"
  | exception Mpi_par.Mpi_error _ -> ()

let test_traffic_and_timeline () =
  let comm =
    Mpi_par.run ~trace: true ~ranks: 2 (fun ctx ->
        if Mpi_par.rank ctx = 0 then begin
          Mpi_par.send ctx ~dest: 1 ~tag: 0 ~bytes: 400 (floats (Array.make 100 0.));
          Mpi_par.send ctx ~dest: 1 ~tag: 0 ~bytes: 400 (floats (Array.make 100 0.))
        end
        else begin
          ignore (Mpi_par.recv ctx ~source: 0 ~tag: 0);
          ignore (Mpi_par.recv ctx ~source: 0 ~tag: 0)
        end)
  in
  check int_c "messages" 2 (Mpi_par.total_messages comm);
  check int_c "bytes" 800 (Mpi_par.total_bytes comm);
  check int_c "edge bytes = total bytes" (Mpi_par.total_bytes comm)
    (Mpi_intf.edge_bytes_of (Mpi_par.timeline comm));
  check int_c "rank1 sent nothing" 0
    (Mpi_par.rank_stats comm 1).Mpi_intf.messages;
  (* Both ranks produced events; sequence numbers are unique and dense. *)
  List.iter
    (fun r ->
      if Mpi_par.rank_timeline comm r = [] then
        Alcotest.failf "rank %d has no timeline" r)
    [ 0; 1 ];
  let seqs = List.map (fun (e : Mpi_intf.timeline_event) -> e.Mpi_intf.seq)
      (Mpi_par.timeline comm)
  in
  check (Alcotest.list int_c) "dense seq" (List.init (List.length seqs) Fun.id) seqs

(* Rank domains are parked between runs: a second run with no more ranks
   than cores gets exactly the first run's domains back. *)
let test_domains_reused () =
  let ranks = min 2 (Mpi_par.host_cores ()) in
  let ids () =
    let lock = Mutex.create () and seen = ref [] in
    ignore
      (Mpi_par.run ~ranks (fun ctx ->
           (* Every rank holds its domain until all have started: a
              trivial body could otherwise finish, park, and take the
              next rank's job on the same domain. *)
           Mpi_par.barrier ctx;
           let id = (Domain.self () :> int) in
           Mutex.protect lock (fun () -> seen := id :: !seen)));
    List.sort compare !seen
  in
  let first = ids () in
  check (Alcotest.list int_c) "same domains" first (ids ());
  check (Alcotest.list int_c) "and again" first (ids ())

(* Back-to-back runs from two domains, with allocating rank bodies so
   that collections often stop a rank between its count-out and its
   wake-up byte.  The last rank out wakes the watchdog through a pipe;
   closing that pipe before the write had finished killed the parked
   domain that made it (the next rank sent there never started), or put
   the byte into whatever file reused the descriptor (a SIGPIPE here).
   Runs go on their own domains, so a lost rank fails the deadline
   instead of hanging the suite.  Before the fix, 3 of 8 runs of this
   test failed on a 2-vCPU host. *)
let test_back_to_back_runs () =
  let runners = 2 and runs = 1000 in
  let finished = Atomic.make 0 in
  let body _ = ignore (Sys.opaque_identity (List.init 20000 Fun.id)) in
  let spawned =
    List.init runners (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to runs do
              ignore (Mpi_par.run ~ranks: 2 body);
              Atomic.incr finished
            done))
  in
  let deadline = Unix.gettimeofday () +. 20. in
  while
    Atomic.get finished < runners * runs && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.01
  done;
  check int_c "every run finished" (runners * runs) (Atomic.get finished);
  List.iter Domain.join spawned

(* Pending operations are described only when a report is built; a
   sender stuck on a full mailbox must still be named in it. *)
let test_stall_report_names_backpressure () =
  match
    Mpi_par.run_with ~queue_capacity: 1 ~stall_timeout_s: 0.3 ~ranks: 2
      (fun ctx ->
        if Mpi_par.rank ctx = 0 then
          for _ = 1 to 2 do
            Mpi_par.send ctx ~dest: 1 ~tag: 3 (floats [| 1. |])
          done
        else ignore (Mpi_par.recv ctx ~source: 0 ~tag: 4))
  with
  | _ -> Alcotest.fail "expected a stall"
  | exception Mpi_par.Stall report ->
      contains report "isend -> 1";
      contains report "(backpressure)";
      contains report "wait(recv <- 0"

(* --- end-to-end: the distributed pipeline on domains vs fibers --- *)

let test_harness_equivalence () =
  let m = Programs.heat2d_timeloop_module ~nx: 16 ~ny: 16 ~steps: 2 in
  List.iter
    (fun ranks ->
      let sim =
        Driver.Harness.run_distributed ~substrate: Driver.Harness.Sim ~ranks m
      in
      let par =
        Driver.Harness.run_distributed ~substrate: Driver.Harness.Par ~ranks m
      in
      check float_c
        (Printf.sprintf "par == serial at %d ranks" ranks)
        0. par.Driver.Harness.max_diff_vs_serial;
      check float_c
        (Printf.sprintf "sim == serial at %d ranks" ranks)
        0. sim.Driver.Harness.max_diff_vs_serial;
      check float_c
        (Printf.sprintf "par == sim at %d ranks" ranks)
        0.
        (Driver.Harness.max_result_diff par sim))
    [ 1; 2; 4; 8 ]

(* MPI_Waitall walks its handle buffer: the request list it hands the
   substrate is the handler's only allocation, and the substrate builds
   no event or stall description when tracing is off.  The bound is on
   the cheapest of 20 calls (one whose receive had already arrived), so
   a peer that is late does not count; the call's argument list and
   extern dispatch take most of it. *)
module Link_par = Driver.Runtime_link.Make (Mpi_par)

let test_waitall_allocation () =
  let least = Atomic.make max_int in
  ignore
    (Mpi_par.run ~ranks: 2 (fun ctx ->
         let ext = Link_par.externs_for (Link_par.create ctx) in
         let call name args =
           let stub = Ir.Op.make "func.call" ~attrs: [ ("callee", Ir.Typesys.Symbol_attr name) ] in
           match ext stub args with
           | Some [ r ] -> Interp.Rtval.as_int r
           | _ -> Alcotest.failf "%s: no result" name
         in
         let peer = 1 - Mpi_par.rank ctx in
         let data = Interp.Rtval.alloc_buffer [ 8 ] Ir.Typesys.f64 in
         let recv = Interp.Rtval.alloc_buffer [ 8 ] Ir.Typesys.f64 in
         let handles = Interp.Rtval.alloc_buffer [ 2 ] Ir.Typesys.i32 in
         let hs = match handles.Interp.Rtval.data with Interp.Rtval.I a -> a | _ -> assert false in
         let dt = Core.Mpi.Mpich.double and comm = Core.Mpi.Mpich.comm_world in
         for step = 1 to 20 do
           let args b = Interp.Rtval.[ Rbuf b; Ri 8; Ri dt; Ri peer; Ri step; Ri comm ] in
           hs.(0) <- call "MPI_Irecv" (args recv);
           hs.(1) <- call "MPI_Isend" (args data);
           let w0 = Gc.minor_words () in
           ignore (call "MPI_Waitall" Interp.Rtval.[ Ri 2; Rbuf handles ]);
           let w = int_of_float (Gc.minor_words () -. w0) in
           if w < Atomic.get least then Atomic.set least w
         done));
  (* 82 words at this change; 102 with untraced events and a wait
     closure per call, 124 with the handle and request lists too. *)
  if Atomic.get least > 82 then
    Alcotest.failf "MPI_Waitall: %d minor words for 2 requests" (Atomic.get least)

let suite =
  Shared_sim.suite @ Shared_par.suite
  @ [
    Alcotest.test_case "MPI_Waitall allocation per call" `Quick
      test_waitall_allocation;
      Alcotest.test_case "fifo order (par)" `Quick test_fifo_order;
      Alcotest.test_case "backpressure capacity 1" `Quick test_backpressure;
      Alcotest.test_case "stall watchdog: mismatched tags" `Quick
        test_stall_watchdog;
      Alcotest.test_case "stall watchdog: peer exited" `Quick
        test_stall_peer_exited;
      Alcotest.test_case "stall report replays recent traced events" `Quick
        test_stall_report_recent_events;
      Alcotest.test_case "body exception propagates" `Quick
        test_body_exception_propagates;
      Alcotest.test_case "bad peer" `Quick test_bad_peer;
      Alcotest.test_case "traffic + timeline" `Quick test_traffic_and_timeline;
      Alcotest.test_case "distributed pipeline: par == sim == serial" `Quick
        test_harness_equivalence;
      Alcotest.test_case "rank domains reused across runs" `Quick
        test_domains_reused;
      Alcotest.test_case "back-to-back runs keep every parked domain" `Quick
        test_back_to_back_runs;
      Alcotest.test_case "stall report names a backpressured send" `Quick
        test_stall_report_names_backpressure;
    ]
