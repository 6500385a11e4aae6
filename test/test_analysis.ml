(* Tests for the timeline-analytics layer (Analysis): qcheck invariants
   over randomized message patterns on the deterministic simulator, a
   fixed heat2d 4-rank golden report, the alpha-beta network-model fit,
   and the bounded Obs event buffer. *)

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool
let eps = 1e-9

(* One randomized SPMD round on the simulator: every rank packs + sends
   its outgoing messages (eager, so this cannot deadlock), posts all its
   receives, blocks in waitall, runs an unpack phase and a barrier.
   Exercises every phase class the analyzer distinguishes. *)
let run_pattern (ranks, msgs) =
  Mpi_sim.run ~trace: true ~ranks (fun ctx ->
      let me = Mpi_sim.rank ctx in
      Mpi_sim.span_begin ctx "pack";
      List.iter
        (fun (src, dst, tag, len) ->
          if src = me then
            Mpi_sim.send ctx ~dest: dst ~tag
              (Mpi_intf.Floats (Array.make len 1.)))
        msgs;
      Mpi_sim.span_end ctx "pack";
      let reqs =
        List.filter_map
          (fun (src, dst, tag, _) ->
            if dst = me then Some (Mpi_sim.irecv ctx ~source: src ~tag)
            else None)
          msgs
      in
      Mpi_sim.waitall reqs;
      Mpi_sim.span_begin ctx "unpack";
      Mpi_sim.span_end ctx "unpack";
      Mpi_sim.barrier ctx)

let pattern_arb =
  QCheck.make
    QCheck.Gen.(
      int_range 2 4 >>= fun ranks ->
      list_size (int_range 0 12)
        (int_range 0 (ranks - 1) >>= fun src ->
         int_range 0 (ranks - 1) >>= fun dst ->
         int_range 0 3 >>= fun tag ->
         int_range 1 5 >>= fun len -> return (src, dst, tag, len))
      >>= fun msgs -> return (ranks, msgs))
    ~print: (fun (ranks, msgs) ->
      Printf.sprintf "%d ranks, msgs=[%s]" ranks
        (String.concat "; "
           (List.map
              (fun (s, d, t, l) -> Printf.sprintf "%d->%d tag%d len%d" s d t l)
              msgs)))

let analyze_pattern case =
  let ranks, _ = case in
  let comm = run_pattern case in
  (comm, Analysis.analyze ~ranks (Mpi_sim.timeline comm))

let phase_sum_prop =
  QCheck.Test.make ~count: 100
    ~name: "phase breakdown sums to each rank's span" pattern_arb (fun case ->
      let _, r = analyze_pattern case in
      Array.for_all
        (fun bd ->
          let total =
            bd.Analysis.bd_compute_s +. bd.Analysis.bd_pack_s
            +. bd.Analysis.bd_wait_s +. bd.Analysis.bd_unpack_s
            +. bd.Analysis.bd_collective_s
          in
          Float.abs (total -. bd.Analysis.bd_span_s) < eps)
        r.Analysis.r_breakdown)

let matrix_totals_prop =
  QCheck.Test.make ~count: 100
    ~name: "comm-matrix totals reconcile with timeline traffic" pattern_arb
    (fun case ->
      let comm, r = analyze_pattern case in
      Analysis.matrix_total_bytes r.Analysis.r_matrix
      = Mpi_sim.edge_bytes comm
      && Analysis.matrix_total_bytes r.Analysis.r_matrix
         = Mpi_sim.total_bytes comm
      && Analysis.matrix_total_messages r.Analysis.r_matrix
         = Mpi_sim.total_messages comm
      && r.Analysis.r_unmatched_sends = 0)

let critical_path_prop =
  QCheck.Test.make ~count: 100
    ~name: "critical path is nonnegative, additive and bounds every rank"
    pattern_arb (fun case ->
      let _, r = analyze_pattern case in
      let link_sum =
        List.fold_left
          (fun acc l -> acc +. l.Analysis.pl_dur_s)
          0. r.Analysis.r_critical_path
      in
      let max_span =
        Array.fold_left
          (fun acc bd -> Float.max acc bd.Analysis.bd_span_s)
          0. r.Analysis.r_breakdown
      in
      List.for_all (fun l -> l.Analysis.pl_dur_s > 0.) r.Analysis.r_critical_path
      && Float.abs (link_sum -. r.Analysis.r_critical_path_s) < eps
      && r.Analysis.r_critical_path_s >= max_span -. eps
      && Array.for_all (fun s -> s >= 0.) r.Analysis.r_slack_s)

let overlap_bounds_prop =
  QCheck.Test.make ~count: 100
    ~name: "overlap stats are consistent and efficiency is in [0, 1]"
    pattern_arb (fun case ->
      let _, r = analyze_pattern case in
      let ov = r.Analysis.r_overlap in
      ov.Analysis.ov_inflight_s >= 0.
      && ov.Analysis.ov_hidden_s <= ov.Analysis.ov_inflight_s +. eps
      &&
      match ov.Analysis.ov_efficiency with
      | None -> r.Analysis.r_samples = [] || ov.Analysis.ov_inflight_s = 0.
      | Some e -> e >= 0. && e <= 1.)

let determinism_prop =
  QCheck.Test.make ~count: 25
    ~name: "analysis of a deterministic timeline is deterministic"
    pattern_arb (fun case ->
      let _, r1 = analyze_pattern case in
      let _, r2 = analyze_pattern case in
      r1 = r2)

(* --- fixed 4-rank heat2d golden report --- *)

let heat_report () =
  let m = Programs.heat2d_timeloop_module ~nx: 16 ~ny: 16 ~steps: 4 in
  let r =
    Driver.Harness.run_distributed ~substrate: Driver.Harness.Sim
      ~trace: true ~ranks: 4 m
  in
  (r, Option.get r.Driver.Harness.analysis)

let test_heat_golden_report () =
  let r, a = heat_report () in
  check int_c "ranks" 4 a.Analysis.r_ranks;
  check int_c "matrix is 4x4" 4 a.Analysis.r_matrix.Analysis.cm_ranks;
  (* The matrix must reconcile exactly with the harness traffic counters
     (which come from the substrate stats, not the timeline). *)
  check int_c "matrix messages == harness messages" r.Driver.Harness.messages
    (Analysis.matrix_total_messages a.Analysis.r_matrix);
  check int_c "matrix bytes == harness bytes" r.Driver.Harness.bytes
    (Analysis.matrix_total_bytes a.Analysis.r_matrix);
  check int_c "every send matched" 0 a.Analysis.r_unmatched_sends;
  (* 2x2 topology: each rank exchanges with exactly two neighbors, and
     halo traffic is symmetric. *)
  let m = a.Analysis.r_matrix.Analysis.cm_messages in
  for src = 0 to 3 do
    check int_c
      (Printf.sprintf "rank %d has two neighbors" src)
      2
      (List.length
         (List.filter
            (fun dst -> m.(src).(dst) > 0)
            [ 0; 1; 2; 3 ]));
    for dst = 0 to 3 do
      check int_c
        (Printf.sprintf "edge %d->%d symmetric" src dst)
        m.(src).(dst)
        m.(dst).(src)
    done
  done;
  Array.iter
    (fun bd ->
      let r = bd.Analysis.bd_rank in
      check bool_c (Printf.sprintf "rank %d packed" r) true
        (bd.Analysis.bd_pack_s > 0.);
      check bool_c (Printf.sprintf "rank %d unpacked" r) true
        (bd.Analysis.bd_unpack_s > 0.);
      check bool_c (Printf.sprintf "rank %d waited" r) true
        (bd.Analysis.bd_wait_s > 0.))
    a.Analysis.r_breakdown;
  check bool_c "critical path nonempty" true (a.Analysis.r_critical_path <> []);
  let max_span =
    Array.fold_left
      (fun acc bd -> Float.max acc bd.Analysis.bd_span_s)
      0. a.Analysis.r_breakdown
  in
  check bool_c "critical path bounds the longest rank" true
    (a.Analysis.r_critical_path_s >= max_span -. eps);
  (match a.Analysis.r_overlap.Analysis.ov_efficiency with
  | None -> Alcotest.fail "expected an overlap-efficiency figure"
  | Some e -> check bool_c "efficiency in [0,1]" true (e >= 0. && e <= 1.));
  (* The report's netmodel verdict is the constrained fit's verdict on
     the same samples, in both renderings. *)
  let fit = Analysis.fit_alpha_beta a.Analysis.r_samples in
  Support.assert_contains ~what: "report json netmodel"
    (Analysis.report_json a)
    ("\"netmodel\": " ^ Analysis.fit_json fit);
  Support.assert_contains ~what: "report text netmodel"
    (Format.asprintf "%a" Analysis.pp_report a)
    (match fit with
    | Error reason -> "network model: not identified: " ^ reason
    | Ok f ->
        Printf.sprintf "network model fit: alpha=%.3e s, beta=%.3e s/byte"
          f.Analysis.f_alpha_s f.Analysis.f_beta_s_per_byte)

let test_report_renders () =
  let _, a = heat_report () in
  let text = Format.asprintf "%a" Analysis.pp_report a in
  List.iter
    (fun needle -> Support.assert_contains ~what: "report text" text needle)
    [
      "phase breakdown";
      "comm matrix";
      "critical path";
      "overlap";
      "network model";
    ];
  (* The JSON form must parse and carry the same reconciled totals. *)
  let jmember name = function
    | Test_obs.Jobj fields -> List.assoc_opt name fields
    | _ -> None
  in
  let json = Test_obs.parse_json (Analysis.report_json a) in
  (match jmember "ranks" json with
  | Some (Test_obs.Jnum n) -> check int_c "json ranks" 4 (int_of_float n)
  | _ -> Alcotest.fail "report json: no ranks field");
  match jmember "netmodel" json with
  | Some (Test_obs.Jobj _) -> ()
  | _ -> Alcotest.fail "report json: no netmodel object"

(* --- bounded Obs event buffer --- *)

let test_obs_event_cap () =
  let saved = Obs.event_cap () in
  Fun.protect
    ~finally: (fun () ->
      Obs.set_event_cap saved;
      Obs.disable ())
    (fun () ->
      Obs.set_event_cap (Some 10);
      Obs.enable ();
      for i = 1 to 25 do
        Obs.Trace.instant (Printf.sprintf "ev%d" i)
      done;
      check int_c "kept first 10" 10 (Obs.Trace.event_count ());
      check int_c "dropped the rest" 15 (Obs.Trace.dropped_events ());
      check int_c "list is bounded" 10 (List.length (Obs.Trace.events ()));
      (* keep-first: the earliest events survive *)
      (match Obs.Trace.events () with
      | first :: _ -> check Alcotest.string "first kept" "ev1" first.Obs.name
      | [] -> Alcotest.fail "no events");
      Support.assert_contains ~what: "chrome json" (Obs.Trace.to_chrome_json ())
        "\"droppedEvents\":15";
      let summary = Format.asprintf "%a" Obs.Trace.pp_summary () in
      Support.assert_contains ~what: "summary" summary "15 dropped")

let test_obs_no_cap_no_metadata () =
  let saved = Obs.event_cap () in
  Fun.protect
    ~finally: (fun () ->
      Obs.set_event_cap saved;
      Obs.disable ())
    (fun () ->
      Obs.set_event_cap None;
      Obs.enable ();
      for i = 1 to 25 do
        Obs.Trace.instant (Printf.sprintf "ev%d" i)
      done;
      check int_c "all kept" 25 (Obs.Trace.event_count ());
      check int_c "nothing dropped" 0 (Obs.Trace.dropped_events ());
      check bool_c "no dropped metadata" false
        (let json = Obs.Trace.to_chrome_json () in
         let rec has i =
           i + 13 <= String.length json
           && (String.sub json i 13 = "droppedEvents" || has (i + 1))
         in
         has 0))

let suite =
  [
    Alcotest.test_case "heat2d 4-rank golden report" `Quick
      test_heat_golden_report;
    Alcotest.test_case "report renders (text and json)" `Quick
      test_report_renders;
    Alcotest.test_case "obs event buffer cap (keep-first)" `Quick
      test_obs_event_cap;
    Alcotest.test_case "obs unbounded buffer has no dropped metadata" `Quick
      test_obs_no_cap_no_metadata;
    QCheck_alcotest.to_alcotest phase_sum_prop;
    QCheck_alcotest.to_alcotest matrix_totals_prop;
    QCheck_alcotest.to_alcotest critical_path_prop;
    QCheck_alcotest.to_alcotest overlap_bounds_prop;
    QCheck_alcotest.to_alcotest determinism_prop;
  ]
