(* Tests for the scale-out subsystem (lib/scale): symbolic schedule
   extraction, discrete-event replay (including that predicted timelines
   satisfy every Analysis invariant real traces satisfy), the bucketed
   constrained netmodel calibration, and the decomposition auto-tuner. *)

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool
let eps = 1e-9

let heat2d ~nx ~ny ~steps = Programs.heat2d_timeloop_module ~nx ~ny ~steps

(* --- schedule extraction --- *)

(* The symbolic schedule must agree exactly with what an executed run
   sends: same message count, same byte volume, for face-only and
   diagonal exchanges (fig 8's Devito schedule), fused and split. *)
let test_schedule_matches_executed_run () =
  let m = heat2d ~nx: 8 ~ny: 8 ~steps: 3 in
  List.iter
    (fun (mode, overlap) ->
      let label =
        Printf.sprintf "(mode=%s overlap=%b)"
          (Core.Decomposition.mode_name mode)
          overlap
      in
      let s = Scale.Schedule.of_module ~mode ~overlap ~ranks: 4 m in
      let r =
        Driver.Harness.run_distributed ~substrate: Driver.Harness.Sim ~mode
          ~overlap ~ranks: 4 m
      in
      check int_c ("messages " ^ label) r.Driver.Harness.messages
        (Scale.Schedule.total_messages s);
      check int_c ("bytes " ^ label) r.Driver.Harness.bytes
        (Scale.Schedule.total_bytes s);
      check Alcotest.(list int) ("grid " ^ label) r.Driver.Harness.grid
        s.Scale.Schedule.grid)
    [
      (Core.Decomposition.Faces, false);
      (Core.Decomposition.Faces, true);
      (Core.Decomposition.Diagonals, false);
      (Core.Decomposition.Diagonals, true);
    ]

let test_schedule_shape () =
  let m = heat2d ~nx: 8 ~ny: 8 ~steps: 5 in
  let s = Scale.Schedule.of_module ~overlap: false ~ranks: 4 m in
  check int_c "steps" 5 s.Scale.Schedule.steps;
  check int_c "elt bytes" 4 s.Scale.Schedule.elt_bytes;
  (* 2x2 grid, faces: every rank has 2 neighbors -> 8 messages/step. *)
  check Alcotest.(list int) "grid" [ 2; 2 ] s.Scale.Schedule.grid;
  check int_c "messages/step" 8 (Scale.Schedule.messages_per_step s);
  (* Interior 4x4 per rank. *)
  check int_c "cells/step" 16 (Scale.Schedule.cells_per_step s);
  (* Sends and receives pair up across the whole grid: every (dest, tag)
     posted by some rank is expected by that dest. *)
  let swaps = Array.length s.Scale.Schedule.swaps in
  for swap = 0 to swaps - 1 do
    let expected = Hashtbl.create 16 in
    for rank = 0 to 3 do
      List.iter
        (fun (src, tag, bytes) -> Hashtbl.add expected (src, rank, tag) bytes)
        (Scale.Schedule.rank_recvs s ~swap ~rank)
    done;
    for rank = 0 to 3 do
      List.iter
        (fun (dest, tag, bytes) ->
          match Hashtbl.find_opt expected (rank, dest, tag) with
          | Some b -> check int_c "send/recv bytes agree" b bytes
          | None -> Alcotest.failf "send %d->%d tag %d unexpected" rank dest tag)
        (Scale.Schedule.rank_sends s ~swap ~rank)
    done
  done

let test_schedule_overlap_split () =
  let m = heat2d ~nx: 8 ~ny: 8 ~steps: 2 in
  let s = Scale.Schedule.of_module ~overlap: true ~ranks: 4 m in
  let begins, waits, fused =
    List.fold_left
      (fun (b, w, f) -> function
        | Scale.Schedule.Swap_begin _ -> (b + 1, w, f)
        | Scale.Schedule.Swap_wait _ -> (b, w + 1, f)
        | Scale.Schedule.Swap _ -> (b, w, f + 1)
        | Scale.Schedule.Compute _ -> (b, w, f))
      (0, 0, 0) s.Scale.Schedule.body
  in
  check bool_c "has split swaps" true (begins > 0);
  check int_c "begin/wait paired" begins waits;
  check int_c "no fused swaps left" 0 fused

(* --- replay --- *)

let replay ?model ?cores ~overlap ~ranks m =
  let s = Scale.Schedule.of_module ~overlap ~ranks m in
  (s, Scale.Replay.run ?model ?cores s)

(* Replayed timelines must satisfy the same invariants Analysis
   guarantees on real traces: phase buckets sum to the rank span, the
   comm matrix reconciles with the schedule's totals, the critical path
   is at least the longest rank span, and every send is matched. *)
let replay_invariants (nx, ny, steps, ranks, overlap) =
  let m = heat2d ~nx ~ny ~steps in
  let s, p = replay ~overlap ~ranks m in
  let a = Analysis.analyze ~ranks p.Scale.Replay.p_timeline in
  let max_span =
    Array.fold_left
      (fun acc bd -> Float.max acc bd.Analysis.bd_span_s)
      0. a.Analysis.r_breakdown
  in
  Array.iter
    (fun bd ->
      let sum =
        bd.Analysis.bd_compute_s +. bd.Analysis.bd_pack_s
        +. bd.Analysis.bd_wait_s +. bd.Analysis.bd_unpack_s
        +. bd.Analysis.bd_collective_s
      in
      if Float.abs (sum -. bd.Analysis.bd_span_s) > 1e-6 then
        Alcotest.failf "rank %d: phase sum %.9f <> span %.9f"
          bd.Analysis.bd_rank sum bd.Analysis.bd_span_s)
    a.Analysis.r_breakdown;
  check int_c "matrix messages = schedule messages"
    (Scale.Schedule.total_messages s)
    (Analysis.matrix_total_messages a.Analysis.r_matrix);
  check int_c "matrix bytes = schedule bytes"
    (Scale.Schedule.total_bytes s)
    (Analysis.matrix_total_bytes a.Analysis.r_matrix);
  check int_c "edge bytes = schedule bytes"
    (Scale.Schedule.total_bytes s)
    (Mpi_intf.edge_bytes_of p.Scale.Replay.p_timeline);
  check int_c "unmatched sends" 0 a.Analysis.r_unmatched_sends;
  if a.Analysis.r_critical_path_s +. 1e-6 < max_span then
    Alcotest.failf "critical path %.9f < max span %.9f"
      a.Analysis.r_critical_path_s max_span;
  (* The replay's own wall clock is the slowest rank's clock. *)
  let wall =
    Array.fold_left Float.max 0. p.Scale.Replay.p_rank_span_s
  in
  if Float.abs (wall -. p.Scale.Replay.p_wall_s) > eps then
    Alcotest.failf "wall %.9f <> max rank clock %.9f" p.Scale.Replay.p_wall_s
      wall;
  (* Every replayed cost comes from the model: doubling every rate
     doubles every clock exactly (scaling by 2 is exact in binary
     floating point), so a model that is another one with its constants
     scaled predicts the same curves, and no cost enters from outside. *)
  let r = Scale.Netmodel.reference in
  let doubled =
    {
      r with
      Scale.Netmodel.alpha_s = 2. *. r.Scale.Netmodel.alpha_s;
      beta_s_per_byte = 2. *. r.Scale.Netmodel.beta_s_per_byte;
      compute_s_per_cell = 2. *. r.Scale.Netmodel.compute_s_per_cell;
      pack_s_per_byte = 2. *. r.Scale.Netmodel.pack_s_per_byte;
      unpack_s_per_byte = 2. *. r.Scale.Netmodel.unpack_s_per_byte;
    }
  in
  let base = Scale.Replay.run ~model: r ~emit_timeline: false s in
  let twice = Scale.Replay.run ~model: doubled ~emit_timeline: false s in
  if twice.Scale.Replay.p_wall_s <> 2. *. base.Scale.Replay.p_wall_s then
    Alcotest.failf "doubled rates: wall %h <> 2 x %h"
      twice.Scale.Replay.p_wall_s base.Scale.Replay.p_wall_s;
  Array.iteri
    (fun rank span ->
      if twice.Scale.Replay.p_rank_span_s.(rank) <> 2. *. span then
        Alcotest.failf "doubled rates: rank %d span %h <> 2 x %h" rank
          twice.Scale.Replay.p_rank_span_s.(rank) span)
    base.Scale.Replay.p_rank_span_s;
  true

let replay_config_arb =
  QCheck.make
    ~print: (fun (nx, ny, steps, ranks, overlap) ->
      Printf.sprintf "nx=%d ny=%d steps=%d ranks=%d overlap=%b" nx ny steps
        ranks overlap)
    QCheck.Gen.(
      let* ranks_exp = int_range 0 3 in
      let ranks = 1 lsl ranks_exp in
      let* nx_f = int_range 1 4 and* ny_f = int_range 1 4 in
      (* Extents divisible by any grid factorization of <= 8 ranks. *)
      let* steps = int_range 1 4 and* overlap = bool in
      return (8 * nx_f, 8 * ny_f, steps, ranks, overlap))

let test_replay_invariants_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name: "replayed timelines satisfy Analysis invariants"
       ~count: 30 replay_config_arb replay_invariants)

let test_replay_deterministic () =
  let m = heat2d ~nx: 16 ~ny: 16 ~steps: 3 in
  let _, p1 = replay ~overlap: true ~ranks: 4 m in
  let _, p2 = replay ~overlap: true ~ranks: 4 m in
  check (Alcotest.float eps) "deterministic wall" p1.Scale.Replay.p_wall_s
    p2.Scale.Replay.p_wall_s;
  check int_c "deterministic event count"
    (List.length p1.Scale.Replay.p_timeline)
    (List.length p2.Scale.Replay.p_timeline)

(* Golden ordering: overlap must be predicted cheaper than no-overlap for
   heat2d at 4 ranks — the ordering every measured mpi_par run shows. *)
let test_replay_overlap_ordering () =
  let m = heat2d ~nx: 32 ~ny: 32 ~steps: 4 in
  let _, off = replay ~overlap: false ~ranks: 4 m in
  let _, on_ = replay ~overlap: true ~ranks: 4 m in
  if on_.Scale.Replay.p_wall_s >= off.Scale.Replay.p_wall_s then
    Alcotest.failf "overlap-on %.9f not cheaper than overlap-off %.9f"
      on_.Scale.Replay.p_wall_s off.Scale.Replay.p_wall_s;
  (* And the analyzer sees the hiding: higher overlap efficiency on. *)
  let eff p =
    let a = Analysis.analyze ~ranks: 4 p.Scale.Replay.p_timeline in
    match a.Analysis.r_overlap.Analysis.ov_efficiency with
    | Some e -> e
    | None -> 0.
  in
  if eff on_ < eff off then
    Alcotest.failf "overlap efficiency on=%.3f < off=%.3f" (eff on_) (eff off)

(* 1024 simulated ranks without spawning anything: replay a large rank
   count and check scaling structure (more ranks -> less local work per
   rank; wall decreases until communication dominates). *)
let test_replay_1024_ranks () =
  let m = heat2d ~nx: 128 ~ny: 128 ~steps: 2 in
  let t0 = Unix.gettimeofday () in
  let s = Scale.Schedule.of_module ~overlap: true ~ranks: 1024 m in
  let p = Scale.Replay.run s in
  let elapsed = Unix.gettimeofday () -. t0 in
  check Alcotest.(list int) "grid" [ 32; 32 ] s.Scale.Schedule.grid;
  check bool_c "positive wall" true (p.Scale.Replay.p_wall_s > 0.);
  (* 32x32 grid of 4x4 interiors: inner ranks exchange 4 faces. *)
  check int_c "messages/step"
    ((1024 * 4) - (4 * 32))
    (Scale.Schedule.messages_per_step s);
  (* The whole point: pricing 1024 ranks stays interactive. *)
  check bool_c "fast enough (<10s)" true (elapsed < 10.)

let test_replay_oversubscription_slowdown () =
  let m = heat2d ~nx: 32 ~ny: 32 ~steps: 2 in
  let s = Scale.Schedule.of_module ~overlap: false ~ranks: 4 m in
  let free = Scale.Replay.run ~cores: 4 s in
  let shared = Scale.Replay.run ~cores: 1 s in
  check bool_c "time-sharing slows the prediction" true
    (shared.Scale.Replay.p_wall_s > free.Scale.Replay.p_wall_s)

(* --- netmodel calibration --- *)

let sample ~bytes ~lat i : Analysis.msg_sample =
  {
    Analysis.ms_src = 0;
    ms_dst = 1;
    ms_tag = 0;
    ms_bytes = bytes;
    ms_send_ts = float_of_int i *. 1e-3;
    ms_recv_ts = (float_of_int i *. 1e-3) +. lat;
  }

let synth ~alpha ~beta ~sizes ~per_size =
  List.concat_map
    (fun bytes ->
      List.init per_size (fun i ->
          sample ~bytes ~lat: (alpha +. (beta *. float_of_int bytes)) i))
    sizes

let test_fit_recovers_known_model () =
  let alpha = 3e-6 and beta = 2e-9 in
  let samples =
    synth ~alpha ~beta ~sizes: [ 64; 256; 1024; 4096 ] ~per_size: 5
  in
  match Analysis.fit_alpha_beta samples with
  | Error e -> Alcotest.failf "fit failed: %s" e
  | Ok f ->
      if Float.abs (f.Analysis.f_alpha_s -. alpha) > 1e-8 then
        Alcotest.failf "alpha %.3e <> %.3e" f.Analysis.f_alpha_s alpha;
      if Float.abs (f.Analysis.f_beta_s_per_byte -. beta) > 1e-12 then
        Alcotest.failf "beta %.3e <> %.3e" f.Analysis.f_beta_s_per_byte
          beta;
      check bool_c "r2 ~ 1" true (f.Analysis.f_r2 > 0.999);
      check int_c "no outliers on clean data" 0 f.Analysis.f_dropped

(* Pooled OLS over these samples yields a negative slope (the big
   messages are fast, the small ones carry stall outliers) — the bug the
   bucketed fit exists to fix.  The constrained fit must keep beta >= 0
   and reject the stalls. *)
let test_fit_constrained_nonnegative_with_outliers () =
  let clean =
    synth ~alpha: 2e-6 ~beta: 1e-9 ~sizes: [ 64; 512; 2048 ] ~per_size: 6
  in
  let stalls = List.init 4 (fun i -> sample ~bytes: 64 ~lat: 5e-3 i) in
  match Analysis.fit_alpha_beta (clean @ stalls) with
  | Error e -> Alcotest.failf "fit failed: %s" e
  | Ok f ->
      check bool_c "alpha >= 0" true (f.Analysis.f_alpha_s >= 0.);
      check bool_c "beta >= 0" true (f.Analysis.f_beta_s_per_byte >= 0.);
      check int_c "stalls rejected" 4 f.Analysis.f_dropped;
      (* With the stalls gone the clean line is recovered. *)
      if Float.abs (f.Analysis.f_beta_s_per_byte -. 1e-9) > 1e-12 then
        Alcotest.failf "beta %.3e after outlier rejection"
          f.Analysis.f_beta_s_per_byte

let test_fit_degenerate_cases () =
  (match Analysis.fit_alpha_beta [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty sample list must not fit");
  (* One message size cannot identify alpha and beta separately. *)
  (match
     Analysis.fit_alpha_beta
       (synth ~alpha: 1e-6 ~beta: 1e-9 ~sizes: [ 256 ] ~per_size: 20)
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "single-size samples must not fit");
  (* And the json for a failed fit carries nulls, not nonsense. *)
  let j = Analysis.fit_json (Error "no matched message samples") in
  Support.assert_contains ~what: "degenerate fit json" j "\"alpha_s\": null";
  Support.assert_contains ~what: "degenerate fit json" j "\"fit_error\""

let test_netmodel_spec_roundtrip () =
  let m = Scale.Netmodel.of_spec "alpha=5e-6,beta=2e-9,compute=1e-8" in
  check (Alcotest.float 1e-12) "alpha" 5e-6 m.Scale.Netmodel.alpha_s;
  check (Alcotest.float 1e-12) "beta" 2e-9 m.Scale.Netmodel.beta_s_per_byte;
  check (Alcotest.float 1e-12) "compute" 1e-8
    m.Scale.Netmodel.compute_s_per_cell;
  (* Unset keys keep the reference constants. *)
  check (Alcotest.float 1e-12) "pack default"
    Scale.Netmodel.reference.Scale.Netmodel.pack_s_per_byte
    m.Scale.Netmodel.pack_s_per_byte;
  match Scale.Netmodel.of_spec "alpha=-1" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "negative spec value must be rejected"

(* --- auto-tuner --- *)

let test_tuner_beats_or_ties_every_candidate () =
  let m = heat2d ~nx: 32 ~ny: 32 ~steps: 2 in
  match Scale.Tune.tune ~ranks: 4 m with
  | None -> Alcotest.fail "tuner found no valid candidate"
  | Some ch ->
      List.iter
        (fun (c : Scale.Tune.candidate) ->
          if ch.Scale.Tune.best.Scale.Tune.c_wall_s > c.Scale.Tune.c_wall_s
          then
            Alcotest.failf "best %.9f worse than candidate %s (%.9f)"
              ch.Scale.Tune.best.Scale.Tune.c_wall_s
              (Scale.Tune.candidate_name c)
              c.Scale.Tune.c_wall_s)
        ch.Scale.Tune.considered;
      (* The hardcoded default the bench used to pin must not beat the
         tuner's choice. *)
      let s_default =
        Scale.Schedule.of_module ~strategy: Core.Decomposition.Slice2d
          ~overlap: true ~ranks: 4 m
      in
      let p_default =
        Scale.Replay.run ~emit_timeline: false s_default
      in
      check bool_c "tuned <= hardcoded slice2d/overlap" true
        (ch.Scale.Tune.best.Scale.Tune.c_wall_s
         <= p_default.Scale.Replay.p_wall_s +. eps)

let test_tuner_tie_break_keeps_default () =
  (* All candidates of one (mode, overlap) pair on a square domain: the
     slice2d default must win ties so tuned runs stay reproducible
     against existing baselines. *)
  let m = heat2d ~nx: 32 ~ny: 32 ~steps: 2 in
  match
    Scale.Tune.tune
      ~strategies: [ Core.Decomposition.Slice2d; Core.Decomposition.Slice3d ]
      ~modes: [ Core.Decomposition.Faces ] ~overlaps: [ true ] ~ranks: 4 m
  with
  | None -> Alcotest.fail "tuner found no valid candidate"
  | Some ch ->
      (* Slice3d degrades to Slice2d on a 2D domain: identical cost, and
         the earlier (Slice2d) candidate must be kept. *)
      check Alcotest.string "tie kept slice2d" "2d-slice"
        (Core.Decomposition.strategy_name
           ch.Scale.Tune.best.Scale.Tune.c_strategy)

let test_tuner_skips_invalid () =
  (* 20x20 at 8 ranks: slice1d needs 20 % 8 = 0 — invalid and skipped;
     slice2d's 4x2 grid divides evenly and must be found. *)
  let m = heat2d ~nx: 20 ~ny: 20 ~steps: 1 in
  match Scale.Tune.tune ~ranks: 8 m with
  | None -> Alcotest.fail "tuner should find the valid 4x2 decomposition"
  | Some ch ->
      check bool_c "some candidates skipped" true (ch.Scale.Tune.skipped > 0);
      check Alcotest.(list int) "grid divides the domain" [ 4; 2 ]
        ch.Scale.Tune.best.Scale.Tune.c_grid

(* --- pinned reference curves --- *)

(* The 14 "reference" rows of the committed BENCH_scaling.json: heat2d
   so=2 and wave2d so=4 at 128^2 x 8 steps, tuned and replayed under the
   frozen reference model.  The model is deterministic, so decomposition,
   grid and traffic must match exactly, and wall and efficiency to the
   JSON's printed precision (7 significant digits for wall, 6 decimals
   for efficiency). *)
let reference_rows =
  [
    ("heat2d-so2", 16, "4x4", 4.505600e-05, 1.000000, 48, 6144);
    ("heat2d-so2", 32, "8x4", 2.355200e-05, 0.956522, 104, 10240);
    ("heat2d-so2", 64, "8x8", 1.270400e-05, 0.886650, 224, 14336);
    ("heat2d-so2", 128, "16x8", 1.155200e-05, 0.487535, 464, 22528);
    ("heat2d-so2", 256, "16x16", 1.027200e-05, 0.274143, 960, 30720);
    ("heat2d-so2", 512, "32x16", 9.696000e-06, 0.145215, 1952, 47104);
    ("heat2d-so2", 1024, "32x32", 9.056000e-06, 0.077739, 3968, 63488);
    ("wave2d-so4", 16, "4x4", 6.636800e-05, 1.000000, 96, 24576);
    ("wave2d-so4", 32, "8x4", 4.179200e-05, 0.794028, 208, 40960);
    ("wave2d-so4", 64, "8x8", 2.969600e-05, 0.558728, 448, 57344);
    ("wave2d-so4", 128, "16x8", 2.636800e-05, 0.314624, 928, 90112);
    ("wave2d-so4", 256, "16x16", 2.252800e-05, 0.184126, 1920, 122880);
    ("wave2d-so4", 512, "32x16", 2.086400e-05, 0.099406, 3904, 188416);
    ("wave2d-so4", 1024, "32x32", 1.894400e-05, 0.054740, 7936, 253952);
  ]

(* bench scale's curve workloads, built through the Devito frontend with
   the same constants as the bench's [Workloads.heat] / [Workloads.wave]. *)
let devito_workload name =
  let open Devito.Symbolic in
  let shape = [ 128; 128 ] in
  let eqn =
    match name with
    | "heat2d-so2" ->
        let u = function_ ~space_order: 2 "u" (grid ~dt: 0.1 shape) in
        eq (Dt u) (f 0.5 *: laplace u)
    | _ ->
        let u =
          function_ ~space_order: 4 ~time_order: 2 "u" (grid ~dt: 0.02 shape)
        in
        eq (Dt2 u) (f 2.25 *: laplace u)
  in
  snd (Devito.Operator.operator ~name ~timesteps: 8 eqn)

let test_reference_curves_pinned () =
  let modules =
    List.map (fun w -> (w, devito_workload w)) [ "heat2d-so2"; "wave2d-so4" ]
  in
  let tuned w ranks =
    match
      Scale.Tune.tune ~model: Scale.Netmodel.reference ~ranks
        (List.assoc w modules)
    with
    | Some ch -> ch.Scale.Tune.best
    | None -> Alcotest.failf "%s @%d: no valid decomposition" w ranks
  in
  let base_wall =
    List.map (fun (w, _) -> (w, (tuned w 16).Scale.Tune.c_wall_s)) modules
  in
  (* Efficiency is compared absolutely: the record's 6 decimals put
     0.054740 only within 9e-6 relative of the exact value. *)
  let close ~what ~tol expected actual =
    if Float.abs (actual -. expected) > tol then
      Alcotest.failf "%s: %.9g, pinned %.9g" what actual expected
  in
  List.iter
    (fun (w, ranks, grid, wall, efficiency, msgs, bytes) ->
      let label what = Printf.sprintf "%s @%d %s" w ranks what in
      let b = tuned w ranks in
      check Alcotest.string (label "decomposition") "2d-slice/faces/overlap"
        (Printf.sprintf "%s/%s/%s"
           (Core.Decomposition.strategy_name b.Scale.Tune.c_strategy)
           (Core.Decomposition.mode_name b.Scale.Tune.c_mode)
           (if b.Scale.Tune.c_overlap then "overlap" else "no-overlap"));
      check Alcotest.string (label "grid") grid
        (String.concat "x" (List.map string_of_int b.Scale.Tune.c_grid));
      check int_c (label "messages/step") msgs
        b.Scale.Tune.c_messages_per_step;
      check int_c (label "bytes/step") bytes b.Scale.Tune.c_bytes_per_step;
      close ~what: (label "wall_s") ~tol: (1e-6 *. wall) wall
        b.Scale.Tune.c_wall_s;
      close ~what: (label "efficiency") ~tol: 1e-6 efficiency
        (Scale.Replay.predicted_efficiency ~baseline_ranks: 16
           ~baseline_wall_s: (List.assoc w base_wall) ~ranks
           ~wall_s: b.Scale.Tune.c_wall_s))
    reference_rows

let suite =
  [
    Alcotest.test_case "schedule matches executed run" `Quick
      test_schedule_matches_executed_run;
    Alcotest.test_case "schedule shape" `Quick test_schedule_shape;
    Alcotest.test_case "schedule overlap split" `Quick
      test_schedule_overlap_split;
    test_replay_invariants_qcheck;
    Alcotest.test_case "replay deterministic" `Quick test_replay_deterministic;
    Alcotest.test_case "replay overlap ordering" `Quick
      test_replay_overlap_ordering;
    Alcotest.test_case "replay 1024 ranks" `Quick test_replay_1024_ranks;
    Alcotest.test_case "replay oversubscription slowdown" `Quick
      test_replay_oversubscription_slowdown;
    Alcotest.test_case "fit recovers known model" `Quick
      test_fit_recovers_known_model;
    Alcotest.test_case "fit constrained with outliers" `Quick
      test_fit_constrained_nonnegative_with_outliers;
    Alcotest.test_case "fit degenerate cases" `Quick test_fit_degenerate_cases;
    Alcotest.test_case "netmodel spec" `Quick test_netmodel_spec_roundtrip;
    Alcotest.test_case "tuner beats or ties candidates" `Quick
      test_tuner_beats_or_ties_every_candidate;
    Alcotest.test_case "tuner tie-break keeps default" `Quick
      test_tuner_tie_break_keeps_default;
    Alcotest.test_case "tuner skips invalid decompositions" `Quick
      test_tuner_skips_invalid;
    Alcotest.test_case "reference curves pinned" `Quick
      test_reference_curves_pinned;
  ]
