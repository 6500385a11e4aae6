(* Scale-out projection: calibrate the replay engine's network model
   from real traced mpi_par runs at rank counts this host CAN execute,
   check the calibrated replay against those same measurements
   (validation rows), then replay the schedules at 16..1024 simulated
   ranks to produce strong-scaling curves no single host could measure —
   without spawning a single domain.

   Two models drive the curves:
     - "calibrated": fitted to this host's traced runs (alpha/beta from
       bucketed message samples, host rates from the phase breakdown) —
       physical, machine-dependent;
     - "reference": the frozen Scale.Netmodel.reference constants —
       machine-independent, so the curves are bit-identical across hosts
       and the test suite pins every reference row exactly.

   Each curve point also records tuned_vs_default: the auto-tuner's best
   replayed wall over the default decomposition's (Slice2d/Faces/
   overlap) replayed wall — <= 1 by construction, and a direct measure
   of how much the tuner buys at that scale.

   Results land in BENCH_scaling.json (repo root or --out-dir). *)

type validation_row = {
  v_workload : string;
  v_ranks : int;
  v_grid : string;
  v_measured_s : float;  (* max per-rank span of the traced par run *)
  v_predicted_s : float;  (* replayed wall, host oversubscription modeled *)
  v_rel_error : float;
  v_bound : float;
  v_within : bool;
}

type curve_row = {
  c_workload : string;
  c_model : string;  (* "reference" or "calibrated" *)
  c_ranks : int;
  c_grid : string;
  c_decomposition : string;  (* tuner's pick, e.g. "slice2d/faces/overlap" *)
  c_wall_s : float;
  c_efficiency : float;  (* strong-scaling vs the smallest curve point *)
  c_messages_per_step : int;
  c_bytes_per_step : int;
  c_tuned_vs_default : float;
}

(* One traced execution: the Analysis report plus the symbolic schedule
   of the same (strategy, mode, overlap) configuration — the pairing
   calibration and validation both need. *)
type traced = {
  t_workload : string;
  t_ranks : int;
  t_report : Analysis.report;
  t_schedule : Scale.Schedule.t;
}

(* Traced wall times on a time-shared host are noisy (domain
   descheduling stalls land inside whatever phase was open), so trace
   [reps] times and keep the run with the smallest max rank span: the
   cleanest observation of the schedule the model is asked to predict. *)
let trace_run (name, m) ~reps ~ranks : traced =
  let max_span (a : Analysis.report) =
    Array.fold_left
      (fun acc b -> Float.max acc b.Analysis.bd_span_s)
      0. a.Analysis.r_breakdown
  in
  let trace_once () =
    let r =
      Driver.Harness.run_distributed ~substrate: Driver.Harness.Par ~ranks
        ~executor: Exec_compile.executor ~trace: true m
    in
    match r.Driver.Harness.analysis with
    | Some a -> a
    | None -> failwith "bench scale: traced run produced no analysis"
  in
  let best = ref (trace_once ()) in
  for _ = 2 to reps do
    let a = trace_once () in
    if max_span a < max_span !best then best := a
  done;
  {
    t_workload = name;
    t_ranks = ranks;
    t_report = !best;
    t_schedule = Scale.Schedule.of_module ~ranks m;
  }

(* Host-side phase totals of one traced run, normalized by the
   oversubscription factor the host imposed: with [ranks] domains
   time-sharing [cores] cores, measured compute/pack/unpack walls are
   inflated by ranks/cores relative to the per-core rates the model
   wants (replay re-applies the factor when predicting for this host). *)
let normalized_phase_totals ~host_cores (t : traced) =
  let slow = Float.max 1. (float_of_int t.t_ranks /. float_of_int host_cores) in
  let sum f =
    Array.fold_left (fun acc b -> acc +. f b) 0. t.t_report.Analysis.r_breakdown
  in
  ( sum (fun b -> b.Analysis.bd_compute_s) /. slow,
    sum (fun b -> b.Analysis.bd_pack_s) /. slow,
    sum (fun b -> b.Analysis.bd_unpack_s) /. slow )

let calibrate_model ~host_cores (traces : traced list) =
  (* Deflate each run's observed message latencies by that run's
     oversubscription factor before fitting: the replay engine re-applies
     the factor when predicting for a time-shared host, so the fitted
     alpha/beta must be per-core-parity rates (symmetric with the
     host-rate normalization below). *)
  let samples =
    List.concat_map
      (fun t ->
        let slow =
          Float.max 1. (float_of_int t.t_ranks /. float_of_int host_cores)
        in
        List.map
          (fun (s : Analysis.msg_sample) ->
            {
              s with
              Analysis.ms_recv_ts =
                s.Analysis.ms_send_ts
                +. ((s.Analysis.ms_recv_ts -. s.Analysis.ms_send_ts) /. slow);
            })
          t.t_report.Analysis.r_samples)
      traces
  in
  let fit = Analysis.fit_alpha_beta samples in
  let compute_s, pack_s, unpack_s =
    List.fold_left
      (fun (c, p, u) t ->
        let c', p', u' = normalized_phase_totals ~host_cores t in
        (c +. c', p +. p', u +. u'))
      (0., 0., 0.) traces
  in
  let compute_cells, halo_bytes =
    List.fold_left
      (fun (cells, bytes) t ->
        let s = t.t_schedule in
        ( cells
          +. float_of_int
               (Scale.Schedule.cells_per_step s
               * s.Scale.Schedule.steps * t.t_ranks),
          bytes +. float_of_int (Scale.Schedule.total_bytes s) ))
      (0., 0.) traces
  in
  let base =
    match fit with
    | Ok f -> Scale.Netmodel.of_fit f
    | Error _ -> Scale.Netmodel.reference
  in
  ( Scale.Netmodel.calibrate ~compute_cells ~compute_s ~pack_bytes: halo_bytes
      ~pack_s ~unpack_bytes: halo_bytes ~unpack_s base,
    fit )

let validate ~model ~host_cores ~bound (t : traced) : validation_row =
  let measured =
    Array.fold_left
      (fun acc b -> Float.max acc b.Analysis.bd_span_s)
      0. t.t_report.Analysis.r_breakdown
  in
  let pred =
    Scale.Replay.run ~model ~cores: host_cores ~emit_timeline: false
      t.t_schedule
  in
  let rel_error =
    if measured > 0. then
      Float.abs (pred.Scale.Replay.p_wall_s -. measured) /. measured
    else 0.
  in
  {
    v_workload = t.t_workload;
    v_ranks = t.t_ranks;
    v_grid =
      String.concat "x"
        (List.map string_of_int t.t_schedule.Scale.Schedule.grid);
    v_measured_s = measured;
    v_predicted_s = pred.Scale.Replay.p_wall_s;
    v_rel_error = rel_error;
    v_bound = bound;
    v_within = rel_error <= bound;
  }

(* One strong-scaling curve: tuner-picked decomposition replayed at each
   rank count under [model], efficiency against the smallest point. *)
let curve (name, m) ~model ~model_name ~rank_counts : curve_row list =
  let points =
    List.filter_map
      (fun ranks ->
        match Scale.Tune.tune ~model ~ranks m with
        | None -> None
        | Some choice ->
            let best = choice.Scale.Tune.best in
            (* the stack's default decomposition, replayed under the
               same model — the tuner's baseline *)
            let default_wall =
              match
                Scale.Tune.tune ~model
                  ~strategies: [ Core.Decomposition.Slice2d ]
                  ~modes: [ Core.Decomposition.Faces ]
                  ~overlaps: [ true ] ~ranks m
              with
              | Some d -> d.Scale.Tune.best.Scale.Tune.c_wall_s
              | None -> best.Scale.Tune.c_wall_s
            in
            Some (ranks, best, default_wall))
      rank_counts
  in
  match points with
  | [] -> []
  | (base_ranks, base_best, _) :: _ ->
      let base_wall = base_best.Scale.Tune.c_wall_s in
      List.map
        (fun (ranks, best, default_wall) ->
          let open Scale.Tune in
          {
            c_workload = name;
            c_model = model_name;
            c_ranks = ranks;
            c_grid = String.concat "x" (List.map string_of_int best.c_grid);
            c_decomposition =
              Printf.sprintf "%s/%s/%s"
                (Core.Decomposition.strategy_name best.c_strategy)
                (Core.Decomposition.mode_name best.c_mode)
                (if best.c_overlap then "overlap" else "no-overlap");
            c_wall_s = best.c_wall_s;
            c_efficiency =
              Scale.Replay.predicted_efficiency ~baseline_ranks: base_ranks
                ~baseline_wall_s: base_wall ~ranks ~wall_s: best.c_wall_s;
            c_messages_per_step = best.c_messages_per_step;
            c_bytes_per_step = best.c_bytes_per_step;
            c_tuned_vs_default =
              (if default_wall > 0. then best.c_wall_s /. default_wall
               else 1.);
          })
        points

let write_json ~smoke ~host_cores ~(model : Scale.Netmodel.t)
    ~(fit : (Analysis.fit, string) result)
    (validation : validation_row list) (curves : curve_row list) =
  let path = Bench_paths.artifact "BENCH_scaling.json" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"bench\": \"scale\",\n  \"smoke\": %b,\n  \"host_cores\": %d,\n"
    smoke host_cores;
  Printf.fprintf oc
    "  \"netmodel\": {\"source\": %S, \"alpha_s\": %.6e, \
     \"beta_s_per_byte\": %.6e, \"compute_s_per_cell\": %.6e, \
     \"pack_s_per_byte\": %.6e, \"unpack_s_per_byte\": %.6e, \"fit_ok\": \
     %b, \"fit_error\": %s},\n"
    model.Scale.Netmodel.nm_source model.Scale.Netmodel.alpha_s
    model.Scale.Netmodel.beta_s_per_byte model.Scale.Netmodel.compute_s_per_cell
    model.Scale.Netmodel.pack_s_per_byte model.Scale.Netmodel.unpack_s_per_byte
    (match fit with Ok _ -> true | Error _ -> false)
    (match fit with
    | Ok _ -> "null"
    | Error e -> Printf.sprintf "%S" e);
  Printf.fprintf oc "  \"validation\": [\n";
  List.iteri
    (fun i v ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"ranks\": %d, \"grid\": %S, \
         \"measured_s\": %.6e, \"predicted_s\": %.6e, \"rel_error\": %.4f, \
         \"bound\": %.2f, \"within_bound\": %b}%s\n"
        v.v_workload v.v_ranks v.v_grid v.v_measured_s v.v_predicted_s
        v.v_rel_error v.v_bound v.v_within
        (if i = List.length validation - 1 then "" else ","))
    validation;
  Printf.fprintf oc "  ],\n  \"curves\": [\n";
  List.iteri
    (fun i c ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"model\": %S, \"ranks\": %d, \"grid\": %S, \
         \"decomposition\": %S, \"wall_s\": %.6e, \"efficiency\": %.6f, \
         \"messages_per_step\": %d, \"bytes_per_step\": %d, \
         \"tuned_vs_default\": %.6f}%s\n"
        c.c_workload c.c_model c.c_ranks c.c_grid c.c_decomposition c.c_wall_s
        c.c_efficiency c.c_messages_per_step c.c_bytes_per_step
        c.c_tuned_vs_default
        (if i = List.length curves - 1 then "" else ","))
    curves;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  path

let run ?(smoke = false) () =
  Printf.printf "== Scale-out replay (calibrate, validate, project) ==\n";
  let host_cores = Mpi_par.host_cores () in
  Printf.printf "   host cores: %d\n" host_cores;
  let grid2 n = [ n; n ] in
  let heat ~n ~steps =
    ( "heat2d-so2",
      (Workloads.heat ~grid: (grid2 n) ~timesteps: steps ~dims: 2 ~so: 2 ())
        .Workloads.module_ )
  in
  let wave ~n ~steps =
    ( "wave2d-so4",
      (Workloads.wave ~grid: (grid2 n) ~timesteps: steps ~dims: 2 ~so: 4 ())
        .Workloads.module_ )
  in
  (* Validation needs at least two rank counts so the traced message
     samples span two halo sizes (the alpha-beta fit is a line: one
     bucket cannot identify it). *)
  let validation_workloads, validation_ranks, bound =
    if smoke then ([ heat ~n: 64 ~steps: 6 ], [ 2; 4 ], 0.35)
    else
      ([ heat ~n: 96 ~steps: 8; wave ~n: 96 ~steps: 8 ], [ 2; 4; 8 ], 0.30)
  in
  let curve_workloads, curve_ranks =
    if smoke then
      ([ heat ~n: 128 ~steps: 4 ], [ 16; 64; 256; 1024 ])
    else
      ( [ heat ~n: 128 ~steps: 8; wave ~n: 128 ~steps: 8 ],
        [ 16; 32; 64; 128; 256; 512; 1024 ] )
  in
  (* 1. trace real runs at executable rank counts *)
  let reps = 3 in
  let traces =
    List.concat_map
      (fun w ->
        List.map (fun ranks -> trace_run w ~reps ~ranks) validation_ranks)
      validation_workloads
  in
  (* 2. calibrate the model from those traces *)
  let model, fit = calibrate_model ~host_cores traces in
  Printf.printf "   calibrated: %s\n" (Scale.Netmodel.describe model);
  (match fit with
  | Ok f ->
      Printf.printf
        "   alpha-beta fit: r2=%.3f over %d kept sample(s) in %d bucket(s), \
         %d dropped\n"
        f.Analysis.f_r2 f.Analysis.f_samples
        (List.length f.Analysis.f_buckets) f.Analysis.f_dropped
  | Error e ->
      Printf.printf
        "   alpha-beta fit not identified (%s); host rates calibrated over \
         reference alpha/beta\n"
        e);
  (* 3. validate the calibrated replay against the measurements *)
  Printf.printf "   %-12s %5s %6s %12s %12s %9s %7s\n" "workload" "ranks"
    "grid" "measured_s" "predicted_s" "rel_err" "bound";
  let validation =
    List.map
      (fun t ->
        let v = validate ~model ~host_cores ~bound t in
        Printf.printf "   %-12s %5d %6s %12.6f %12.6f %8.1f%% %6.0f%%%s\n%!"
          v.v_workload v.v_ranks v.v_grid v.v_measured_s v.v_predicted_s
          (100. *. v.v_rel_error) (100. *. v.v_bound)
          (if v.v_within then "" else "  OUT OF BOUND");
        let sum f =
          Array.fold_left
            (fun acc b -> acc +. f b)
            0. t.t_report.Analysis.r_breakdown
        in
        Printf.printf
          "     [measured phases: compute=%.4f pack=%.4f wait=%.4f \
           unpack=%.4f]\n"
          (sum (fun b -> b.Analysis.bd_compute_s))
          (sum (fun b -> b.Analysis.bd_pack_s))
          (sum (fun b -> b.Analysis.bd_wait_s))
          (sum (fun b -> b.Analysis.bd_unpack_s));
        v)
      traces
  in
  (* 4. strong-scaling curves under both models *)
  let curves =
    List.concat_map
      (fun w ->
        curve w ~model: Scale.Netmodel.reference ~model_name: "reference"
          ~rank_counts: curve_ranks
        @ curve w ~model ~model_name: "calibrated" ~rank_counts: curve_ranks)
      curve_workloads
  in
  Printf.printf "   %-12s %-10s %5s %8s %22s %12s %6s %9s\n" "workload"
    "model" "ranks" "grid" "decomposition" "wall_s" "eff" "tuned/def";
  List.iter
    (fun c ->
      Printf.printf "   %-12s %-10s %5d %8s %22s %12.6f %5.0f%% %9.3f\n"
        c.c_workload c.c_model c.c_ranks c.c_grid c.c_decomposition c.c_wall_s
        (100. *. c.c_efficiency) c.c_tuned_vs_default)
    curves;
  let path = write_json ~smoke ~host_cores ~model ~fit validation curves in
  Printf.printf "   (machine-readable copy: %s)\n" path;
  let out_of_bound = List.filter (fun v -> not v.v_within) validation in
  if out_of_bound <> [] then begin
    Printf.printf
      "   FAIL: %d validation row(s) exceeded the %.0f%% prediction bound\n"
      (List.length out_of_bound) (100. *. bound);
    exit 1
  end;
  let bad_tuned =
    List.filter (fun c -> c.c_tuned_vs_default > 1. +. 1e-9) curves
  in
  if bad_tuned <> [] then begin
    Printf.printf
      "   FAIL: %d curve point(s) where the tuner lost to the default \
       decomposition\n"
      (List.length bad_tuned);
    exit 1
  end;
  print_newline ()
