(* Measured parallel execution: the fig7 heat and fig10-class wave
   workloads run end-to-end through the full distributed pipeline on BOTH
   substrates — the deterministic fiber simulator (mpi_sim) and the real
   multicore domain runtime (mpi_par) — at increasing rank counts, with
   the compiled executor driving every rank body (the same backend
   stencilc --run-par uses), and with communication/computation overlap
   both on (the default executed pipeline) and off (the ablation).

   Per (workload, ranks, overlap) row we report the serial interpreter
   wall time, each substrate's wall time, the substrate traffic
   (messages/bytes from the mpi_par run), and the cross-substrate max abs
   difference of the gathered results (must be exactly 0: both substrates
   share the collective reduction order, so floating point agrees
   bitwise).

   Speedup honesty: each row records the host's effective core count and
   an [oversubscribed] flag; when [ranks > host_cores] the domains time-
   share cores and serial/par is not a parallel speedup, so the speedup
   column is omitted (null in JSON, "-" in the table).

   Results are also written to BENCH_par.json at the repo root (or
   --out-dir), wherever the binary is run from. *)

type row = {
  workload : string;
  ranks : int;
  overlap : bool;
  grid : string;
  strategy : string;  (* decomposition strategy name, e.g. "2d-slice" *)
  mode : string;  (* exchange neighbor set, "faces" or "diagonals" *)
  tuned : bool;  (* decomposition chosen by the replay auto-tuner *)
  pred_s : float option;  (* tuner's replayed wall-clock prediction *)
  executor : string;
  serial_s : float;
  sim_s : float;
  par_s : float;
  host_cores : int;
  oversubscribed : bool;
  speedup : float option;  (* serial / par wall; None when oversubscribed *)
  messages : int;  (* mpi_par point-to-point messages *)
  bytes : int;  (* mpi_par payload bytes *)
  cross_diff : float;  (* par vs sim gathered results *)
  par_diff : float;  (* par vs serial reference *)
  overlap_efficiency : float option;
      (* hidden-comm / in-flight time from the traced par run *)
  critical_path_s : float;  (* longest happens-before chain, traced run *)
}

(* One cell of the tile x threads matrix: the first workload rerun on the
   par substrate at a fixed rank count while cache tiling and the per-rank
   domain-pool width vary.  Tiling must leave the halo traffic counters
   exactly unchanged (it only reorders the interior loop nest), and with
   enough host cores the threaded runs must not be slower than their
   1-thread counterpart at the same tile. *)
type matrix_row = {
  mx_workload : string;
  mx_ranks : int;
  mx_threads : int;
  mx_tile : string;  (* "off" or e.g. "8x8" *)
  mx_par_s : float;
  mx_oversubscribed : bool;  (* ranks * threads > host cores *)
  mx_speedup_vs_1t : float option;
      (* same-tile 1-thread par_s / this par_s; None on the 1-thread
         baseline rows and when oversubscribed (time-shared cores make
         the ratio meaningless) *)
  mx_messages : int;
  mx_bytes : int;
  mx_par_diff : float;  (* gathered result vs serial reference *)
}

(* Effective host core count, overridable with BENCH_HOST_CORES (useful
   in containers where [Domain.recommended_domain_count] sees a restricted
   cpuset that does not match the machine). *)
let host_cores () =
  match Sys.getenv_opt "BENCH_HOST_CORES" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ ->
          prerr_endline
            ("bench par: ignoring invalid BENCH_HOST_CORES=" ^ s);
          Mpi_par.host_cores ())
  | None -> Mpi_par.host_cores ()

(* Best-of-[reps] distributed run: wall times of domain runs on a shared
   host are noisy, so keep the fastest wall clock (correctness fields
   are identical across reps — the runs are deterministic). *)
let best_distributed ~reps run =
  let first = run () in
  let best = ref first in
  for _ = 2 to reps do
    let r = run () in
    if r.Driver.Harness.wall_s < !best.Driver.Harness.wall_s then best := r
  done;
  !best

(* Decomposition for one (workload, ranks, overlap) row: an explicit
   --grid override wins, otherwise the replay auto-tuner picks the
   strategy/mode (scored under the frozen reference network model so
   bench rows are reproducible across hosts), and when the tuner has
   nothing to say we fall back to the pipeline default. *)
let choose_decomposition m ~ranks ~overlap ~grid_override =
  let default =
    (Core.Decomposition.Slice2d, Core.Decomposition.Faces, false, None)
  in
  match grid_override with
  | Some dims when Core.Dmp_to_mpi.product dims = ranks ->
      ( Core.Decomposition.Custom ("cli-grid", fun _ _ -> dims),
        Core.Decomposition.Faces,
        false,
        None )
  | Some _ ->
      (* override does not factor this rank count; fall back loudly *)
      Printf.printf
        "   note: --grid override ignored at ranks=%d (product mismatch)\n"
        ranks;
      default
  | None -> (
      match
        Scale.Tune.tune ~model: Scale.Netmodel.reference
          ~overlaps: [ overlap ] ~ranks m
      with
      | Some choice ->
          let b = choice.Scale.Tune.best in
          ( b.Scale.Tune.c_strategy,
            b.Scale.Tune.c_mode,
            true,
            Some b.Scale.Tune.c_wall_s )
      | None -> default)

let run_workload (name, m) ~reps ~ranks ~overlap ~grid_override : row =
  let executor = Exec_compile.executor in
  let strategy, mode, tuned, pred_s =
    choose_decomposition m ~ranks ~overlap ~grid_override
  in
  let sim =
    best_distributed ~reps (fun () ->
        Driver.Harness.run_distributed ~substrate: Driver.Harness.Sim
          ~strategy ~mode ~ranks ~overlap ~executor m)
  in
  let par =
    best_distributed ~reps (fun () ->
        Driver.Harness.run_distributed ~substrate: Driver.Harness.Par
          ~strategy ~mode ~ranks ~overlap ~executor m)
  in
  (* One extra traced par run for the analytics columns: tracing perturbs
     wall time, so it never contributes to the timing fields above. *)
  let traced =
    Driver.Harness.run_distributed ~substrate: Driver.Harness.Par ~strategy
      ~mode ~ranks ~overlap ~executor ~trace: true m
  in
  let analysis = traced.Driver.Harness.analysis in
  let host_cores = host_cores () in
  let oversubscribed = ranks > host_cores in
  {
    workload = name;
    ranks;
    overlap;
    grid = String.concat "x" (List.map string_of_int par.Driver.Harness.grid);
    strategy = Core.Decomposition.strategy_name strategy;
    mode =
      (match mode with
      | Core.Decomposition.Faces -> "faces"
      | Core.Decomposition.Diagonals -> "diagonals");
    tuned;
    pred_s;
    executor = par.Driver.Harness.executor_name;
    serial_s = par.Driver.Harness.serial_wall_s;
    sim_s = sim.Driver.Harness.wall_s;
    par_s = par.Driver.Harness.wall_s;
    host_cores;
    oversubscribed;
    speedup =
      (if oversubscribed then None
       else
         Some (par.Driver.Harness.serial_wall_s /. par.Driver.Harness.wall_s));
    messages = par.Driver.Harness.messages;
    bytes = par.Driver.Harness.bytes;
    cross_diff = Driver.Harness.max_result_diff par sim;
    par_diff = par.Driver.Harness.max_diff_vs_serial;
    overlap_efficiency =
      Option.bind analysis (fun a -> a.Analysis.r_overlap.Analysis.ov_efficiency);
    critical_path_s =
      (match analysis with
      | Some a -> a.Analysis.r_critical_path_s
      | None -> 0.);
  }

let tile_label tiles =
  if tiles = [] then "off"
  else String.concat "x" (List.map string_of_int tiles)

(* The matrix always uses the fixed default decomposition (no tuner):
   the point is to isolate the tiling/threading axes, so the halo pattern
   must be identical across every cell. *)
let run_matrix (name, m) ~reps ~ranks ~tiles_list ~threads_list :
    matrix_row list =
  let executor = Exec_compile.executor in
  let cores = host_cores () in
  let raw =
    List.concat_map
      (fun tiles ->
        List.map
          (fun threads ->
            let r =
              best_distributed ~reps (fun () ->
                  Driver.Harness.run_distributed
                    ~substrate: Driver.Harness.Par ~ranks ~tiles
                    ~threads_per_rank: threads ~executor m)
            in
            (tiles, threads, r))
          threads_list)
      tiles_list
  in
  List.map
    (fun (tiles, threads, r) ->
      let base =
        List.find_opt (fun (t, th, _) -> t = tiles && th = 1) raw
      in
      let oversubscribed = ranks * threads > cores in
      let speedup =
        match base with
        | Some (_, _, b)
          when threads > 1 && (not oversubscribed)
               && r.Driver.Harness.wall_s > 0. ->
            Some (b.Driver.Harness.wall_s /. r.Driver.Harness.wall_s)
        | _ -> None
      in
      {
        mx_workload = name;
        mx_ranks = ranks;
        mx_threads = threads;
        mx_tile = tile_label tiles;
        mx_par_s = r.Driver.Harness.wall_s;
        mx_oversubscribed = oversubscribed;
        mx_speedup_vs_1t = speedup;
        mx_messages = r.Driver.Harness.messages;
        mx_bytes = r.Driver.Harness.bytes;
        mx_par_diff = r.Driver.Harness.max_diff_vs_serial;
      })
    raw

let write_json (rows : row list) (matrix : matrix_row list) =
  let path = Bench_paths.artifact "BENCH_par.json" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"bench\": \"par\",\n  \"host_cores\": %d,\n  \"entries\": [\n"
    (host_cores ());
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"ranks\": %d, \"overlap\": %b, \"grid\": \
         %S, \"strategy\": %S, \"mode\": %S, \"tuned\": %b, \"pred_s\": %s, \
         \"executor\": %S, \"serial_s\": %.6f, \"sim_s\": %.6f, \
         \"par_s\": %.6f, \"host_cores\": %d, \"oversubscribed\": %b, \
         \"speedup\": %s, \"messages\": %d, \"bytes\": %d, \
         \"overlap_efficiency\": %s, \"critical_path_s\": %.6f, \
         \"max_abs_diff_par_vs_sim\": %.17g, \"max_abs_diff_par_vs_serial\": \
         %.17g}%s\n"
        r.workload r.ranks r.overlap r.grid r.strategy r.mode r.tuned
        (match r.pred_s with
        | Some p -> Printf.sprintf "%.6e" p
        | None -> "null")
        r.executor r.serial_s r.sim_s r.par_s r.host_cores r.oversubscribed
        (match r.speedup with
        | Some s -> Printf.sprintf "%.3f" s
        | None -> "null")
        r.messages r.bytes
        (match r.overlap_efficiency with
        | Some e -> Printf.sprintf "%.4f" e
        | None -> "null")
        r.critical_path_s r.cross_diff r.par_diff
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"matrix\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"ranks\": %d, \"threads\": %d, \"tile\": \
         %S, \"par_s\": %.6f, \"oversubscribed\": %b, \
         \"speedup_vs_1thread\": %s, \"messages\": %d, \"bytes\": %d, \
         \"max_abs_diff_par_vs_serial\": %.17g}%s\n"
        r.mx_workload r.mx_ranks r.mx_threads r.mx_tile r.mx_par_s
        r.mx_oversubscribed
        (match r.mx_speedup_vs_1t with
        | Some s -> Printf.sprintf "%.3f" s
        | None -> "null")
        r.mx_messages r.mx_bytes r.mx_par_diff
        (if i = List.length matrix - 1 then "" else ","))
    matrix;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  path

let run ?(smoke = false) ?grid_override () =
  Printf.printf "== Measured parallel execution (mpi_par vs mpi_sim) ==\n";
  (match grid_override with
  | Some dims ->
      Printf.printf "   --grid override: %s (tuner bypassed where it fits)\n"
        (String.concat "x" (List.map string_of_int dims))
  | None -> ());
  Printf.printf "   host cores: %d%s\n" (host_cores ())
    (if host_cores () = 1 then
       " (speedup > 1 not expected on a single-core host)"
     else "");
  let grid2 n = [ n; n ] in
  let workloads =
    if smoke then
      [
        ( "heat2d-so2",
          (Workloads.heat ~grid: (grid2 16) ~timesteps: 2 ~dims: 2 ~so: 2 ())
            .Workloads.module_ );
      ]
    else
      [
        ( "heat2d-so2",
          (Workloads.heat ~grid: (grid2 96) ~timesteps: 8 ~dims: 2 ~so: 2 ())
            .Workloads.module_ );
        ( "wave2d-so4",
          (Workloads.wave ~grid: (grid2 96) ~timesteps: 8 ~dims: 2 ~so: 4 ())
            .Workloads.module_ );
      ]
  in
  let rank_counts = if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  (* Smoke also takes 3 reps: its numbers feed the check.sh regression
     gate, so best-of-1 noise would trip the tolerance band. *)
  let reps = 3 in
  (* The overlap ablation runs at the largest rank count only; all other
     rows measure the default (overlap-on) executed pipeline. *)
  let ablation_ranks = List.fold_left max 1 rank_counts in
  let configs =
    List.concat_map
      (fun ranks ->
        if ranks = ablation_ranks then
          [ (ranks, true); (ranks, false) ]
        else [ (ranks, true) ])
      rank_counts
  in
  Printf.printf
    "   %-12s %5s %3s %6s %9s %10s %10s %10s %8s %9s %9s %7s %9s %10s\n"
    "workload" "ranks" "ov" "grid" "strategy" "serial_s" "sim_s" "par_s"
    "speedup" "msgs" "bytes" "ov_eff" "critpath" "par-sim";
  let rows =
    List.concat_map
      (fun w ->
        List.map
          (fun (ranks, overlap) ->
            let r = run_workload w ~reps ~ranks ~overlap ~grid_override in
            Printf.printf
              "   %-12s %5d %3s %6s %9s %10.4f %10.4f %10.4f %8s %9d %9d %7s \
               %9.4f %10.2e%s\n\
               %!"
              r.workload r.ranks
              (if r.overlap then "on" else "off")
              r.grid
              (r.strategy ^ if r.tuned then "*" else "")
              r.serial_s r.sim_s r.par_s
              (match r.speedup with
              | Some s -> Printf.sprintf "%7.2fx" s
              | None -> "      -")
              r.messages r.bytes
              (match r.overlap_efficiency with
              | Some e -> Printf.sprintf "%5.1f%%" (100. *. e)
              | None -> "    -")
              r.critical_path_s r.cross_diff
              (if r.cross_diff <> 0. || r.par_diff <> 0. then "  MISMATCH"
               else "");
            r)
          configs)
      workloads
  in
  (* Tile x threads matrix: first workload, fixed rank count, default
     decomposition.  Exercises the per-rank domain pool and cache tiling
     the executed pipeline just gained. *)
  let mx_ranks = if smoke then 2 else 4 in
  let mx_tiles = if smoke then [ []; [ 8; 8 ] ]
                 else [ []; [ 16; 16 ]; [ 32; 32 ] ] in
  let mx_threads = [ 1; 2 ] in
  let matrix =
    run_matrix (List.hd workloads) ~reps ~ranks: mx_ranks
      ~tiles_list: mx_tiles ~threads_list: mx_threads
  in
  Printf.printf
    "   -- tile x threads matrix (%s, ranks=%d, par substrate) --\n"
    (fst (List.hd workloads)) mx_ranks;
  Printf.printf "   %-8s %7s %10s %10s %9s %9s\n" "tile" "threads" "par_s"
    "vs-1thr" "msgs" "bytes";
  List.iter
    (fun r ->
      Printf.printf "   %-8s %7d %10.4f %10s %9d %9d%s\n" r.mx_tile
        r.mx_threads r.mx_par_s
        (match r.mx_speedup_vs_1t with
        | Some s -> Printf.sprintf "%7.2fx" s
        | None -> "      -")
        r.mx_messages r.mx_bytes
        (if r.mx_par_diff <> 0. then "  MISMATCH" else ""))
    matrix;
  (if List.exists (fun r -> r.mx_oversubscribed) matrix then
     Printf.printf
       "   (vs-1thr omitted where ranks x threads > host cores: domains \
        time-share cores there)\n");
  let path = write_json rows matrix in
  Printf.printf "   (machine-readable copy: %s)\n" path;
  (if List.exists (fun r -> r.tuned) rows then
     Printf.printf
       "   (* = decomposition picked by the replay auto-tuner under the \
        frozen reference model)\n");
  (if List.exists (fun r -> r.oversubscribed) rows then
     Printf.printf
       "   (speedup omitted on rows with ranks > host cores: domains \
        time-share cores there)\n");
  let bad =
    List.filter (fun r -> r.cross_diff <> 0. || r.par_diff <> 0.) rows
  in
  let bad_matrix = List.filter (fun r -> r.mx_par_diff <> 0.) matrix in
  (* Tiling only reorders the interior loop nest; any change in the halo
     traffic counters across tile variants is a decomposition bug. *)
  let traffic_bug =
    List.exists
      (fun r ->
        List.exists
          (fun r' ->
            r'.mx_threads = r.mx_threads
            && (r'.mx_messages <> r.mx_messages || r'.mx_bytes <> r.mx_bytes))
          matrix)
      matrix
  in
  if bad <> [] || bad_matrix <> [] || traffic_bug then begin
    if bad <> [] then
      Printf.printf "   FAIL: %d row(s) diverged between substrates\n"
        (List.length bad);
    if bad_matrix <> [] then
      Printf.printf "   FAIL: %d matrix cell(s) diverged from serial\n"
        (List.length bad_matrix);
    if traffic_bug then
      Printf.printf
        "   FAIL: tiling changed the halo traffic counters\n";
    exit 1
  end;
  print_newline ()
