(* stencilc: an mlir-opt-style driver for the shared stack.

   Reads a module in the generic textual format (or builds one of the
   built-in demo programs), runs a named pass pipeline or an explicit list
   of passes, and prints the result.  This is the "Open Earth Compiler"
   style entry point: stencil programs written directly at the stencil
   dialect level share the whole backend with the Devito and PSyclone
   frontends. *)

open Cmdliner

let read_input = function
  | "-" -> In_channel.input_all In_channel.stdin
  | path -> In_channel.with_open_text path In_channel.input_all

let demo_module name =
  match name with
  | "heat2d" ->
      let g = Devito.Symbolic.grid ~dt: 0.1 [ 64; 64 ] in
      let u = Devito.Symbolic.function_ ~space_order: 2 "u" g in
      let eqn =
        Devito.Symbolic.eq (Devito.Symbolic.Dt u)
          Devito.Symbolic.(f 0.5 *: laplace u)
      in
      Some (snd (Devito.Operator.operator ~name: "heat2d" ~timesteps: 8 eqn))
  | "pw" ->
      Some
        (Psyclone.Codegen.compile
           (Psyclone.Benchkernels.pw_advection ~shape: [ 32; 32; 32 ]))
  | "traadv" ->
      Some
        (Psyclone.Codegen.compile
           (Psyclone.Benchkernels.tracer_advection ~iterations: 2
              ~shape: [ 16; 16; 16 ] ()))
  | _ -> None

let all_passes : (string * Ir.Pass.t) list =
  [
    ("canonicalize", Transforms.Canonicalize.pass);
    ("stencil-shape-inference", Core.Shape_inference.pass);
    ("cse", Transforms.Cse.pass);
    ("dce", Transforms.Dce.pass);
    ("loop-invariant-code-motion", Transforms.Licm.pass);
    ( "convert-stencil-to-loops",
      Core.Stencil_to_loops.pass ~style: Core.Stencil_to_loops.Sequential () );
    ( "convert-stencil-to-parallel-loops",
      Core.Stencil_to_loops.pass ~style: Core.Stencil_to_loops.Parallel_flat () );
    ( "convert-stencil-to-tiled-omp",
      Core.Stencil_to_loops.pass
        ~style: (Core.Stencil_to_loops.Tiled_omp [ 32; 32; 32 ]) () );
    ( "convert-stencil-to-gpu",
      Core.Stencil_to_loops.pass
        ~style:
          (Core.Stencil_to_loops.Gpu_launch
             { synchronous = true; managed = false })
        () );
    ("eliminate-redundant-swaps", Core.Swap_elim.pass);
    ("overlap-communication", Core.Overlap.pass);
    ("convert-dmp-to-mpi", Core.Dmp_to_mpi.pass);
    ("convert-mpi-to-func", Core.Mpi_to_func.pass);
    ( "convert-stencil-to-hls-initial",
      Core.Stencil_to_hls.pass ~mode: Core.Stencil_to_hls.Initial () );
    ( "convert-stencil-to-hls-optimized",
      Core.Stencil_to_hls.pass ~mode: Core.Stencil_to_hls.Optimized () );
  ]

let strategy_of_string = function
  | "1d" -> Core.Decomposition.Slice1d
  | "2d" -> Core.Decomposition.Slice2d
  | "3d" -> Core.Decomposition.Slice3d
  | s -> failwith ("unknown decomposition strategy: " ^ s)

let distribute_pass ~ranks ~strategy =
  Core.Distribute.pass
    (Core.Distribute.options ~ranks ~strategy: (strategy_of_string strategy) ())

(* Execute the module end-to-end on an MPI substrate (--run-par/--run-sim):
   serial reference, distribute + lower, run, gather, compare. *)
let execute_distributed ~substrate ~ranks ~strategy ~trace_out ~report ~exec
    ~overlap ~tile ~threads m =
  (* [of_name] fails with the registered executor names spelled out. *)
  let executor = Interp.Executor.of_name exec in
  if threads < 1 then failwith "--threads-per-rank must be positive";
  (* Threads act on omp.parallel regions, which only the tiled lowering
     emits — so asking for threads without --tile defaults the tiling
     rather than silently running sequential regions. *)
  let tiles =
    match Core.Pipeline.tiles_of_string tile with
    | Some [] when threads > 1 -> [ 32; 32 ]
    | Some ts -> ts
    | None ->
        failwith ("--tile expects comma-separated positive ints, got: " ^ tile)
  in
  (match report with
  | None | Some "text" | Some "json" -> ()
  | Some other ->
      failwith ("unknown report format: " ^ other ^ " (expected text or json)"));
  (* --report needs the event timeline, so it forces tracing on. *)
  let trace = trace_out <> None || report <> None in
  if trace then Obs.enable ();
  let r =
    Driver.Harness.run_distributed ~substrate
      ~strategy: (strategy_of_string strategy)
      ~trace ~executor ~overlap ~tiles ~threads_per_rank: threads ~ranks m
  in
  Format.printf "substrate:  %s@." r.Driver.Harness.substrate_name;
  Format.printf "executor:   %s@." r.Driver.Harness.executor_name;
  Format.printf "overlap:    %s@."
    (if r.Driver.Harness.overlap then "on" else "off");
  Format.printf "tile:       %s@."
    (if tiles = [] then "off"
     else String.concat "x" (List.map string_of_int tiles));
  Format.printf "threads:    %d per rank@." threads;
  Format.printf "ranks:      %d (topology %s)@." r.Driver.Harness.ranks
    (String.concat "x" (List.map string_of_int r.Driver.Harness.grid));
  Format.printf "domain:     %s@."
    (String.concat "x" (List.map string_of_int r.Driver.Harness.domain));
  Format.printf "serial:     %.6f s@." r.Driver.Harness.serial_wall_s;
  Format.printf "distributed: %.6f s (speedup %.2fx)@." r.Driver.Harness.wall_s
    (r.Driver.Harness.serial_wall_s /. r.Driver.Harness.wall_s);
  Format.printf "traffic:    %d messages, %d bytes@."
    r.Driver.Harness.messages r.Driver.Harness.bytes;
  Format.printf "max abs diff vs serial: %g@."
    r.Driver.Harness.max_diff_vs_serial;
  (match (report, r.Driver.Harness.analysis) with
  | None, _ | _, None -> ()
  | Some "json", Some a -> print_string (Analysis.report_json a)
  | Some _, Some a -> Format.printf "%a" Analysis.pp_report a);
  (match trace_out with
  | Some path ->
      Obs.Trace.write_chrome_json path;
      Format.eprintf
        "// trace written to %s (load in Perfetto: https://ui.perfetto.dev)@."
        path
  | None -> ());
  if r.Driver.Harness.max_diff_vs_serial = 0. then 0
  else begin
    Format.eprintf "stencilc: distributed run diverged from serial@.";
    1
  end

(* --autotune: enumerate decomposition candidates for the module at a
   rank count, price each through the scale-out replay engine, print the
   scored table and the winner.  Purely symbolic — nothing executes. *)
let autotune ~ranks ~netmodel m =
  let model =
    match netmodel with
    | Some spec -> Scale.Netmodel.of_spec spec
    | None -> Scale.Netmodel.reference
  in
  match Scale.Tune.tune ~model ~ranks m with
  | None ->
      Format.eprintf
        "stencilc: no valid decomposition for %d ranks (extents not \
         divisible?)@."
        ranks;
      1
  | Some ch ->
      Format.printf "auto-tune: %d ranks, model %s@." ranks
        (Scale.Netmodel.describe model);
      Format.printf "  %-34s %10s %10s %12s@." "candidate" "pred (s)"
        "msgs/step" "bytes/step";
      List.iter
        (fun (c : Scale.Tune.candidate) ->
          Format.printf "  %-34s %10.6f %10d %12d%s@."
            (Scale.Tune.candidate_name c)
            c.Scale.Tune.c_wall_s c.Scale.Tune.c_messages_per_step
            c.Scale.Tune.c_bytes_per_step
            (if c == ch.Scale.Tune.best then "  <- best" else ""))
        ch.Scale.Tune.considered;
      if ch.Scale.Tune.skipped > 0 then
        Format.printf "  (%d invalid candidate(s) skipped)@."
          ch.Scale.Tune.skipped;
      let b = ch.Scale.Tune.best in
      Format.printf
        "chosen: strategy=%s mode=%s overlap=%b grid=%s predicted=%.6f s@."
        (Core.Decomposition.strategy_name b.Scale.Tune.c_strategy)
        (Core.Decomposition.mode_name b.Scale.Tune.c_mode)
        b.Scale.Tune.c_overlap
        (String.concat "x" (List.map string_of_int b.Scale.Tune.c_grid))
        b.Scale.Tune.c_wall_s;
      0

(* --serve: answer newline-delimited compile/run requests from the
   process-wide artifact cache — on stdin/stdout by default, or as a
   multi-client daemon behind --socket PATH / --tcp PORT.  The run
   handler executes through the same Harness path as
   --run-sim/--run-par, so a served run and a CLI run are the same
   code. *)
let serve_handlers : Service.Serve.handlers =
  {
    Service.Serve.resolve_demo = demo_module;
    run =
      Some
        (fun m (art : Service.Artifact.t) ~ranks ~substrate ~threads ->
          let strategy, overlap, tiles =
            match art.Service.Artifact.target with
            | Core.Pipeline.Distributed_cpu { strategy; overlap; tiles; _ } ->
                (strategy, overlap, tiles)
            | t ->
                failwith
                  ("run requires target=distributed-cpu, got "
                  ^ Core.Pipeline.target_name t)
          in
          let substrate =
            match substrate with
            | "par" -> Driver.Harness.Par
            | _ -> Driver.Harness.Sim
          in
          let executor =
            Interp.Executor.of_name art.Service.Artifact.executor_name
          in
          let r =
            Driver.Harness.run_distributed ~substrate ~strategy ~executor
              ~overlap ~tiles ~threads_per_rank: threads ~ranks m
          in
          [
            ("substrate", r.Driver.Harness.substrate_name);
            ( "grid",
              String.concat "x"
                (List.map string_of_int r.Driver.Harness.grid) );
            ("wall_ms", Printf.sprintf "%.3f" (r.Driver.Harness.wall_s *. 1000.));
            ( "serial_ms",
              Printf.sprintf "%.3f" (r.Driver.Harness.serial_wall_s *. 1000.)
            );
            ("messages", string_of_int r.Driver.Harness.messages);
            ("bytes", string_of_int r.Driver.Harness.bytes);
            ( "max_diff",
              Printf.sprintf "%g" r.Driver.Harness.max_diff_vs_serial );
          ]);
  }

(* Cache/store knobs shared by every serve mode (stdin, socket, tcp). *)
let configure_service ~store_dir ~store_max_mb ~cache_capacity =
  Service.Artifact.set_policy ~capacity: cache_capacity;
  match store_dir with
  | None -> ()
  | Some dir ->
      let max_bytes =
        match store_max_mb with
        | Some mb when mb <= 0 -> failwith "--store-max-mb must be positive"
        | Some mb -> Some (mb * 1024 * 1024)
        | None -> None
      in
      Service.Artifact.set_store (Some (Service.Store.create ?max_bytes dir));
      (* Warm start: previously-seen digests answer without the pass
         pipeline (persisted lowered module + executor compile only). *)
      let n = Service.Artifact.warm_start () in
      if n > 0 then
        Format.eprintf "// warm start: %d artifact(s) preloaded from %s@." n
          dir

(* --connect ADDR: a minimal client for the socket daemon.  Forwards all
   of stdin to the server (so ir=<nbytes> payloads pass through without
   any parsing here), half-closes, then prints every response line —
   exactly what the check.sh smokes and quick manual poking need. *)
let connect_addr spec =
  match String.rindex_opt spec ':' with
  | Some i -> (
      let host = String.sub spec 0 i in
      let port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port with
      | Some p ->
          let host = if host = "" then "127.0.0.1" else host in
          let inet =
            try Unix.inet_addr_of_string host
            with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
          in
          Unix.ADDR_INET (inet, p)
      | None -> Unix.ADDR_UNIX spec)
  | None -> Unix.ADDR_UNIX spec

let client_pump spec =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let addr = connect_addr spec in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  let oc = Unix.out_channel_of_descr fd in
  let buf = Bytes.create 65536 in
  let rec forward () =
    let n = input Stdlib.stdin buf 0 (Bytes.length buf) in
    if n > 0 then begin
      output oc buf 0 n;
      forward ()
    end
  in
  forward ();
  flush oc;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let ic = Unix.in_channel_of_descr fd in
  (try
     while true do
       print_endline (input_line ic)
     done
   with End_of_file -> ());
  Unix.close fd;
  0

let serve_daemon endpoint =
  let s = Service.Socket_server.run ~handlers: serve_handlers endpoint in
  Format.eprintf "// %s: served %d connection(s); %d cold compile(s)@."
    (Service.Socket_server.endpoint_name endpoint)
    s.Service.Socket_server.connections s.Service.Socket_server.batched_jobs;
  0

let run_cmd input demo pipeline passes ranks strategy print_after verify
    stats profile pass_stats trace_out report run_par run_sim exec
    overlap tile threads serve socket tcp_port store_dir store_max_mb
    cache_capacity connect_to autotune_ranks netmodel =
  try
    match connect_to with
    | Some spec -> client_pump spec
    | None ->
    if serve || socket <> None || tcp_port <> None then begin
      configure_service ~store_dir ~store_max_mb ~cache_capacity;
      match (socket, tcp_port) with
      | Some _, Some _ -> failwith "--socket and --tcp are mutually exclusive"
      | Some path, None ->
          serve_daemon (Service.Socket_server.Unix_path path)
      | None, Some port -> serve_daemon (Service.Socket_server.Tcp_port port)
      | None, None ->
          Service.Serve.serve ~handlers: serve_handlers In_channel.stdin
            Out_channel.stdout;
          0
    end
    else begin
    (* Any observability flag installs the Obs sink before the pipeline
       runs; off otherwise, so plain compiles pay nothing. *)
    if profile || pass_stats || trace_out <> None then Obs.enable ();
    let m =
      match demo with
      | Some name -> (
          match demo_module name with
          | Some m -> m
          | None -> failwith ("unknown demo: " ^ name))
      | None -> Ir.Parser.parse_string (read_input input)
    in
    match (autotune_ranks, run_par, run_sim) with
    | Some ranks, _, _ -> autotune ~ranks ~netmodel m
    | None, Some ranks, _ ->
        execute_distributed ~substrate: Driver.Harness.Par ~ranks ~strategy
          ~trace_out ~report ~exec ~overlap ~tile ~threads m
    | None, None, Some ranks ->
        execute_distributed ~substrate: Driver.Harness.Sim ~ranks ~strategy
          ~trace_out ~report ~exec ~overlap ~tile ~threads m
    | None, None, None ->
    let selected =
      match (pipeline, passes) with
      | Some p, _ -> (
          match List.assoc_opt p Core.Pipeline.named_pipelines with
          | Some pl -> pl
          | None -> failwith ("unknown pipeline: " ^ p))
      | None, ps ->
          Ir.Pass.pipeline "cli"
            (List.map
               (fun name ->
                 if name = "distribute-stencil" then
                   distribute_pass ~ranks ~strategy
                 else
                   match List.assoc_opt name all_passes with
                   | Some p -> p
                   | None -> failwith ("unknown pass: " ^ name))
               ps)
    in
    let result =
      Ir.Pass.run_pipeline ~verify ~checks: Core.Registry.checks ~print_after
        selected m
    in
    if stats then
      Format.printf "// op histogram:@.%a" Transforms.Statistics.pp_histogram
        result
    else Format.printf "%a" Ir.Printer.print_module result;
    if profile || pass_stats then begin
      Format.eprintf "%a" Obs.Passes.pp_table ();
      Format.eprintf "%a" Obs.Rewrites.pp_table ()
    end;
    if profile then Format.eprintf "%a" Obs.Trace.pp_summary ();
    (match trace_out with
    | Some path ->
        Obs.Trace.write_chrome_json path;
        Format.eprintf "// trace written to %s (load in Perfetto: https://ui.perfetto.dev)@." path
    | None -> ());
    0
    end
  with
  | Failure msg | Ir.Op.Ill_formed msg | Sys_error msg ->
      Format.eprintf "stencilc: %s@." msg;
      1
  | Unix.Unix_error (e, fn, arg) ->
      Format.eprintf "stencilc: %s(%s): %s@." fn arg (Unix.error_message e);
      1
  | Mpi_par.Stall report ->
      Format.eprintf "stencilc: %s@." report;
      1
  | Ir.Parser.Parse_error msg ->
      Format.eprintf "stencilc: parse error: %s@." msg;
      1
  | Ir.Verifier.Verification_error msg ->
      Format.eprintf "stencilc: verification failed: %s@." msg;
      1

let input_arg =
  Arg.(value & pos 0 string "-" & info [] ~docv: "FILE" ~doc: "Input IR file (- for stdin).")

let demo_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "demo" ] ~docv: "NAME"
        ~doc: "Use a built-in demo program instead of reading input: heat2d, pw, traadv.")

let pipeline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "p"; "pipeline" ] ~docv: "NAME"
        ~doc:
          "Named pipeline: cpu-sequential, cpu-openmp, distributed-cpu-4, \
           gpu, fpga-initial, fpga-optimized, canonicalize.")

let passes_arg =
  Arg.(
    value & opt_all string []
    & info [ "pass" ] ~docv: "PASS" ~doc: "Run an individual pass (repeatable).")

let ranks_arg =
  Arg.(value & opt int 4 & info [ "ranks" ] ~doc: "Ranks for distribute-stencil.")

let strategy_arg =
  Arg.(
    value & opt string "2d"
    & info [ "strategy" ] ~doc: "Decomposition strategy: 1d, 2d, 3d.")

let print_after_arg =
  Arg.(value & flag & info [ "print-after-all" ] ~doc: "Dump IR after each pass.")

let verify_arg =
  Arg.(value & flag & info [ "verify" ] ~doc: "Verify after each pass.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc: "Print an op histogram instead of IR.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Profile the pipeline: print the per-pass stats table and a \
           trace summary to stderr.")

let pass_stats_arg =
  Arg.(
    value & flag
    & info [ "pass-stats" ]
        ~doc:
          "Print the per-pass stats table (wall/verify time, op-count and \
           IR-size deltas, pattern applications) to stderr.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv: "FILE"
        ~doc:
          "Write a Chrome trace-event JSON of the compilation (one span \
           per pass) to $(docv); load it in Perfetto or chrome://tracing.")

let report_arg =
  Arg.(
    value
    & opt ~vopt: (Some "text") (some string) None
    & info [ "report" ] ~docv: "FORMAT"
        ~doc:
          "After --run-par/--run-sim, analyze the run's event timeline and \
           print per-rank compute/pack/wait/unpack breakdowns, the \
           rank-by-rank comm matrix, the critical path, overlap efficiency \
           and an alpha-beta network-model fit.  $(docv) is text (default) \
           or json.  Implies tracing.")

let run_par_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "run-par" ] ~docv: "N"
        ~doc:
          "Execute the module end-to-end on $(docv) parallel ranks (one \
           OCaml domain per rank, shared-memory transport), compare \
           against the serial interpreter and report wall-clock speedup. \
           Combines with --strategy and --trace-out (per-rank wall-clock \
           timelines).  A run is aborted with a report of each rank's \
           pending operation when every rank has been blocked in the \
           transport for 30 s without progress.")

let run_sim_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "run-sim" ] ~docv: "N"
        ~doc:
          "Execute the module end-to-end on $(docv) simulated ranks \
           (deterministic cooperative fibers) and compare against the \
           serial interpreter.")

let exec_arg =
  Arg.(
    value & opt string "compiled"
    & info [ "exec" ] ~docv: "BACKEND"
        ~doc:
          "Execution backend for --run-par/--run-sim: compiled (default; \
           ahead-of-time closure compilation of the lowered module) or \
           interp (the tree-walking reference interpreter).  The serial \
           reference is always interpreted.")

let overlap_arg =
  Arg.(
    value & opt bool true
    & info [ "overlap" ] ~docv: "BOOL"
        ~doc:
          "Communication/computation overlap for --run-par/--run-sim \
           (default true): split-phase halo exchanges with interior \
           compute while messages are in flight.  Pass --overlap=false \
           for the fused swap pipeline.")

let tile_arg =
  Arg.(
    value & opt string ""
    & info [ "tile" ] ~docv: "T1,T2,..."
        ~doc:
          "Cache-block sizes for --run-par/--run-sim: lower each stencil \
           through the tiled omp pipeline with these per-dimension block \
           sizes (e.g. --tile 32,32).  Dimensions beyond the list are \
           untiled.  Tiling is part of the compile target, so tiled and \
           untiled runs produce (and cache) distinct artifacts.")

let threads_arg =
  Arg.(
    value & opt int 1
    & info [ "threads-per-rank" ] ~docv: "N"
        ~doc:
          "Worker domains per rank for --run-par/--run-sim with the \
           compiled backend: each rank schedules its omp.parallel regions \
           across a pool of $(docv) OCaml domains (default 1, \
           sequential).  A pure runtime knob — it does not change the \
           compiled artifact.  Implies --tile 32,32 when no --tile is \
           given (threads act on omp regions, which only the tiled \
           lowering emits).")

let serve_arg =
  Arg.(
    value & flag
    & info [ "serve" ]
        ~doc:
          "Run as a compile service: read newline-delimited compile/run \
           requests from stdin and answer one line per request from the \
           content-addressed artifact cache (repeated or concurrent \
           requests for structurally identical programs compile once).  \
           See DESIGN.md for the protocol.")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv: "PATH"
        ~doc:
          "With --serve semantics: listen on a Unix-domain socket at \
           $(docv) and accept multiple concurrent client connections \
           (each served by its own domain, which also runs that client's \
           cold compiles).  A client sending 'shutdown' stops the daemon; \
           'quit' or EOF closes only that connection.  Implies --serve.")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv: "PORT"
        ~doc:
          "Like --socket, but listen on loopback TCP port $(docv).  \
           Mutually exclusive with --socket.  Implies --serve.")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv: "DIR"
        ~doc:
          "Persist compiled artifacts to a digest-keyed on-disk store \
           under $(docv) (one atomic file per digest: canonical IR, \
           lowered-module text, metadata).  A restarted server warm-starts \
           from the store, skipping the pass pipeline for previously-seen \
           programs.")

let store_max_mb_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "store-max-mb" ] ~docv: "MB"
        ~doc:
          "Cap the on-disk artifact store (--store) at $(docv) megabytes: \
           after every save, the oldest artifacts (by file mtime) are \
           evicted until the store fits, each eviction logged to stderr.  \
           Unset: the store grows without bound.")

let cache_capacity_arg =
  Arg.(
    value & opt int 128
    & info [ "cache-capacity" ] ~docv: "N"
        ~doc:
          "Maximum artifacts retained by the in-memory cache (0 or \
           negative: unbounded).")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv: "ADDR"
        ~doc:
          "Act as a client for a running --serve daemon: forward stdin \
           to the server at $(docv) (a Unix socket path, or host:port / \
           :port for TCP) and print its response lines.")

let autotune_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "autotune" ] ~docv: "N"
        ~doc:
          "Auto-tune the decomposition for $(docv) ranks: enumerate \
           strategy x exchange-mode x overlap candidates, predict each \
           one's wall-clock with the scale-out replay engine (no \
           execution), and print the scored table and the chosen \
           decomposition.  Combine with --netmodel for a calibrated cost \
           model.")

let netmodel_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "netmodel" ] ~docv: "SPEC"
        ~doc:
          "Cost model for --autotune as comma-separated key=value pairs \
           (keys: alpha, beta, compute, pack, unpack; e.g. \
           'alpha=2e-6,beta=1e-9').  Unset keys keep the frozen reference \
           model's constants.")

let cmd =
  let doc = "shared stencil compilation stack driver" in
  Cmd.v
    (Cmd.info "stencilc" ~doc)
    Term.(
      const run_cmd $ input_arg $ demo_arg $ pipeline_arg $ passes_arg
      $ ranks_arg $ strategy_arg $ print_after_arg
      $ verify_arg $ stats_arg $ profile_arg $ pass_stats_arg
      $ trace_out_arg $ report_arg $ run_par_arg $ run_sim_arg
      $ exec_arg $ overlap_arg $ tile_arg $ threads_arg
      $ serve_arg $ socket_arg $ tcp_arg $ store_arg $ store_max_mb_arg
      $ cache_capacity_arg $ connect_arg $ autotune_arg
      $ netmodel_arg)

let () = exit (Cmd.eval' cmd)
