(* The repository benchmark: the stencil compile-and-run service
   ([Service.Socket_server], the daemon behind [stencilc --socket]),
   driven over a Unix-domain socket by closed-loop clients.

   Each run starts the daemon in-process.  Every client opens its own
   connection and sends one request at a time, waiting for each answer
   before sending the next.  Programs come from the Devito frontend and
   travel as textual IR ([ir=<nbytes>] payloads), compiled for
   [distributed-cpu] on 2 ranks with the compiled executor.  [run]
   requests execute through [Driver.Simulate.run_spmd_par] with the
   artifact's shared program, one [Mpi_par] domain per rank: the SPMD
   path [Driver.Harness.run_distributed] takes, without its serial
   reference run.  Scatter happens in [make_args], gather in [collect].

   Workloads (the seed picks coefficients, input data and request order,
   never the amount of work).  The traffic follows what the repository
   already sends the daemon:
   - solve: 1 client, [run] requests of one compute-bound heat2d program
     (artifact hits).  One client, as [stencilc --connect] sends one
     request at a time; each job already keeps one core busy per rank;
   - halo: as solve, with one wave2d so=8 program on thin slabs (8
     interior rows per rank against a 4-row halo), so the exchange (pack,
     wait, unpack) is about a tenth of each job, against under 1% in
     solve;
   - serve_hit: 2 clients, each sending compile requests that alternate
     between two programs compiled in set-up, so every answer is a cache
     hit: the concurrent socket traffic of [bench compile], at the client
     count of scripts/check.sh.  With 4 clients, on 2 cores, a hit took
     either about 1 ms or about 10 ms, and the median moved by a fifth
     from run to run;
   - serve_cold: 4 clients, each compiling a fresh program per request,
     so every answer is a miss and the daemon's batcher coalesces the
     cold compiles that arrive together: the concurrent cold socket
     compile of scripts/check.sh, at [bench compile]'s client count.

   Correctness is checked apart from the timing: the reference interpreter
   runs every executed program once, before the timed loop, and each run's
   gathered result is compared bitwise with it after the request's latency
   has been taken.  Every compile must report the expected cache verdict,
   and the answer for a hot program its digest as computed here.

   End-to-end metrics (--trace 0): request latency p50/p90 over all
   clients, completed requests per second of wall time across the
   clients, and set-up time (median of three cold set-ups).

   Per-layer metrics (--trace 1) cover the timed loop only; a layer the
   workload does not reach in its loop reads 0.  The frontend is timed
   around each fresh program, built before the loop; the pass pipeline
   and the executor compile each report a re-run, after the loop, on the
   first [layer_reruns] fresh programs of each client (the server reports
   only their sum).  Queue time and jobs per compile batch come from the
   server.  For runs, [Analysis] splits each rank's traced timeline into
   pack, exchange wait and unpack; compute is the rest of the rank's time
   between [make_args] and [collect].  The service's own overhead is the
   client latency minus everything the server reports.

   Usage: perfbench.exe --workload solve|halo|serve_hit|serve_cold --seed N
   --seconds S --trace 0|1.  The last stdout line is one JSON object. *)

open Interp

let now = Unix.gettimeofday

(* ---------- statistics ---------- *)

(* Linear-interpolated quantile of an unsorted sample (q in [0, 1]). *)
let quantile q samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* Per-layer samples of the timed loop, appended from the clients and
   from the run handler (which runs on a server connection domain). *)
module Layers = struct
  let lock = Mutex.create ()
  let table : (string, float list) Hashtbl.t = Hashtbl.create 32
  let enabled = Atomic.make false

  let add name v =
    if Atomic.get enabled then
      Mutex.protect lock (fun () ->
          let old = Option.value (Hashtbl.find_opt table name) ~default: [] in
          Hashtbl.replace table name (v :: old))

  let samples name =
    Mutex.protect lock (fun () ->
        Option.value (Hashtbl.find_opt table name) ~default: [])
end

(* ---------- programs (the Devito frontend) ---------- *)

type family = Heat | Wave

type spec = {
  family : family;
  so : int;  (** space order; the halo radius is so/2 *)
  grid : int list;  (** global interior extents *)
  steps : int;
  coef : float;  (** diffusivity / squared wave speed; varies the digest *)
}

let build_module spec : Ir.Op.t =
  let open Devito.Symbolic in
  match spec.family with
  | Heat ->
      let g = grid ~dt: 0.1 spec.grid in
      let u = function_ ~space_order: spec.so "u" g in
      snd
        (Devito.Operator.operator ~name: "heat" ~timesteps: spec.steps
           (eq (Dt u) (f spec.coef *: laplace u)))
  | Wave ->
      let g = grid ~dt: 0.02 spec.grid in
      let u = function_ ~space_order: spec.so ~time_order: 2 "u" g in
      snd
        (Devito.Operator.operator ~name: "wave" ~timesteps: spec.steps
           (eq (Dt2 u) (f spec.coef *: laplace u)))

type program = {
  spec : spec;
  m : Ir.Op.t;
  ir : string;  (** the request payload *)
}

let make_program spec =
  let t0 = now () in
  let m = build_module spec in
  let ir = Ir.Printer.module_to_string m in
  Layers.add "frontend_ms" ((now () -. t0) *. 1e3);
  { spec; m; ir }

let ranks = 2

let target =
  Core.Pipeline.Distributed_cpu
    {
      ranks;
      strategy = Core.Decomposition.Slice2d;
      mode = Core.Decomposition.Faces;
      tiles = [];
      overlap = true;
    }

(* Re-run the two compile layers on a cold-compiled module, each timed on
   its own. *)
let time_compile_layers (p : program) =
  let t0 = now () in
  let lowered = Core.Pipeline.compile target p.m in
  let t1 = now () in
  ignore ((Executor.of_name "compiled").Executor.compile lowered);
  let t2 = now () in
  Layers.add "lower_ms" ((t1 -. t0) *. 1e3);
  Layers.add "exec_compile_ms" ((t2 -. t1) *. 1e3)

(* ---------- executed jobs: inputs, oracle and the run handler ---------- *)

type job = {
  func : string;
  domain : int list;
  cell_updates : float;  (** interior points x time steps *)
  globals : Rtval.buffer list;  (** read-only inputs to scatter from *)
  oracle : Rtval.buffer list;  (** reference interpreter results *)
}

(* Executable programs by artifact digest, filled before the server sees
   their [run] requests and read-only afterwards. *)
let jobs : (string, job) Hashtbl.t = Hashtbl.create 16

let make_job ~input_seed (p : program) =
  let func = Driver.Harness.default_func p.m in
  let args = Driver.Harness.field_args p.m func in
  let domain =
    List.map
      (fun (b : Ir.Typesys.bound) -> b.Ir.Typesys.hi + b.Ir.Typesys.lo)
      (snd (List.hd args))
  in
  let inputs () =
    List.map (Driver.Harness.global_field ~seed: input_seed) args
  in
  let oracle =
    Driver.Simulate.run_serial ~func p.m
      (List.map (fun b -> Rtval.Rbuf b) (inputs ()))
    |> List.filter_map (function Rtval.Rbuf b -> Some b | _ -> None)
  in
  {
    func;
    domain;
    cell_updates =
      float_of_int (List.fold_left ( * ) 1 domain * p.spec.steps);
    globals = inputs ();
    oracle;
  }

(* Per-rank layer times of one traced job.  [marks.(rank)] holds the
   clock at the start and end of [make_args] and of [collect]. *)
let record_layers (job : job) comm ~wall ~(marks : float array array) =
  let open Analysis in
  let ranks = Array.length marks in
  let report = analyze ~ranks (Mpi_par.timeline comm) in
  let bd r = report.r_breakdown.(r) in
  let sum f =
    let acc = ref 0. in
    for r = 0 to ranks - 1 do
      acc := !acc +. f r
    done;
    !acc
  in
  let compute r =
    let b = bd r in
    marks.(r).(2) -. marks.(r).(1) -. b.bd_pack_s -. b.bd_wait_s
    -. b.bd_unpack_s
  in
  let ms name f = Layers.add name (sum f /. float_of_int ranks *. 1e3) in
  ms "scatter_ms" (fun r -> marks.(r).(1) -. marks.(r).(0));
  ms "compute_ms" compute;
  ms "pack_ms" (fun r -> (bd r).bd_pack_s);
  ms "wait_ms" (fun r -> (bd r).bd_wait_s);
  ms "unpack_ms" (fun r -> (bd r).bd_unpack_s);
  ms "gather_ms" (fun r -> marks.(r).(3) -. marks.(r).(2));
  let slowest =
    Array.fold_left (fun acc m -> Float.max acc (m.(3) -. m.(0))) 0. marks
  in
  Layers.add "spmd_overhead_ms" ((wall -. slowest) *. 1e3);
  Layers.add "compute_ns_per_cell" (sum compute /. job.cell_updates *. 1e9)

(* The last run's gathered results, handed from the run handler to the
   client so the comparison with the oracle stays out of the latency.
   Run workloads have one client, so one slot is enough. *)
let last_result : (string * Rtval.buffer list) option ref = ref None
let last_result_lock = Mutex.create ()

(* Execute a compiled artifact on [Mpi_par] through the library's SPMD
   path, with the scatter and gather of [Driver.Harness.run_distributed]. *)
let run_handler : Service.Serve.run_handler =
 fun _m (art : Service.Artifact.t) ~ranks ~substrate: _ ~threads ->
  let job =
    match Hashtbl.find_opt jobs art.Service.Artifact.digest with
    | Some j -> j
    | None -> failwith "perfbench: run of a program with no oracle"
  in
  let lowered = art.Service.Artifact.lowered in
  let fop =
    match Ir.Op.lookup_symbol lowered job.func with
    | Some f -> f
    | None -> failwith "perfbench: function lost in lowering"
  in
  let grid = Driver.Domain.topology_of fop in
  let local_bounds = List.hd (Driver.Domain.local_field_bounds fop) in
  let interior = List.map2 (fun n parts -> n / parts) job.domain grid in
  let origin =
    List.map (fun (b : Ir.Typesys.bound) -> -b.Ir.Typesys.lo) local_bounds
  in
  let gathered =
    List.map
      (fun (b : Rtval.buffer) ->
        Rtval.alloc_buffer ~lo: b.Rtval.lo b.Rtval.shape b.Rtval.elt)
      job.oracle
  in
  let traced = Atomic.get Layers.enabled in
  let marks = Array.make_matrix ranks 4 0. in
  let mark rank k = if traced then marks.(rank).(k) <- now () in
  let make_args ctx =
    let rank = Mpi_par.rank ctx in
    mark rank 0;
    let args =
      List.map
        (fun global ->
          Rtval.Rbuf
            (Driver.Harness.rebase
               (Driver.Domain.scatter_field ~global ~grid ~local_bounds ~rank)))
        job.globals
    in
    mark rank 1;
    args
  in
  let collect ctx _args results =
    let rank = Mpi_par.rank ctx in
    mark rank 2;
    List.iteri
      (fun k r ->
        match r with
        | Rtval.Rbuf local ->
            Driver.Domain.gather_interior ~origin
              ~global: (List.nth gathered k) ~local ~grid ~interior ~rank ()
        | _ -> ())
      results;
    mark rank 3
  in
  let t0 = now () in
  let comm =
    Driver.Simulate.run_spmd_par ~trace: traced
      ~program: art.Service.Artifact.program ~threads ~ranks ~func: job.func
      ~make_args ~collect lowered
  in
  let wall = now () -. t0 in
  if traced then record_layers job comm ~wall ~marks;
  Mutex.protect last_result_lock (fun () ->
      last_result := Some (art.Service.Artifact.digest, gathered));
  [
    ("job_ms", Printf.sprintf "%.6f" (wall *. 1e3));
    ("messages", string_of_int (Mpi_par.total_messages comm));
    ("bytes", string_of_int (Mpi_par.total_bytes comm));
  ]

let take_result () =
  Mutex.protect last_result_lock (fun () ->
      let r = !last_result in
      last_result := None;
      r)

(* Bitwise: [Driver.Harness.interior_diff] is exactly 0 only if every
   interior value matches. *)
let matches_oracle (job : job) gathered =
  List.length gathered = List.length job.oracle
  && List.for_all2
       (fun o g -> Driver.Harness.interior_diff ~domain: job.domain o g = 0.)
       job.oracle gathered

(* ---------- the server and its clients ---------- *)

(* Run-time files (the socket) live in this directory of the checkout. *)
let run_dir = ".perfbench-run"

let socket_path =
  Filename.concat run_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))

type conn = {
  ic : in_channel;
  oc : out_channel;
}

let connect () : conn =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX socket_path);
  { ic = Unix.in_channel_of_descr sock; oc = Unix.out_channel_of_descr sock }

(* Send [line] ("quit" or "shutdown"), read the farewell and close. *)
let hang_up (c : conn) line =
  output_string c.oc (line ^ "\n");
  flush c.oc;
  (match In_channel.input_line c.ic with _ -> () | exception _ -> ());
  close_out_noerr c.oc

let start_server () : Service.Socket_server.stats Domain.t =
  Service.Artifact.clear ();
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let ready = Atomic.make false in
  let handlers =
    { Service.Serve.default_handlers with Service.Serve.run = Some run_handler }
  in
  let server =
    Domain.spawn (fun () ->
        Service.Socket_server.run ~handlers
          ~on_ready: (fun () -> Atomic.set ready true)
          (Service.Socket_server.Unix_path socket_path))
  in
  let deadline = now () +. 30. in
  while not (Atomic.get ready) do
    if now () > deadline then failwith "perfbench: server did not start";
    Unix.sleepf 0.001
  done;
  server

(* Every client must have hung up first: the server joins their domains. *)
let stop_server server =
  hang_up (connect ()) "shutdown";
  Domain.join server

type answer = {
  ok : bool;
  kv : (string * string) list;
  latency_s : float;
}

let request (c : conn) cmd (p : program) : answer =
  let t0 = now () in
  Printf.fprintf c.oc
    "%s target=distributed-cpu ranks=%d substrate=par ir=%d\n%s" cmd ranks
    (String.length p.ir) p.ir;
  flush c.oc;
  let line = Option.value (In_channel.input_line c.ic) ~default: "error eof" in
  let latency_s = now () -. t0 in
  match String.split_on_char ' ' line with
  | "ok" :: words ->
      let kv =
        List.map
          (fun w ->
            match String.index_opt w '=' with
            | Some i ->
                let n = String.length w in
                (String.sub w 0 i, String.sub w (i + 1) (n - i - 1))
            | None -> (w, ""))
          words
      in
      { ok = true; kv; latency_s }
  | _ ->
      prerr_endline ("perfbench: " ^ line);
      { ok = false; kv = []; latency_s }

let kv_float (a : answer) key =
  match List.assoc_opt key a.kv with
  | Some v -> Option.value (float_of_string_opt v) ~default: 0.
  | None -> 0.

(* ---------- workloads ---------- *)

type kind = Compile | Run

type workload = {
  clients : int;
  kind : kind;  (** the request every client sends *)
  hot : spec list;  (** compiled (and executed, for runs) in set-up *)
  fresh : (Random.State.t -> int -> spec) option;
      (** [Some f]: every request compiles a new program, [f rng k] the
          [k]-th; [None]: client [c]'s [i]-th request is hot program
          [(c + i) mod n] *)
}

let coef_of rng base = base *. (0.8 +. Random.State.float rng 0.4)

(* One client running one program over and over. *)
let run_only spec = { clients = 1; kind = Run; hot = [ spec ]; fresh = None }

let solve rng =
  run_only
    {
      family = Heat;
      so = 2;
      grid = [ 96; 96 ];
      steps = 8;
      coef = coef_of rng 0.5;
    }

let halo rng =
  run_only
    {
      family = Wave;
      so = 8;
      grid = [ 16; 64 ];
      steps = 40;
      coef = coef_of rng 2.25;
    }

(* The compile workloads share one program shape, so every hit costs one
   amount and every cold compile another. *)
let serve_spec coef =
  { family = Wave; so = 4; grid = [ 32; 32 ]; steps = 4; coef }

let serve_hit rng =
  {
    clients = 2;
    kind = Compile;
    hot = List.init 2 (fun _ -> serve_spec (coef_of rng 2.25));
    fresh = None;
  }

let serve_clients = 4

(* Fresh coefficients are at least 2.25 and never repeat, so each is a
   new digest; the set-up's warm-up programs stay below. *)
let serve_cold rng =
  {
    clients = serve_clients;
    kind = Compile;
    hot = List.init serve_clients (fun _ -> serve_spec (coef_of rng 1.5));
    fresh =
      Some
        (fun rng k ->
          serve_spec
            (2.25 +. (1e-4 *. float_of_int k) +. Random.State.float rng 1e-5));
  }

let workload_of_name = function
  | "solve" -> solve
  | "halo" -> halo
  | "serve_hit" -> serve_hit
  | "serve_cold" -> serve_cold
  | w ->
      failwith
        (Printf.sprintf
           "unknown workload %S (solve, halo, serve_hit, serve_cold)" w)

(* Fresh programs per client: a client stops early if it sends them all,
   about four times what one sends in a 7 s cold run on a 2-core host. *)
let pool_size = 250

(* The fresh programs are built here, before the loop and on one domain:
   [Ir.Value]'s id counter is a plain ref, so a frontend running on the
   client domains races the daemon's compiles on SSA ids. *)
let fresh_pools (w : workload) ~seed : program array array =
  Array.init w.clients (fun c ->
      match w.fresh with
      | None -> [||]
      | Some f ->
          let rng = Random.State.make [| seed; c |] in
          Array.init pool_size (fun i ->
              make_program (f rng ((i * w.clients) + c + 1))))

(* ---------- one run ---------- *)

(* One client's counts; each client owns its own. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable hits : int;
  mutable misses : int;
  mutable latencies : float list;  (** ms *)
  mutable messages : int list;
  mutable bytes : int list;
}

let new_tally () =
  {
    attempted = 0;
    failed = 0;
    hits = 0;
    misses = 0;
    latencies = [];
    messages = [];
    bytes = [];
  }

(* Fresh programs per client whose compile layers are re-timed. *)
let layer_reruns = 8

(* Send one request and check its answer: the cache verdict [expect], the
   artifact [digest] when it is known, and for a run the gathered result
   against the oracle. *)
let exchange (t : tally) (c : conn) kind ~expect ?digest (p : program) =
  let cmd = match kind with Run -> "run" | Compile -> "compile" in
  let a = request c cmd p in
  let cached = Option.value (List.assoc_opt "cached" a.kv) ~default: "" in
  if cached = "hit" then t.hits <- t.hits + 1;
  if cached = "miss" then t.misses <- t.misses + 1;
  let digest_ok =
    match digest with
    | Some d -> List.assoc_opt "digest" a.kv = Some d
    | None -> true
  in
  let result_ok =
    match kind with
    | Run -> (
        t.messages <- int_of_float (kv_float a "messages") :: t.messages;
        t.bytes <- int_of_float (kv_float a "bytes") :: t.bytes;
        match take_result () with
        | Some (digest, gathered) -> (
            match Hashtbl.find_opt jobs digest with
            | Some job -> matches_oracle job gathered
            | None -> false)
        | None -> false)
    | Compile -> true
  in
  if a.ok then begin
    (* A hit reports the compile time of the artifact it was served. *)
    let compile_ms = if cached = "miss" then kv_float a "compile_ms" else 0. in
    let queue_ms = kv_float a "queue_ms" in
    if cached = "miss" then Layers.add "queue_ms" queue_ms;
    Layers.add "serve_overhead_ms"
      ((a.latency_s *. 1e3) -. compile_ms -. queue_ms -. kv_float a "job_ms")
  end;
  if not (a.ok && cached = expect && digest_ok && result_ok) then begin
    t.failed <- t.failed + 1;
    if a.ok then
      prerr_endline "perfbench: wrong answer (cache verdict, digest or result)"
  end;
  t.attempted <- t.attempted + 1;
  t.latencies <- (a.latency_s *. 1e3) :: t.latencies

(* Before any timing: the hot programs' digests, and reference results
   for every program the workload executes (keyed by digest for the run
   handler). *)
let prepare (w : workload) ~input_seed : string array =
  Array.of_list
    (List.map
       (fun spec ->
         let p = make_program spec in
         let digest =
           Service.Artifact.digest_of ~executor: (Executor.of_name "compiled")
             ~target p.m
         in
         if w.kind = Run then
           Hashtbl.replace jobs digest (make_job ~input_seed p);
         digest)
       w.hot)

(* Cold set-up: fresh server and cache, build the hot programs, compile
   each, and execute each once when the workload runs them. *)
let setup (w : workload) ~digests =
  let server = start_server () in
  let c = connect () in
  let t = new_tally () in
  let hot = Array.of_list (List.map make_program w.hot) in
  Array.iteri
    (fun j p ->
      let digest = digests.(j) in
      exchange t c Compile ~expect: "miss" ~digest p;
      if w.kind = Run then exchange t c Run ~expect: "hit" ~digest p)
    hot;
  hang_up c "quit";
  if t.failed > 0 then failwith "perfbench: a set-up request failed";
  (server, hot)

(* One closed-loop client on its own connection until [deadline]. *)
let client (w : workload) ~hot ~digests ~deadline k (pool : program array)
    (c : conn) : tally =
  let t = new_tally () in
  let more () =
    now () < deadline
    && (Option.is_none w.fresh || t.attempted < Array.length pool)
  in
  while more () do
    match w.fresh with
    | None ->
        let j = (k + t.attempted) mod Array.length hot in
        exchange t c w.kind ~expect: "hit" ~digest: digests.(j) hot.(j)
    | Some _ -> exchange t c w.kind ~expect: "miss" pool.(t.attempted)
  done;
  hang_up c "quit";
  t

let json_metric name value unit_ =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit_

(* A layer the timed loop never reached reads 0. *)
let layer_metrics (tallies : tally list) ~jobs_per_batch =
  let layer name unit_ =
    match Layers.samples name with
    | [] -> json_metric name 0. unit_
    | l -> json_metric name (median l) unit_
  in
  let total f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  let count name v = json_metric name (float_of_int v) "count" in
  let per_job name f =
    match List.concat_map f tallies with
    | [] -> count name 0
    | l -> json_metric name (median (List.map float_of_int l)) "count"
  in
  [
    layer "frontend_ms" "ms";
    layer "lower_ms" "ms";
    layer "exec_compile_ms" "ms";
    layer "queue_ms" "ms";
    json_metric "jobs_per_batch" jobs_per_batch "count";
    layer "serve_overhead_ms" "ms";
    layer "scatter_ms" "ms";
    layer "compute_ms" "ms";
    layer "pack_ms" "ms";
    layer "wait_ms" "ms";
    layer "unpack_ms" "ms";
    layer "gather_ms" "ms";
    layer "spmd_overhead_ms" "ms";
    layer "compute_ns_per_cell" "ns";
    count "cache_hits" (total (fun t -> t.hits));
    count "cache_misses" (total (fun t -> t.misses));
    per_job "messages_per_job" (fun t -> t.messages);
    per_job "halo_bytes_per_job" (fun t -> t.bytes);
  ]

let n_setups = 3

let usage =
  "perfbench.exe --workload solve|halo|serve_hit|serve_cold --seed N \
   --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 0 in
  let seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "solve | halo | serve_hit | serve_cold" );
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "length of the timed loop");
      ("--trace", Arg.Set_int trace, "1: report per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad a))
    usage;
  if !seconds <= 0. then begin
    prerr_endline usage;
    exit 2
  end;
  let rng = Random.State.make [| !seed |] in
  let w = workload_of_name !workload rng in
  let digests = prepare w ~input_seed: !seed in
  (* Cold set-ups; the last one's server takes the timed load. *)
  let setup_times = ref [] in
  let rec cold_setups k =
    let t0 = now () in
    let server, hot = setup w ~digests in
    setup_times := (now () -. t0) :: !setup_times;
    if k = 1 then (server, hot)
    else begin
      ignore (stop_server server);
      cold_setups (k - 1)
    end
  in
  let server, hot = cold_setups n_setups in
  Atomic.set Layers.enabled (!trace = 1);
  let pools = fresh_pools w ~seed: !seed in
  let conns = List.init w.clients (fun _ -> connect ()) in
  let t0 = now () in
  let deadline = t0 +. !seconds in
  let run_client k c = client w ~hot ~digests ~deadline k pools.(k) c in
  let tallies =
    match conns with
    | [ c ] -> [ run_client 0 c ]
    | _ ->
        List.mapi (fun k c -> Domain.spawn (fun () -> run_client k c)) conns
        |> List.map Domain.join
  in
  let elapsed = now () -. t0 in
  let stats = stop_server server in
  (try Sys.rmdir run_dir with Sys_error _ -> ());
  (* Every set-up compile was a miss in a batch of its own. *)
  let jobs_per_batch =
    let n = Array.length hot in
    let batches = stats.Service.Socket_server.batches - n in
    if batches = 0 then 0.
    else
      float_of_int (stats.Service.Socket_server.batched_jobs - n)
      /. float_of_int batches
  in
  if !trace = 1 then
    Array.iter
      (fun pool ->
        Array.iteri
          (fun i p -> if i < layer_reruns then time_compile_layers p)
          pool)
      pools;
  let total f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  let attempted = total (fun t -> t.attempted) in
  let failed = total (fun t -> t.failed) in
  let latencies = List.concat_map (fun t -> t.latencies) tallies in
  if latencies = [] then failwith "perfbench: no request completed";
  let metrics =
    if !trace = 1 then layer_metrics tallies ~jobs_per_batch
    else
      [
        json_metric "latency_p50_ms" (median latencies) "ms";
        json_metric "latency_p90_ms" (quantile 0.9 latencies) "ms";
        json_metric "requests_per_s"
          (float_of_int attempted /. elapsed)
          "1/s";
        json_metric "setup_s" (median !setup_times) "s";
      ]
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed (String.concat ", " metrics)
