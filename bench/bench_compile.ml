(* Measured compile-service performance: the content-addressed artifact
   cache (cold compile vs warm hit) and the sustained request rate of the
   --serve protocol.

   Five quantities per workload:
   - cold_ms: artifact acquisition with an empty cache — the full
     pipeline plus closure compilation (best of reps, each on a cleared
     cache);
   - warm_ms: the same request answered from the cache (best of many
     reps — this is a digest + hash lookup, microseconds);
   - serve_rps: sustained compile requests/second through an in-process
     --serve loop (one server domain, requests over a pipe, all warm
     after the first);
   - concurrent_rps: the socket daemon under contention — 4 client
     domains hammering one Unix-socket daemon with requests over 2
     distinct digests; the invariant measured alongside the rate is
     that each digest compiled exactly once and nothing failed;
   - restart_warm_ms: a "restarted daemon" answering from the on-disk
     artifact store — in-memory cache dropped, artifact restored from
     disk (pass pipeline skipped, only the executor's compile re-run).

   The machine-independent gate quantities are warm_speedup = cold/warm
   and restart_speedup = cold/restart_warm: the artifact layer's reason
   to exist is answering repeated requests without recompiling, and the
   store's is surviving a restart — either ratio collapsing toward 1x
   is a regression no matter the host.  Counters are checked to
   reconcile exactly (requests = hits + misses, one miss per cold
   compile, failed-entry hits counted apart from healthy ones). *)

type row = {
  workload : string;
  cold_ms : float;
  warm_ms : float;
  warm_speedup : float;  (* cold / warm *)
  serve_rps : float;
  serve_requests : int;
  concurrent_rps : float;
  concurrent_ok : bool;  (* 2 digests -> 2 misses, no failures, all ok *)
  restart_warm_ms : float;  (* store restore, pipeline skipped *)
  restart_speedup : float;  (* cold / restart_warm *)
  hits : int;  (* cache hits over this row's measurement *)
  misses : int;  (* cache misses (one per cleared-cache compile) *)
  failed_hits : int;  (* lookups answered by a cached failure *)
  counters_ok : bool;
}

let time_run f =
  let t0 = Unix.gettimeofday () in
  ignore (f ());
  Unix.gettimeofday () -. t0

let best ~reps f =
  let b = ref infinity in
  for _ = 1 to reps do
    b := Float.min !b (time_run f)
  done;
  !b

let target ~ranks =
  Core.Pipeline.Distributed_cpu
    {
      ranks;
      strategy = Core.Decomposition.Slice2d;
      mode = Core.Decomposition.Faces;
      tiles = [];
      overlap = true;
    }

(* Serve throughput: a server domain answering from the (warm) artifact
   cache, requests written down a pipe one line at a time, responses read
   back before the next request is issued — the single-client round-trip
   rate, protocol cost included. *)
let serve_requests_per_sec ~requests (m : Ir.Op.t) : float * int =
  let ir_text = Ir.Printer.module_to_string m in
  let payload = Printf.sprintf "compile ir=%d ranks=4\n%s" (String.length ir_text) ir_text in
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let server =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr req_r in
        let oc = Unix.out_channel_of_descr resp_w in
        Service.Serve.serve ic oc;
        close_in_noerr ic;
        close_out_noerr oc)
  in
  let oc = Unix.out_channel_of_descr req_w in
  let ic = Unix.in_channel_of_descr resp_r in
  let roundtrip () =
    output_string oc payload;
    flush oc;
    match In_channel.input_line ic with
    | Some line when String.length line >= 2 && String.sub line 0 2 = "ok" ->
        ()
    | Some line -> failwith ("serve error: " ^ line)
    | None -> failwith "serve closed the response pipe"
  in
  (* First request warms the cache (and the server); not measured. *)
  roundtrip ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to requests do
    roundtrip ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  output_string oc "quit\n";
  flush oc;
  (match In_channel.input_line ic with _ -> () | exception _ -> ());
  Domain.join server;
  List.iter Unix.close [ req_w; resp_r ];
  (float_of_int requests /. dt, requests)

(* The socket daemon under contention: [clients] domains connect to one
   Unix-domain daemon and issue [requests] compile requests each,
   alternating between two rank counts — two distinct digests total.
   The promise-per-key cache must collapse all that contention to
   exactly two cold compiles; the rate is the aggregate round-trips per
   second across all clients. *)
let concurrent_socket ~clients ~requests (name, m) : float * bool =
  Service.Artifact.clear ();
  let s0 = Service.Artifact.stats () in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "stencilc-bench-%d.sock" (Unix.getpid ()))
  in
  let handlers =
    {
      Service.Serve.resolve_demo =
        (fun n -> if n = name then Some m else None);
      run = None;
    }
  in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Service.Socket_server.run ~handlers
          ~on_ready: (fun () -> Atomic.set ready true)
          (Service.Socket_server.Unix_path sock))
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.002
  done;
  let connect () =
    let rec retry n =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX sock) with
      | () -> fd
      | exception Unix.Unix_error _ when n > 0 ->
          Unix.close fd;
          Unix.sleepf 0.01;
          retry (n - 1)
    in
    retry 100
  in
  let client _ =
    Domain.spawn (fun () ->
        let fd = connect () in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let ok = ref 0 in
        for r = 1 to requests do
          let ranks = if r mod 2 = 0 then 2 else 4 in
          output_string oc
            (Printf.sprintf "compile demo=%s ranks=%d\n" name ranks);
          flush oc;
          match In_channel.input_line ic with
          | Some line when String.length line >= 2 && String.sub line 0 2 = "ok"
            ->
              incr ok
          | Some _ | None -> ()
        done;
        output_string oc "quit\n";
        flush oc;
        (match In_channel.input_line ic with _ -> () | exception _ -> ());
        Unix.close fd;
        !ok)
  in
  let t0 = Unix.gettimeofday () in
  let oks = List.map Domain.join (List.init clients client) in
  let dt = Unix.gettimeofday () -. t0 in
  let fd = connect () in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc "shutdown\n";
  flush oc;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  ignore (Domain.join server : Service.Socket_server.stats);
  let s1 = Service.Artifact.stats () in
  let ok =
    List.for_all (fun n -> n = requests) oks
    && s1.Service.Cache.misses - s0.Service.Cache.misses = 2
    && s1.Service.Cache.failures - s0.Service.Cache.failures = 0
    && s1.Service.Cache.failed_hits - s0.Service.Cache.failed_hits = 0
  in
  (float_of_int (clients * requests) /. dt, ok)

(* The restarted daemon: artifact persisted to a throwaway on-disk
   store, then each rep drops the in-memory cache (what a process
   restart does) and re-acquires — the store path skips the pass
   pipeline and re-runs only the executor's compile. *)
let restart_warm_s ~reps ~executor ~target m : float =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "stencilc-bench-store-%d" (Unix.getpid ()))
  in
  let store = Service.Store.create dir in
  Service.Artifact.set_store (Some store);
  Fun.protect
    ~finally: (fun () ->
      Service.Artifact.set_store None;
      List.iter
        (fun d -> Service.Store.remove store ~digest: d)
        (Service.Store.list store);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      Service.Artifact.clear ();
      (* Persist once; the flag must confirm a real cold compile. *)
      (match Service.Artifact.get_cached ~executor ~target m with
      | _, `Miss -> ()
      | _, (`Hit | `Store) -> failwith "restart bench: expected a cold miss");
      best ~reps (fun () ->
          Service.Artifact.clear ();
          match Service.Artifact.get_cached ~executor ~target m with
          | _, `Store -> ()
          | _, (`Hit | `Miss) ->
              failwith "restart bench: expected a store restore"))

let run_workload ~reps ~requests (name, m) : row =
  let target = target ~ranks: 4 in
  let executor = Exec_compile.executor in
  Service.Artifact.clear ();
  let s0 = Service.Artifact.stats () in
  (* Cold: every rep recompiles into an empty cache. *)
  let cold_s =
    best ~reps (fun () ->
        Service.Artifact.clear ();
        Service.Artifact.get ~executor ~target m)
  in
  (* Warm: the artifact is resident; reps are cheap, take many. *)
  let warm_reps = 100 * reps in
  ignore (Service.Artifact.get ~executor ~target m);
  let warm_s =
    best ~reps: warm_reps (fun () ->
        Service.Artifact.get ~executor ~target m)
  in
  let s1 = Service.Artifact.stats () in
  let misses = s1.Service.Cache.misses - s0.Service.Cache.misses in
  let hits = s1.Service.Cache.hits - s0.Service.Cache.hits in
  let failed_hits =
    s1.Service.Cache.failed_hits - s0.Service.Cache.failed_hits
  in
  (* Every cleared-cache get is a miss, every other get a hit, and
     nothing in this bench compiles a failing program. *)
  let counters_ok = misses = reps && hits = warm_reps + 1 && failed_hits = 0 in
  let serve_rps, serve_requests = serve_requests_per_sec ~requests m in
  let concurrent_rps, concurrent_ok =
    concurrent_socket ~clients: 4 ~requests: (max 5 (requests / 10)) (name, m)
  in
  let restart_s = restart_warm_s ~reps ~executor ~target m in
  {
    workload = name;
    cold_ms = cold_s *. 1000.;
    warm_ms = warm_s *. 1000.;
    warm_speedup = cold_s /. warm_s;
    serve_rps;
    serve_requests;
    concurrent_rps;
    concurrent_ok;
    restart_warm_ms = restart_s *. 1000.;
    restart_speedup = cold_s /. restart_s;
    hits;
    misses;
    failed_hits;
    counters_ok;
  }

let write_json (rows : row list) =
  let path = Bench_paths.artifact "BENCH_compile.json" in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"bench\": \"compile\",\n  \"entries\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"cold_ms\": %.6f, \"warm_ms\": %.6f, \
         \"warm_speedup\": %.3f, \"serve_rps\": %.1f, \"serve_requests\": \
         %d, \"concurrent_rps\": %.1f, \"concurrent_ok\": %b, \
         \"restart_warm_ms\": %.6f, \"restart_speedup\": %.3f, \"hits\": \
         %d, \"misses\": %d, \"failed_hits\": %d, \"counters_ok\": %b}%s\n"
        r.workload r.cold_ms r.warm_ms r.warm_speedup r.serve_rps
        r.serve_requests r.concurrent_rps r.concurrent_ok r.restart_warm_ms
        r.restart_speedup r.hits r.misses r.failed_hits r.counters_ok
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  path

let run ?(smoke = false) () =
  Printf.printf "== Measured compile service (artifact cache + --serve) ==\n";
  let grid2 n = [ n; n ] in
  let workloads =
    if smoke then
      [
        ( "heat2d-so2",
          (Workloads.heat ~grid: (grid2 64) ~timesteps: 8 ~dims: 2 ~so: 2 ())
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
  let reps = if smoke then 2 else 5 in
  let requests = if smoke then 50 else 500 in
  Printf.printf "   %-12s %9s %9s %8s %9s %9s %9s %8s %10s\n" "workload"
    "cold_ms" "warm_ms" "speedup" "serve_rps" "conc_rps" "restart" "re_spd"
    "counters";
  let rows =
    List.map
      (fun w ->
        let r = run_workload ~reps ~requests w in
        Printf.printf
          "   %-12s %9.3f %9.5f %7.0fx %9.0f %9.0f %9.3f %7.0fx %10s\n%!"
          r.workload r.cold_ms r.warm_ms r.warm_speedup r.serve_rps
          r.concurrent_rps r.restart_warm_ms r.restart_speedup
          (if r.counters_ok && r.concurrent_ok then "reconcile"
           else "MISMATCH");
        r)
      workloads
  in
  let path = write_json rows in
  Printf.printf "   (machine-readable copy: %s)\n" path;
  let bad =
    List.filter (fun r -> not (r.counters_ok && r.concurrent_ok)) rows
  in
  if bad <> [] then begin
    Printf.printf "   FAIL: %d row(s) with unreconciled cache counters\n"
      (List.length bad);
    exit 1
  end;
  print_newline ()
