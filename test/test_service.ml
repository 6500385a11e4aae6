(* Tests for the compile-service layer: canonical digests (stable across
   print/parse round-trips and SSA renumbering, insensitive to attribute
   order), the Domains-safe promise-per-key cache (including LRU
   eviction and failed-hit accounting), single-compilation through the
   artifact layer, the --serve line protocol (including the
   payload-drain framing rule), the multi-client socket daemon, and the
   on-disk artifact store's restart-persistence path. *)

open Ir

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

let index_of hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let contains hay needle = index_of hay needle <> None

(* The heat2d demo as stencilc builds it; constructing it twice allocates
   fresh SSA value ids throughout, which the canonical print must hide. *)
let heat_module ?(n = 16) ?(timesteps = 3) () : Op.t =
  let g = Devito.Symbolic.grid ~dt: 0.1 [ n; n ] in
  let u = Devito.Symbolic.function_ ~space_order: 2 "u" g in
  let eqn =
    Devito.Symbolic.eq (Devito.Symbolic.Dt u)
      Devito.Symbolic.(f 0.5 *: laplace u)
  in
  snd (Devito.Operator.operator ~name: "heat2d" ~timesteps eqn)

let dist_target ~ranks : Core.Pipeline.target =
  Core.Pipeline.Distributed_cpu
    {
      ranks;
      strategy = Core.Decomposition.Slice2d;
      mode = Core.Decomposition.Faces;
      tiles = [];
      overlap = true;
    }

(* --- canonical digests --- *)

(* Random well-typed programs (reusing the exec_compile generators):
   printing and re-parsing allocates fresh value ids, and the generic
   printer's output order is deterministic, so the canonical string must
   be identical on both sides. *)
let roundtrip_digest_prop =
  QCheck.Test.make ~count: 100
    ~name: "canonical digest stable under print -> parse round-trip"
    (QCheck.make
       QCheck.Gen.(
         triple Test_exec_compile.gen_ie Test_exec_compile.gen_fe (1 -- 5))
       ~print: (fun (_, _, steps) ->
         Printf.sprintf "<random program, %d steps>" steps))
    (fun prog ->
      let m = Test_exec_compile.program_module prog in
      let reparsed = Parser.parse_string (Printer.module_to_string m) in
      Printer.canonical_module_string m
      = Printer.canonical_module_string reparsed)

let test_digest_ssa_insensitive () =
  (* Two builds of the same source program differ in every value id. *)
  let a = heat_module () and b = heat_module () in
  check bool_c "same canonical string" true
    (Printer.canonical_module_string a = Printer.canonical_module_string b);
  check bool_c "same artifact digest" true
    (Service.Artifact.digest_of ~target: (dist_target ~ranks: 4) a
    = Service.Artifact.digest_of ~target: (dist_target ~ranks: 4) b);
  (* ... and the digest keys on the program and the target. *)
  check bool_c "different program, different digest" false
    (Service.Artifact.digest_of ~target: (dist_target ~ranks: 4) a
    = Service.Artifact.digest_of ~target: (dist_target ~ranks: 4)
        (heat_module ~timesteps: 4 ()));
  check bool_c "different target, different digest" false
    (Service.Artifact.digest_of ~target: (dist_target ~ranks: 4) a
    = Service.Artifact.digest_of ~target: (dist_target ~ranks: 8) a)

let test_digest_attr_order_insensitive () =
  let m = heat_module () in
  let permuted =
    Op.with_module_ops m
      (List.map
         (fun (op : Op.t) -> { op with Op.attrs = List.rev op.Op.attrs })
         (Op.module_ops m))
  in
  (* The plain generic print renders attrs in insertion order, so the
     permutation is visible there... *)
  check bool_c "plain print differs" false
    (Printer.module_to_string m = Printer.module_to_string permuted);
  (* ... but the canonical rendering sorts attribute dictionaries. *)
  check bool_c "canonical print identical" true
    (Printer.canonical_module_string m
    = Printer.canonical_module_string permuted)

(* --- the Domains-safe cache --- *)

let test_cache_concurrent_same_key () =
  let c : int Service.Cache.t = Service.Cache.create "test-cache" in
  let computed = Atomic.make 0 in
  let workers = 8 in
  let domains =
    List.init workers (fun _ ->
        Domain.spawn (fun () ->
            Service.Cache.find_or_compute c ~key: "k" (fun () ->
                Atomic.incr computed;
                (* Widen the race window so joiners really do find the
                   Pending entry and wait on the condition variable. *)
                Unix.sleepf 0.02;
                41 + 1)))
  in
  let results = List.map Domain.join domains in
  check bool_c "every requester got the value" true
    (List.for_all (fun (v, _) -> v = 42) results);
  check int_c "computed exactly once" 1 (Atomic.get computed);
  check int_c "exactly one miss flag" 1
    (List.length (List.filter (fun (_, f) -> f = `Miss) results));
  let s = Service.Cache.stats c in
  check int_c "counters reconcile with requests" workers
    (s.Service.Cache.hits + s.Service.Cache.misses);
  check int_c "one miss counted" 1 s.Service.Cache.misses

let test_cache_concurrent_distinct_keys () =
  let c : string Service.Cache.t = Service.Cache.create "test-cache-2" in
  let computed = Atomic.make 0 in
  let keys = [ "a"; "b"; "c"; "d" ] in
  let domains =
    List.concat_map
      (fun key ->
        List.init 3 (fun _ ->
            Domain.spawn (fun () ->
                fst
                  (Service.Cache.find_or_compute c ~key (fun () ->
                       Atomic.incr computed;
                       Unix.sleepf 0.01;
                       String.uppercase_ascii key)))))
      keys
  in
  let results = List.map Domain.join domains in
  check bool_c "all results correct" true
    (List.for_all (fun v -> String.length v = 1) results);
  check int_c "one computation per distinct key" (List.length keys)
    (Atomic.get computed);
  let s = Service.Cache.stats c in
  check int_c "counters reconcile" 12
    (s.Service.Cache.hits + s.Service.Cache.misses);
  check int_c "entries resident" (List.length keys) (Service.Cache.length c)

let test_cache_failure_cached () =
  let c : int Service.Cache.t = Service.Cache.create "test-cache-3" in
  let computed = Atomic.make 0 in
  let attempt () =
    Service.Cache.find_or_compute c ~key: "boom" (fun () ->
        Atomic.incr computed;
        failwith "deterministic failure")
  in
  (match attempt () with
  | _ -> Alcotest.fail "expected the computation's exception"
  | exception Failure msg ->
      check bool_c "original message" true (msg = "deterministic failure"));
  (* The failure is cached: no recompute, same exception. *)
  (match attempt () with
  | _ -> Alcotest.fail "expected the cached exception"
  | exception Failure _ -> ());
  check int_c "computed once despite two requests" 1 (Atomic.get computed);
  let s = Service.Cache.stats c in
  check int_c "failure counted" 1 s.Service.Cache.failures;
  (* The repeat lookup landed on the cached failure: that is a
     failed_hit, NOT a healthy hit — a server hammered with a broken
     module must not report a clean hit rate. *)
  check int_c "failed lookup is a failed_hit" 1 s.Service.Cache.failed_hits;
  check int_c "no healthy hits" 0 s.Service.Cache.hits;
  check int_c "one miss" 1 s.Service.Cache.misses

(* --- LRU eviction --- *)

let fill c keys =
  List.iter
    (fun k ->
      ignore (Service.Cache.find_or_compute c ~key: k (fun () -> k)))
    keys

(* Recompute = the thunk ran = the key had been evicted. *)
let recomputes c key =
  let ran = ref false in
  ignore
    (Service.Cache.find_or_compute c ~key (fun () ->
         ran := true;
         key));
  !ran

let test_eviction_lru () =
  let c = Service.Cache.create ~capacity: 2 "ev-lru" in
  fill c [ "a"; "b" ];
  (* Touch "a": LRU refreshes it, so "b" becomes the victim. *)
  ignore (Service.Cache.find_or_compute c ~key: "a" (fun () -> "a"));
  fill c [ "c" ];
  check int_c "capacity held" 2 (Service.Cache.length c);
  check int_c "evictions counted" 1 (Service.Cache.stats c).Service.Cache.evictions;
  check bool_c "lru keeps the recently used (a)" false (recomputes c "a");
  check bool_c "lru evicted the stale entry (b)" true (recomputes c "b")

let test_set_policy_shrinks () =
  let c = Service.Cache.create "ev-shrink" in
  fill c [ "a"; "b"; "c"; "d" ];
  check int_c "unbounded holds all" 4 (Service.Cache.length c);
  Service.Cache.set_policy ~capacity: 2 c;
  check int_c "set_policy evicts immediately" 2 (Service.Cache.length c)

(* --- single compilation through the artifact layer --- *)

let test_single_compilation_4_ranks () =
  Service.Artifact.clear ();
  let m = heat_module () in
  let c0 = Exec_compile.compile_count () in
  let r =
    Driver.Harness.run_distributed ~executor: Exec_compile.executor ~ranks: 4
      m
  in
  check bool_c "distributed == serial" true
    (r.Driver.Harness.max_diff_vs_serial = 0.);
  check int_c "4 ranks, exactly one closure compilation" 1
    (Exec_compile.compile_count () - c0);
  (* A second run of the structurally identical program is a pure cache
     hit: zero further compilations. *)
  let r2 =
    Driver.Harness.run_distributed ~executor: Exec_compile.executor ~ranks: 4
      (heat_module ())
  in
  check bool_c "second run still exact" true
    (r2.Driver.Harness.max_diff_vs_serial = 0.);
  check int_c "second run compiles nothing" 1
    (Exec_compile.compile_count () - c0)

let test_artifact_counters () =
  Service.Artifact.clear ();
  let m = heat_module () in
  let s0 = Service.Artifact.stats () in
  let target = dist_target ~ranks: 2 in
  let executor = Exec_compile.executor in
  let a1, f1 = Service.Artifact.get_cached ~executor ~target m in
  let a2, f2 = Service.Artifact.get_cached ~executor ~target m in
  let s1 = Service.Artifact.stats () in
  check bool_c "first is a miss" true (f1 = `Miss);
  check bool_c "second is a hit" true (f2 = `Hit);
  check bool_c "same digest" true (a1.Service.Artifact.digest = a2.Service.Artifact.digest);
  check bool_c "hit artifacts report zero compile time" true
    (a2.Service.Artifact.compile_s = 0.);
  check int_c "one miss" 1
    (s1.Service.Cache.misses - s0.Service.Cache.misses);
  check int_c "one hit" 1 (s1.Service.Cache.hits - s0.Service.Cache.hits);
  check int_c "no failed hits" 0
    (s1.Service.Cache.failed_hits - s0.Service.Cache.failed_hits)

(* --- the --serve protocol --- *)

let test_serve_protocol () =
  Service.Artifact.clear ();
  let m = heat_module () in
  let handlers =
    {
      Service.Serve.resolve_demo =
        (fun name -> if name = "heat-demo" then Some (heat_module ()) else None);
      run = None;
    }
  in
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let server =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr req_r in
        let oc = Unix.out_channel_of_descr resp_w in
        Service.Serve.serve ~handlers ic oc;
        close_in_noerr ic;
        close_out_noerr oc)
  in
  let oc = Unix.out_channel_of_descr req_w in
  let ic = Unix.in_channel_of_descr resp_r in
  let ask line =
    output_string oc (line ^ "\n");
    flush oc;
    match In_channel.input_line ic with
    | Some resp -> resp
    | None -> Alcotest.fail "server closed the pipe"
  in
  (* key=value field of a response line. *)
  let field resp key =
    List.find_map
      (fun w ->
        let prefix = key ^ "=" in
        let np = String.length prefix in
        if String.length w > np && String.sub w 0 np = prefix then
          Some (String.sub w np (String.length w - np))
        else None)
      (String.split_on_char ' ' resp)
  in
  check bool_c "ping" true (ask "ping" = "ok pong");
  let c1 = ask "compile demo=heat-demo ranks=2" in
  check bool_c "first compile misses" true (contains c1 "cached=miss");
  let c2 = ask "compile demo=heat-demo ranks=2" in
  check bool_c "repeat compile hits" true (contains c2 "cached=hit");
  check bool_c "same digest both times" true
    (field c1 "digest" = field c2 "digest" && field c1 "digest" <> None);
  (* Inline IR payload: digest must equal the demo's (same canonical
     form, reparsed). *)
  let ir_text = Printer.module_to_string m in
  let ir_req =
    Printf.sprintf "compile ir=%d ranks=2\n%s" (String.length ir_text) ir_text
  in
  output_string oc ir_req;
  flush oc;
  let c3 =
    match In_channel.input_line ic with
    | Some r -> r
    | None -> Alcotest.fail "server closed the pipe"
  in
  check bool_c "inline IR hits the demo's cache entry" true
    (contains c3 "cached=hit");
  check bool_c "inline IR digest equals the demo's" true
    (field c3 "digest" = field c1 "digest");
  let stats = ask "stats" in
  check bool_c "stats reports hits" true (contains stats "hits=");
  check bool_c "unknown demo is an error" true
    (contains (ask "compile demo=nope ranks=2") "error");
  check bool_c "run without handler is an error" true
    (contains (ask "run demo=heat-demo ranks=2") "error");
  check bool_c "unknown command is an error" true
    (contains (ask "frobnicate") "error");
  check bool_c "quit" true (ask "quit" = "ok bye");
  Domain.join server;
  List.iter Unix.close [ req_w; resp_r ]

(* --- framing: malformed requests must not desync the stream --- *)

(* A validation failure in a request that declares an ir=<nbytes> payload
   must still drain those bytes: otherwise the loop parses the payload as
   the next request and every later exchange is desynchronized.  The
   regression: send malformed ir= requests, then a ping — the ping must
   still answer pong. *)
let test_serve_desync_regression () =
  Service.Artifact.clear ();
  let handlers =
    {
      Service.Serve.resolve_demo =
        (fun name -> if name = "heat-demo" then Some (heat_module ()) else None);
      run = None;
    }
  in
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let server =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr req_r in
        let oc = Unix.out_channel_of_descr resp_w in
        Service.Serve.serve ~handlers ic oc;
        close_in_noerr ic;
        close_out_noerr oc)
  in
  let oc = Unix.out_channel_of_descr req_w in
  let ic = Unix.in_channel_of_descr resp_r in
  let send raw =
    output_string oc raw;
    flush oc
  in
  let recv () =
    match In_channel.input_line ic with
    | Some resp -> resp
    | None -> Alcotest.fail "server closed the pipe"
  in
  (* 1. Ambiguous spec (demo AND ir): fails validation, but the declared
     payload bytes must be consumed. *)
  send "compile ir=5 demo=heat-demo ranks=2\nhello";
  check bool_c "ambiguous spec is an error" true (contains (recv ()) "error");
  send "ping\n";
  check bool_c "stream still in sync after ambiguous spec" true
    (recv () = "ok pong");
  (* 2. Valid payload, bad target knob: the failure happens after the
     payload, which must also leave the stream clean. *)
  let ir_text = Printer.module_to_string (heat_module ()) in
  send
    (Printf.sprintf "compile ir=%d strategy=bogus\n%s" (String.length ir_text)
       ir_text);
  check bool_c "bad strategy is an error" true
    (contains (recv ()) "unknown strategy");
  send "ping\n";
  check bool_c "stream still in sync after bad strategy" true
    (recv () = "ok pong");
  (* 3. Unknown command carrying a payload: drained all the same. *)
  send "frobnicate ir=3 x=1\nabc";
  check bool_c "unknown command is an error" true (contains (recv ()) "error");
  send "ping\n";
  check bool_c "stream still in sync after unknown command" true
    (recv () = "ok pong");
  send "quit\n";
  check bool_c "quit" true (recv () = "ok bye");
  Domain.join server;
  List.iter Unix.close [ req_w; resp_r ]

(* --- the multi-client socket daemon --- *)

let test_socket_concurrent_clients () =
  Service.Artifact.clear ();
  let s0 = Service.Artifact.stats () in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "stencilc-test-%d.sock" (Unix.getpid ()))
  in
  (* Two distinct programs: clients hammer both, each must compile
     exactly once across the whole daemon. *)
  let handlers =
    {
      Service.Serve.resolve_demo =
        (fun name ->
          match name with
          | "h3" -> Some (heat_module ~timesteps: 3 ())
          | "h4" -> Some (heat_module ~timesteps: 4 ())
          | _ -> None);
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
    Unix.sleepf 0.005
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
  let requests_per_client = 10 in
  let client _id =
    Domain.spawn (fun () ->
        let fd = connect () in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let ok = ref 0 in
        for r = 1 to requests_per_client do
          let demo = if r mod 2 = 0 then "h3" else "h4" in
          output_string oc
            (Printf.sprintf "compile demo=%s ranks=2\n" demo);
          flush oc;
          match In_channel.input_line ic with
          | Some resp -> (
              (* A compile answer carries exactly these four keys, and no
                 queue time: compiles run on the connection's domain. *)
              match String.split_on_char ' ' resp with
              | "ok" :: words
                when List.sort compare
                       (List.map
                          (fun w -> List.hd (String.split_on_char '=' w))
                          words)
                     = [ "cached"; "compile_ms"; "digest"; "exec" ] ->
                  incr ok
              | _ -> ())
          | None -> ()
        done;
        output_string oc "quit\n";
        flush oc;
        (match In_channel.input_line ic with _ -> () | exception _ -> ());
        Unix.close fd;
        !ok)
  in
  let clients = List.init 4 client in
  let oks = List.map Domain.join clients in
  (* Stop the daemon. *)
  let fd = connect () in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc "shutdown\n";
  flush oc;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let server_stats = Domain.join server in
  let s1 = Service.Artifact.stats () in
  check bool_c "every response well-formed" true
    (List.for_all (fun n -> n = requests_per_client) oks);
  check int_c "each distinct digest compiled exactly once" 2
    (s1.Service.Cache.misses - s0.Service.Cache.misses);
  check int_c "no failures" 0
    (s1.Service.Cache.failures - s0.Service.Cache.failures);
  check int_c "no failed hits" 0
    (s1.Service.Cache.failed_hits - s0.Service.Cache.failed_hits);
  check bool_c "daemon saw all client connections" true
    (server_stats.Service.Socket_server.connections >= 5);
  check int_c "one batch per cold compile" 2
    server_stats.Service.Socket_server.batches;
  check int_c "every cold compile counted" 2
    server_stats.Service.Socket_server.batched_jobs;
  check bool_c "socket file removed on shutdown" false (Sys.file_exists sock)

(* --- the on-disk artifact store: restart persistence --- *)

let with_temp_store f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "stencilc-store-%d-%d" (Unix.getpid ()) (Random.int 100000))
  in
  let store = Service.Store.create dir in
  Fun.protect
    ~finally: (fun () ->
      Service.Artifact.set_store None;
      List.iter
        (fun d -> Service.Store.remove store ~digest: d)
        (Service.Store.list store);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f store)

let test_store_restart_persistence () =
  with_temp_store (fun store ->
      Service.Artifact.set_store (Some store);
      Service.Artifact.clear ();
      let m = heat_module () in
      let target = dist_target ~ranks: 2 in
      let executor = Exec_compile.executor in
      (* Under the Obs sink every pipeline pass records a stat: the cold
         compile records some, a store restore and a cache hit none. *)
      Test_obs.with_obs (fun () ->
          let a1, f1 = Service.Artifact.get_cached ~executor ~target m in
          check bool_c "cold compile is a miss" true (f1 = `Miss);
          check bool_c "cold compile runs the pass pipeline" true
            (Obs.Passes.stats () <> []);
          Obs.Passes.clear ();
          check bool_c "artifact persisted" true
            (Service.Store.list store = [ a1.Service.Artifact.digest ]);
          (* "Restart": drop the in-memory cache, keep the store.  The
             next request must come back from disk (pipeline skipped),
             not from a cold compile. *)
          Service.Artifact.clear ();
          let a2, f2 = Service.Artifact.get_cached ~executor ~target m in
          check bool_c "restart answers from the store" true (f2 = `Store);
          check bool_c "same digest" true
            (a1.Service.Artifact.digest = a2.Service.Artifact.digest);
          check bool_c "same lowered module" true
            (Printer.canonical_module_string a1.Service.Artifact.lowered
            = Printer.canonical_module_string a2.Service.Artifact.lowered);
          (* ... and the restored program executes: instantiate both and
             the restore is hit-equivalent thereafter. *)
          let c0 = Exec_compile.compile_count () in
          let _, f3 = Service.Artifact.get_cached ~executor ~target m in
          check bool_c "second request is a plain hit" true (f3 = `Hit);
          check int_c "the hit compiles nothing" 0
            (Exec_compile.compile_count () - c0);
          check int_c "restore and hit run no pipeline pass" 0
            (List.length (Obs.Passes.stats ())));
      (* warm_start preloads eagerly: clear again, preload, then the very
         first request is already a hit. *)
      Service.Artifact.clear ();
      check int_c "warm_start preloads the persisted artifact" 1
        (Service.Artifact.warm_start ());
      let _, f4 = Service.Artifact.get_cached ~executor ~target m in
      check bool_c "request after warm_start is a hit" true (f4 = `Hit))

let test_store_corruption_falls_back () =
  with_temp_store (fun store ->
      Service.Artifact.set_store (Some store);
      Service.Artifact.clear ();
      let m = heat_module () in
      let target = dist_target ~ranks: 2 in
      let executor = Exec_compile.executor in
      let a1, _ = Service.Artifact.get_cached ~executor ~target m in
      let digest = a1.Service.Artifact.digest in
      (* Truncate the persisted file: load must reject it and the next
         miss must fall back to a full (correct) compile. *)
      let path =
        Filename.concat (Service.Store.dir store) (digest ^ ".art")
      in
      let oc = open_out_bin path in
      output_string oc "stencilc-artifact v1\ndigest deadbeef\n";
      close_out oc;
      check bool_c "corrupt file loads as None" true
        (Service.Store.load store ~digest = None);
      Service.Artifact.clear ();
      let a2, f2 = Service.Artifact.get_cached ~executor ~target m in
      check bool_c "fallback is a full compile" true (f2 = `Miss);
      check bool_c "fallback digest intact" true
        (a2.Service.Artifact.digest = digest))

(* --- store integrity: the lowered text is checked, not trusted --- *)

(* Replace the lowered segment of a persisted artifact by [f] of it,
   re-framing its length but leaving every header (the file digest and
   the lowered-text digest included) and the canonical source intact. *)
let rewrite_lowered path f =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let header = Option.get (index_of s "\nlowered ") + 1 in
  let body = String.index_from s header '\n' + 1 in
  let n =
    int_of_string (String.sub s (header + 8) (body - 1 - (header + 8)))
  in
  let lowered = f (String.sub s body n) in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.sub s 0 header);
      Printf.fprintf oc "lowered %d\n%s" (String.length lowered) lowered;
      output_string oc
        (String.sub s (body + n) (String.length s - body - n)))

(* Persist heat2d, tamper with its lowered segment, restart: the tampered
   artifact must be recompiled cold ([`Miss]), never served. *)
let tampered_store_recompiles ~tamper =
  with_temp_store (fun store ->
      Service.Artifact.set_store (Some store);
      Service.Artifact.clear ();
      let m = heat_module () in
      let ranks = 2 in
      let target = dist_target ~ranks in
      let executor = Exec_compile.executor in
      let a1, _ = Service.Artifact.get_cached ~executor ~target m in
      let digest = a1.Service.Artifact.digest in
      rewrite_lowered
        (Filename.concat (Service.Store.dir store) (digest ^ ".art"))
        tamper;
      check bool_c "tampered file loads as None" true
        (Service.Store.load store ~digest = None);
      Service.Artifact.clear ();
      let _, f = Service.Artifact.get_cached ~executor ~target m in
      check bool_c "tampered artifact is compiled cold" true (f = `Miss);
      check bool_c "the cold compile rewrote a loadable artifact" true
        (Service.Store.load store ~digest <> None);
      let r = Driver.Harness.run_distributed ~executor ~ranks m in
      check (Alcotest.float 0.) "distributed == serial" 0.
        r.Driver.Harness.max_diff_vs_serial)

let test_store_edited_lowered_not_served () =
  (* One float constant of the lowered module changed, same length. *)
  tampered_store_recompiles ~tamper: (fun lowered ->
      let from = "value = 0.5 : f" in
      match index_of lowered from with
      | None -> Alcotest.fail "no 0.5 constant in the lowered heat2d"
      | Some i ->
          String.sub lowered 0 i ^ "value = 0.7 : f"
          ^ String.sub lowered (i + String.length from)
              (String.length lowered - i - String.length from))

let test_store_truncated_lowered_not_served () =
  tampered_store_recompiles ~tamper: (fun lowered ->
      String.sub lowered 0 (String.length lowered / 2))

(* --- store size cap: oldest-first eviction --- *)

let test_store_size_cap_evicts_oldest () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "stencilc-cap-%d-%d" (Unix.getpid ()) (Random.int 100000))
  in
  let digest i = Printf.sprintf "%031xa" i in
  let blob = String.make 2048 'x' in
  let persisted i =
    {
      Service.Store.p_digest = digest i;
      p_executor = "compiled";
      p_target = "t";
      p_compile_s = 0.1;
      p_canonical = blob;
      p_lowered = blob;
    }
  in
  Fun.protect
    ~finally: (fun () ->
      (match Sys.readdir dir with
      | files ->
          Array.iter (fun f -> Sys.remove (Filename.concat dir f)) files
      | exception Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      (match Service.Store.create ~max_bytes: 0 dir with
      | _ -> Alcotest.fail "max_bytes = 0 must be rejected"
      | exception Invalid_argument _ -> ());
      (* Each file is ~4.2 KB; cap the store at three of them. *)
      let store = Service.Store.create ~max_bytes: (3 * 4400) dir in
      let path i =
        Filename.concat (Service.Store.dir store) (digest i ^ ".art")
      in
      let base = Unix.time () -. 1000. in
      List.iter
        (fun i ->
          Service.Store.save store (persisted i);
          (* Pin distinct mtimes: file-system timestamp resolution must
             not decide which artifact counts as oldest. *)
          Unix.utimes (path i) base (base +. float_of_int i))
        [ 1; 2; 3 ];
      check (Alcotest.list Alcotest.string) "three artifacts fit"
        [ digest 1; digest 2; digest 3 ]
        (Service.Store.list store);
      (* A fourth save exceeds the cap: the oldest (digest 1) goes. *)
      Service.Store.save store (persisted 4);
      check (Alcotest.list Alcotest.string) "oldest evicted on overflow"
        [ digest 2; digest 3; digest 4 ]
        (Service.Store.list store);
      (* The artifact just saved is exempt, even under a cap smaller
         than a single file: saving must never evict its own result. *)
      let tiny = Service.Store.create ~max_bytes: 64 dir in
      Service.Store.save tiny (persisted 5);
      check bool_c "just-saved artifact survives a tiny cap" true
        (List.mem (digest 5) (Service.Store.list tiny));
      check bool_c "everything else was evicted" true
        (Service.Store.list tiny = [ digest 5 ]);
      (* Uncapped stores never evict (the historical behavior). *)
      let unbounded = Service.Store.create dir in
      List.iter
        (fun i -> Service.Store.save unbounded (persisted i))
        [ 6; 7; 8 ];
      check int_c "unbounded store only grows" 4
        (List.length (Service.Store.list unbounded)))

(* --- target fingerprints round-trip (the store depends on it) --- *)

let test_fingerprint_roundtrip () =
  let targets =
    [
      Core.Pipeline.Cpu_sequential;
      Core.Pipeline.Cpu_openmp { tiles = [ 32; 32; 32 ] };
      Core.Pipeline.Cpu_openmp { tiles = [] };
      dist_target ~ranks: 4;
      Core.Pipeline.Distributed_cpu
        {
          ranks = 8;
          strategy = Core.Decomposition.Slice3d;
          mode = Core.Decomposition.Diagonals;
          tiles = [ 16; 16 ];
          overlap = false;
        };
      Core.Pipeline.Gpu { managed = true };
      Core.Pipeline.Fpga { optimized = false };
    ]
  in
  List.iter
    (fun t ->
      let fp = Core.Pipeline.target_fingerprint t in
      match Core.Pipeline.target_of_fingerprint fp with
      | Some t' ->
          check bool_c (Printf.sprintf "roundtrip %s" fp) true (t = t')
      | None -> Alcotest.fail (Printf.sprintf "unparseable fingerprint %s" fp))
    targets;
  check bool_c "garbage does not parse" true
    (Core.Pipeline.target_of_fingerprint "quantum[qubits=8]" = None);
  (* The spelling is part of every artifact digest and stored .art file. *)
  check Alcotest.string "fingerprint spelling"
    "distributed-cpu[ranks=8;strategy=3d-slice;mode=diagonals;tiles=16,16;\
     overlap=false]"
    (Core.Pipeline.target_fingerprint (List.nth targets 4));
  (* One tile-list grammar for --tile, tile= and fingerprints. *)
  List.iter
    (fun (spec, expected) ->
      check
        Alcotest.(option (list int))
        (Printf.sprintf "tiles %S" spec)
        expected
        (Core.Pipeline.tiles_of_string spec))
    [
      ("", Some []);
      ("8,8", Some [ 8; 8 ]);
      (" 16, 4 ", Some [ 16; 4 ]);
      ("8,0", None);
      ("8,x", None);
      ("8,,8", None);
    ]

(* --- SSA ids under concurrent parse + compile ---

   The daemon's connection domains each parse [ir=] payloads and run
   the pass pipeline for their own cold compiles, concurrently, and all
   of them draw SSA ids from one process-wide counter.  This is the
   direct regression test for that: two domains parse a printed heat2d
   module and compile it while a third builds fresh Devito programs and
   compiles them; every compile must succeed and print to the
   sequential compile's canonical text. *)
let test_concurrent_ssa_ids () =
  let target = dist_target ~ranks: 2 in
  let digest m =
    Digest.string
      (Printer.canonical_module_string (Core.Pipeline.compile target m))
  in
  let text = Printer.module_to_string (heat_module ()) in
  let expected = digest (heat_module ()) in
  check bool_c "parsed module compiles to the same digest" true
    (digest (Parser.parse_string text) = expected);
  let deadline = Unix.gettimeofday () +. 4. in
  let worker build () =
    let runs = ref 0 and failures = ref [] in
    while !runs < 20 || Unix.gettimeofday () < deadline do
      incr runs;
      match digest (build ()) with
      | d -> if d <> expected then failures := "digest mismatch" :: !failures
      | exception e -> failures := Printexc.to_string e :: !failures
    done;
    (!runs, !failures)
  in
  let results =
    List.map Domain.join
      [
        Domain.spawn (worker (fun () -> Parser.parse_string text));
        Domain.spawn (worker (fun () -> Parser.parse_string text));
        Domain.spawn (worker (fun () -> heat_module ()));
      ]
  in
  let runs = List.fold_left (fun acc (n, _) -> acc + n) 0 results in
  match List.concat_map snd results with
  | [] -> ()
  | first :: _ as failures ->
      Alcotest.failf "%d of %d concurrent compiles failed; first: %s"
        (List.length failures) runs first

let suite =
  [
    QCheck_alcotest.to_alcotest roundtrip_digest_prop;
    Alcotest.test_case "digest ignores SSA numbering" `Quick
      test_digest_ssa_insensitive;
    Alcotest.test_case "digest ignores attribute order" `Quick
      test_digest_attr_order_insensitive;
    Alcotest.test_case "cache: concurrent same key compiles once" `Quick
      test_cache_concurrent_same_key;
    Alcotest.test_case "cache: distinct keys compile independently" `Quick
      test_cache_concurrent_distinct_keys;
    Alcotest.test_case "cache: failures cached and re-raised" `Quick
      test_cache_failure_cached;
    Alcotest.test_case "harness 4 ranks: exactly one closure compile" `Quick
      test_single_compilation_4_ranks;
    Alcotest.test_case "artifact cache counters" `Quick test_artifact_counters;
    Alcotest.test_case "cache: lru eviction" `Quick test_eviction_lru;
    Alcotest.test_case "cache: set_policy shrinks immediately" `Quick
      test_set_policy_shrinks;
    Alcotest.test_case "--serve line protocol" `Quick test_serve_protocol;
    Alcotest.test_case "--serve: malformed ir= does not desync" `Quick
      test_serve_desync_regression;
    (* Alcotest addresses cases by index ([test service 14]); these two
       keep the socket daemon case at index 14. *)
    Alcotest.test_case "target fingerprint roundtrip" `Quick
      test_fingerprint_roundtrip;
    Alcotest.test_case "concurrent parse and compile keep SSA ids unique"
      `Quick test_concurrent_ssa_ids;
    Alcotest.test_case "socket daemon: 4 concurrent clients, one compile per digest"
      `Quick test_socket_concurrent_clients;
    Alcotest.test_case "store: restart persistence" `Quick
      test_store_restart_persistence;
    Alcotest.test_case "store: corruption falls back to compile" `Quick
      test_store_corruption_falls_back;
    Alcotest.test_case "store: size cap evicts oldest" `Quick
      test_store_size_cap_evicts_oldest;
    Alcotest.test_case "store: edited lowered text is recompiled" `Quick
      test_store_edited_lowered_not_served;
    Alcotest.test_case "store: truncated lowered text is recompiled" `Quick
      test_store_truncated_lowered_not_served;
  ]
