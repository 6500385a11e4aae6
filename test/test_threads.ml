(* Threaded execution of omp.parallel regions in the compiled backend.

   - Domain_pool unit tests: index coverage, reuse across epochs,
     degenerate size-1 pools, failure propagation through the join
     barrier, idempotent shutdown.
   - Dialect hygiene: the omp.parallel builder/verifier reject
     non-positive num_threads and malformed tiles; num_threads and tile
     survive a print/parse round trip.
   - Dropped-yield regression: a parallel/dataflow region yielding
     values is rejected by the verifier AND raises in the interpreter
     (both executors used to silently discard the values).
   - Owner assertion: a worker domain touching the mpi_par mailbox
     substrate raises Mpi_error (workers compute only).
   - Differential matrix: compiled-threaded == compiled-sequential ==
     serial interpreter, bitwise, at {1,2,4} threads x {1,2,4} ranks on
     heat2d and wave2d, tiled and untiled; tiling never changes the
     exact message/byte counters. *)

open Ir

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int

module Pool = Exec_compile.Domain_pool

(* --- Domain_pool --- *)

let test_pool_covers_indices () =
  let pool = Pool.create 4 in
  Fun.protect
    ~finally: (fun () -> Pool.shutdown pool)
    (fun () ->
      check int_c "size" 4 (Pool.size pool);
      let hits = Array.init 4 (fun _ -> Atomic.make 0) in
      Pool.run pool (fun p -> Atomic.incr hits.(p));
      Array.iteri
        (fun i n ->
          check int_c (Printf.sprintf "participant %d ran once" i) 1
            (Atomic.get n))
        hits;
      (* The pool survives many epochs: every participant runs every
         job exactly once, never a stale one. *)
      let total = Atomic.make 0 in
      for _ = 1 to 25 do
        Pool.run pool (fun _ -> Atomic.incr total)
      done;
      check int_c "25 epochs x 4 participants" 100 (Atomic.get total))

let test_pool_size_one_runs_inline () =
  let pool = Pool.create 1 in
  let ran = ref 0 in
  Pool.run pool (fun p ->
      check int_c "caller is participant 0" 0 p;
      incr ran);
  check int_c "ran exactly once" 1 !ran;
  Pool.shutdown pool;
  (* Idempotent: release paths may shut down twice. *)
  Pool.shutdown pool

let test_pool_propagates_worker_failure () =
  let pool = Pool.create 3 in
  Fun.protect
    ~finally: (fun () -> Pool.shutdown pool)
    (fun () ->
      (match Pool.run pool (fun p -> if p = 1 then failwith "boom") with
      | () -> Alcotest.fail "worker failure must re-raise from run"
      | exception Failure msg -> check bool_c "message" true (msg = "boom"));
      (* A failed epoch must not poison the pool. *)
      let total = Atomic.make 0 in
      Pool.run pool (fun _ -> Atomic.incr total);
      check int_c "usable after a failure" 3 (Atomic.get total))

let test_pool_caller_failure_wins () =
  let pool = Pool.create 2 in
  Fun.protect
    ~finally: (fun () -> Pool.shutdown pool)
    (fun () ->
      match Pool.run pool (fun p -> if p = 0 then failwith "caller") with
      | () -> Alcotest.fail "caller failure must re-raise from run"
      | exception Failure msg ->
          check bool_c "caller exception preferred" true (msg = "caller"))

let test_pool_rejects_run_after_shutdown () =
  let pool = Pool.create 2 in
  Pool.shutdown pool;
  match Pool.run pool (fun _ -> ()) with
  | () -> Alcotest.fail "run on a shut-down pool must be rejected"
  | exception Invalid_argument _ -> ()

(* --- omp.parallel builder / verifier / round trip --- *)

let omp_module ~attrs ~body =
  let f =
    Dialects.Func.define "f" ~arg_tys: [] ~res_tys: [] (fun bld _ ->
        Builder.emit0 bld "omp.parallel" ~attrs
          ~regions: [ Builder.region_of body ];
        Dialects.Func.return_op bld [])
  in
  Op.module_op [ f ]

let expect_verifier_error name m =
  match Verifier.verify ~checks: Core.Registry.checks m with
  | () -> Alcotest.fail (name ^ ": expected a verification error")
  | exception Verifier.Verification_error _ -> ()

let test_builder_rejects_negative_num_threads () =
  match
    Dialects.Func.define "f" ~arg_tys: [] ~res_tys: [] (fun bld _ ->
        Dialects.Omp.parallel_op bld ~num_threads: (-2) (fun _ -> ());
        Dialects.Func.return_op bld [])
  with
  | _ -> Alcotest.fail "negative num_threads must be rejected, not dropped"
  | exception Invalid_argument _ -> ()

let test_verifier_rejects_bad_attrs () =
  expect_verifier_error "num_threads = 0"
    (omp_module
       ~attrs: [ ("num_threads", Typesys.Int_attr (0, Typesys.i64)) ]
       ~body: (fun _ -> ()));
  expect_verifier_error "num_threads = -3"
    (omp_module
       ~attrs: [ ("num_threads", Typesys.Int_attr (-3, Typesys.i64)) ]
       ~body: (fun _ -> ()));
  expect_verifier_error "num_threads not an int"
    (omp_module
       ~attrs: [ ("num_threads", Typesys.String_attr "four") ]
       ~body: (fun _ -> ()));
  expect_verifier_error "tile with a zero"
    (omp_module
       ~attrs: [ ("tile", Typesys.Dense_attr [ 8; 0 ]) ]
       ~body: (fun _ -> ()));
  (* Well-formed attributes still pass. *)
  Verifier.verify ~checks: Core.Registry.checks
    (omp_module
       ~attrs:
         [
           ("num_threads", Typesys.Int_attr (4, Typesys.i64));
           ("tile", Typesys.Dense_attr [ 8; 8 ]);
         ]
       ~body: (fun b -> ignore (Dialects.Arith.const_index b 1)))

let test_num_threads_and_tile_roundtrip () =
  let m =
    Op.module_op
      [
        Dialects.Func.define "f" ~arg_tys: [] ~res_tys: [] (fun bld _ ->
            Dialects.Omp.parallel_op bld ~num_threads: 3 ~tile: [ 8; 4 ]
              (fun b -> ignore (Dialects.Arith.const_index b 1));
            Dialects.Func.return_op bld []);
      ]
  in
  Verifier.verify ~checks: Core.Registry.checks m;
  let reparsed =
    Parser.parse_string (Format.asprintf "%a" Printer.print_module m)
  in
  let found = ref false in
  Op.walk
    (fun o ->
      if o.Op.name = Dialects.Omp.parallel then begin
        found := true;
        check int_c "num_threads round-trips" 3 (Dialects.Omp.num_threads_of o);
        check (Alcotest.list int_c) "tile round-trips" [ 8; 4 ]
          (Dialects.Omp.tile_of o)
      end)
    reparsed;
  check bool_c "op survived the round trip" true !found;
  (* Unset stays unset. *)
  let bare =
    omp_module ~attrs: [] ~body: (fun b ->
        ignore (Dialects.Arith.const_index b 1))
  in
  Op.walk
    (fun o ->
      if o.Op.name = Dialects.Omp.parallel then begin
        check int_c "unset num_threads reads 0" 0
          (Dialects.Omp.num_threads_of o);
        check (Alcotest.list int_c) "unset tile reads []" []
          (Dialects.Omp.tile_of o)
      end)
    bare

(* --- dropped-yield regression --- *)

let yielding_region_module opname =
  let f =
    Dialects.Func.define "f" ~arg_tys: [] ~res_tys: [] (fun bld _ ->
        Builder.emit0 bld opname
          ~regions:
            [
              Builder.region_of (fun b ->
                  let v = Dialects.Arith.const_index b 7 in
                  Dialects.Scf.yield_op b [ v ]);
            ];
        Dialects.Func.return_op bld [])
  in
  Op.module_op [ f ]

let test_verifier_rejects_yielding_parallel_region () =
  expect_verifier_error "omp.parallel region yields a value"
    (yielding_region_module "omp.parallel")

let test_interp_rejects_dropped_yields () =
  (* The interpreter used to [ignore] the region result for these ops,
     silently discarding non-empty yields. *)
  List.iter
    (fun opname ->
      let m = yielding_region_module opname in
      let eng = Interp.Engine.create m in
      match Interp.Engine.run eng "f" [] with
      | _ -> Alcotest.fail (opname ^ ": expected a runtime error")
      | exception Interp.Rtval.Runtime_error msg ->
          check bool_c
            (opname ^ ": error names the region yield")
            true
            (String.length msg > 0))
    [ "omp.parallel"; "hls.dataflow" ]

(* --- worker domains must not touch the mailbox substrate --- *)

let test_worker_mailbox_raises () =
  ignore
    (Mpi_par.run_with ~ranks: 1 (fun ctx ->
         let attempt f =
           Domain.join
             (Domain.spawn (fun () ->
                  match f () with
                  | _ -> false
                  | exception Mpi_par.Mpi_error _ -> true))
         in
         check bool_c "isend from a worker domain raises" true
           (attempt (fun () ->
                Mpi_par.isend ctx ~dest: 0 ~tag: 0
                  (Mpi_intf.Floats [| 1.0 |])));
         check bool_c "irecv from a worker domain raises" true
           (attempt (fun () -> Mpi_par.irecv ctx ~source: 0 ~tag: 0));
         (* The owning domain still works after the rejected attempts. *)
         Mpi_par.send ctx ~dest: 0 ~tag: 1 (Mpi_intf.Floats [| 2.5 |]);
         match Mpi_par.recv ctx ~source: 0 ~tag: 1 with
         | Mpi_intf.Floats [| v |] ->
             check bool_c "owner self-send still works" true (v = 2.5)
         | _ -> Alcotest.fail "bad payload"))

(* --- differential matrix: threaded == sequential == interpreter --- *)

let compiled = Interp.Executor.of_name "compiled"
let interp = Interp.Executor.of_name "interp"

let run_dist ?(substrate = Driver.Harness.Sim) ~executor ~ranks ~threads
    ~tiles m =
  Driver.Harness.run_distributed ~substrate ~executor ~tiles
    ~threads_per_rank: threads ~ranks m

let exactly_zero name d = check (Alcotest.float 0.) name 0. d

let differential_matrix name m () =
  List.iter
    (fun ranks ->
      let oracle =
        run_dist ~executor: interp ~ranks ~threads: 1 ~tiles: [] m
      in
      let seq =
        run_dist ~executor: compiled ~ranks ~threads: 1 ~tiles: [ 8; 8 ] m
      in
      exactly_zero
        (Printf.sprintf "%s ranks=%d: interp == serial" name ranks)
        oracle.Driver.Harness.max_diff_vs_serial;
      exactly_zero
        (Printf.sprintf "%s ranks=%d: compiled-seq == serial" name ranks)
        seq.Driver.Harness.max_diff_vs_serial;
      List.iter
        (fun threads ->
          let thr =
            run_dist ~executor: compiled ~ranks ~threads ~tiles: [ 8; 8 ] m
          in
          exactly_zero
            (Printf.sprintf "%s ranks=%d threads=%d: threaded == serial" name
               ranks threads)
            thr.Driver.Harness.max_diff_vs_serial;
          exactly_zero
            (Printf.sprintf
               "%s ranks=%d threads=%d: threaded == compiled-seq" name ranks
               threads)
            (Driver.Harness.max_result_diff seq thr);
          exactly_zero
            (Printf.sprintf "%s ranks=%d threads=%d: threaded == interp" name
               ranks threads)
            (Driver.Harness.max_result_diff oracle thr))
        [ 2; 4 ])
    [ 1; 2; 4 ]

let test_threaded_par_substrate () =
  (* Real rank domains AND worker domains together: 2 ranks x 2 threads. *)
  let m = Programs.heat2d_timeloop_module ~nx: 16 ~ny: 16 ~steps: 3 in
  let r =
    run_dist ~substrate: Driver.Harness.Par ~executor: compiled ~ranks: 2
      ~threads: 2 ~tiles: [ 8; 8 ] m
  in
  exactly_zero "par substrate threaded == serial"
    r.Driver.Harness.max_diff_vs_serial

let test_tiling_preserves_traffic () =
  let m = Programs.heat2d_timeloop_module ~nx: 16 ~ny: 16 ~steps: 3 in
  let base = run_dist ~executor: compiled ~ranks: 4 ~threads: 1 ~tiles: [] m in
  List.iter
    (fun threads ->
      List.iter
        (fun tiles ->
          let r = run_dist ~executor: compiled ~ranks: 4 ~threads ~tiles m in
          let tag =
            Printf.sprintf "threads %d tile %s" threads
              (String.concat "x" (List.map string_of_int tiles))
          in
          check int_c
            (Printf.sprintf "%s: messages unchanged" tag)
            base.Driver.Harness.messages r.Driver.Harness.messages;
          check int_c
            (Printf.sprintf "%s: bytes unchanged" tag)
            base.Driver.Harness.bytes r.Driver.Harness.bytes;
          exactly_zero
            (Printf.sprintf "%s: result unchanged" tag)
            (Driver.Harness.max_result_diff base r);
          exactly_zero
            (Printf.sprintf "%s: == serial" tag)
            r.Driver.Harness.max_diff_vs_serial)
        [ []; [ 4; 4 ]; [ 8; 8 ]; [ 16; 16 ]; [ 5; 3 ] ])
    [ 1; 2 ]

let test_tiles_change_fingerprint () =
  let target tiles =
    Core.Pipeline.Distributed_cpu
      {
        ranks = 4;
        strategy = Core.Decomposition.Slice2d;
        mode = Core.Decomposition.Faces;
        tiles;
        overlap = true;
      }
  in
  check bool_c "tiled and untiled targets digest differently" false
    (Core.Pipeline.target_fingerprint (target [ 8; 8 ])
    = Core.Pipeline.target_fingerprint (target []));
  check bool_c "different tile sizes digest differently" false
    (Core.Pipeline.target_fingerprint (target [ 8; 8 ])
    = Core.Pipeline.target_fingerprint (target [ 16; 16 ]))

(* Property: random tile shapes, rank counts and thread counts are all
   bitwise-equal to the untiled sequential compiled run. *)
let threaded_tiled_prop =
  QCheck.Test.make ~count: 6
    ~name: "random tiles x ranks x threads match sequential bitwise"
    QCheck.(
      make
        ~print: (fun (tiles, ranks, threads) ->
          Printf.sprintf "tiles=[%s] ranks=%d threads=%d"
            (String.concat ";" (List.map string_of_int tiles))
            ranks threads)
        Gen.(
          let* tiles =
            oneofl [ [ 4; 4 ]; [ 8; 8 ]; [ 16; 16 ]; [ 5; 3 ]; [ 8 ] ]
          in
          let* ranks = oneofl [ 1; 2; 4 ] in
          let* threads = oneofl [ 2; 3; 4 ] in
          return (tiles, ranks, threads)))
    (fun (tiles, ranks, threads) ->
      let m = Programs.wave2d_timeloop_module ~nx: 16 ~ny: 16 ~steps: 2 in
      let seq = run_dist ~executor: compiled ~ranks ~threads: 1 ~tiles: [] m in
      let thr = run_dist ~executor: compiled ~ranks ~threads ~tiles m in
      seq.Driver.Harness.max_diff_vs_serial = 0.
      && thr.Driver.Harness.max_diff_vs_serial = 0.
      && Driver.Harness.max_result_diff seq thr = 0.)

let suite =
  [
    Alcotest.test_case "pool covers all indices" `Quick
      test_pool_covers_indices;
    Alcotest.test_case "pool of one runs inline" `Quick
      test_pool_size_one_runs_inline;
    Alcotest.test_case "pool propagates worker failure" `Quick
      test_pool_propagates_worker_failure;
    Alcotest.test_case "pool prefers caller failure" `Quick
      test_pool_caller_failure_wins;
    Alcotest.test_case "pool rejects run after shutdown" `Quick
      test_pool_rejects_run_after_shutdown;
    Alcotest.test_case "builder rejects negative num_threads" `Quick
      test_builder_rejects_negative_num_threads;
    Alcotest.test_case "verifier rejects bad omp attrs" `Quick
      test_verifier_rejects_bad_attrs;
    Alcotest.test_case "num_threads and tile round-trip" `Quick
      test_num_threads_and_tile_roundtrip;
    Alcotest.test_case "verifier rejects yielding parallel region" `Quick
      test_verifier_rejects_yielding_parallel_region;
    Alcotest.test_case "interp rejects dropped yields" `Quick
      test_interp_rejects_dropped_yields;
    Alcotest.test_case "worker domain cannot touch the mailbox" `Quick
      test_worker_mailbox_raises;
    Alcotest.test_case "heat2d differential matrix" `Slow
      (differential_matrix "heat2d"
         (Programs.heat2d_timeloop_module ~nx: 16 ~ny: 16 ~steps: 3));
    Alcotest.test_case "wave2d differential matrix" `Slow
      (differential_matrix "wave2d"
         (Programs.wave2d_timeloop_module ~nx: 16 ~ny: 16 ~steps: 3));
    Alcotest.test_case "threaded run on the par substrate" `Quick
      test_threaded_par_substrate;
    Alcotest.test_case "tiling preserves traffic counters" `Quick
      test_tiling_preserves_traffic;
    Alcotest.test_case "tiles change the target fingerprint" `Quick
      test_tiles_change_fingerprint;
    QCheck_alcotest.to_alcotest threaded_tiled_prop;
  ]
