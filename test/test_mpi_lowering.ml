(* Structural tests of the dmp->mpi and mpi->func lowerings: the generated
   IR must contain the paper's artifacts — non-blocking pairs under
   existence checks, null requests for skipped exchanges, one waitall per
   swap, request-array materialization, mpich magic constants, appended
   external declarations, and LICM-hoistable buffers. *)

open Ir
open Core

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

(* A module with a single swap over a 2D memref, as stencil-to-loops
   would produce it. *)
let swap_module ~grid ~exchanges : Op.t =
  let f =
    Dialects.Func.define "main"
      ~arg_tys: [ Typesys.Memref ([ 10; 10 ], Typesys.f32) ]
      ~res_tys: [] (fun bld args ->
        Builder.add bld
          (Op.make Dmp.swap
             ~operands: [ List.hd args ]
             ~attrs:
               [
                 ("topo", Typesys.Grid_attr grid);
                 ( "exchanges",
                   Typesys.Array_attr
                     (List.map (fun e -> Typesys.Exchange_attr e) exchanges)
                 );
                 ("origin", Typesys.Dense_attr [ 1; 1 ]);
               ]);
        Dialects.Func.return_op bld [])
  in
  Op.module_op [ f ]

let exchanges_2d =
  Decomposition.exchanges ~interior: [ 8; 8 ] ~halo: [| (-1, 1); (-1, 1) |]
    ~grid: [ 2; 2 ] ()

let test_swap_lowering_structure () =
  let m = swap_module ~grid: [ 2; 2 ] ~exchanges: exchanges_2d in
  let lowered = Dmp_to_mpi.run m in
  Verifier.verify ~checks: Registry.checks lowered;
  (* Per exchange: one scf.if with isend+irecv in the then-branch and two
     null requests in the else-branch, plus one unpack scf.if. *)
  check int_c "isend per exchange" 4
    (Transforms.Statistics.count lowered "mpi.isend");
  check int_c "irecv per exchange" 4
    (Transforms.Statistics.count lowered "mpi.irecv");
  check int_c "two null requests per skipped branch" 8
    (Transforms.Statistics.count lowered "mpi.null_request");
  check int_c "one waitall per swap" 1
    (Transforms.Statistics.count lowered "mpi.waitall");
  check int_c "one rank query per swap" 1
    (Transforms.Statistics.count lowered "mpi.comm_rank");
  (* Send + receive buffers per exchange. *)
  check int_c "buffers" 8 (Transforms.Statistics.count lowered "memref.alloc");
  check bool_c "no dmp left" false
    (Op.exists (fun o -> o.Op.name = Dmp.swap) lowered)

let test_mpi_to_func_structure () =
  let m = swap_module ~grid: [ 2; 2 ] ~exchanges: exchanges_2d in
  let lowered = Mpi_to_func.run (Dmp_to_mpi.run m) in
  Verifier.verify ~checks: Registry.checks lowered;
  (* No mpi ops remain. *)
  check bool_c "no mpi ops left" false (Op.exists Mpi.is_mpi_op lowered);
  (* Declarations appended for exactly the functions used. *)
  let decls =
    List.filter_map
      (fun (op : Op.t) ->
        if op.Op.name = Dialects.Func.func && Dialects.Func.is_declaration op
        then Some (Dialects.Func.name_of op)
        else None)
      (Op.module_ops lowered)
  in
  List.iter
    (fun f -> check bool_c (f ^ " declared") true (List.mem f decls))
    [ "MPI_Comm_rank"; "MPI_Isend"; "MPI_Irecv"; "MPI_Waitall" ];
  check bool_c "MPI_Bcast not declared" false (List.mem "MPI_Bcast" decls);
  (* The mpich magic constants appear as i32 constants. *)
  let has_const v =
    Op.exists
      (fun o ->
        o.Op.name = "arith.constant"
        &&
        match Op.attr o "value" with
        | Some (Typesys.Int_attr (x, _)) -> x = v
        | _ -> false)
      lowered
  in
  check bool_c "MPI_COMM_WORLD constant" true (has_const Mpi.Mpich.comm_world);
  check bool_c "MPI_FLOAT constant" true (has_const Mpi.Mpich.float);
  check bool_c "MPI_REQUEST_NULL constant" true
    (has_const Mpi.Mpich.request_null);
  (* Request array for waitall: one extract_ptr per waitall + per
     send/recv buffer unwrap. *)
  check bool_c "request array materialized" true
    (Transforms.Statistics.count lowered "memref.extract_ptr" >= 9)

(* The halo data path is bulk: each exchange packs and unpacks with a
   single memref.copy_strided (bracketed by mpi.pcontrol phase markers),
   never with scalar element loops. *)
let test_bulk_pack_structure () =
  let m = swap_module ~grid: [ 2; 2 ] ~exchanges: exchanges_2d in
  let lowered = Dmp_to_mpi.run m in
  Verifier.verify ~checks: Registry.checks lowered;
  check int_c "one pack + one unpack copy per exchange" 8
    (Transforms.Statistics.count lowered "memref.copy_strided");
  (* pcontrol brackets: open/close around each pack and each unpack. *)
  check int_c "pcontrol markers" 16
    (Transforms.Statistics.count lowered "mpi.pcontrol");
  (* No scalar element traffic: the swap lowering emits no loads, stores
     or loops of its own (the module has no compute). *)
  check int_c "no scalar loads" 0
    (Transforms.Statistics.count lowered "memref.load");
  check int_c "no scalar stores" 0
    (Transforms.Statistics.count lowered "memref.store");
  check int_c "no pack loop nests" 0
    (Transforms.Statistics.count lowered "scf.for")

(* Regression guard for the distributed hot path: after the full executed
   pipeline — Pipeline.compile (Distributed_cpu {tiles = []; overlap =
   true; ...}), the single definition of the flow Harness.run_distributed
   compiles through the artifact layer — the time loop must contain NO
   allocations (exchange buffers are hoisted) and NO scalar pack/unpack
   element traffic (rank-1 float buffer loads/stores), only bulk copies.
   The i32 request-array stores of the waitall lowering are allowed. *)
let test_hot_loop_structural_regression () =
  let m = Programs.heat2d_timeloop_module ~nx: 8 ~ny: 8 ~steps: 3 in
  let lowered =
    Pipeline.compile ~verify: true
      (Pipeline.Distributed_cpu
         {
           ranks = 4;
           strategy = Decomposition.Slice2d;
           mode = Decomposition.Faces;
           tiles = [];
           overlap = true;
         })
      m
  in
  (* The outermost scf.for of the function is the time loop. *)
  let time_loop = ref None in
  List.iter
    (fun (top : Op.t) ->
      if top.Op.name = Dialects.Func.func && top.Op.regions <> [] then
        List.iter
          (fun (inner : Op.t) ->
            if inner.Op.name = "scf.for" && !time_loop = None then
              time_loop := Some inner)
          (Op.region_ops (List.hd top.Op.regions)))
    (Op.module_ops lowered);
  let time_loop =
    match !time_loop with
    | Some l -> l
    | None -> Alcotest.fail "no time loop in lowered module"
  in
  let count name =
    let n = ref 0 in
    Op.walk (fun o -> if o.Op.name = name then incr n) time_loop;
    !n
  in
  check int_c "zero allocations per timestep" 0 (count "memref.alloc");
  check bool_c "bulk copies in the loop" true (count "memref.copy_strided" > 0);
  (* No rank-1 float buffer element traffic: scalar pack loops loaded the
     field into a flat send buffer / stored a flat recv buffer into the
     field element by element.  Compute loads/stores hit rank-2 fields;
     the request array is i32. *)
  let rank1_float v =
    match Value.ty v with
    | Typesys.Memref ([ _ ], Typesys.Float _) -> true
    | _ -> false
  in
  let scalar_pack = ref 0 in
  Op.walk
    (fun o ->
      match o.Op.name with
      | "memref.load" | "memref.store" ->
          let buf_operand =
            match (o.Op.name, o.Op.operands) with
            | "memref.load", b :: _ -> Some b
            | "memref.store", _ :: b :: _ -> Some b
            | _ -> None
          in
          (match buf_operand with
          | Some b when rank1_float b -> incr scalar_pack
          | _ -> ())
      | _ -> ())
    time_loop;
  check int_c "zero scalar pack/unpack element accesses" 0 !scalar_pack

let test_tag_pairing () =
  (* Tags pair up: my send toward v matches the neighbor's receive of
     direction -v. *)
  List.iter
    (fun (e : Typesys.exchange) ->
      let opposite =
        {
          e with
          Typesys.ex_neighbor = List.map (fun d -> -d) e.Typesys.ex_neighbor;
        }
      in
      check int_c "send matches opposite recv" (Dmp_to_mpi.send_tag e)
        (Dmp_to_mpi.recv_tag opposite))
    (Decomposition.exchanges ~mode: Decomposition.Diagonals
       ~interior: [ 6; 6; 6 ]
       ~halo: [| (-1, 1); (-1, 1); (-1, 1) |]
       ~grid: [ 2; 2; 2 ] ())

(* Tag soundness under Decomposition.Diagonals: enumerate every rank's
   posted sends and receives on random 2D/3D grids and require that each
   (sender, receiver, tag) send triple is unique and matches exactly one
   posted receive.  The base-3 direction encoding guarantees this even
   when several exchange directions share their first nonzero component
   (edges/corners). *)
let tag_uniqueness_prop =
  QCheck.Test.make ~count: 100
    ~name: "diagonal exchange tags pair uniquely"
    QCheck.(
      make
        Gen.(
          let* rank = int_range 2 3 in
          let* grid = list_size (return rank) (int_range 1 3) in
          return grid))
    (fun grid ->
      let rank_dims = List.length grid in
      let interior = List.map (fun _ -> 4) grid in
      let halo = Array.make rank_dims (-1, 1) in
      let exchanges =
        Decomposition.exchanges ~mode: Decomposition.Diagonals ~interior
          ~halo ~grid ()
      in
      let nranks = List.fold_left ( * ) 1 grid in
      let strides = Dmp_to_mpi.grid_strides grid in
      let coords_of r = List.map2 (fun g s -> r / s mod g) grid strides in
      let neighbor_of r (e : Typesys.exchange) =
        let nc = List.map2 ( + ) (coords_of r) e.Typesys.ex_neighbor in
        if List.for_all2 (fun c g -> c >= 0 && c < g) nc grid then
          Some (List.fold_left2 (fun acc c s -> acc + (c * s)) 0 nc strides)
        else None
      in
      let sends = Hashtbl.create 64 and recvs = Hashtbl.create 64 in
      let duplicate = ref false in
      for r = 0 to nranks - 1 do
        List.iter
          (fun e ->
            match neighbor_of r e with
            | None -> ()
            | Some nbr ->
                let s_key = (r, nbr, Dmp_to_mpi.send_tag e) in
                let r_key = (nbr, r, Dmp_to_mpi.recv_tag e) in
                if Hashtbl.mem sends s_key then duplicate := true;
                if Hashtbl.mem recvs r_key then duplicate := true;
                Hashtbl.add sends s_key ();
                Hashtbl.add recvs r_key ())
          exchanges
      done;
      (* Unique posts, and a bijection between sends and receives. *)
      (not !duplicate)
      && Hashtbl.length sends = Hashtbl.length recvs
      && Hashtbl.fold (fun k () acc -> acc && Hashtbl.mem recvs k) sends true)

let test_grid_strides () =
  check (Alcotest.list int_c) "3d strides" [ 16; 4; 1 ]
    (Dmp_to_mpi.grid_strides [ 4; 4; 4 ]);
  check (Alcotest.list int_c) "2d strides" [ 2; 1 ]
    (Dmp_to_mpi.grid_strides [ 4; 2 ])

(* LICM hoists the communication buffers and rank queries out of a time
   loop wrapping the swap (the paper's loop-invariant hoisting). *)
let test_licm_hoists_comm_setup () =
  let f =
    Dialects.Func.define "main"
      ~arg_tys: [ Typesys.Memref ([ 10; 10 ], Typesys.f32) ]
      ~res_tys: [] (fun bld args ->
        let lo = Dialects.Arith.const_index bld 0 in
        let hi = Dialects.Arith.const_index bld 4 in
        let st = Dialects.Arith.const_index bld 1 in
        ignore
          (Dialects.Scf.for_op bld ~lo ~hi ~step: st (fun body _ _ ->
               Builder.add body
                 (Op.make Dmp.swap
                    ~operands: [ List.hd args ]
                    ~attrs:
                      [
                        ("topo", Typesys.Grid_attr [ 2; 2 ]);
                        ( "exchanges",
                          Typesys.Array_attr
                            (List.map
                               (fun e -> Typesys.Exchange_attr e)
                               exchanges_2d) );
                        ("origin", Typesys.Dense_attr [ 1; 1 ]);
                      ]);
               Dialects.Scf.yield_op body []));
        Dialects.Func.return_op bld [])
  in
  let m = Op.module_op [ f ] in
  let lowered = Transforms.Licm.run (Dmp_to_mpi.run m) in
  (* The time loop body must no longer contain allocations or rank
     queries. *)
  let in_loop name =
    let found = ref false in
    Op.walk
      (fun o ->
        if o.Op.name = "scf.for" then
          List.iter
            (Op.walk (fun inner -> if inner.Op.name = name then found := true))
            (Op.region_ops (List.hd o.Op.regions)))
      lowered;
    !found
  in
  check bool_c "allocs hoisted" false (in_loop "memref.alloc");
  check bool_c "rank query hoisted" false (in_loop "mpi.comm_rank");
  (* Packing and the exchanges themselves stay inside. *)
  check bool_c "isend stays in loop" true (in_loop "mpi.isend")

(* The lowered module executes correctly on boundary ranks: a 1x2 grid
   where rank 0 has no low neighbor exercises the null-request path. *)
let test_null_request_path_executes () =
  let exchanges =
    Decomposition.exchanges ~interior: [ 8 ] ~halo: [| (-1, 1) |]
      ~grid: [ 2 ] ()
  in
  let f =
    Dialects.Func.define "main"
      ~arg_tys: [ Typesys.Memref ([ 10 ], Typesys.f64) ]
      ~res_tys: [] (fun bld args ->
        Builder.add bld
          (Op.make Dmp.swap
             ~operands: [ List.hd args ]
             ~attrs:
               [
                 ("topo", Typesys.Grid_attr [ 2 ]);
                 ( "exchanges",
                   Typesys.Array_attr
                     (List.map (fun e -> Typesys.Exchange_attr e) exchanges)
                 );
                 ("origin", Typesys.Dense_attr [ 1 ]);
               ]);
        Dialects.Func.return_op bld [])
  in
  let lowered = Mpi_to_func.run (Dmp_to_mpi.run (Op.module_op [ f ])) in
  let results = Array.make 2 [||] in
  ignore
    (Driver.Simulate.run_spmd ~ranks: 2 ~func: "main"
       ~make_args: (fun ctx ->
         let me = Mpi_sim.rank ctx in
         let b = Interp.Rtval.alloc_buffer [ 10 ] Typesys.f64 in
         Interp.Rtval.fill b (fun i -> float_of_int ((10 * me) + i));
         results.(me) <- (match b.Interp.Rtval.data with
           | Interp.Rtval.F a -> a
           | _ -> [||]);
         [ Interp.Rtval.Rbuf b ])
       lowered);
  (* Rank 0's high halo (index 9) received rank 1's first interior value
     (index 1 -> 10*1+1 = 11); its low halo is untouched (0-neighbor
     missing). *)
  check (Alcotest.float 1e-9) "rank0 high halo" 11. results.(0).(9);
  check (Alcotest.float 1e-9) "rank0 low halo untouched" 0. results.(0).(0);
  (* Rank 1's low halo (index 0) received rank 0's last interior value
     (index 8 -> 8). *)
  check (Alcotest.float 1e-9) "rank1 low halo" 8. results.(1).(0);
  check (Alcotest.float 1e-9) "rank1 high halo untouched" 19.
    results.(1).(9)


(* The full distributed-cpu pipeline leaves no rank query in any loop:
   Licm hoists the MPI_Comm_rank calls Mpi_to_func makes of mpi.comm_rank
   like the query itself. *)
let test_rank_query_hoisted_pipeline () =
  let target =
    Pipeline.Distributed_cpu
      { ranks = 2; strategy = Decomposition.Slice2d; mode = Decomposition.Faces;
        tiles = []; overlap = true }
  in
  let open Devito.Symbolic in
  let heat =
    let u = function_ ~space_order: 2 "u" (grid ~dt: 0.1 [ 32; 32 ]) in
    snd (Devito.Operator.operator ~name: "heat" ~timesteps: 4 (eq (Dt u) (f 0.5 *: laplace u)))
  and wave =
    let u = function_ ~space_order: 8 ~time_order: 2 "u" (grid ~dt: 0.02 [ 16; 64 ]) in
    snd (Devito.Operator.operator ~name: "wave" ~timesteps: 4 (eq (Dt2 u) (f 2.25 *: laplace u)))
  in
  List.iter
    (fun (name, m) ->
      let lowered = Pipeline.compile target m in
      let calls = ref 0 and in_loop = ref 0 in
      let is_rank (o : Op.t) =
        o.Op.name = "func.call"
        && Op.attr o "callee" = Some (Typesys.Symbol_attr "MPI_Comm_rank")
      in
      Op.walk (fun o -> if is_rank o then incr calls) lowered;
      Op.walk
        (fun o ->
          if o.Op.name = "scf.for" then
            Op.walk_regions (fun i -> if is_rank i then incr in_loop) o)
        lowered;
      check bool_c (name ^ ": rank queried") true (!calls > 0);
      check int_c (name ^ ": MPI_Comm_rank calls inside an scf.for") 0 !in_loop)
    [ ("heat2d", heat); ("wave2d", wave) ]

let suite =
  [
    Alcotest.test_case "pipeline hoists rank queries" `Quick
      test_rank_query_hoisted_pipeline;
    Alcotest.test_case "dmp->mpi structure" `Quick
      test_swap_lowering_structure;
    Alcotest.test_case "mpi->func structure + magic constants" `Quick
      test_mpi_to_func_structure;
    Alcotest.test_case "bulk pack/unpack structure" `Quick
      test_bulk_pack_structure;
    Alcotest.test_case "hot loop: no allocs, no scalar packs" `Quick
      test_hot_loop_structural_regression;
    Alcotest.test_case "tag pairing (incl. diagonals)" `Quick
      test_tag_pairing;
    QCheck_alcotest.to_alcotest tag_uniqueness_prop;
    Alcotest.test_case "grid strides" `Quick test_grid_strides;
    Alcotest.test_case "licm hoists comm setup" `Quick
      test_licm_hoists_comm_setup;
    Alcotest.test_case "null-request path executes" `Quick
      test_null_request_path_executes;
  ]
