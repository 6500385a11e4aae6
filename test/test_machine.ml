(* Tests for the analytic machine models and the IR-based feature
   extraction: sanity properties (monotonicity, roofline behaviour, the
   effects each paper finding depends on) rather than absolute numbers. *)

let check = Alcotest.check
let bool_c = Alcotest.bool
let float_c = Alcotest.float 1e-9

(* Minimal local copy of the bench workload helpers (the bench executable
   is not a library). *)
module Workbench = struct
  type w = { module_ : Ir.Op.t; spec : Devito.Operator.t }

  let heat_on shape ~so =
    let g = Devito.Symbolic.grid ~dt: 0.1 shape in
    let u = Devito.Symbolic.function_ ~space_order: so "u" g in
    let eqn =
      Devito.Symbolic.eq (Devito.Symbolic.Dt u)
        Devito.Symbolic.(f 0.5 *: laplace u)
    in
    let spec, m = Devito.Operator.operator ~name: "heat" ~timesteps: 1 eqn in
    { module_ = m; spec }

  let heat ~dims ~so =
    heat_on (if dims = 2 then [ 16; 16 ] else [ 8; 8; 8 ]) ~so

  let xdsl_features w ~points =
    Machine.Features.with_points
      (Machine.Features.of_stencil_module ~elt_bytes: 4 w.module_)
      points
end

(* The 3D so4 heat operator's stencil module on [grid] (IR only). *)
let heat3d_module ~grid = (Workbench.heat_on grid ~so: 4).Workbench.module_

let heat_features ~dims ~so ~points =
  Workbench.xdsl_features (Workbench.heat ~dims ~so) ~points

let test_feature_extraction () =
  let f = heat_features ~dims: 2 ~so: 2 ~points: 1e6 in
  check Alcotest.int "one region" 1 f.Machine.Features.stencil_regions;
  (* 5-point stencil: 5 distinct accesses. *)
  check (Alcotest.float 0.1) "reads/pt" 5. f.Machine.Features.reads_per_pt;
  check bool_c "has flops" true (f.Machine.Features.flops_per_pt > 0.);
  check float_c "points applied" 1e6 f.Machine.Features.points_per_step;
  check Alcotest.int "radius" 1 f.Machine.Features.radius

let test_features_scale_with_so () =
  let f2 = heat_features ~dims: 3 ~so: 2 ~points: 1e6 in
  let f8 = heat_features ~dims: 3 ~so: 8 ~points: 1e6 in
  check bool_c "so8 has more flops" true
    (f8.Machine.Features.flops_per_pt > f2.Machine.Features.flops_per_pt);
  check bool_c "so8 has more reads" true
    (f8.Machine.Features.reads_per_pt > f2.Machine.Features.reads_per_pt);
  check Alcotest.int "so8 radius" 4 f8.Machine.Features.radius

let test_cpu_roofline () =
  let node = Machine.Cpu.archer2_node in
  let q = Machine.Cpu.xdsl_cpu_quality in
  let f = heat_features ~dims: 2 ~so: 2 ~points: 1e8 in
  (* Doubling the traffic per point must not increase throughput. *)
  let heavy =
    { f with Machine.Features.unique_bytes_per_pt =
        2. *. f.Machine.Features.unique_bytes_per_pt }
  in
  let t1 = Machine.Cpu.throughput node q f ~points: 1e8 ~threads: 128 in
  let t2 = Machine.Cpu.throughput node q heavy ~points: 1e8 ~threads: 128 in
  check bool_c "more bytes, less throughput" true (t2 < t1);
  (* More threads never hurt. *)
  let t16 = Machine.Cpu.throughput node q f ~points: 1e8 ~threads: 16 in
  check bool_c "threads help" true (t1 >= t16)

let test_cpu_barrier_effect () =
  let node = Machine.Cpu.archer2_node in
  let q = Machine.Cpu.xdsl_cpu_quality in
  let f = heat_features ~dims: 3 ~so: 2 ~points: 4e6 in
  let many_regions = { f with Machine.Features.stencil_regions = 18 } in
  let t1 = Machine.Cpu.throughput node q f ~points: 4e6 ~threads: 128 in
  let t18 =
    Machine.Cpu.throughput node q many_regions ~points: 4e6 ~threads: 128
  in
  check bool_c "regions cost throughput at small sizes" true (t18 < t1);
  (* The gap narrows at large problem sizes (fig. 10 effect). *)
  let big = 5e8 in
  let fb = Machine.Features.with_points f big in
  let mb = Machine.Features.with_points many_regions big in
  let r_small = t18 /. t1 in
  let r_big =
    Machine.Cpu.throughput node q mb ~points: big ~threads: 128
    /. Machine.Cpu.throughput node q fb ~points: big ~threads: 128
  in
  check bool_c "gap narrows with size" true (r_big > r_small)

let test_net_alpha_beta () =
  let m = Scale.Netmodel.slingshot in
  (* Latency-dominated vs bandwidth-dominated regimes. *)
  let tiny = Scale.Netmodel.msg_cost m ~bytes: 64 in
  let huge = Scale.Netmodel.msg_cost m ~bytes: 64_000_000 in
  check bool_c "volume costs" true (huge > tiny);
  check bool_c "latency floor" true (tiny >= m.Scale.Netmodel.alpha_s);
  check (Alcotest.float 1e-12) "25 GB/s" (64e6 *. 4e-11)
    (huge -. m.Scale.Netmodel.alpha_s)

(* A replayed 3D heat schedule (2x2x2 ranks, faces) under Slingshot:
   split-phase swaps hide wire time behind the interior compute, but the
   step still costs more than its compute alone. *)
let test_net_overlap_hides_wire () =
  let heat3d = heat3d_module ~grid: [ 32; 32; 32 ] in
  let model = { Scale.Netmodel.slingshot with compute_s_per_cell = 1e-8 } in
  let step overlap =
    let s =
      Scale.Schedule.of_module ~strategy: Core.Decomposition.Slice3d ~overlap
        ~ranks: 8 heat3d
    in
    let p = Scale.Replay.run ~model ~emit_timeline: false s in
    ( p.Scale.Replay.p_wall_s,
      float_of_int (s.Scale.Schedule.steps * Scale.Schedule.cells_per_step s)
      *. model.Scale.Netmodel.compute_s_per_cell )
  in
  let t_no, _ = step false in
  let t_ov, compute = step true in
  check bool_c "overlap is faster" true (t_ov < t_no);
  check bool_c "overlap still above compute" true (t_ov > compute)

let test_gpu_managed_penalty () =
  let f = heat_features ~dims: 2 ~so: 2 ~points: 6.7e7 in
  let t_explicit =
    Machine.Gpu.throughput Machine.Gpu.v100 Machine.Gpu.xdsl_cuda_quality f
      ~points: 6.7e7
  in
  let t_managed =
    Machine.Gpu.throughput Machine.Gpu.v100
      Machine.Gpu.psyclone_openacc_quality f ~points: 6.7e7
  in
  check bool_c "managed memory is slower" true (t_managed < t_explicit)

let test_gpu_sync_per_region () =
  let f = heat_features ~dims: 2 ~so: 2 ~points: 1e6 in
  let many = { f with Machine.Features.stencil_regions = 18 } in
  let t1 =
    Machine.Gpu.step_time Machine.Gpu.v100 Machine.Gpu.xdsl_cuda_quality f
      ~points: 1e6
  in
  let t18 =
    Machine.Gpu.step_time Machine.Gpu.v100 Machine.Gpu.xdsl_cuda_quality many
      ~points: 1e6
  in
  check bool_c "launch sync per region costs" true (t18 > t1)

let test_fpga_shapes () =
  let k = Psyclone.Benchkernels.pw_advection ~shape: [ 8; 8; 8 ] in
  let m = Psyclone.Codegen.compile k in
  let f = Machine.Features.of_stencil_module ~elt_bytes: 4 m in
  let initial =
    Machine.Fpga.shape_of_module
      (Core.Stencil_to_hls.run ~mode: Core.Stencil_to_hls.Initial m)
      ~f ()
  in
  let optimized =
    Machine.Fpga.shape_of_module
      (Core.Stencil_to_hls.run ~mode: Core.Stencil_to_hls.Optimized m)
      ~f ~external_streams: 4 ()
  in
  check bool_c "initial not optimized" false initial.Machine.Fpga.optimized;
  check bool_c "optimized detected" true optimized.Machine.Fpga.optimized;
  let t_i = Machine.Fpga.throughput Machine.Fpga.u280 initial ~points: 1e7 in
  let t_o = Machine.Fpga.throughput Machine.Fpga.u280 optimized ~points: 1e7 in
  check bool_c "dataflow transform wins" true (t_o > 50. *. t_i)

let test_devito_factorization () =
  (* Factorization shrinks flops, more at higher orders. *)
  let flops so =
    let g = Devito.Symbolic.grid ~dt: 0.1 [ 8; 8; 8 ] in
    let u = Devito.Symbolic.function_ ~space_order: so "u" g in
    let _, update =
      Devito.Symbolic.solve
        (Devito.Symbolic.eq (Devito.Symbolic.Dt u)
           Devito.Symbolic.(f 0.5 *: laplace u))
    in
    ( Devito.Symbolic.flops update,
      Devito.Baseline.factorized_flops update )
  in
  let naive2, fact2 = flops 2 in
  let naive8, fact8 = flops 8 in
  check bool_c "so2 reduced" true (fact2 < naive2);
  check bool_c "so8 reduced" true (fact8 < naive8);
  check bool_c "bigger saving at so8" true
    (float_of_int fact8 /. float_of_int naive8
    < float_of_int fact2 /. float_of_int naive2 +. 0.05)

let test_devito_cse () =
  (* Hash-consing counts shared subtrees once. *)
  let open Devito.Symbolic in
  let g = grid [ 4 ] in
  let u = function_ "u" g in
  let a = here u +: f 1. in
  let e = a *: a in
  check Alcotest.int "shared subtree counted once" 2
    (Devito.Baseline.cse_flops e);
  check Alcotest.int "naive counts twice" 3 (flops e)

(* Devito's schedule is [Scale.Schedule] with diagonal exchanges and
   overlap: an interior rank of a 4x4x4 grid talks to all 26 neighbours
   per swap, while a 1D slab decomposition has no diagonals. *)
let test_devito_diagonal_schedule () =
  let m = heat3d_module ~grid: [ 256; 16; 16 ] in
  let sched strategy =
    Scale.Schedule.of_module ~strategy ~mode: Core.Decomposition.Diagonals
      ~overlap: true ~ranks: 64 m
  in
  let sends s ~rank =
    List.init (Array.length s.Scale.Schedule.swaps) (fun swap ->
        List.length (Scale.Schedule.rank_sends s ~swap ~rank))
  in
  let s3d = sched Core.Decomposition.Slice3d in
  check Alcotest.(list int) "4x4x4 grid" [ 4; 4; 4 ] s3d.Scale.Schedule.grid;
  check bool_c "has swaps" true (Array.length s3d.Scale.Schedule.swaps > 0);
  let interior = (1 * 16) + (1 * 4) + 1 in
  List.iter
    (check Alcotest.int "interior rank: 26 sends per swap" 26)
    (sends s3d ~rank: interior);
  check bool_c "overlap enabled" true s3d.Scale.Schedule.overlap;
  check bool_c "split-phase swaps" true
    (List.exists
       (function Scale.Schedule.Swap_begin _ -> true | _ -> false)
       s3d.Scale.Schedule.body);
  let s1d = sched Core.Decomposition.Slice1d in
  check Alcotest.(list int) "64x1x1 grid" [ 64; 1; 1 ] s1d.Scale.Schedule.grid;
  for rank = 0 to 63 do
    List.iter
      (fun n -> check bool_c "1D has no diagonals" true (n <= 2))
      (sends s1d ~rank)
  done

let suite =
  [
    Alcotest.test_case "feature extraction" `Quick test_feature_extraction;
    Alcotest.test_case "features scale with space order" `Quick
      test_features_scale_with_so;
    Alcotest.test_case "cpu roofline monotonicity" `Quick test_cpu_roofline;
    Alcotest.test_case "cpu barrier effect (fig10 mechanism)" `Quick
      test_cpu_barrier_effect;
    Alcotest.test_case "net alpha-beta" `Quick test_net_alpha_beta;
    Alcotest.test_case "net overlap hides wire time" `Quick
      test_net_overlap_hides_wire;
    Alcotest.test_case "gpu managed-memory penalty" `Quick
      test_gpu_managed_penalty;
    Alcotest.test_case "gpu per-region sync" `Quick test_gpu_sync_per_region;
    Alcotest.test_case "fpga shapes and speedup" `Quick test_fpga_shapes;
    Alcotest.test_case "devito symbolic factorization" `Quick
      test_devito_factorization;
    Alcotest.test_case "devito symbolic cse" `Quick test_devito_cse;
    Alcotest.test_case "devito comm schedule" `Quick
      test_devito_diagonal_schedule;
  ]
