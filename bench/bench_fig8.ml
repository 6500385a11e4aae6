(* Figure 8: strong scaling of the 3D so4 heat (a) and acoustic wave (b)
   kernels on ARCHER2 up to 1024 MPI ranks (16384 cores), 1024^3 grid.
   xDSL-Devito uses the dmp-generated face exchanges without overlap;
   native Devito's schedule adds diagonal exchanges with computation/
   communication overlap (Bisbas et al. 2023), giving it the more robust
   scaling the paper reports. *)

open Ir

let ranks_list = [ 8; 16; 32; 64; 128; 256; 512; 1024 ]

(* 16 threads per rank; a rank owns one NUMA region (1/8 node). *)
let threads_per_rank = 16

(* Each rank gets 16 of the node's 128 cores; the thread-fraction scaling
   inside the CPU model apportions the node bandwidth. *)
let rank_share_node = Machine.Cpu.archer2_node

(* Swaps the compiled distributed program performs per timestep, measured
   from the IR after redundant-swap elimination (wave loads two time
   levels, so it exchanges twice per step — a prototype inefficiency the
   dmp dialect's one-exchange-per-swap design makes visible). *)
let swaps_per_step (w : Workloads.devito_workload) =
  let dm =
    Core.Swap_elim.run
      (Core.Distribute.run
         (Core.Distribute.options ~ranks: 8 ~strategy: Core.Decomposition.Slice3d ())
         w.Workloads.module_)
  in
  max 1 (Transforms.Statistics.count dm "dmp.swap")

let scaling_row (w : Workloads.devito_workload) ranks =
  let n = 1024. in
  let total_points = n ** 3. in
  let local_points = total_points /. float_of_int ranks in
  let swaps = swaps_per_step w in
  (* xDSL: schedule measured from the compiled distributed module. *)
  let grid3 =
    Core.Decomposition.grid_of Core.Decomposition.Slice3d ~ranks ~rank: 3
  in
  let local_dims = List.map (fun g -> n /. float_of_int g) grid3 in
  let r =
    Array.fold_left
      (fun acc (neg, pos) -> max acc (max (-neg) pos))
      0 w.Workloads.spec.Devito.Operator.halo
  in
  (* Face message per decomposed dim per direction per exchanged field. *)
  let dims_cut = List.length (List.filter (fun g -> g > 1) grid3) in
  let face_bytes =
    List.mapi
      (fun d ld ->
        if List.nth grid3 d > 1 then
          let others =
            List.filteri (fun i _ -> i <> d) local_dims
            |> List.fold_left ( *. ) 1.
          in
          2. *. float_of_int r *. others *. 4.
        else (ignore ld; 0.))
      local_dims
    |> List.fold_left ( +. ) 0.
  in
  let xdsl_sched =
    {
      Machine.Net.messages = swaps * 2 * dims_cut;
      bytes = float_of_int swaps *. face_bytes;
      overlap = false;
      host_us_per_msg = Machine.Net.xdsl_host_us_per_msg;
    }
  in
  let devito_sched =
    Devito.Baseline.comm_schedule w.Workloads.spec ~grid: grid3 ~elt_bytes: 4
      ~local_interior: (List.map int_of_float local_dims)
  in
  let xf = Workloads.xdsl_features w ~points: local_points in
  let df = Workloads.devito_features w ~points: local_points in
  let xdsl_compute =
    Machine.Cpu.step_time rank_share_node Machine.Cpu.xdsl_cpu_quality xf
      ~points: local_points ~threads: threads_per_rank
  in
  let devito_compute =
    Machine.Cpu.step_time rank_share_node
      (Machine.Cpu.devito_cpu_quality
         ~flop_factor: (Workloads.devito_flop_factor w))
      df ~points: local_points ~threads: threads_per_rank
  in
  let xdsl_step =
    Machine.Net.step_time Machine.Net.slingshot ~compute: xdsl_compute
      xdsl_sched
  in
  (* The implemented split-phase extension: same schedule, wire time hidden
     behind the interior computation. *)
  let xdsl_overlap_step =
    Machine.Net.step_time Machine.Net.slingshot ~compute: xdsl_compute
      { xdsl_sched with Machine.Net.overlap = true }
  in
  let devito_step =
    Machine.Net.step_time Machine.Net.slingshot ~compute: devito_compute
      devito_sched
  in
  let gpts t = total_points /. t /. 1e9 in
  Printf.printf
    "  %6d  %10.1f  %10.1f  %10.1f   (comm share: xDSL %4.0f%%, Devito %4.0f%%)\n"
    ranks (gpts xdsl_step)
    (gpts xdsl_overlap_step)
    (gpts devito_step)
    (100. *. (1. -. (xdsl_compute /. xdsl_step)))
    (100. *. Float.max 0. (1. -. (devito_compute /. devito_step)))

(* Cross-check: the traffic [Scale.Schedule] derives from the module must
   equal what the simulated MPI run of the same module actually sends;
   a mismatch fails the figure. *)
let validate_schedule () =
  let w = Workloads.heat ~dims: 2 ~so: 2 () in
  let ranks = 4 in
  let dm =
    Core.Swap_elim.run
      (Core.Distribute.run
         (Core.Distribute.options ~ranks ~strategy: Core.Decomposition.Slice2d ())
         w.Workloads.module_)
  in
  let lowered =
    Core.Mpi_to_func.run
      (Core.Dmp_to_mpi.run
         (Core.Stencil_to_loops.run ~style: Core.Stencil_to_loops.Sequential dm))
  in
  let sfop =
    List.find
      (fun (op : Op.t) -> Op.attr op "dmp.topology" <> None)
      (Op.module_ops dm)
  in
  let grid = Driver.Domain.topology_of sfop in
  let local_bounds = List.hd (Driver.Domain.field_arg_bounds sfop) in
  let global =
    Interp.Rtval.alloc_buffer ~lo: [ -1; -1 ] [ 18; 18 ] Typesys.f32
  in
  let rebase buf =
    { buf with Interp.Rtval.lo = List.map (fun _ -> 0) buf.Interp.Rtval.lo }
  in
  let comm =
    Driver.Simulate.run_spmd ~ranks ~func: "heat"
      ~make_args: (fun ctx ->
        let rank = Mpi_sim.rank ctx in
        List.init 2 (fun _ ->
            Interp.Rtval.Rbuf
              (rebase
                 (Driver.Domain.scatter_field ~global ~grid ~local_bounds
                    ~rank))))
      lowered
  in
  let derived =
    Scale.Schedule.of_module ~strategy: Core.Decomposition.Slice2d
      ~overlap: false ~ranks w.Workloads.module_
  in
  let sent = (Mpi_sim.total_messages comm, Mpi_sim.total_bytes comm) in
  let expected =
    (Scale.Schedule.total_messages derived, Scale.Schedule.total_bytes derived)
  in
  Printf.printf
    "  schedule cross-check (heat2d, %d ranks): simulated %d msgs / %d B, \
     derived %d msgs / %d B\n"
    ranks (fst sent) (snd sent) (fst expected) (snd expected);
  if sent <> expected then
    failwith "fig8: derived schedule traffic differs from the simulated run"

let run () =
  Printf.printf
    "== Figure 8: strong scaling 3D so4 on ARCHER2, 1024^3 (GPts/s) ==\n";
  Printf.printf "   ranks  %10s  %10s  %10s\n" "xDSL" "xDSL+ovl" "Devito";
  Printf.printf " (a) heat diffusion:\n";
  let heat = Workloads.heat ~dims: 3 ~so: 4 () in
  List.iter (scaling_row heat) ranks_list;
  Printf.printf " (b) acoustic wave:\n";
  let wave = Workloads.wave ~dims: 3 ~so: 4 () in
  List.iter (scaling_row wave) ranks_list;
  validate_schedule ();
  print_newline ()
