(* Figure 8: strong scaling of the 3D so4 heat (a) and acoustic wave (b)
   kernels on ARCHER2 up to 1024 MPI ranks (16384 cores), 1024^3 grid.
   Every column replays the schedule [Scale.Schedule] derives from the
   workload's module under [Scale.Netmodel.slingshot]: xDSL-Devito's
   dmp-generated face exchanges without overlap, the same faces with the
   implemented split-phase overlap (xDSL+ovl), and native Devito's
   schedule, which adds diagonal exchanges with computation/communication
   overlap (Bisbas et al. 2023).  Compute per step comes from the CPU
   model, so the columns differ only in schedule and compute quality. *)

open Ir

let ranks_list = [ 8; 16; 32; 64; 128; 256; 512; 1024 ]

(* 16 threads per rank; a rank owns one NUMA region (1/8 node). *)
let threads_per_rank = 16

(* Each rank gets 16 of the node's 128 cores; the thread-fraction scaling
   inside the CPU model apportions the node bandwidth. *)
let rank_share_node = Machine.Cpu.archer2_node

(* The paper-size workloads.  Only IR is built: nothing is allocated at
   1024^3. *)
let n = 1024
let heat () = Workloads.heat ~grid: [ n; n; n ] ~dims: 3 ~so: 4 ()
let wave () = Workloads.wave ~grid: [ n; n; n ] ~dims: 3 ~so: 4 ()
let total_points = float_of_int n ** 3.
let local_points ranks = total_points /. float_of_int ranks

(* One replayed timestep of [w] on [ranks], 3D decomposition. *)
let step_time (w : Workloads.devito_workload) ~ranks ~mode ~overlap ~compute
    =
  Workloads.slingshot_step_s ~compute
    (Scale.Schedule.of_module ~strategy: Core.Decomposition.Slice3d ~mode
       ~overlap ~ranks w.Workloads.module_)

let xdsl_compute w ~ranks =
  let points = local_points ranks in
  Machine.Cpu.step_time rank_share_node Machine.Cpu.xdsl_cpu_quality
    (Workloads.xdsl_features w ~points) ~points ~threads: threads_per_rank

let devito_compute w ~ranks =
  let points = local_points ranks in
  Machine.Cpu.step_time rank_share_node
    (Machine.Cpu.devito_cpu_quality
       ~flop_factor: (Workloads.devito_flop_factor w))
    (Workloads.devito_features w ~points)
    ~points ~threads: threads_per_rank

(* The shared stack's face exchanges, with or without overlap. *)
let xdsl_step w ~ranks ~overlap =
  step_time w ~ranks ~mode: Core.Decomposition.Faces ~overlap
    ~compute: (xdsl_compute w ~ranks)

let scaling_row (w : Workloads.devito_workload) ranks =
  let xdsl_step_s = xdsl_step w ~ranks ~overlap: false in
  let devito_compute_s = devito_compute w ~ranks in
  let devito_step_s =
    step_time w ~ranks ~mode: Core.Decomposition.Diagonals ~overlap: true
      ~compute: devito_compute_s
  in
  let gpts t = total_points /. t /. 1e9 in
  Printf.printf
    "  %6d  %10.1f  %10.1f  %10.1f   (comm share: xDSL %4.0f%%, Devito %4.0f%%)\n"
    ranks (gpts xdsl_step_s)
    (gpts (xdsl_step w ~ranks ~overlap: true))
    (gpts devito_step_s)
    (100. *. (1. -. (xdsl_compute w ~ranks /. xdsl_step_s)))
    (100. *. (1. -. (devito_compute_s /. devito_step_s)))

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
  List.iter (scaling_row (heat ())) ranks_list;
  Printf.printf " (b) acoustic wave:\n";
  List.iter (scaling_row (wave ())) ranks_list;
  validate_schedule ();
  print_newline ()
