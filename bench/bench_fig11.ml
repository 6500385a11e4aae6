(* Figure 11: multi-node strong scaling of xDSL-PSyclone on ARCHER2 with
   the 2D dmp decomposition strategy (vertical dimension kept local, as is
   standard for atmosphere/ocean models): PW advection on [256,256,128]
   (a) and tracer advection on [512,512,128] (b), up to 128 nodes.

   Only xDSL results exist in the paper (the PSyclone NEMO API has no
   distributed-memory support); the expected shape is good scaling to ~8
   nodes and strong-scaling saturation beyond, because the global problems
   are small. *)

let nodes_list = [ 1; 2; 4; 8; 16; 32; 64; 128 ]

(* One MPI rank per node, 128 threads (fig. 11 uses whole nodes). *)
let node = Machine.Cpu.archer2_node

(* [w] is built at its paper size (IR only, nothing allocated): each
   point replays the schedule [Scale.Schedule] derives from it, 2D faces
   without overlap as in the prototype, under [Scale.Netmodel.slingshot],
   with compute per step from the CPU model. *)
let scaling (w : Workloads.psyclone_workload) ~global =
  List.iter
    (fun nodes ->
      let s =
        Scale.Schedule.of_module ~strategy: Core.Decomposition.Slice2d
          ~mode: Core.Decomposition.Faces ~overlap: false ~ranks: nodes
          w.Workloads.p_module
      in
      let local = List.map2 ( / ) global s.Scale.Schedule.grid in
      let local_points = float_of_int (List.fold_left ( * ) 1 local) in
      let compute =
        Machine.Cpu.step_time node Machine.Cpu.xdsl_cpu_quality
          (Workloads.psyclone_features w ~points: local_points)
          ~points: local_points ~threads: 128
      in
      let step = Workloads.slingshot_step_s s ~compute in
      Printf.printf "  %6d  %10.2f    (local %s, comm share %3.0f%%)\n" nodes
        (local_points *. float_of_int nodes /. step /. 1e9)
        (String.concat "x" (List.map string_of_int local))
        (100. *. Float.max 0. (1. -. (compute /. step))))
    nodes_list

let run () =
  Printf.printf
    "== Figure 11: xDSL-PSyclone strong scaling on ARCHER2 (GPts/s) ==\n";
  Printf.printf "   nodes  %10s\n" "xDSL";
  Printf.printf " (a) PW advection [256,256,128], 2D decomposition:\n";
  let pw = [ 256; 256; 128 ] in
  scaling (Workloads.pw ~shape: pw ()) ~global: pw;
  Printf.printf " (b) tracer advection [512,512,128], 2D decomposition:\n";
  let traadv = [ 512; 512; 128 ] in
  scaling (Workloads.traadv ~shape: traadv ()) ~global: traadv;
  print_newline ()
