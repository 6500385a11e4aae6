(* Ablations of the design choices DESIGN.md calls out:

   - bounds-in-types: halos inferred from stencil.access offsets match the
     minimal radius, per space order;
   - swap-before-every-load + elimination: exchange counts with and
     without the SSA-dataflow cleanup;
   - decomposition strategies: surface volume and message count of
     1D/2D/3D slicing for the same rank count;
   - tiled CPU lowering: loop-structure difference of the contributed
     tiling pipeline (ops and parallel regions);
   - rewrite driver: pattern applications of the worklist greedy driver
     on the fig7 and fig10 compile pipelines (its compile time is
     perfbench's frontend_ms/lower_ms). *)

open Ir

let halo_inference () =
  Printf.printf " -- halo inference from access offsets (bounds in types):\n";
  List.iter
    (fun so ->
      let w = Workloads.heat ~dims: 3 ~so () in
      let halo = ref (0, 0) in
      Op.walk
        (fun op ->
          if op.Op.name = "stencil.apply" then
            halo := (Core.Stencil.combined_halo op ~rank: 3).(0))
        w.Workloads.module_;
      let neg, pos = !halo in
      Printf.printf
        "    so%-2d -> inferred halo (%d,%d), minimal radius %d: %s\n" so neg
        pos (so / 2)
        (if -neg = so / 2 && pos = so / 2 then "exact" else "OVER-APPROXIMATE"))
    [ 2; 4; 8 ]

let swap_elimination () =
  Printf.printf " -- redundant-swap elimination (dmp):\n";
  let cases =
    [
      ("heat3d so4 time loop", (Workloads.heat ~dims: 3 ~so: 4 ()).Workloads.module_);
      ("tracer advection", (Workloads.traadv ()).Workloads.p_module);
    ]
  in
  List.iter
    (fun (label, m) ->
      let dm =
        Core.Distribute.run
          (Core.Distribute.options ~ranks: 8 ~strategy: Core.Decomposition.Slice2d ())
          m
      in
      let before = Transforms.Statistics.count dm "dmp.swap" in
      let after =
        Transforms.Statistics.count (Core.Swap_elim.run dm) "dmp.swap"
      in
      Printf.printf "    %-24s swaps: %d before, %d after elimination\n" label
        before after)
    cases

let diagonal_modes () =
  Printf.printf
    " -- exchange modes at 16 ranks (2D, 1024^2, radius 1):\n";
  List.iter
    (fun (label, mode) ->
      let grid =
        Core.Decomposition.grid_of Core.Decomposition.Slice2d ~ranks: 16
          ~rank: 2
      in
      let interior =
        Core.Decomposition.local_interior ~interior: [ 1024; 1024 ] ~grid
      in
      let exs =
        Core.Decomposition.exchanges ~mode ~interior
          ~halo: [| (-1, 1); (-1, 1) |]
          ~grid ()
      in
      Printf.printf "    %-20s %2d msgs/rank/step, %6d pts exchanged\n" label
        (List.length exs)
        (Core.Decomposition.exchange_volume exs))
    [
      ("faces (prototype)", Core.Decomposition.Faces);
      ("faces + diagonals", Core.Decomposition.Diagonals);
    ]

let decomposition_strategies () =
  Printf.printf
    " -- decomposition strategies at 64 ranks, 1024^3, radius 2:\n";
  List.iter
    (fun strategy ->
      let grid =
        Core.Decomposition.grid_of strategy ~ranks: 64 ~rank: 3
      in
      let interior =
        Core.Decomposition.local_interior ~interior: [ 1024; 1024; 1024 ]
          ~grid
      in
      let exs =
        Core.Decomposition.exchanges ~interior
          ~halo: [| (-2, 2); (-2, 2); (-2, 2) |]
          ~grid ()
      in
      Printf.printf
        "    %-8s grid %-10s  %2d msgs/rank/step, %7d pts exchanged\n"
        (Core.Decomposition.strategy_name strategy)
        (String.concat "x" (List.map string_of_int grid))
        (List.length exs)
        (Core.Decomposition.exchange_volume exs))
    [ Core.Decomposition.Slice1d; Core.Decomposition.Slice2d;
      Core.Decomposition.Slice3d ]

let tiling () =
  Printf.printf " -- CPU lowering styles (heat3d so4):\n";
  let m = (Workloads.heat ~dims: 3 ~so: 4 ()).Workloads.module_ in
  List.iter
    (fun (label, style) ->
      let lowered = Core.Stencil_to_loops.run ~style m in
      Printf.printf
        "    %-10s %4d ops, %d scf.for, %d scf.parallel, %d omp regions\n"
        label (Op.count_ops lowered)
        (Transforms.Statistics.count lowered "scf.for")
        (Transforms.Statistics.count lowered "scf.parallel")
        (Dialects.Omp.count_regions lowered))
    [
      ("seq", Core.Stencil_to_loops.Sequential);
      ("parallel", Core.Stencil_to_loops.Parallel_flat);
      ("tiled", Core.Stencil_to_loops.Tiled_omp [ 32; 32; 32 ]);
    ]

let overlap_structure () =
  Printf.printf
    " -- implemented split-phase overlap (heat2d, 4 ranks):\n";
  let dm =
    Core.Swap_elim.run
      (Core.Distribute.run
         (Core.Distribute.options ~ranks: 4
            ~strategy: Core.Decomposition.Slice2d ())
         ((Workloads.heat ~dims: 2 ~so: 2 ()).Workloads.module_))
  in
  let ov = Core.Overlap.run dm in
  Printf.printf
    "    fused:   %d dmp.swap, %d applies\n    split:   %d swap_begin, %d \
     swap_wait, %d applies (interior + boundary slabs)\n"
    (Transforms.Statistics.count dm "dmp.swap")
    (Transforms.Statistics.count dm "stencil.apply")
    (Transforms.Statistics.count ov "dmp.swap_begin")
    (Transforms.Statistics.count ov "dmp.swap_wait")
    (Transforms.Statistics.count ov "stencil.apply")

(* The modelled cost of the implemented overlap: fig 8's replayed heat3d
   step at 512 ranks, face exchanges, with and without split-phase
   swaps. *)
let overlap () =
  Printf.printf
    " -- modeled communication/computation overlap at 512 ranks (heat3d so4, \
     1024^3):\n";
  let heat = Bench_fig8.heat () in
  List.iter
    (fun ov ->
      Printf.printf "    overlap=%-5b step %.2e s\n" ov
        (Bench_fig8.xdsl_step heat ~ranks: 512 ~overlap: ov))
    [ false; true ]

(* The greedy worklist rewrite driver on whole compile pipelines: pattern
   applications per pipeline, counted through Obs. *)
let rewrite_driver () =
  Printf.printf " -- rewrite driver on compile pipelines:\n";
  let pipelines =
    [
      ( "fig7-heat2d-so2-openmp",
        Core.Pipeline.Cpu_openmp { tiles = [ 32; 32 ] },
        (Workloads.heat ~dims: 2 ~so: 2 ()).Workloads.module_ );
      ( "fig10-traadv-distributed-4",
        Core.Pipeline.Distributed_cpu
          {
            ranks = 4;
            strategy = Core.Decomposition.Slice2d;
            mode = Core.Decomposition.Faces;
            tiles = [ 16; 16; 16 ];
            overlap = false;
          },
        (Workloads.traadv ()).Workloads.p_module );
      ( "fig10-pw-distributed-4",
        Core.Pipeline.Distributed_cpu
          {
            ranks = 4;
            strategy = Core.Decomposition.Slice2d;
            mode = Core.Decomposition.Faces;
            tiles = [ 16; 16; 8 ];
            overlap = true;
          },
        (Workloads.pw ()).Workloads.p_module );
    ]
  in
  let count_pattern_apps target m =
    Obs.enable ();
    Obs.Rewrites.clear ();
    ignore (Core.Pipeline.compile ~verify: false target m);
    let apps =
      List.fold_left
        (fun acc (s : Obs.rewrite_stat) -> acc + s.Obs.rw_applied)
        0 (Obs.Rewrites.stats ())
    in
    Obs.disable ();
    apps
  in
  List.iter
    (fun (label, target, m) ->
      Printf.printf "    %-26s %4d pattern apps\n" label
        (count_pattern_apps target m))
    pipelines

let run () =
  Printf.printf "== Ablations ==\n";
  halo_inference ();
  swap_elimination ();
  diagonal_modes ();
  decomposition_strategies ();
  tiling ();
  overlap_structure ();
  overlap ();
  rewrite_driver ();
  print_newline ()
