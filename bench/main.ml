(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 6) from the compiled IR and the machine models.
   Wall-time measurements of the stack come from perfbench/ (python3
   perfbench/run.py), the one timer; here only `scale` runs real ranks,
   to calibrate and validate its replay predictions (the reference-model
   curves it writes to BENCH_scaling.json are pinned by `dune runtest`).

   Run with: dune exec bench/main.exe
   (pass a section name — fig7 fig8 fig9 fig10 fig11 tab1 ablation — to
   run just that section).

   After each figure section the harness compiles that figure's
   representative workload(s) through the shared pipelines under the Obs
   sink and prints the per-pass time table, attributing compile cost the
   same way the figures attribute runtime. *)

let sections =
  [
    ("fig7", Bench_fig7.run);
    ("fig8", Bench_fig8.run);
    ("fig9", Bench_fig9.run);
    ("fig10", Bench_fig10.run);
    ("tab1", Bench_tab1.run);
    ("fig11", Bench_fig11.run);
    ("ablation", Bench_ablation.run);
  ]

(* Representative compile jobs per figure: the same workloads the section
   models, taken through the shared pipeline that figure evaluates. *)
let pass_table_jobs (section : string) :
    (Core.Pipeline.target * Ir.Op.t) list =
  let heat ~dims ~so = (Workloads.heat ~dims ~so ()).Workloads.module_ in
  let wave ~dims ~so = (Workloads.wave ~dims ~so ()).Workloads.module_ in
  let omp = Core.Pipeline.Cpu_openmp { tiles = [ 32; 32; 32 ] } in
  let dist ~overlap =
    Core.Pipeline.Distributed_cpu
      {
        ranks = 4;
        strategy = Core.Decomposition.Slice2d;
        mode = Core.Decomposition.Faces;
        tiles = [ 32; 32 ];
        overlap;
      }
  in
  match section with
  | "fig7" -> [ (omp, heat ~dims: 2 ~so: 2); (omp, wave ~dims: 2 ~so: 4) ]
  | "fig8" -> [ (dist ~overlap: false, heat ~dims: 3 ~so: 2) ]
  | "fig9" -> [ (dist ~overlap: false, wave ~dims: 3 ~so: 4) ]
  | "fig10" -> [ (omp, (Workloads.pw ()).Workloads.p_module) ]
  | "fig11" -> [ (dist ~overlap: false, (Workloads.traadv ()).Workloads.p_module) ]
  | "tab1" ->
      [ (Core.Pipeline.Fpga { optimized = true }, (Workloads.pw ()).Workloads.p_module) ]
  | "ablation" -> [ (dist ~overlap: true, heat ~dims: 2 ~so: 2) ]
  | _ -> []

let print_pass_table section =
  match pass_table_jobs section with
  | [] -> ()
  | jobs ->
      Obs.enable ();
      List.iter
        (fun (target, m) ->
          ignore (Core.Pipeline.compile ~verify: false target m))
        jobs;
      Printf.printf "-- %s: shared-stack pass times --\n%!" section;
      Format.printf "%a@?" Obs.Passes.pp_table ();
      Obs.disable ();
      print_newline ()

(* Strip a leading-anywhere [--out-dir DIR] pair from the argument list,
   configuring where BENCH_*.json artifacts land (default: the repo
   root, wherever the binary is run from). *)
let rec extract_out_dir = function
  | [] -> []
  | "--out-dir" :: dir :: rest ->
      Bench_paths.set_out_dir dir;
      extract_out_dir rest
  | [ "--out-dir" ] ->
      prerr_endline "--out-dir requires a directory argument";
      exit 1
  | a :: rest -> a :: extract_out_dir rest

let () =
  let args = extract_out_dir (List.tl (Array.to_list Sys.argv)) in
  (match args with
  | "scale" :: rest ->
      Bench_scale.run ~smoke: (List.mem "--smoke" rest) ();
      exit 0
  | _ -> ());
  let selected =
    if args = [] then sections
    else
      List.filter (fun (name, _) -> List.mem name args) sections
  in
  if selected = [] then begin
    prerr_endline "unknown section; available:";
    List.iter (fun (n, _) -> prerr_endline ("  " ^ n)) sections;
    prerr_endline
      "  scale [--smoke] (calibrated replay: strong-scaling curves to 1024 \
       ranks)";
    prerr_endline "  --out-dir DIR   (where BENCH_*.json land; default repo root)";
    exit 1
  end;
  Printf.printf
    "shared stencil compilation stack: evaluation reproduction\n\
     (absolute numbers come from first-order machine models; the paper's\n\
     claims are about shapes/ratios — see EXPERIMENTS.md)\n\n";
  List.iter
    (fun (name, run) ->
      run ();
      print_pass_table name)
    selected
