(* Pass management: named module-to-module transformations composed into
   pipelines, with optional verification, print-after-all debugging, and
   Obs-backed per-pass metrics (wall time, verifier time, op-count and
   IR-size deltas, rewrite-pattern application counts). *)

type t = { name : string; run : Op.t -> Op.t }

let make name run = { name; run }

type pipeline = { pipeline_name : string; passes : t list }

let pipeline pipeline_name passes = { pipeline_name; passes }

let log_src = Logs.Src.create "ir.pass" ~doc: "Pass manager"

module Log = (val Logs.src_log log_src)

let ir_bytes m = String.length (Printer.module_to_string m)

(* One instrumented pass application.  All measurement is gated on the Obs
   sink being installed; with the sink absent this reduces to running the
   pass and the optional verifier. *)
let run_pass ~pipeline_name ~verify ~checks ~print_after (pass : t)
    (m : Op.t) : Op.t =
  Log.debug (fun f -> f "running pass %s" pass.name);
  let profiling = Obs.enabled () in
  let ops_before = if profiling then Op.count_ops m else 0 in
  let bytes_before = if profiling then ir_bytes m else 0 in
  let patterns_before = if profiling then Obs.Patterns.counts () else [] in
  Obs.Trace.begin_span ~cat: "pass"
    ~args: [ ("pipeline", Obs.Str pipeline_name) ]
    pass.name;
  let t0 = if profiling then Obs.now () else 0. in
  let m' = pass.run m in
  let t1 = if profiling then Obs.now () else 0. in
  if print_after then
    Obs.Report.ir_dump ~pipeline: pipeline_name ~pass: pass.name (fun fmt ->
        Printer.print_module fmt m');
  let verify_s =
    if verify then begin
      let tv0 = if profiling then Obs.now () else 0. in
      Obs.Trace.with_span ~cat: "verify" ("verify:" ^ pass.name) (fun () ->
          Verifier.verify ~checks m');
      if profiling then Obs.now () -. tv0 else 0.
    end
    else 0.
  in
  Obs.Trace.end_span pass.name;
  if profiling then
    Obs.Passes.record
      {
        Obs.pipeline = pipeline_name;
        pass_name = pass.name;
        wall_s = t1 -. t0;
        verify_s;
        ops_before;
        ops_after = Op.count_ops m';
        ir_bytes_before = bytes_before;
        ir_bytes_after = ir_bytes m';
        pattern_apps = Obs.Patterns.diff patterns_before;
      };
  m'

let run_pipeline ?(verify = false) ?(checks = []) ?(print_after = false)
    (p : pipeline) (m : Op.t) : Op.t =
  Obs.Trace.with_span ~cat: "pipeline" ("pipeline:" ^ p.pipeline_name)
    (fun () ->
      List.fold_left
        (fun m pass ->
          run_pass ~pipeline_name: p.pipeline_name ~verify ~checks
            ~print_after pass m)
        m p.passes)
