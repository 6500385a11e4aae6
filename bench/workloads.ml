(* The evaluation workloads (paper §6) and the feature-extraction helpers
   shared by all figure/table benches.

   Functional compilation happens at small grids (features are per-point
   and size-independent); the paper's problem sizes are applied via
   [Machine.Features.with_points].  The scaling figures (8, 11) build
   their modules at the paper's sizes too, for the exchange schedules:
   only IR is built, nothing is allocated. *)

open Ir

(* --- Devito workloads (fig. 7/8/9) --- *)

type devito_workload = {
  w_name : string;
  dims : int;  (* 2 or 3 *)
  so : int;  (* space discretization order *)
  module_ : Op.t;  (* stencil-dialect module (small functional grid) *)
  spec : Devito.Operator.t;
}

let small_grid dims = if dims = 2 then [ 16; 16 ] else [ 8; 8; 8 ]

let heat ?grid ?(timesteps = 1) ~dims ~so () : devito_workload =
  let shape = match grid with Some s -> s | None -> small_grid dims in
  let g = Devito.Symbolic.grid ~dt: 0.1 shape in
  let u = Devito.Symbolic.function_ ~space_order: so "u" g in
  let eqn =
    Devito.Symbolic.eq (Devito.Symbolic.Dt u)
      Devito.Symbolic.(f 0.5 *: laplace u)
  in
  let spec, m = Devito.Operator.operator ~name: "heat" ~timesteps eqn in
  { w_name = "heat"; dims; so; module_ = m; spec }

let wave ?grid ?(timesteps = 1) ~dims ~so () : devito_workload =
  let shape = match grid with Some s -> s | None -> small_grid dims in
  let g = Devito.Symbolic.grid ~dt: 0.02 shape in
  let u =
    Devito.Symbolic.function_ ~space_order: so ~time_order: 2 "u" g
  in
  let eqn =
    Devito.Symbolic.eq (Devito.Symbolic.Dt2 u)
      Devito.Symbolic.(f 2.25 *: laplace u)
  in
  let spec, m = Devito.Operator.operator ~name: "wave" ~timesteps eqn in
  { w_name = "wave"; dims; so; module_ = m; spec }

(* The paper's problem sizes: 16384^2 / 1024^3 on ARCHER2, 8192^2 / 512^3 on
   Cirrus. *)
let archer2_points dims = if dims = 2 then 16384. ** 2. else 1024. ** 3.
let cirrus_points dims = if dims = 2 then 8192. ** 2. else 512. ** 3.

(* Kernel features of the shared-stack pipeline, measured from the compiled
   stencil module. *)
let xdsl_features (w : devito_workload) ~points : Machine.Features.t =
  Machine.Features.with_points
    (Machine.Features.of_stencil_module ~elt_bytes: 4 w.module_)
    points

(* Kernel features of native Devito, from the symbolically optimized
   expression. *)
let devito_features (w : devito_workload) ~points : Machine.Features.t =
  let f = Devito.Baseline.features w.spec ~elt_bytes: 4 in
  (* Apply the same dimensional traffic amplification used for the IR-based
     measurement so both pipelines share the memory model. *)
  let f =
    {
      f with
      Machine.Features.unique_bytes_per_pt =
        f.Machine.Features.unique_bytes_per_pt
        +. (float_of_int ((w.dims - 1) * 4)
           *. float_of_int
                (List.length (Devito.Symbolic.distinct_reads w.spec.Devito.Operator.update)));
    }
  in
  Machine.Features.with_points f points

let devito_flop_factor (w : devito_workload) =
  let e = w.spec.Devito.Operator.update in
  let naive = float_of_int (Devito.Symbolic.flops e) in
  if naive = 0. then 1.
  else Float.min 1. (float_of_int (Devito.Baseline.factorized_flops e) /. naive)

(* --- communication (fig. 8/11, ablation) --- *)

(* One replayed timestep of schedule [s] under Slingshot: [compute]
   seconds of stencil work per step (from the CPU model), spread over the
   cells the schedule computes, plus the exchanges it posts. *)
let slingshot_step_s (s : Scale.Schedule.t) ~compute =
  let model =
    {
      Scale.Netmodel.slingshot with
      compute_s_per_cell =
        compute /. float_of_int (Scale.Schedule.cells_per_step s);
    }
  in
  (Scale.Replay.run ~model ~emit_timeline: false s).Scale.Replay.p_wall_s
  /. float_of_int s.Scale.Schedule.steps

(* --- PSyclone workloads (fig. 10/11, table 1) --- *)

type psyclone_workload = {
  p_name : string;
  kernel : Psyclone.Fortran.kernel;
  p_module : Op.t;
  regions : int;
}

let pw ?(shape = [ 16; 16; 8 ]) () : psyclone_workload =
  let kernel = Psyclone.Benchkernels.pw_advection ~shape in
  let p_module = Psyclone.Codegen.compile kernel in
  {
    p_name = "pw";
    kernel;
    p_module;
    regions = Psyclone.Psy_ir.count_regions (Psyclone.Psy_ir.of_kernel kernel);
  }

let traadv ?(shape = [ 8; 8; 8 ]) () : psyclone_workload =
  let kernel =
    Psyclone.Benchkernels.tracer_advection ~iterations: 1 ~shape ()
  in
  let p_module = Psyclone.Codegen.compile kernel in
  {
    p_name = "traadv";
    kernel;
    p_module;
    regions = Psyclone.Psy_ir.count_regions (Psyclone.Psy_ir.of_kernel kernel);
  }

let psyclone_features (w : psyclone_workload) ~points : Machine.Features.t =
  Machine.Features.with_points
    (Machine.Features.of_stencil_module ~elt_bytes: 4 w.p_module)
    points
