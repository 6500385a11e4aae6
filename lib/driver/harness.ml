(* End-to-end distributed execution harness: take a stencil-dialect module
   (e.g. a Devito operator), run it serially for reference, distribute +
   fully lower it, execute it on a chosen MPI substrate (simulated fibers
   or real domains), gather rank interiors and compare against the serial
   run.  One entry point shared by stencilc --run-par/--run-sim, the
   bench scale section and the parallel-runtime tests. *)

open Ir

type substrate = Sim | Par

type result = {
  ranks : int;
  grid : int list;
  substrate_name : string;
  executor_name : string;
  overlap : bool;
  serial_wall_s : float;
  wall_s : float;
  max_diff_vs_serial : float;
  messages : int;
  bytes : int;
  domain : int list;
  gathered : Interp.Rtval.buffer list;
  serial : Interp.Rtval.buffer list;
  analysis : Analysis.report option;
}

let default_func m =
  let rec find = function
    | [] -> Interp.Rtval.error "harness: no function with sym_name in module"
    | op :: rest -> (
        match Op.attr op "sym_name" with
        | Some (Typesys.String_attr s) | Some (Typesys.Symbol_attr s) -> s
        | _ -> find rest)
  in
  find (Op.module_ops m)

let rebase (b : Interp.Rtval.buffer) =
  { b with Interp.Rtval.lo = List.map (fun _ -> 0) b.Interp.Rtval.lo }

(* Field arguments of [func] in [m]: (element type, global bounds) per
   buffer argument. *)
let field_args m func =
  let fop =
    match Op.lookup_symbol m func with
    | Some f -> f
    | None -> Interp.Rtval.error "harness: no function %S in module" func
  in
  let arg_tys, _ = Dialects.Func.signature_of fop in
  List.filter_map
    (fun ty ->
      match Typesys.bounds_of ty with
      | Some bounds ->
          let elt = Option.value (Typesys.element_of ty) ~default: Typesys.f64 in
          Some (elt, bounds)
      | None -> None)
    arg_tys

(* Deterministically initialized global buffer for one field argument. *)
let global_field ~seed (elt, (bounds : Typesys.bound list)) =
  let lo = List.map (fun (b : Typesys.bound) -> b.Typesys.lo) bounds in
  let shape = List.map Typesys.bound_size bounds in
  let b = Interp.Rtval.alloc_buffer ~lo shape elt in
  Interp.Rtval.fill b (fun i -> Float.sin (float_of_int (seed + i) *. 0.37));
  b

(* Max abs difference over the interior [0, domain_d) per dimension. *)
let interior_diff ~(domain : int list) (a : Interp.Rtval.buffer)
    (b : Interp.Rtval.buffer) : float =
  let worst = ref 0. in
  let rec nest dims coords =
    match dims with
    | [] ->
        let c = List.rev coords in
        let s = Interp.Rtval.as_float (Interp.Rtval.get a c) in
        let d = Interp.Rtval.as_float (Interp.Rtval.get b c) in
        worst := Float.max !worst (Float.abs (s -. d))
    | n :: rest ->
        for i = 0 to n - 1 do
          nest rest (i :: coords)
        done
  in
  nest domain [];
  !worst

let max_result_diff (a : result) (b : result) : float =
  if List.length a.gathered <> List.length b.gathered then infinity
  else
    List.fold_left2
      (fun acc x y -> Float.max acc (interior_diff ~domain: a.domain x y))
      0. a.gathered b.gathered

(* Substrate-generic executor. *)
module Runner (M : Mpi_intf.MPI_CORE) = struct
  module S = Simulate.Spmd (M)

  let exec ?(trace = false) ?(threads = 1) ~program ~ranks ~func ~make_args
      ~collect m =
    let comm =
      S.run_spmd ~trace ~program ~threads ~ranks ~func
        ~make_args: (fun ctx -> make_args (M.rank ctx))
        ~collect: (fun ctx _args results -> collect (M.rank ctx) results)
        m
    in
    let tl = if trace then M.timeline comm else [] in
    (M.substrate, M.total_messages comm, M.total_bytes comm, tl)
end

module Sim_runner = Runner (Mpi_sim)
module Par_runner = Runner (Mpi_par)

let run_distributed ?(substrate = Sim)
    ?(strategy = Core.Decomposition.Slice2d)
    ?(mode = Core.Decomposition.Faces) ?(trace = false) ?executor ?(seed = 0)
    ?func ?(overlap = true) ?(tiles = []) ?(threads_per_rank = 1) ~ranks
    (m : Op.t) : result =
  let func = match func with Some f -> f | None -> default_func m in
  let args = field_args m func in
  if args = [] then
    Interp.Rtval.error "harness: %S has no field (buffer) arguments" func;
  let domain =
    let _, bounds = List.hd args in
    List.map (fun (b : Typesys.bound) -> b.Typesys.hi + b.Typesys.lo) bounds
  in
  (* Serial reference, timed. *)
  let serial_inputs = List.map (global_field ~seed) args in
  let t0 = Unix.gettimeofday () in
  let serial_results =
    Simulate.run_serial ~func m
      (List.map (fun b -> Interp.Rtval.Rbuf b) serial_inputs)
  in
  let serial_wall_s = Unix.gettimeofday () -. t0 in
  let serial =
    List.filter_map
      (function Interp.Rtval.Rbuf b -> Some b | _ -> None)
      serial_results
  in
  (* Distribute and lower to MPI_* function calls — through the artifact
     layer, so [Core.Pipeline.pipeline_for (Distributed_cpu ...)] is the
     single definition of the executed flow and structurally identical
     requests (every rank, every repetition, every --serve client) share
     one compilation.  The localized grid/bounds are read off the fully
     lowered module via the dmp.topology / dmp.local_fields attributes
     the distribution pass leaves behind. *)
  let target =
    Core.Pipeline.Distributed_cpu { ranks; strategy; mode; tiles; overlap }
  in
  let art = Service.Artifact.get ?executor ~target m in
  let lowered = art.Service.Artifact.lowered in
  let fop_l =
    match Op.lookup_symbol lowered func with
    | Some f -> f
    | None -> Interp.Rtval.error "harness: %S lost in distribution" func
  in
  let grid = Domain.topology_of fop_l in
  let local_bounds =
    match Domain.local_field_bounds fop_l with
    | bs :: _ -> bs
    | [] -> Interp.Rtval.error "harness: no localized field bounds"
  in
  let interior = List.map2 (fun n parts -> n / parts) domain grid in
  let origin =
    List.map (fun (b : Typesys.bound) -> -b.Typesys.lo) local_bounds
  in
  (* Fresh identically-initialized globals to scatter from, and gather
     targets mirroring the serial result buffers. *)
  let globals = List.map (global_field ~seed) args in
  let gathered =
    List.map
      (fun (b : Interp.Rtval.buffer) ->
        Interp.Rtval.alloc_buffer ~lo: b.Interp.Rtval.lo b.Interp.Rtval.shape
          b.Interp.Rtval.elt)
      serial
  in
  let make_args rank =
    List.map
      (fun global ->
        Interp.Rtval.Rbuf
          (rebase (Domain.scatter_field ~global ~grid ~local_bounds ~rank)))
      globals
  in
  let collect rank results =
    List.iteri
      (fun k r ->
        match r with
        | Interp.Rtval.Rbuf local ->
            Domain.gather_interior ~origin ~global: (List.nth gathered k)
              ~local ~grid ~interior ~rank ()
        | _ -> ())
      results
  in
  (* The serial reference above always runs on the interpreter — it is the
     oracle; [executor] selects the backend for the distributed run only.
     All ranks instantiate the one shared program from the artifact. *)
  let executor_name = art.Service.Artifact.executor_name in
  let program = art.Service.Artifact.program in
  let t1 = Unix.gettimeofday () in
  let threads = threads_per_rank in
  let substrate_name, messages, bytes, tl =
    match substrate with
    | Sim ->
        Sim_runner.exec ~trace ~threads ~program ~ranks ~func ~make_args
          ~collect lowered
    | Par ->
        Par_runner.exec ~trace ~threads ~program ~ranks ~func ~make_args
          ~collect lowered
  in
  let wall_s = Unix.gettimeofday () -. t1 in
  let analysis = if trace then Some (Analysis.analyze ~ranks tl) else None in
  let max_diff_vs_serial =
    List.fold_left2
      (fun acc s g -> Float.max acc (interior_diff ~domain s g))
      0. serial gathered
  in
  {
    ranks;
    grid;
    substrate_name;
    executor_name;
    overlap;
    serial_wall_s;
    wall_s;
    max_diff_vs_serial;
    messages;
    bytes;
    domain;
    gathered;
    serial;
    analysis;
  }
