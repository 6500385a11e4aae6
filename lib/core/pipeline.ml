(* Named pass pipelines: the shared compilation flows of fig. 1b / fig. 6.
   Every frontend (Devito, PSyclone, textual stencil IR) lowers into the
   stencil dialect and then takes one of these, sharing all passes below
   the stencil level. *)

open Ir

type target =
  | Cpu_sequential
  | Cpu_openmp of { tiles : int list }
  | Distributed_cpu of {
      ranks : int;
      strategy : Decomposition.strategy;
      mode : Decomposition.exchange_mode;
      tiles : int list;
      overlap : bool;
    }
  | Gpu of { managed : bool }
  | Fpga of { optimized : bool }

let target_name = function
  | Cpu_sequential -> "cpu-sequential"
  | Cpu_openmp _ -> "cpu-openmp"
  | Distributed_cpu _ -> "distributed-cpu"
  | Gpu _ -> "gpu"
  | Fpga { optimized } -> if optimized then "fpga-optimized" else "fpga-initial"

(* "8,8" -> [8; 8]; "" -> [] (untiled).  Any piece that is not a
   positive int rejects the whole list. *)
let tiles_of_string spec =
  if String.trim spec = "" then Some []
  else
    let parts = String.split_on_char ',' spec in
    let tiles =
      List.filter_map
        (fun w ->
          match int_of_string_opt (String.trim w) with
          | Some n when n > 0 -> Some n
          | _ -> None)
        parts
    in
    if List.length tiles = List.length parts then Some tiles else None

let tiles_to_string tiles = String.concat "," (List.map string_of_int tiles)

(* Every configuration knob that changes the pass pipeline must appear
   here: the artifact cache keys on (module digest, target fingerprint). *)
let target_fingerprint = function
  | Cpu_sequential -> "cpu-sequential"
  | Cpu_openmp { tiles } ->
      Printf.sprintf "cpu-openmp[tiles=%s]" (tiles_to_string tiles)
  | Distributed_cpu { ranks; strategy; mode; tiles; overlap } ->
      Printf.sprintf
        "distributed-cpu[ranks=%d;strategy=%s;mode=%s;tiles=%s;overlap=%b]"
        ranks
        (Decomposition.strategy_name strategy)
        (Decomposition.mode_name mode)
        (tiles_to_string tiles) overlap
  | Gpu { managed } -> Printf.sprintf "gpu[managed=%b]" managed
  | Fpga { optimized } -> Printf.sprintf "fpga[optimized=%b]" optimized

(* Inverse of [target_fingerprint], for the on-disk artifact store: a
   persisted artifact records only the fingerprint string, and a warm
   start must rebuild the structured target from it.  Returns [None] on
   anything the renderer above could not have produced (including custom
   decomposition strategies, which carry a closure). *)
let target_of_fingerprint (s : string) : target option =
  let ( let* ) = Option.bind in
  (* "name[k=v;...]" -> (name, Some body); "name" -> (name, None) *)
  let name, body =
    match String.index_opt s '[' with
    | Some i when String.length s > 0 && s.[String.length s - 1] = ']' ->
        ( String.sub s 0 i,
          Some (String.sub s (i + 1) (String.length s - i - 2)) )
    | _ -> (s, None)
  in
  let fields body =
    String.split_on_char ';' body
    |> List.filter_map (fun kv ->
           match String.index_opt kv '=' with
           | Some i ->
               Some
                 ( String.sub kv 0 i,
                   String.sub kv (i + 1) (String.length kv - i - 1) )
           | None -> None)
  in
  match (name, body) with
  | "cpu-sequential", None -> Some Cpu_sequential
  | "cpu-openmp", Some body ->
      let* tiles =
        Option.bind (List.assoc_opt "tiles" (fields body)) tiles_of_string
      in
      Some (Cpu_openmp { tiles })
  | "distributed-cpu", Some body ->
      let fs = fields body in
      let* ranks = Option.bind (List.assoc_opt "ranks" fs) int_of_string_opt in
      let* strategy =
        match List.assoc_opt "strategy" fs with
        | Some "1d-slice" -> Some Decomposition.Slice1d
        | Some "2d-slice" -> Some Decomposition.Slice2d
        | Some "3d-slice" -> Some Decomposition.Slice3d
        | _ -> None
      in
      let* mode =
        Option.bind (List.assoc_opt "mode" fs) Decomposition.mode_of_name
      in
      let* tiles = Option.bind (List.assoc_opt "tiles" fs) tiles_of_string in
      let* overlap =
        Option.bind (List.assoc_opt "overlap" fs) bool_of_string_opt
      in
      Some (Distributed_cpu { ranks; strategy; mode; tiles; overlap })
  | "gpu", Some body ->
      let* managed =
        Option.bind (List.assoc_opt "managed" (fields body)) bool_of_string_opt
      in
      Some (Gpu { managed })
  | "fpga", Some body ->
      let* optimized =
        Option.bind
          (List.assoc_opt "optimized" (fields body))
          bool_of_string_opt
      in
      Some (Fpga { optimized })
  | _ -> None

let cleanup_passes =
  [ Transforms.Canonicalize.pass; Transforms.Cse.pass; Transforms.Licm.pass;
    Transforms.Dce.pass ]

let pipeline_for (t : target) : Pass.pipeline =
  match t with
  | Cpu_sequential ->
      Pass.pipeline "cpu-sequential"
        (Shape_inference.pass
         :: Stencil_to_loops.pass ~style: Stencil_to_loops.Sequential ()
         :: cleanup_passes)
  | Cpu_openmp { tiles } ->
      Pass.pipeline "cpu-openmp"
        (Shape_inference.pass
         :: Stencil_to_loops.pass ~style: (Stencil_to_loops.Tiled_omp tiles) ()
         :: cleanup_passes)
  | Distributed_cpu { ranks; strategy; mode; tiles; overlap } ->
      (* [tiles = []] selects the plain sequential per-rank loop nest —
         the executed flow Harness/stencilc/bench run through the
         artifact layer; non-empty tiles keep the OMP-tiled lowering. *)
      let style =
        match tiles with
        | [] -> Stencil_to_loops.Sequential
        | ts -> Stencil_to_loops.Tiled_omp ts
      in
      Pass.pipeline "distributed-cpu"
        ([ Shape_inference.pass;
           Distribute.pass (Distribute.options ~mode ~ranks ~strategy ());
           Swap_elim.pass ]
        @ (if overlap then [ Overlap.pass ] else [])
        @ [
            Stencil_to_loops.pass ~style ();
            Dmp_to_mpi.pass;
            Mpi_to_func.pass;
          ]
        @ cleanup_passes)
  | Gpu { managed } ->
      Pass.pipeline "gpu"
        (Stencil_to_loops.pass
           ~style: (Stencil_to_loops.Gpu_launch { synchronous = true; managed })
           ()
         :: cleanup_passes)
  | Fpga { optimized } ->
      Pass.pipeline (target_name t)
        (Stencil_to_hls.pass
           ~mode: (if optimized then Stencil_to_hls.Optimized else Stencil_to_hls.Initial)
           ()
         :: cleanup_passes)

(* Compile a stencil-dialect module for a target. *)
let compile ?(verify = true) (t : target) (m : Op.t) : Op.t =
  let out = Pass.run_pipeline (pipeline_for t) m in
  if verify then Verifier.verify ~checks: Registry.checks out;
  out

(* All named pipelines, for the stencilc CLI. *)
let named_pipelines : (string * Pass.pipeline) list =
  [
    ("cpu-sequential", pipeline_for Cpu_sequential);
    ("cpu-openmp", pipeline_for (Cpu_openmp { tiles = [ 32; 32; 32 ] }));
    ( "distributed-cpu-4",
      pipeline_for
        (Distributed_cpu
           {
             ranks = 4;
             strategy = Decomposition.Slice2d;
             mode = Decomposition.Faces;
             tiles = [ 32; 32 ];
             overlap = false;
           }) );
    ( "distributed-cpu-4-overlap",
      pipeline_for
        (Distributed_cpu
           {
             ranks = 4;
             strategy = Decomposition.Slice2d;
             mode = Decomposition.Faces;
             tiles = [ 32; 32 ];
             overlap = true;
           }) );
    ("gpu", pipeline_for (Gpu { managed = false }));
    ("fpga-initial", pipeline_for (Fpga { optimized = false }));
    ("fpga-optimized", pipeline_for (Fpga { optimized = true }));
    ("canonicalize", Pass.pipeline "canonicalize" cleanup_passes);
  ]
