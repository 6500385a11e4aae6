(* Side-effect classification shared by CSE, DCE and LICM. *)

open Ir

(* Ops that neither read nor write memory: safe to deduplicate and to delete
   when unused. *)
let pure (op : Op.t) =
  op.Op.regions = []
  &&
  let n = op.Op.name in
  let prefix p =
    String.length n >= String.length p && String.sub n 0 (String.length p) = p
  in
  prefix "arith."
  || n = "stencil.access" || n = "stencil.index" || n = "stencil.cast"
  || n = "memref.extract_ptr" || n = "mpi.null_request"

(* Ops that are speculatable and idempotent, so they may be hoisted out of
   loops even though they are not pure: rank/size queries never change after
   init, and allocations may legally be performed earlier (the paper hoists
   loop-invariant MPI calls and communication buffers out of time loops). *)
let hoistable (op : Op.t) =
  pure op
  || List.mem op.Op.name
       [ "mpi.comm_rank"; "mpi.comm_size"; "memref.alloc"; "gpu.alloc" ]
  || op.Op.name = "func.call"
     && (* the calls convert-mpi-to-func makes of those queries *)
     (match Op.attr op "callee" with
     | Some (Typesys.Symbol_attr ("MPI_Comm_rank" | "MPI_Comm_size")) -> true
     | _ -> false)

(* Ops that read memory: deletable when unused, but not CSE-able across
   writes (we simply never CSE them). *)
let read_only (op : Op.t) =
  List.mem op.Op.name [ "memref.load"; "mpi.comm_rank"; "mpi.comm_size" ]

(* Deletable when all results are unused. *)
let removable_if_unused (op : Op.t) =
  (pure op || read_only op || op.Op.name = "stencil.load")
  && op.Op.results <> []
