(* Ahead-of-time closure compiler for fully lowered modules: the "compiled"
   executor of the [Interp.Executor.EXECUTOR] seam.

   The reference interpreter pays one hashtable lookup per SSA operand, a
   list allocation per op and a string dispatch on the op name inside the
   innermost stencil loop.  This backend removes all of that by staging the
   module into OCaml closures once, ahead of execution (the classic first
   Futamura projection, the same move MLIR's ExecutionEngine makes by
   JIT-compiling to LLVM):

   - every SSA value is resolved at compile time to a fixed integer slot in
     a flat frame; scalars are stored unboxed (an [int array] for
     int/index-typed values, a [float array] for float-typed values, an
     [Interp.Rtval.t array] for buffers and the rest), so the hot
     memref load/compute/store chains never allocate;
   - each op and region is compiled exactly once into a [frame -> unit]
     closure; loops re-run the closure, not the compiler;
   - external calls (the MPI_* symbols a fully lowered module contains) are
     pre-bound at compile time: the dispatch op handed to the externs
     handler is built once per call site, and arguments are boxed only at
     this boundary.

   Supported input is everything [Driver.Runtime_link] feeds the
   interpreter after full lowering — func/scf/arith/memref plus
   llvm-style external calls — as well as the mpi/dmp dialect ops (which
   dispatch to the externs handler like any unknown op).  Ops that require
   interpretation at a higher level (stencil.*, gpu.launch, hls streams)
   raise [Unsupported] at compile time; the interpreter remains the
   executor — and the differential-testing oracle — for those.

   Compilation is rank-independent: the extern handler is NOT baked into
   the closures — they read it from the executing frame — so one compiled
   module ([cmodule], immutable once [compile] returns) is shared by
   every rank, and [instantiate] only pairs it with a rank's externs.
   That is the once-per-program / once-per-rank split the artifact cache
   ([Service.Artifact]) builds on: N ranks perform exactly one closure
   compilation between them instead of one each. *)

open Ir
module R = Interp.Rtval

(* Re-exported: the library's entry module shadows its siblings, and the
   pool is part of the executor's public surface (tests drive it
   directly). *)
module Domain_pool = Domain_pool

exception Unsupported of string

let unsupported fmt =
  Format.kasprintf (fun s -> raise (Unsupported s)) fmt

(* ---------- frames and slots ---------- *)

(* [ext] is the per-rank extern handler: keeping it in the frame (rather
   than capturing it in the compiled closures) is what makes compilation
   rank-independent.  [pool] is the rank's omp worker pool ([None] on
   sequential instances and inside worker frames — workers never spawn
   nested parallelism). *)
type frame = {
  ints : int array;
  flts : float array;
  objs : R.t array;
  ext : Interp.Executor.externs;
  pool : Domain_pool.t option;
}

type kind = Kint | Kflt | Kobj

let kind_of_ty (t : Typesys.ty) : kind =
  match t with
  | Typesys.Int _ | Typesys.Index -> Kint
  | Typesys.Float _ -> Kflt
  | _ -> Kobj

type slot = kind * int

(* A compiled single-block region body: straight-line statements plus
   readers for the terminator's operands (empty when the block does not
   end in scf.yield / func.return / stencil.return). *)
type cblock = {
  stmts : (frame -> unit) array;
  ret : (frame -> R.t) array;
}

type cfunc = {
  cf_name : string;
  cf_params : slot array;
  cf_n_int : int;
  cf_n_flt : int;
  cf_n_obj : int;
  cf_body : cblock;
}

(* The rank-independent compiled module: immutable after [compile]
   returns (every function with a body is compiled eagerly), so it is
   safe to share across domains and to cache across runs. *)
type cmodule = {
  funcs : (string, Op.t) Hashtbl.t;  (* source functions by sym_name *)
  compiled : (string, cfunc) Hashtbl.t;
}

(* A per-rank instance: the shared compiled module plus this rank's
   extern handler and (optional) omp worker pool. *)
type prog = {
  cm : cmodule;
  prog_externs : Interp.Executor.externs;
  prog_pool : Domain_pool.t option;
}

(* Per-function compilation state: the slot table maps SSA value ids to
   their frame slot; counters size the three frame arrays.  [omp_nt] is
   [Some n] while compiling the body of an omp.parallel region carrying
   num_threads=[n] (0 when the attribute is unset): scf.parallel ops seen
   under it compile to pool-scheduled loops. *)
type fctx = {
  cm : cmodule;
  slots : (int, slot) Hashtbl.t;
  mutable n_int : int;
  mutable n_flt : int;
  mutable n_obj : int;
  mutable omp_nt : int option;
}

let def (f : fctx) (v : Value.t) : slot =
  let k = kind_of_ty (Value.ty v) in
  let s =
    match k with
    | Kint ->
        let s = f.n_int in
        f.n_int <- s + 1;
        (Kint, s)
    | Kflt ->
        let s = f.n_flt in
        f.n_flt <- s + 1;
        (Kflt, s)
    | Kobj ->
        let s = f.n_obj in
        f.n_obj <- s + 1;
        (Kobj, s)
  in
  Hashtbl.replace f.slots (Value.id v) s;
  s

let slot_exn (f : fctx) (v : Value.t) : slot =
  match Hashtbl.find_opt f.slots (Value.id v) with
  | Some s -> s
  | None ->
      unsupported "compile: value %%%d is used before it is defined"
        (Value.id v)

(* ---------- slot accessors (compiled once per operand) ---------- *)

let get_int f v : frame -> int =
  match slot_exn f v with
  | Kint, i -> fun fr -> Array.unsafe_get fr.ints i
  | Kflt, _ -> fun _ -> R.error "expected integer value, got float"
  | Kobj, i -> fun fr -> R.as_int fr.objs.(i)

let get_flt f v : frame -> float =
  match slot_exn f v with
  | Kflt, i -> fun fr -> Array.unsafe_get fr.flts i
  | Kint, i -> fun fr -> float_of_int (Array.unsafe_get fr.ints i)
  | Kobj, i -> fun fr -> R.as_float fr.objs.(i)

let get_buf f v : frame -> R.buffer =
  match slot_exn f v with
  | Kobj, i -> fun fr -> R.as_buffer fr.objs.(i)
  | _ -> fun _ -> R.error "expected buffer value"

(* Boxed read/write, used only at slow boundaries (externs, calls, carried
   loop values, block results). *)
let read f v : frame -> R.t =
  match slot_exn f v with
  | Kint, i -> fun fr -> R.Ri fr.ints.(i)
  | Kflt, i -> fun fr -> R.Rf fr.flts.(i)
  | Kobj, i -> fun fr -> fr.objs.(i)

let write_slot ((k, i) : slot) : frame -> R.t -> unit =
  match k with
  | Kint -> fun fr v -> fr.ints.(i) <- R.as_int v
  | Kflt -> fun fr v -> fr.flts.(i) <- R.as_float v
  | Kobj -> fun fr v -> fr.objs.(i) <- v

(* ---------- fast buffer indexing (specialized per rank) ---------- *)

let oob i l s c =
  R.error "index %d out of bounds [%d, %d) (logical coordinate %d)" i l
    (l + s) c

let idx1 (b : R.buffer) c0 =
  match (b.R.shape, b.R.lo) with
  | [ s0 ], [ l0 ] ->
      let i0 = c0 - l0 in
      if i0 < 0 || i0 >= s0 then oob i0 l0 s0 c0;
      i0
  | _ -> R.error "rank mismatch in buffer access"

let idx2 (b : R.buffer) c0 c1 =
  match (b.R.shape, b.R.lo) with
  | [ s0; s1 ], [ l0; l1 ] ->
      let i0 = c0 - l0 in
      if i0 < 0 || i0 >= s0 then oob i0 l0 s0 c0;
      let i1 = c1 - l1 in
      if i1 < 0 || i1 >= s1 then oob i1 l1 s1 c1;
      (i0 * s1) + i1
  | _ -> R.error "rank mismatch in buffer access"

let idx3 (b : R.buffer) c0 c1 c2 =
  match (b.R.shape, b.R.lo) with
  | [ s0; s1; s2 ], [ l0; l1; l2 ] ->
      let i0 = c0 - l0 in
      if i0 < 0 || i0 >= s0 then oob i0 l0 s0 c0;
      let i1 = c1 - l1 in
      if i1 < 0 || i1 >= s1 then oob i1 l1 s1 c1;
      let i2 = c2 - l2 in
      if i2 < 0 || i2 >= s2 then oob i2 l2 s2 c2;
      ((((i0 * s1) + i1) * s2) + i2)
  | _ -> R.error "rank mismatch in buffer access"

(* [frame -> buffer -> linear index] for a coordinate operand list. *)
let index_fun (coords : (frame -> int) array) : frame -> R.buffer -> int =
  match coords with
  | [||] -> fun _ _ -> 0
  | [| g0 |] -> fun fr b -> idx1 b (g0 fr)
  | [| g0; g1 |] -> fun fr b -> idx2 b (g0 fr) (g1 fr)
  | [| g0; g1; g2 |] -> fun fr b -> idx3 b (g0 fr) (g1 fr) (g2 fr)
  | gs ->
      fun fr b ->
        R.linear_index b (Array.to_list (Array.map (fun g -> g fr) gs))

(* ---------- helpers ---------- *)

let is_terminator = function
  | "scf.yield" | "func.return" | "stencil.return" -> true
  | _ -> false

let exec_block (cb : cblock) (fr : frame) : unit =
  let stmts = cb.stmts in
  for i = 0 to Array.length stmts - 1 do
    (Array.unsafe_get stmts i) fr
  done

let new_frame ~(ext : Interp.Executor.externs) ~pool (cf : cfunc) : frame =
  {
    ints = Array.make cf.cf_n_int 0;
    flts = Array.make cf.cf_n_flt 0.;
    objs = Array.make cf.cf_n_obj R.Runit;
    ext;
    pool;
  }

(* The extern handler bound into worker frames: workers compute only.
   Any extern call (the MPI_* ABI included) from a worker is a lowering
   or scheduling bug and must fail loudly rather than race on the
   mailbox substrate — the rank's main domain is the only one allowed
   to communicate. *)
let worker_externs : Interp.Executor.externs =
 fun op _ ->
  R.error
    "omp worker: extern call %s from a worker domain (workers compute \
     only; the rank's main domain owns the MPI substrate)"
    op.Op.name

(* A worker's private copy of the caller's frame: scalar slots are
   copied (each participant has its own induction variables and
   temporaries), buffer slots share the underlying storage by reference
   — scf.parallel iterations write disjoint buffer regions, which is
   exactly the shared-memory part of the model.  [pool = None] forbids
   nested parallelism; the poisoned externs forbid communication. *)
let worker_frame (fr : frame) : frame =
  {
    ints = Array.copy fr.ints;
    flts = Array.copy fr.flts;
    objs = Array.copy fr.objs;
    ext = worker_externs;
    pool = None;
  }

(* Comparison on the already-computed [compare] result; the predicate
   string is resolved at compile time. *)
let pred_fn (op : Op.t) : int -> bool =
  match Op.string_attr_exn op "predicate" with
  | "eq" -> fun c -> c = 0
  | "ne" -> fun c -> c <> 0
  | "lt" -> fun c -> c < 0
  | "le" -> fun c -> c <= 0
  | "gt" -> fun c -> c > 0
  | "ge" -> fun c -> c >= 0
  | p -> unsupported "unknown predicate %s" p

(* ---------- the op compiler ---------- *)

(* Returns [None] for ops that compile to nothing (dealloc). *)
let rec compile_op (f : fctx) (op : Op.t) : (frame -> unit) option =
  let name = op.Op.name in
  let operand i = Op.operand_exn op i in
  let int1 () = get_int f (operand 0) in
  let flt_binop g =
    let a = get_flt f (operand 0) and b = get_flt f (operand 1) in
    let _, d = def f (Op.result_exn op) in
    Some (fun fr -> fr.flts.(d) <- g (a fr) (b fr))
  in
  let int_binop g =
    let a = get_int f (operand 0) and b = get_int f (operand 1) in
    let _, d = def f (Op.result_exn op) in
    Some (fun fr -> fr.ints.(d) <- g (a fr) (b fr))
  in
  match name with
  | "arith.constant" -> (
      let res = Op.result_exn op in
      match (Op.attr_exn op "value", def f res) with
      | Typesys.Int_attr (v, _), (Kint, d) ->
          Some (fun fr -> fr.ints.(d) <- v)
      | Typesys.Float_attr (v, _), (Kflt, d) ->
          Some (fun fr -> fr.flts.(d) <- v)
      | Typesys.Int_attr (v, _), (Kflt, d) ->
          let fv = float_of_int v in
          Some (fun fr -> fr.flts.(d) <- fv)
      | _ -> unsupported "arith.constant: bad value attribute")
  | "arith.addi" -> int_binop ( + )
  | "arith.subi" -> int_binop ( - )
  | "arith.muli" -> int_binop ( * )
  | "arith.divsi" ->
      int_binop (fun a b ->
          if b = 0 then R.error "division by zero" else a / b)
  | "arith.remsi" ->
      int_binop (fun a b ->
          if b = 0 then R.error "remainder by zero" else a mod b)
  | "arith.andi" -> int_binop ( land )
  | "arith.ori" -> int_binop ( lor )
  | "arith.xori" -> int_binop ( lxor )
  | "arith.addf" -> flt_binop ( +. )
  | "arith.subf" -> flt_binop ( -. )
  | "arith.mulf" -> flt_binop ( *. )
  | "arith.divf" -> flt_binop ( /. )
  | "arith.maximumf" -> flt_binop Float.max
  | "arith.minimumf" -> flt_binop Float.min
  | "arith.negf" ->
      let a = get_flt f (operand 0) in
      let _, d = def f (Op.result_exn op) in
      Some (fun fr -> fr.flts.(d) <- -.a fr)
  | "arith.cmpi" ->
      let p = pred_fn op in
      let a = get_int f (operand 0) and b = get_int f (operand 1) in
      let _, d = def f (Op.result_exn op) in
      Some
        (fun fr ->
          fr.ints.(d) <- (if p (Int.compare (a fr) (b fr)) then 1 else 0))
  | "arith.cmpf" ->
      let p = pred_fn op in
      let a = get_flt f (operand 0) and b = get_flt f (operand 1) in
      let _, d = def f (Op.result_exn op) in
      Some
        (fun fr ->
          fr.ints.(d) <- (if p (Float.compare (a fr) (b fr)) then 1 else 0))
  | "arith.select" -> (
      let c = int1 () in
      match def f (Op.result_exn op) with
      | Kint, d ->
          let a = get_int f (operand 1) and b = get_int f (operand 2) in
          Some (fun fr -> fr.ints.(d) <- (if c fr <> 0 then a fr else b fr))
      | Kflt, d ->
          let a = get_flt f (operand 1) and b = get_flt f (operand 2) in
          Some (fun fr -> fr.flts.(d) <- (if c fr <> 0 then a fr else b fr))
      | Kobj, d ->
          let a = read f (operand 1) and b = read f (operand 2) in
          Some (fun fr -> fr.objs.(d) <- (if c fr <> 0 then a fr else b fr)))
  | "arith.index_cast" ->
      let a = int1 () in
      let _, d = def f (Op.result_exn op) in
      Some (fun fr -> fr.ints.(d) <- a fr)
  | "arith.sitofp" ->
      let a = int1 () in
      let _, d = def f (Op.result_exn op) in
      Some (fun fr -> fr.flts.(d) <- float_of_int (a fr))
  | "arith.fptosi" ->
      let a = get_flt f (operand 0) in
      let _, d = def f (Op.result_exn op) in
      Some (fun fr -> fr.ints.(d) <- int_of_float (a fr))
  | "arith.extf" | "arith.truncf" ->
      let a = get_flt f (operand 0) in
      let _, d = def f (Op.result_exn op) in
      Some (fun fr -> fr.flts.(d) <- a fr)
  | "memref.alloc" | "gpu.alloc" -> (
      match Value.ty (Op.result_exn op) with
      | Typesys.Memref (shape, elt) ->
          let _, d = def f (Op.result_exn op) in
          Some (fun fr -> fr.objs.(d) <- R.Rbuf (R.alloc_buffer shape elt))
      | _ -> unsupported "%s: result must be a memref" name)
  | "memref.dealloc" | "gpu.dealloc" -> None
  | "memref.load" -> (
      let gb = get_buf f (operand 0) in
      let idx =
        index_fun
          (Array.of_list (List.map (get_int f) (List.tl op.Op.operands)))
      in
      match def f (Op.result_exn op) with
      | Kflt, d ->
          Some
            (fun fr ->
              let b = gb fr in
              let i = idx fr b in
              fr.flts.(d) <-
                (match b.R.data with
                | R.F a -> Array.unsafe_get a i
                | R.I a -> float_of_int a.(i)))
      | Kint, d ->
          Some
            (fun fr ->
              let b = gb fr in
              let i = idx fr b in
              fr.ints.(d) <-
                (match b.R.data with
                | R.I a -> Array.unsafe_get a i
                | R.F _ -> R.error "expected integer value, got float"))
      | Kobj, _ -> unsupported "memref.load: non-scalar element")
  | "memref.store" -> (
      let gb = get_buf f (operand 1) in
      let idx =
        index_fun
          (Array.of_list
             (List.map (get_int f) (List.tl (List.tl op.Op.operands))))
      in
      match slot_exn f (operand 0) with
      | Kflt, _ ->
          let gv = get_flt f (operand 0) in
          Some
            (fun fr ->
              let b = gb fr in
              let i = idx fr b in
              match b.R.data with
              | R.F a -> Array.unsafe_set a i (gv fr)
              | R.I a -> a.(i) <- int_of_float (gv fr))
      | Kint, _ ->
          let gv = get_int f (operand 0) in
          Some
            (fun fr ->
              let b = gb fr in
              let i = idx fr b in
              match b.R.data with
              | R.I a -> Array.unsafe_set a i (gv fr)
              | R.F a -> a.(i) <- float_of_int (gv fr))
      | Kobj, _ -> unsupported "memref.store: non-scalar value")
  | "memref.copy" | "gpu.memcpy" ->
      let gsrc = get_buf f (operand 0) and gdst = get_buf f (operand 1) in
      Some (fun fr -> R.blit ~src: (gsrc fr) ~dst: (gdst fr))
  | "memref.copy_strided" ->
      (* All geometry is static: bake the box/stride arrays into the
         closure once, so each execution is just Array.blit runs. *)
      let gsrc = get_buf f (operand 0) and gdst = get_buf f (operand 1) in
      let spec = Dialects.Memref.strided_spec_of op in
      let sizes = Array.of_list spec.Dialects.Memref.cs_sizes in
      let src_off = spec.Dialects.Memref.cs_src_offset in
      let src_strides = Array.of_list spec.Dialects.Memref.cs_src_strides in
      let dst_off = spec.Dialects.Memref.cs_dst_offset in
      let dst_strides = Array.of_list spec.Dialects.Memref.cs_dst_strides in
      Some
        (fun fr ->
          R.blit_strided ~src: (gsrc fr) ~dst: (gdst fr) ~sizes ~src_off
            ~src_strides ~dst_off ~dst_strides)
  | "memref.extract_ptr" ->
      let a = read f (operand 0) in
      let _, d = def f (Op.result_exn op) in
      Some (fun fr -> fr.objs.(d) <- a fr)
  | "scf.for" -> Some (compile_for f op)
  | "scf.if" -> Some (compile_if f op)
  | "scf.parallel" -> Some (compile_parallel f op)
  | "omp.parallel" ->
      (* The region compiles with the omp flag set, so scf.parallel ops
         inside it become pool-scheduled (see [compile_parallel]); the
         wrapper itself is just the body — fork/join happens at the
         scf.parallel level, once per region. *)
      let saved = f.omp_nt in
      f.omp_nt <- Some (Dialects.Omp.num_threads_of op);
      let body = compile_block f (Op.single_block (List.hd op.Op.regions)) in
      f.omp_nt <- saved;
      if Array.length body.ret > 0 then
        unsupported
          "omp.parallel: region yields %d value(s) but the op has no results"
          (Array.length body.ret);
      Some (fun fr -> exec_block body fr)
  | "hls.dataflow" | "hls.stage" ->
      let body = compile_block f (Op.single_block (List.hd op.Op.regions)) in
      if Array.length body.ret > 0 then
        unsupported
          "%s: region yields %d value(s) but the op has no results" name
          (Array.length body.ret);
      Some (fun fr -> exec_block body fr)
  | "func.call" -> Some (compile_call f op)
  | "func.return" | "scf.yield" | "stencil.return" ->
      unsupported "%s: terminator in non-terminating position" name
  | _
    when String.length name > 8
         && (String.sub name 0 8 = "stencil." || String.sub name 0 4 = "hls.")
    ->
      unsupported "compiled executor: %s requires the interpreter" name
  | "gpu.launch" ->
      unsupported "compiled executor: %s requires the interpreter" name
  | _ ->
      (* Unknown op (mpi./dmp. dialects): pre-bind the extern dispatch —
         the op record itself is the compile-time binding; the handler
         comes from the executing rank's frame. *)
      let arg_readers =
        Array.of_list (List.map (read f) op.Op.operands)
      in
      let writers =
        Array.of_list (List.map (fun r -> write_slot (def f r)) op.Op.results)
      in
      Some
        (fun fr ->
          let args =
            Array.to_list (Array.map (fun r -> r fr) arg_readers)
          in
          match fr.ext op args with
          | Some results -> write_results op writers fr results
          | None -> R.error "compiled executor: unhandled op %s" name)

and write_results (op : Op.t) (writers : (frame -> R.t -> unit) array) fr
    (results : R.t list) : unit =
  let n = List.length results in
  if n <> Array.length writers then
    R.error "%s: produced %d values for %d results" op.Op.name n
      (Array.length writers);
  List.iteri (fun i v -> writers.(i) fr v) results

and compile_for (f : fctx) (op : Op.t) : frame -> unit =
  let glo = get_int f (Op.operand_exn op 0) in
  let ghi = get_int f (Op.operand_exn op 1) in
  let gstep = get_int f (Op.operand_exn op 2) in
  let inits =
    match op.Op.operands with _ :: _ :: _ :: rest -> rest | _ -> []
  in
  let init_readers = Array.of_list (List.map (read f) inits) in
  let blk = Op.single_block (List.hd op.Op.regions) in
  let iv, iter_args =
    match blk.Op.args with
    | iv :: rest -> (iv, rest)
    | [] -> unsupported "scf.for: body block needs an induction argument"
  in
  let iv_slot =
    match def f iv with
    | Kint, i -> i
    | _ -> unsupported "scf.for: induction variable must be an index"
  in
  let arg_writers =
    Array.of_list (List.map (fun a -> write_slot (def f a)) iter_args)
  in
  let body = compile_block f blk in
  let n_carried = Array.length arg_writers in
  if Array.length init_readers <> n_carried then
    unsupported "scf.for: %d init operands for %d iteration arguments"
      (Array.length init_readers) n_carried;
  if n_carried > 0 && Array.length body.ret <> n_carried then
    unsupported "scf.for: yield arity %d does not match %d carried values"
      (Array.length body.ret) n_carried;
  let res_writers =
    Array.of_list (List.map (fun r -> write_slot (def f r)) op.Op.results)
  in
  (* Carried-slot readers, for the final copy into the result slots. *)
  let arg_readers = Array.of_list (List.map (read f) iter_args) in
  if Array.length res_writers <> 0
     && Array.length res_writers <> n_carried
  then
    unsupported "scf.for: %d results for %d carried values"
      (Array.length res_writers) n_carried;
  if n_carried = 0 then fun fr ->
    let lo = glo fr and hi = ghi fr and step = gstep fr in
    if step <= 0 then R.error "scf.for: step must be positive";
    let i = ref lo in
    while !i < hi do
      Array.unsafe_set fr.ints iv_slot !i;
      exec_block body fr;
      i := !i + step
    done
  else fun fr ->
    let lo = glo fr and hi = ghi fr and step = gstep fr in
    if step <= 0 then R.error "scf.for: step must be positive";
    for k = 0 to n_carried - 1 do
      arg_writers.(k) fr (init_readers.(k) fr)
    done;
    (* Fresh per entry: the loop body may re-enter this closure through a
       recursive call, so no mutable state is shared across invocations. *)
    let tmp = Array.make n_carried R.Runit in
    let i = ref lo in
    while !i < hi do
      fr.ints.(iv_slot) <- !i;
      exec_block body fr;
      (* Parallel move: read every yielded value before writing any
         carried slot (yield may permute the carried values). *)
      for k = 0 to n_carried - 1 do
        tmp.(k) <- body.ret.(k) fr
      done;
      for k = 0 to n_carried - 1 do
        arg_writers.(k) fr tmp.(k)
      done;
      i := !i + step
    done;
    for k = 0 to Array.length res_writers - 1 do
      res_writers.(k) fr (arg_readers.(k) fr)
    done

and compile_if (f : fctx) (op : Op.t) : frame -> unit =
  let gc = get_int f (Op.operand_exn op 0) in
  let then_b, else_b =
    match op.Op.regions with
    | [ t; e ] ->
        (compile_block f (Op.single_block t),
         compile_block f (Op.single_block e))
    | _ -> unsupported "scf.if needs two regions"
  in
  let res_writers =
    Array.of_list (List.map (fun r -> write_slot (def f r)) op.Op.results)
  in
  let n = Array.length res_writers in
  if (n > Array.length then_b.ret) || (n > Array.length else_b.ret) then
    unsupported "scf.if: a branch yields fewer values than the op results";
  if n = 0 then fun fr ->
    exec_block (if gc fr <> 0 then then_b else else_b) fr
  else fun fr ->
    let b = if gc fr <> 0 then then_b else else_b in
    exec_block b fr;
    for k = 0 to n - 1 do
      res_writers.(k) fr (b.ret.(k) fr)
    done

and compile_parallel (f : fctx) (op : Op.t) : frame -> unit =
  let omp_nt = f.omp_nt in
  let lbs, ubs, steps = Dialects.Scf.parallel_bounds op in
  let blk = Op.single_block (List.hd op.Op.regions) in
  if List.length blk.Op.args <> List.length lbs then
    unsupported "scf.parallel: block arity mismatch";
  let dims =
    List.map2
      (fun (lb, ub) (step, arg) ->
        let slot =
          match def f arg with
          | Kint, i -> i
          | _ -> unsupported "scf.parallel: induction must be an index"
        in
        (get_int f lb, get_int f ub, get_int f step, slot))
      (List.combine lbs ubs)
      (List.combine steps blk.Op.args)
  in
  let body = compile_block f blk in
  let rec build = function
    | [] -> fun fr -> exec_block body fr
    | (glo, ghi, gstep, slot) :: rest ->
        let inner = build rest in
        fun fr ->
          let lo = glo fr and hi = ghi fr and step = gstep fr in
          if step <= 0 then R.error "scf.parallel: bad step";
          let i = ref lo in
          while !i < hi do
            fr.ints.(slot) <- !i;
            inner fr;
            i := !i + step
          done
  in
  let seq = build dims in
  match (omp_nt, dims) with
  | None, _ | _, [] -> seq
  | Some nt, (glo0, ghi0, gstep0, slot0) :: rest ->
      (* Inside an omp.parallel region with a worker pool bound to the
         executing frame: chunk the outermost dimension's iteration
         range and let participants grab chunks dynamically through an
         atomic counter.  More chunks than participants (the factor
         below) absorbs imbalance from uneven tile tails; chunk order
         does not affect results — iterations of an scf.parallel are
         independent by construction, and each participant works on its
         own frame copy, so results stay bitwise identical to the
         sequential schedule. *)
      let inner = build rest in
      let chunk_factor = 4 in
      fun fr ->
        match fr.pool with
        | None -> seq fr
        | Some pool ->
            let avail = Domain_pool.size pool in
            let want = if nt > 0 then min nt avail else avail in
            let lo = glo0 fr and hi = ghi0 fr and step = gstep0 fr in
            if step <= 0 then R.error "scf.parallel: bad step";
            let n = if hi > lo then ((hi - lo) + step - 1) / step else 0 in
            if want <= 1 || n <= 1 then seq fr
            else begin
              let nchunks = min n (want * chunk_factor) in
              let next = Atomic.make 0 in
              Domain_pool.run pool (fun p ->
                  if p < want then begin
                    (* Participant 0 is the rank's main domain: it keeps
                       its extern handler (it owns the MPI substrate) but
                       loses the pool, so nested parallel loops inside
                       the body run sequentially instead of re-entering a
                       busy pool.  Workers get a scalar-copy frame with
                       poisoned externs. *)
                    let pfr =
                      if p = 0 then { fr with pool = None }
                      else worker_frame fr
                    in
                    let rec grab () =
                      let c = Atomic.fetch_and_add next 1 in
                      if c < nchunks then begin
                        let k0 = c * n / nchunks
                        and k1 = (c + 1) * n / nchunks in
                        let i = ref (lo + (k0 * step)) in
                        let stop = lo + (k1 * step) in
                        while !i < stop do
                          pfr.ints.(slot0) <- !i;
                          inner pfr;
                          i := !i + step
                        done;
                        grab ()
                      end
                    in
                    grab ()
                  end)
            end

and compile_call (f : fctx) (op : Op.t) : frame -> unit =
  let callee = Op.symbol_attr_exn op "callee" in
  let arg_readers = Array.of_list (List.map (read f) op.Op.operands) in
  let res_writers =
    Array.of_list (List.map (fun r -> write_slot (def f r)) op.Op.results)
  in
  match Hashtbl.find_opt f.cm.funcs callee with
  | Some fop when fop.Op.regions <> [] ->
      (* Internal call: resolved through the memo table on first use, so
         (mutually) recursive functions compile without ordering issues.
         (All functions are compiled eagerly before anything runs, so the
         first-use resolution is a read of the already-populated memo —
         nothing mutates the shared module under concurrent ranks.) *)
      let cm = f.cm in
      let cell = ref None in
      fun fr ->
        let cf =
          match !cell with
          | Some cf -> cf
          | None ->
              let cf = compile_func cm callee in
              cell := Some cf;
              cf
        in
        let args = Array.map (fun r -> r fr) arg_readers in
        write_results op res_writers fr
          (call_cfunc ~ext: fr.ext ~pool: fr.pool cf (Array.to_list args))
  | _ ->
      (* External function: the dispatch op is pre-built once, here. *)
      let stub =
        Op.make "func.call" ~attrs: [ ("callee", Typesys.Symbol_attr callee) ]
      in
      fun fr ->
        let args = Array.to_list (Array.map (fun r -> r fr) arg_readers) in
        (match fr.ext stub args with
        | Some results -> write_results op res_writers fr results
        | None -> R.error "call to undefined function %s" callee)

and compile_block (f : fctx) (blk : Op.block) : cblock =
  let rec go acc = function
    | [] -> (List.rev acc, [||])
    | [ last ] when is_terminator last.Op.name ->
        (List.rev acc,
         Array.of_list (List.map (read f) last.Op.operands))
    | op :: rest -> (
        match compile_op f op with
        | Some s -> go (s :: acc) rest
        | None -> go acc rest)
  in
  let stmts, ret = go [] blk.Op.ops in
  { stmts = Array.of_list stmts; ret }

and compile_func (cm : cmodule) (name : string) : cfunc =
  match Hashtbl.find_opt cm.compiled name with
  | Some cf -> cf
  | None -> (
      match Hashtbl.find_opt cm.funcs name with
      | Some fop when fop.Op.regions <> [] ->
          let f =
            { cm; slots = Hashtbl.create 64; n_int = 0; n_flt = 0;
              n_obj = 0; omp_nt = None }
          in
          let blk = Op.single_block (List.hd fop.Op.regions) in
          let params =
            Array.of_list (List.map (def f) blk.Op.args)
          in
          let body = compile_block f blk in
          let cf =
            {
              cf_name = name;
              cf_params = params;
              cf_n_int = f.n_int;
              cf_n_flt = f.n_flt;
              cf_n_obj = f.n_obj;
              cf_body = body;
            }
          in
          Hashtbl.replace cm.compiled name cf;
          cf
      | _ -> R.error "call to undefined function %s" name)

and call_cfunc ~(ext : Interp.Executor.externs) ?(pool = None) (cf : cfunc)
    (args : R.t list) : R.t list =
  let n = Array.length cf.cf_params in
  if List.length args <> n then
    R.error "%s: expected %d arguments, got %d" cf.cf_name n
      (List.length args);
  let fr = new_frame ~ext ~pool cf in
  List.iteri (fun i v -> write_slot cf.cf_params.(i) fr v) args;
  exec_block cf.cf_body fr;
  Array.to_list (Array.map (fun r -> r fr) cf.cf_body.ret)

(* ---------- the EXECUTOR instance ---------- *)

(* How many closure compilations this process performed: the artifact
   layer's once-per-program discipline is asserted against this counter
   (an N-rank run must bump it exactly once). *)
let compilations = Atomic.make 0
let compile_count () = Atomic.get compilations

let no_externs : Interp.Executor.externs = fun _ _ -> None

module Compiled : Interp.Executor.EXECUTOR = struct
  let name = "compiled"

  type shared_prog = cmodule
  type nonrec prog = prog

  (* Ahead of time: every function with a body compiles before anything
     runs, so unsupported ops surface as [Unsupported] here, not mid-run,
     and the returned module is immutable — ranks and cached runs share
     it without synchronization. *)
  let compile (m : Op.t) : cmodule =
    Obs.Trace.with_span ~cat: "exec" "closure-compile" (fun () ->
        Atomic.incr compilations;
        let funcs = Hashtbl.create 16 in
        List.iter
          (fun (op : Op.t) ->
            if op.Op.name = "func.func" then
              match Op.attr op "sym_name" with
              | Some (Typesys.String_attr name) -> Hashtbl.replace funcs name op
              | _ -> ())
          (Op.module_ops m);
        let cm = { funcs; compiled = Hashtbl.create 16 } in
        Hashtbl.iter
          (fun name (fop : Op.t) ->
            if fop.Op.regions <> [] then ignore (compile_func cm name))
          funcs;
        cm)

  (* [threads > 1] spins up this instance's worker pool; the domains
     are joined by [release], which every instance owner must call (the
     SPMD rank bodies do, under Fun.protect). *)
  let instantiate ?(externs = no_externs) ?(threads = 1) (cm : cmodule) :
      prog =
    let pool =
      if threads > 1 then Some (Domain_pool.create threads) else None
    in
    { cm; prog_externs = externs; prog_pool = pool }

  let release (prog : prog) = Option.iter Domain_pool.shutdown prog.prog_pool

  let run (prog : prog) (callee : string) (args : R.t list) : R.t list =
    match Hashtbl.find_opt prog.cm.compiled callee with
    | Some cf ->
        call_cfunc ~ext: prog.prog_externs ~pool: prog.prog_pool cf args
    | None -> (
        (* External function: same stub dispatch as the interpreter. *)
        let stub =
          Op.make "func.call"
            ~attrs: [ ("callee", Typesys.Symbol_attr callee) ]
        in
        match prog.prog_externs stub args with
        | Some results -> results
        | None -> R.error "call to undefined function %s" callee)
end

let executor : Interp.Executor.t = Interp.Executor.pack (module Compiled)

(* Register with the executor registry so [Interp.Executor.of_name]
   resolves "compiled" wherever this library is linked. *)
let () = Interp.Executor.register executor
