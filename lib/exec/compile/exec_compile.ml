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
     [Interp.Rtval.t array] for buffers and the rest);
   - each op and region is compiled exactly once into a [frame -> unit]
     closure; loops re-run the closure, not the compiler.  An op whose
     operands sit in int/float slots reads and writes those arrays
     directly with its operator inlined: without flambda, a [frame ->
     float] accessor or a [float -> float -> float] operator closure boxes
     every float it returns, so only operands of another kind (an int read
     as a float, a boxed object) go through such accessors;
   - a perfect nest of [scf.for] loops without carried values, whose
     innermost body is only affine index arithmetic, float loads/stores
     and float arith, runs as one generated C function (see "native loop
     nests" below): the entry check, in OCaml, binds each access at the
     corners of the nest's iteration box, and the C loops read and write
     the flat float storage at [off + sum_l j_l * stride_l].  The C is
     built with cc at the module's first execution (one cc run per
     module, into a process-wide table keyed by the C text), never at
     [compile]; an entry that fails its check, or a process without cc,
     runs the per-op closures;
   - external calls (the MPI_* symbols a fully lowered module contains) are
     pre-bound at compile time: the dispatch op handed to the externs
     handler is built once per call site, and arguments are boxed only at
     this boundary.

   The hot path allocates nothing per cell update: the allocation test in
   test_exec_compile.ml pins the minor-heap words of a lowered heat2d run
   against its grid size.

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
   nested parallelism).  [fbufs] holds the float storage a native nest
   binds at entry, one cell per access (see [bind_access]). *)
type frame = {
  ints : int array;
  flts : float array;
  objs : R.t array;
  fbufs : float array array;
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

(* ---------- native loop nest descriptions (see "native loop nests") ---------- *)

(* An affine body int [base + sum_l coef_l * iv_l]: [ab] and [ac.(l)] are
   the int slots the entry program fills; a structurally zero coefficient
   is the shared [zero] slot. *)
type aff = { ab : int; ac : int array }

(* One step of the entry program, over int slots. *)
type aff_op =
  | Aset of int * int  (* d <- constant *)
  | Aadd of int * int * int  (* d <- x + y *)
  | Asub of int * int * int  (* d <- x - y *)
  | Amul of int * int * int  (* d <- x * y *)

(* A float access of the body: [buf] is the objs slot of its buffer and
   [dims] its coordinates.  Binding stores the buffer's storage in
   [fbufs.(fb)], its linear index at the first corner in [off] and its
   stride per level in [str] (all int slots). *)
type access = {
  buf : int;
  dims : aff array;
  fb : int;
  off : int;
  str : int array;
}

(* A nest level: the int slots its bounds are read from at entry, and the
   one its trip count is written to. *)
type level = { lo : int; hi : int; step : int; trip : int }

type nest = {
  n_entry : aff_op array;
  n_lvl : level array;  (* outermost first *)
  n_acc : access array;
  n_fc_slot : int array;  (* body float constants: their slots ... *)
  n_fc_val : float array;  (* ... and values *)
  n_text : string Lazy.t;  (* the C function, printed at first lookup *)
  mutable n_fn : nativeint;  (* the loaded kernel; 0n runs per op *)
}

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
  cf_n_fbuf : int;
  cf_body : cblock;
  cf_loops : int;  (* innermost scf.for loops in the body *)
  cf_nests : nest list;  (* native loop nests, one innermost loop each *)
}

(* The rank-independent compiled module: immutable after [compile]
   returns (every function with a body is compiled eagerly), so it is
   safe to share across domains and to cache across runs. *)
type cmodule = {
  funcs : (string, Op.t) Hashtbl.t;  (* source functions by sym_name *)
  compiled : (string, cfunc) Hashtbl.t;
  natives : bool Atomic.t;  (* its nests' kernels are looked up or built *)
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
  mutable n_fbuf : int;
  mutable omp_nt : int option;
  mutable loops : int;
  mutable nests : nest list;
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

(* A fresh int slot that no SSA value owns (kernel entry state). *)
let scratch_int (f : fctx) : int =
  let s = f.n_int in
  f.n_int <- s + 1;
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

(* ---------- direct slot operands (no boxing) ---------- *)

(* The flts slot holding float operand [v].  An operand of another kind
   (an int read as a float, a boxed object) is converted into a scratch
   float slot by a closure that runs before the op: the boxing accessor
   stays off the float-to-float path. *)
let flt_operand (f : fctx) v : int * (frame -> unit) list =
  match slot_exn f v with
  | Kflt, i -> (i, [])
  | _ ->
      let g = get_flt f v in
      let s = f.n_flt in
      f.n_flt <- s + 1;
      (s, [ (fun fr -> fr.flts.(s) <- g fr) ])

(* The ints slot holding integer operand [v], converted as above. *)
let int_operand (f : fctx) v : int * (frame -> unit) list =
  match slot_exn f v with
  | Kint, i -> (i, [])
  | _ ->
      let g = get_int f v in
      let s = scratch_int f in
      (s, [ (fun fr -> fr.ints.(s) <- g fr) ])

(* [run], preceded by the operand conversions it needs. *)
let after (convs : (frame -> unit) list) (run : frame -> unit) : frame -> unit
    =
  match convs with
  | [] -> run
  | _ ->
      fun fr ->
        List.iter (fun c -> c fr) convs;
        run fr

(* Result slots of a known kind: the direct closures write them unchecked,
   so a result typed otherwise is rejected here. *)
let def_int (f : fctx) v =
  match def f v with
  | Kint, d -> d
  | _ -> unsupported "value %%%d: expected an integer result" (Value.id v)

let def_flt (f : fctx) v =
  match def f v with
  | Kflt, d -> d
  | _ -> unsupported "value %%%d: expected a float result" (Value.id v)

(* Unchecked slot access at a known element type: the type annotation
   specializes the primitive, so a float never leaves its array boxed.
   Slot indices come from [def], so they are always in range. *)
let[@inline] iget (v : int array) i = Array.unsafe_get v i
let[@inline] iset (v : int array) i (x : int) = Array.unsafe_set v i x
let[@inline] fget (v : float array) i = Array.unsafe_get v i
let[@inline] fset (v : float array) i (x : float) = Array.unsafe_set v i x

(* [d <- a op b] over int slots. *)
let int_binop name a b d : frame -> unit =
  match name with
  | "arith.addi" -> fun { ints = v; _ } -> iset v d (iget v a + iget v b)
  | "arith.subi" -> fun { ints = v; _ } -> iset v d (iget v a - iget v b)
  | "arith.muli" -> fun { ints = v; _ } -> iset v d (iget v a * iget v b)
  | "arith.divsi" ->
      fun { ints = v; _ } ->
        let y = iget v b in
        if y = 0 then R.error "division by zero" else iset v d (iget v a / y)
  | "arith.remsi" ->
      fun { ints = v; _ } ->
        let y = iget v b in
        if y = 0 then R.error "remainder by zero"
        else iset v d (iget v a mod y)
  | "arith.andi" -> fun { ints = v; _ } -> iset v d (iget v a land iget v b)
  | "arith.ori" -> fun { ints = v; _ } -> iset v d (iget v a lor iget v b)
  | "arith.xori" -> fun { ints = v; _ } -> iset v d (iget v a lxor iget v b)
  | _ -> unsupported "unknown int binop %s" name

(* [d <- a op b] over float slots. *)
let flt_binop name a b d : frame -> unit =
  match name with
  | "arith.addf" -> fun { flts = v; _ } -> fset v d (fget v a +. fget v b)
  | "arith.subf" -> fun { flts = v; _ } -> fset v d (fget v a -. fget v b)
  | "arith.mulf" -> fun { flts = v; _ } -> fset v d (fget v a *. fget v b)
  | "arith.divf" -> fun { flts = v; _ } -> fset v d (fget v a /. fget v b)
  | "arith.maximumf" ->
      fun { flts = v; _ } -> fset v d (Float.max (fget v a) (fget v b))
  | "arith.minimumf" ->
      fun { flts = v; _ } -> fset v d (Float.min (fget v a) (fget v b))
  | _ -> unsupported "unknown float binop %s" name

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

let is_loop (o : Op.t) = o.Op.name = "scf.for" || o.Op.name = "scf.parallel"

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
    fbufs = Array.make cf.cf_n_fbuf [||];
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
    fbufs = Array.copy fr.fbufs;
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

(* ---------- native loop nests ---------- *)

(* A perfect nest of scf.for loops without carried values runs as one
   generated C function.  Its innermost body holds only

   - index arithmetic affine in the nest's induction variables (addi/subi,
     index_cast, int constants, muli by a loop-invariant factor),
   - float memref.load/memref.store,
   - float arith (binops, negf, extf/truncf, constants, cmpf, float
     select),

   and each enclosing loop's body only such index arithmetic and the next
   loop, whose bounds are invariant over the nest.  Every body int is then
   [base + sum_l coef_l * iv_l], with [base] and the [coef_l] computed
   once per entry by a short int-slot program, so each access's linear
   index is [off + sum_l j_l * str_l] over the nest's iteration counters
   [j_l].

   The entry check stays in OCaml: it binds every access from its
   buffer's [shape]/[lo] and checks its coordinates at the corners of the
   iteration box, which covers every iteration in between because they
   are affine.  An entry that fails (an index out of range, an int-typed
   or non-buffer operand, a rank mismatch, a step that is not positive, a
   trip count or stride that could wrap) runs the per-op closures
   instead, so errors and partial writes are exactly the per-op path's.
   Binding writes only preallocated frame cells ([ints] and [flts] slots,
   [fbufs]): an entry allocates nothing.

   The C function keeps the loop order and the body's op order over the
   flat storage, in IEEE doubles: no [restrict] (accesses may alias), no
   contraction, no [-ffast-math]; [maximumf]/[minimumf] transliterate
   [Float.max]/[Float.min] and [cmpf] [Float.compare].  So it is
   bitwise-equal to the interpreter.  Float values stay out of the text:
   the kernel reads every float operand from its frame slot (the entry
   writes body constants there), so programs that differ only in a
   coefficient share one kernel.

   Kernels are built at a module's first execution, never at [compile]:
   all of a module's nests not yet loaded go through one [cc] call into a
   shared object that is dlopen'd and unlinked, and land in a
   process-wide table keyed by their C text.  A kernel depends only on its
   text, so the table outlives any cached module and grows only with
   distinct loop shapes. *)

external nk_dlopen : string -> nativeint = "nk_dlopen"
external nk_dlsym : nativeint -> string -> nativeint = "nk_dlsym"

external nk_call :
  (nativeint[@unboxed]) -> float array -> float array array -> int array -> unit
  = "nk_call_byte" "nk_call"
[@@noalloc]

let run_entry (v : int array) (prog : aff_op array) : unit =
  for j = 0 to Array.length prog - 1 do
    match Array.unsafe_get prog j with
    | Aset (d, c) -> v.(d) <- c
    | Aadd (d, x, y) -> v.(d) <- v.(x) + v.(y)
    | Asub (d, x, y) -> v.(d) <- v.(x) - v.(y)
    | Amul (d, x, y) -> v.(d) <- v.(x) * v.(y)
  done

(* Writes each level's trip count; false when the entry must run per op:
   a step that is not positive, or a range whose length or last step
   wraps. *)
let bind_levels (v : int array) (lv : level array) : bool =
  let ok = ref true and l = ref 0 in
  while !ok && !l < Array.length lv do
    let { lo; hi; step; trip } = Array.unsafe_get lv !l in
    let lo = v.(lo) and hi = v.(hi) and step = v.(step) in
    if step <= 0 || (hi > lo && (hi - lo <= 0 || hi > max_int - step)) then
      ok := false
    else v.(trip) <- (if hi > lo then ((hi - lo - 1) / step) + 1 else 0);
    incr l
  done;
  !ok

(* Checks coordinate [c] of [a], in a dimension of extent [s] and lower
   bound [l], at the corners of the iteration box, and folds it into the
   access's offset and strides (row-major Horner).  The per-op path
   computes the in-dimension index with wrapping int arithmetic; bounding
   each level's [coef * step] by [s / (trips - 1)] keeps every iteration's
   value exact, so in range at the extreme corners means in range
   throughout. *)
let bind_coord (v : int array) (lv : level array) (a : access) (c : aff) s l =
  let i0 = ref (v.(c.ab) - l) in
  for k = 0 to Array.length lv - 1 do
    i0 := !i0 + (v.(c.ac.(k)) * v.(lv.(k).lo))
  done;
  let mn = ref !i0 and mx = ref !i0 and ok = ref true in
  for k = 0 to Array.length lv - 1 do
    let n1 = v.(lv.(k).trip) - 1 in
    let dl = if n1 > 0 then v.(c.ac.(k)) * v.(lv.(k).step) else 0 in
    if n1 > 0 then begin
      let q = s / n1 in
      if dl < -q || dl > q then ok := false
      else if dl < 0 then mn := !mn + (dl * n1)
      else mx := !mx + (dl * n1)
    end;
    v.(a.str.(k)) <- (v.(a.str.(k)) * s) + dl
  done;
  v.(a.off) <- (v.(a.off) * s) + !i0;
  !ok && !mn >= 0 && !mx < s

let bind_access (fr : frame) (lv : level array) (a : access) : bool =
  let v = fr.ints in
  match fr.objs.(a.buf) with
  | R.Rbuf { R.data = R.F data; shape; lo; _ } ->
      fr.fbufs.(a.fb) <- data;
      v.(a.off) <- 0;
      for k = 0 to Array.length a.str - 1 do
        v.(a.str.(k)) <- 0
      done;
      let rec dims d shape lo =
        match (shape, lo) with
        | [], [] -> d = Array.length a.dims
        | s :: shape, l :: lo when d < Array.length a.dims ->
            bind_coord v lv a a.dims.(d) s l && dims (d + 1) shape lo
        | _ -> false
      in
      dims 0 shape lo
  | _ -> false

(* Binds an entry of [n]; false when it must run the per-op closures.  An
   empty iteration box binds no access: the kernel then touches no
   memory. *)
let bind_nest (n : nest) (fr : frame) : bool =
  let v = fr.ints in
  run_entry v n.n_entry;
  bind_levels v n.n_lvl
  && begin
       for k = 0 to Array.length n.n_fc_slot - 1 do
         fset fr.flts n.n_fc_slot.(k) n.n_fc_val.(k)
       done;
       let empty = ref false in
       for k = 0 to Array.length n.n_lvl - 1 do
         if v.(n.n_lvl.(k).trip) = 0 then empty := true
       done;
       let ok = ref true and j = ref 0 in
       while (not !empty) && !ok && !j < Array.length n.n_acc do
         ok := bind_access fr n.n_lvl n.n_acc.(!j);
         incr j
       done;
       !ok
     end

(* The iterations of a loop without carried values. *)
let run_loop (stmts : (frame -> unit) array) (fr : frame) iv lo hi step =
  let i = ref lo in
  while !i < hi do
    Array.unsafe_set fr.ints iv !i;
    for j = 0 to Array.length stmts - 1 do
      (Array.unsafe_get stmts j) fr
    done;
    i := !i + step
  done

exception Unfusable

(* The levels of the perfect nest rooted at [root], outermost first, each
   with its loop, induction variable and the ops of its body besides the
   next loop; and the innermost body. *)
let rec nest_levels (op : Op.t) acc =
  if op.Op.name <> "scf.for" || List.length op.Op.operands <> 3 then
    raise Unfusable;
  let blk = Op.single_block (List.hd op.Op.regions) in
  let iv = match blk.Op.args with [ iv ] -> iv | _ -> raise Unfusable in
  let ops = List.filter (fun (o : Op.t) -> not (is_terminator o.Op.name)) blk.Op.ops in
  match List.filter is_loop ops with
  | [] -> (List.rev ((op, iv, []) :: acc), ops)
  | [ inner ] -> nest_levels inner ((op, iv, List.filter (( != ) inner) ops) :: acc)
  | _ -> raise Unfusable

(* [cmpf]'s order is [Float.compare]'s, and [maximumf]/[minimumf] are
   [Float.max]/[Float.min], NaN and signed zeros included. *)
let c_prelude =
  {|#include <math.h>
static inline long nk_cmp(double x, double y) {
  return (long)(x > y) - (long)(x < y) + (long)(x == x) - (long)(y == y);
}
static inline double nk_max(double x, double y) {
  if (y > x || (!signbit(y) && signbit(x))) return isnan(x) ? x : y;
  return isnan(y) ? y : x;
}
static inline double nk_min(double x, double y) {
  if (y > x || (!signbit(y) && signbit(x))) return isnan(y) ? y : x;
  return isnan(x) ? x : y;
}
|}

(* A kernel statement, in the body's op order: prologue reads of frame
   slots, then the body's definitions and stores, named by slot
   ([x<slot>] floats, [c<slot>] conditions) and access index ([b<k>]). *)
type cexp =
  | Load of int
  | Bin of int * string * int
  | Call of string * int * int
  | Neg of int
  | Copy of int
  | Sel of int * int * int

type cstmt =
  | Read_f of int
  | Read_i of int
  | Def of int * cexp
  | Cmp of int * int * int * string
  | Store of int * int

(* The C function of a nest, without its name: printed only when its
   kernel is looked up, never at [compile]. *)
let c_function (lvl : level list) (accs : access list) pro code : string =
  let t = Buffer.create 2048 in
  let pr fmt = Printf.bprintf t fmt in
  let ix k =
    Printf.sprintf "b%d[o%d%s]" k k
      (String.concat ""
         (List.mapi (fun l _ -> Printf.sprintf " + j%d * s%d_%d" l k l) lvl))
  in
  pr "(double *flts, double **bufs, const long *ints)\n{\n";
  List.iteri (fun l lv -> pr "  const long n%d = ints[%d] >> 1;\n" l lv.trip) lvl;
  List.iteri
    (fun k a ->
      pr "  double *b%d = bufs[%d];\n  const long o%d = ints[%d] >> 1" k a.fb k a.off;
      Array.iteri (fun l s -> pr ", s%d_%d = ints[%d] >> 1" k l s) a.str;
      pr ";\n")
    accs;
  let stmt indent = function
    | Read_f i -> pr "%sconst double x%d = flts[%d];\n" indent i i
    | Read_i i -> pr "%sconst long c%d = ints[%d] >> 1;\n" indent i i
    | Cmp (d, x, y, c) -> pr "%sconst long c%d = nk_cmp(x%d, x%d) %s 0;\n" indent d x y c
    | Store (k, x) -> pr "%s%s = x%d;\n" indent (ix k) x
    | Def (d, e) ->
        pr "%sconst double x%d = " indent d;
        (match e with
        | Load k -> pr "%s" (ix k)
        | Bin (x, o, y) -> pr "x%d %s x%d" x o y
        | Call (fn, x, y) -> pr "%s(x%d, x%d)" fn x y
        | Neg x -> pr "-x%d" x
        | Copy x -> pr "x%d" x
        | Sel (c, x, y) -> pr "c%d ? x%d : x%d" c x y);
        pr ";\n"
  in
  List.iter (stmt "  ") pro;
  List.iteri (fun l _ -> pr "  for (long j%d = 0; j%d < n%d; j%d++)\n" l l l l) lvl;
  pr "  {\n";
  List.iter (stmt "    ") code;
  pr "  }\n}\n";
  Buffer.contents t

(* The nest rooted at loop [root], whose body is already compiled (so
   every value has its slot); [None] when it is not a perfect nest of the
   kernel subset. *)
let nest_of (f : fctx) (root : Op.t) : nest option =
  match nest_levels root [] with
  | exception Unfusable -> None
  | levels, body -> (
      let depth = List.length levels in
      let zero = scratch_int f and one = scratch_int f in
      let zeros = Array.make depth zero in
      let entry = ref [ Aset (one, 1); Aset (zero, 0) ] in
      let emit o = entry := o :: !entry in
      let affs = Hashtbl.create 16 and local = Hashtbl.create 16 in
      let ops = body @ List.concat_map (fun (_, _, pre) -> pre) levels in
      List.iter
        (fun (o : Op.t) ->
          List.iter (fun r -> Hashtbl.replace local (Value.id r) ()) o.Op.results)
        ops;
      List.iteri
        (fun l (_, iv, _) ->
          Hashtbl.replace local (Value.id iv) ();
          Hashtbl.replace affs (Value.id iv)
            { ab = zero; ac = Array.init depth (fun k -> if k = l then one else zero) })
        levels;
      let aff_of v =
        match Hashtbl.find_opt affs (Value.id v) with
        | Some a -> a
        | None -> (
            (* An int from outside the nest is invariant, read at entry; a
               body int that is not affine (a cmpf result) cannot index. *)
            match slot_exn f v with
            | Kint, i when not (Hashtbl.mem local (Value.id v)) -> { ab = i; ac = zeros }
            | _ -> raise Unfusable)
      in
      let inv v =
        let a = aff_of v in
        if Array.exists (( <> ) zero) a.ac then raise Unfusable;
        a.ab
      in
      let int_res (op : Op.t) =
        match slot_exn f (Op.result_exn op) with Kint, d -> d | _ -> raise Unfusable
      in
      let bind (op : Op.t) a = Hashtbl.replace affs (Value.id (Op.result_exn op)) a in
      let coef mk x y =
        let c = scratch_int f in
        emit (mk c x y);
        c
      in
      (* Affine index arithmetic: true when [op] is such an op. *)
      let affine (op : Op.t) =
        let operand i = Op.operand_exn op i in
        match op.Op.name with
        | "arith.constant" when kind_of_ty (Value.ty (Op.result_exn op)) = Kint -> (
            match Op.attr_exn op "value" with
            | Typesys.Int_attr (c, _) ->
                let d = int_res op in
                emit (Aset (d, c));
                bind op { ab = d; ac = zeros };
                true
            | _ -> raise Unfusable)
        | "arith.addi" ->
            let x = aff_of (operand 0) and y = aff_of (operand 1) and d = int_res op in
            emit (Aadd (d, x.ab, y.ab));
            bind op
              { ab = d;
                ac =
                  Array.map2
                    (fun a b ->
                      if b = zero then a else if a = zero then b
                      else coef (fun c a b -> Aadd (c, a, b)) a b)
                    x.ac y.ac };
            true
        | "arith.subi" ->
            let x = aff_of (operand 0) and y = aff_of (operand 1) and d = int_res op in
            emit (Asub (d, x.ab, y.ab));
            bind op
              { ab = d;
                ac =
                  Array.map2
                    (fun a b -> if b = zero then a else coef (fun c a b -> Asub (c, a, b)) a b)
                    x.ac y.ac };
            true
        | "arith.muli" ->
            let x = aff_of (operand 0) and y = aff_of (operand 1) and d = int_res op in
            let is_inv a = Array.for_all (( = ) zero) a.ac in
            let x, y =
              if is_inv y then (x, y) else if is_inv x then (y, x) else raise Unfusable
            in
            emit (Amul (d, x.ab, y.ab));
            bind op
              { ab = d;
                ac =
                  Array.map
                    (fun a -> if a = zero then zero else coef (fun c a b -> Amul (c, a, b)) a y.ab)
                    x.ac };
            true
        | "arith.index_cast" ->
            ignore (int_res op);
            bind op (aff_of (operand 0));
            true
        | _ -> false
      in
      (* The C body, and what its prologue reads from the frame: float
         slots (body constants included) and int condition slots. *)
      let code = ref [] and pro = ref [] in
      let pr c = code := c :: !code in
      (* The float and int slots that already have a C name: a body
         result, or a frame slot the prologue reads. *)
      let named_f = Hashtbl.create 16 and named_i = Hashtbl.create 4 in
      let fconsts = ref [] in
      let flt v =
        match slot_exn f v with
        | Kflt, i ->
            if not (Hashtbl.mem named_f i) then begin
              Hashtbl.replace named_f i ();
              pro := Read_f i :: !pro
            end;
            i
        | _ -> raise Unfusable
      in
      let flt_res (op : Op.t) =
        match slot_exn f (Op.result_exn op) with Kflt, d -> d | _ -> raise Unfusable
      in
      let result op =
        let d = flt_res op in
        Hashtbl.replace named_f d ();
        d
      in
      let accs = ref [] in
      let access buf coords =
        let buf = match slot_exn f buf with Kobj, i -> i | _ -> raise Unfusable in
        let fb = f.n_fbuf in
        f.n_fbuf <- fb + 1;
        let a =
          { buf; dims = Array.of_list (List.map aff_of coords); fb;
            off = scratch_int f; str = Array.init depth (fun _ -> scratch_int f) }
        in
        let k = List.length !accs in
        accs := a :: !accs;
        k
      in
      let item (op : Op.t) =
        let operand i = Op.operand_exn op i in
        let fop e = pr (Def (result op, e)) in
        match op.Op.name with
        | _ when affine op -> ()
        | "arith.constant" -> (
            (* Written to its slot at entry, read by the prologue. *)
            let d = flt_res op in
            match Op.attr_exn op "value" with
            | Typesys.Float_attr (c, _) -> fconsts := (d, c) :: !fconsts
            | Typesys.Int_attr (c, _) -> fconsts := (d, float_of_int c) :: !fconsts
            | _ -> raise Unfusable)
        | ("arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf") as name ->
            let x = flt (operand 0) and y = flt (operand 1) in
            let o =
              match name with
              | "arith.addf" -> "+" | "arith.subf" -> "-" | "arith.mulf" -> "*" | _ -> "/"
            in
            fop (Bin (x, o, y))
        | ("arith.maximumf" | "arith.minimumf") as name ->
            let x = flt (operand 0) and y = flt (operand 1) in
            fop (Call ((if name = "arith.maximumf" then "nk_max" else "nk_min"), x, y))
        | "arith.negf" -> fop (Neg (flt (operand 0)))
        | "arith.extf" | "arith.truncf" -> fop (Copy (flt (operand 0)))
        | "arith.cmpf" ->
            let x = flt (operand 0) and y = flt (operand 1) in
            let c =
              match Op.string_attr_exn op "predicate" with
              | "eq" -> "==" | "ne" -> "!=" | "lt" -> "<" | "le" -> "<="
              | "gt" -> ">" | "ge" -> ">=" | _ -> raise Unfusable
            in
            let d = int_res op in
            Hashtbl.replace named_i d ();
            pr (Cmp (d, x, y, c))
        | "arith.select" ->
            (* The condition must be a cmpf result or an outer int, not an
               affine body int. *)
            let c = operand 0 in
            if Hashtbl.mem affs (Value.id c) then raise Unfusable;
            let c =
              match slot_exn f c with
              | Kint, i ->
                  if not (Hashtbl.mem named_i i) then begin
                    if Hashtbl.mem local (Value.id c) then raise Unfusable;
                    Hashtbl.replace named_i i ();
                    pro := Read_i i :: !pro
                  end;
                  i
              | _ -> raise Unfusable
            in
            let x = flt (operand 1) and y = flt (operand 2) in
            fop (Sel (c, x, y))
        | "memref.load" ->
            fop (Load (access (operand 0) (List.tl op.Op.operands)))
        | "memref.store" ->
            let x = flt (operand 0) in
            let a = access (operand 1) (List.tl (List.tl op.Op.operands)) in
            pr (Store (a, x))
        | _ -> raise Unfusable
      in
      match
        List.mapi
          (fun l ((op : Op.t), _, pre) ->
            let bound i = inv (Op.operand_exn op i) in
            let lv = { lo = bound 0; hi = bound 1; step = bound 2; trip = scratch_int f } in
            if l < depth - 1 then
              List.iter (fun o -> if not (affine o) then raise Unfusable) pre
            else List.iter item body;
            lv)
          levels
      with
      | exception Unfusable -> None
      | lvl ->
          let accs = List.rev !accs in
          let pro = List.rev !pro and code = List.rev !code in
          Some
            {
              n_entry = Array.of_list (List.rev !entry);
              n_lvl = Array.of_list lvl;
              n_acc = Array.of_list accs;
              n_fc_slot = Array.of_list (List.rev_map fst !fconsts);
              n_fc_val = Array.of_list (List.rev_map snd !fconsts);
              n_text = lazy (c_function lvl accs pro code);
              n_fn = 0n;
            })

(* ---------- the op compiler ---------- *)

(* Returns [None] for ops that compile to nothing (dealloc). *)
let rec compile_op (f : fctx) (op : Op.t) : (frame -> unit) option =
  let name = op.Op.name in
  let operand i = Op.operand_exn op i in
  let result () = Op.result_exn op in
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
  | "arith.addi" | "arith.subi" | "arith.muli" | "arith.divsi"
  | "arith.remsi" | "arith.andi" | "arith.ori" | "arith.xori" ->
      let a, ca = int_operand f (operand 0) in
      let b, cb = int_operand f (operand 1) in
      let d = def_int f (result ()) in
      Some (after (ca @ cb) (int_binop name a b d))
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf"
  | "arith.maximumf" | "arith.minimumf" ->
      let a, ca = flt_operand f (operand 0) in
      let b, cb = flt_operand f (operand 1) in
      let d = def_flt f (result ()) in
      Some (after (ca @ cb) (flt_binop name a b d))
  | "arith.negf" ->
      let a, ca = flt_operand f (operand 0) in
      let d = def_flt f (result ()) in
      Some
        (after ca (fun { flts = v; _ } -> fset v d (-.fget v a)))
  | "arith.cmpi" ->
      let p = pred_fn op in
      let a, ca = int_operand f (operand 0) in
      let b, cb = int_operand f (operand 1) in
      let d = def_int f (result ()) in
      Some
        (after (ca @ cb) (fun { ints = v; _ } ->
             iset v d (if p (Int.compare (iget v a) (iget v b)) then 1 else 0)))
  | "arith.cmpf" ->
      let p = pred_fn op in
      let a, ca = flt_operand f (operand 0) in
      let b, cb = flt_operand f (operand 1) in
      let d = def_int f (result ()) in
      Some
        (after (ca @ cb) (fun fr ->
             let v = fr.flts in
             iset fr.ints d
               (if p (Float.compare (fget v a) (fget v b)) then 1 else 0)))
  | "arith.select" -> (
      let c, cc = int_operand f (operand 0) in
      match def f (result ()) with
      | Kint, d ->
          let a, ca = int_operand f (operand 1) in
          let b, cb = int_operand f (operand 2) in
          Some
            (after (cc @ ca @ cb) (fun { ints = v; _ } ->
                 iset v d (iget v (if iget v c <> 0 then a else b))))
      | Kflt, d ->
          let a, ca = flt_operand f (operand 1) in
          let b, cb = flt_operand f (operand 2) in
          Some
            (after (cc @ ca @ cb) (fun fr ->
                 let v = fr.flts in
                 fset v d (fget v (if iget fr.ints c <> 0 then a else b))))
      | Kobj, d ->
          let a = read f (operand 1) and b = read f (operand 2) in
          Some
            (after cc (fun fr ->
                 fr.objs.(d) <-
                   (if iget fr.ints c <> 0 then a fr else b fr))))
  | "arith.index_cast" ->
      let a, ca = int_operand f (operand 0) in
      let d = def_int f (result ()) in
      Some
        (after ca (fun { ints = v; _ } -> iset v d (iget v a)))
  | "arith.sitofp" ->
      let a, ca = int_operand f (operand 0) in
      let d = def_flt f (result ()) in
      Some
        (after ca (fun fr -> fset fr.flts d (float_of_int (iget fr.ints a))))
  | "arith.fptosi" ->
      let a, ca = flt_operand f (operand 0) in
      let d = def_int f (result ()) in
      Some
        (after ca (fun fr -> iset fr.ints d (int_of_float (fget fr.flts a))))
  | "arith.extf" | "arith.truncf" ->
      let a, ca = flt_operand f (operand 0) in
      let d = def_flt f (result ()) in
      Some
        (after ca (fun { flts = v; _ } -> fset v d (fget v a)))
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
      | Kflt, v ->
          Some
            (fun fr ->
              let b = gb fr in
              let i = idx fr b in
              match b.R.data with
              | R.F a -> fset a i (fget fr.flts v)
              | R.I a -> a.(i) <- int_of_float (fget fr.flts v))
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
  let nests_outside = f.nests in
  let ops = compile_ops f blk in
  let body = block_of ops in
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
  if not (List.exists (fun (o, _) -> Op.exists is_loop o) (fst ops)) then
    f.loops <- f.loops + 1;
  (* A nest rooted here subsumes the nests of the loops inside it, which
     then run per op when an entry of this one fails its check. *)
  let nest = if n_carried = 0 then nest_of f op else None in
  Option.iter (fun n -> f.nests <- n :: nests_outside) nest;
  let per_op fr =
    let lo = glo fr and hi = ghi fr and step = gstep fr in
    if step <= 0 then R.error "scf.for: step must be positive";
    run_loop body.stmts fr iv_slot lo hi step
  in
  match nest with
  | Some n ->
      fun fr ->
        if n.n_fn <> 0n && bind_nest n fr then
          nk_call n.n_fn fr.flts fr.fbufs fr.ints
        else per_op fr
  | None when n_carried = 0 -> per_op
  | None -> fun fr ->
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

(* A block's non-terminator ops, each with its closure ([None] for ops
   that compile to nothing), and the terminator's operand readers. *)
and compile_ops (f : fctx) (blk : Op.block) :
    (Op.t * (frame -> unit) option) list * (frame -> R.t) array =
  let rec go acc = function
    | [] -> (List.rev acc, [||])
    | [ last ] when is_terminator last.Op.name ->
        (List.rev acc, Array.of_list (List.map (read f) last.Op.operands))
    | op :: rest -> go ((op, compile_op f op) :: acc) rest
  in
  go [] blk.Op.ops

and block_of ((ops, ret) : (Op.t * (frame -> unit) option) list * _) : cblock
    =
  { stmts = Array.of_list (List.filter_map snd ops); ret }

and compile_block (f : fctx) (blk : Op.block) : cblock =
  block_of (compile_ops f blk)

and compile_func (cm : cmodule) (name : string) : cfunc =
  match Hashtbl.find_opt cm.compiled name with
  | Some cf -> cf
  | None -> (
      match Hashtbl.find_opt cm.funcs name with
      | Some fop when fop.Op.regions <> [] ->
          let f =
            { cm; slots = Hashtbl.create 64; n_int = 0; n_flt = 0;
              n_obj = 0; n_fbuf = 0; omp_nt = None; loops = 0;
              nests = [] }
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
              cf_n_fbuf = f.n_fbuf;
              cf_body = body;
              cf_loops = f.loops;
              cf_nests = f.nests;
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

(* ---------- building and loading the kernels ---------- *)

(* Loaded kernels by C text, for the whole process; [kernel_lock] guards
   the table and [native_off]. *)
let kernels : (string, nativeint) Hashtbl.t = Hashtbl.create 64
let kernel_lock = Mutex.create ()

(* Why native kernels are off in this process: after a failed build every
   later nest runs per op, and the first cause is the one reported. *)
let native_off : string option ref = ref None

(* How many [cc] runs this process made: modules whose kernels are all
   loaded already make none. *)
let builds = Atomic.make 0
let build_count () = Atomic.get builds

let kernel_name text = "nk_" ^ Digest.to_hex (Digest.string text)

(* Runs cc on [src] into the shared object [so].  Spawned, not forked:
   rank domains may be running. *)
let run_cc ~src ~so : (unit, string) result =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally: (fun () -> Unix.close null)
    (fun () ->
      match
        Unix.create_process "cc"
          [| "cc"; "-O2"; "-ffp-contract=off"; "-fPIC"; "-shared"; "-o"; so; src |]
          null null Unix.stderr
      with
      | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "cannot run cc (%s)" (Unix.error_message e))
      | pid -> (
          let rec wait () =
            try snd (Unix.waitpid [] pid)
            with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
          in
          match wait () with
          | Unix.WEXITED 0 -> Ok ()
          | Unix.WEXITED n -> Error (Printf.sprintf "cc exited with status %d" n)
          | Unix.WSIGNALED n | Unix.WSTOPPED n ->
              Error (Printf.sprintf "cc stopped by signal %d" n)))

(* One cc run and one dlopen for [texts], none of them loaded yet.  The
   .c and .so files are gone once it returns: the mapping outlives them. *)
let build (texts : string list) : unit =
  let off cause =
    native_off := Some cause;
    prerr_endline ("native kernels off: " ^ cause)
  in
  match (Filename.temp_file "stencil_nk" ".c", Filename.temp_file "stencil_nk" ".so") with
  | exception Sys_error msg -> off msg
  | src, so ->
      Fun.protect
        ~finally: (fun () ->
          List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ src; so ])
        (fun () ->
          match
            Out_channel.with_open_text src (fun oc ->
                output_string oc c_prelude;
                List.iter
                  (fun t -> Printf.fprintf oc "void %s%s" (kernel_name t) t)
                  texts);
            run_cc ~src ~so
          with
          | exception Sys_error msg -> off msg
          | Error cause -> off cause
          | Ok () -> (
              Atomic.incr builds;
              match
                let h = nk_dlopen so in
                List.map (fun t -> (t, nk_dlsym h (kernel_name t))) texts
              with
              | fns -> List.iter (fun (t, fn) -> Hashtbl.replace kernels t fn) fns
              | exception Failure msg -> off ("cannot load the kernels: " ^ msg)))

(* [(native, loops)]: of the module's [loops] innermost scf.for loops, how
   many run in native nests. *)
let coverage (cm : cmodule) : int * int =
  Hashtbl.fold
    (fun _ cf (k, l) ->
      ( k + List.length (List.filter (fun n -> n.n_fn <> 0n) cf.cf_nests),
        l + cf.cf_loops ))
    cm.compiled (0, 0)

(* At a module's first execution: looks its nests' kernels up, building
   the missing ones in one cc run ([load_kernels] takes several modules
   into that one run).  Ranks racing a first run serialize on
   [kernel_lock], so a program's kernels are built once per process.  The
   [kernel-coverage] instant records each module's outcome. *)
let load_kernels (cms : cmodule list) : unit =
  if List.exists (fun cm -> not (Atomic.get cm.natives)) cms then
    Mutex.protect kernel_lock (fun () ->
        let cms = List.filter (fun cm -> not (Atomic.get cm.natives)) cms in
        let nests =
          List.concat_map
            (fun cm -> Hashtbl.fold (fun _ cf acc -> cf.cf_nests @ acc) cm.compiled [])
            cms
        in
        let missing =
          List.sort_uniq String.compare
            (List.filter_map
               (fun n ->
                 let t = Lazy.force n.n_text in
                 if Hashtbl.mem kernels t then None else Some t)
               nests)
        in
        if missing <> [] && !native_off = None then build missing;
        List.iter
          (fun n ->
            Option.iter (fun fn -> n.n_fn <- fn) (Hashtbl.find_opt kernels (Lazy.force n.n_text)))
          nests;
        List.iter
          (fun cm ->
            Atomic.set cm.natives true;
            let native, loops = coverage cm in
            Obs.Trace.instant ~cat: "exec" "kernel-coverage"
              ~args:
                [ ("kernels", Obs.Int native); ("innermost_loops", Obs.Int loops);
                  ( "native",
                    Obs.Str
                      (match !native_off with None -> "on" | Some c -> "off: " ^ c) ) ])
          cms)

(* [(native, loops)] once the module's kernels are loaded: a loop outside
   the native subset runs per op, many times slower, so tests pin this
   count for the benchmark programs. *)
let kernel_coverage (cm : cmodule) : int * int =
  load_kernels [ cm ];
  coverage cm

(* Ahead of time: every function with a body compiles before anything
   runs, so unsupported ops surface as [Unsupported] here, not mid-run,
   and the returned module is immutable but for its kernels, loaded once
   under [kernel_lock] — ranks and cached runs share it. *)
let compile_module (m : Op.t) : cmodule =
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
      let cm = { funcs; compiled = Hashtbl.create 16; natives = Atomic.make false } in
      Hashtbl.iter
        (fun name (fop : Op.t) ->
          if fop.Op.regions <> [] then ignore (compile_func cm name))
        funcs;
      cm)

module Compiled : Interp.Executor.EXECUTOR = struct
  let name = "compiled"

  type shared_prog = cmodule
  type nonrec prog = prog

  let compile = compile_module

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
    load_kernels [ prog.cm ];
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
