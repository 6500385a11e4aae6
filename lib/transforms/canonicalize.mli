(** Canonicalization: constant propagation and folding plus algebraic
    identities (x+0, x*1, select on constants, ...) for the arith dialect,
    as context-aware patterns on the shared {!Ir.Rewriter} core.  The
    driver's dead-op folding erases the constants stranded by folding, so
    no separate DCE sweep is needed. *)

val eval_int_binop : string -> int -> int -> int option
val eval_float_binop : string -> float -> float -> float option

val run : Ir.Op.t -> Ir.Op.t
val pass : Ir.Pass.t
