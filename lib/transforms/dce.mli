(** Dead code elimination: remove side-effect-free ops whose results are
    never used, as one cascading erasure walk on the shared
    {!Ir.Rewriter} workspace; the use-count cascade needs no fixpoint
    iteration. *)

val run : Ir.Op.t -> Ir.Op.t
val pass : Ir.Pass.t
