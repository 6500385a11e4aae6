(** Rewrite outcomes, in the style of MLIR's pattern rewriting
    infrastructure; {!Rewriter} patterns return them and its driver
    applies them to fixpoint. *)

(** Outcome of a successful match on one op. *)
type rewrite =
  | Replace of Op.t list * (Value.t * Value.t) list
      (** Replacement ops, plus a map from each old result that remains used
          to the value now producing it. *)
  | Erase
      (** Remove the op.  Only valid when its results have no remaining
          uses; the pattern is responsible for that invariant. *)

val replace_with : Op.t list -> (Value.t * Value.t) list -> rewrite option

