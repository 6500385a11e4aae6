(** Context-free rewrite patterns, in the style of MLIR's pattern
    rewriting infrastructure; {!Rewriter} drives them to fixpoint. *)

(** Outcome of a successful match on one op. *)
type rewrite =
  | Replace of Op.t list * (Value.t * Value.t) list
      (** Replacement ops, plus a map from each old result that remains used
          to the value now producing it. *)
  | Erase
      (** Remove the op.  Only valid when its results have no remaining
          uses; the pattern is responsible for that invariant. *)

type pattern = { pname : string; apply : Op.t -> rewrite option }
(** [pname] also labels the per-pattern application counters the greedy
    driver feeds into {!Obs.Patterns} when the Obs sink is installed. *)

val pattern : string -> (Op.t -> rewrite option) -> pattern

val replace_with : Op.t list -> (Value.t * Value.t) list -> rewrite option

