(* Rewrite outcomes.  A pattern (see Rewriter) inspects one op and can
   replace it with a list of new ops together with a mapping from the old
   results to values produced by the replacement; the Rewriter driver
   splices the new ops in and substitutes subsequent uses. *)

type rewrite =
  | Replace of Op.t list * (Value.t * Value.t) list
  | Erase

(* Replace an op by new ops whose final op redefines the same results. *)
let replace_with ops mapping = Some (Replace (ops, mapping))
