(* Context-free rewrite patterns.  A pattern inspects one op and can
   replace it with a list of new ops together with a mapping from the old
   results to values produced by the replacement; the Rewriter driver
   splices the new ops in and substitutes subsequent uses. *)

type rewrite =
  | Replace of Op.t list * (Value.t * Value.t) list
  | Erase

type pattern = { pname : string; apply : Op.t -> rewrite option }

let pattern pname apply = { pname; apply }

(* Replace an op by new ops whose final op redefines the same results. *)
let replace_with ops mapping = Some (Replace (ops, mapping))
