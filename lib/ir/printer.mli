(** Textual output in MLIR's generic-operation style; everything printed here
    round-trips through {!Parser}.  SSA names are local to one print:
    values are numbered from [%0] in order of first appearance, so the
    text does not depend on value-id allocation history and
    [print (parse (print m)) = print m]. *)

val pp_op : ?indent:int -> Format.formatter -> Op.t -> unit
val op_to_string : Op.t -> string
val print_module : Format.formatter -> Op.t -> unit
val module_to_string : Op.t -> string

val canonical_module_string : Op.t -> string
(** Deterministic rendering for content-addressing (not for parsing): SSA
    values renumbered in definition order and attribute dictionaries
    sorted by key, so the result is identical for structurally identical
    modules regardless of value-id allocation history or attribute
    insertion order.  [Digest.string] of this string is the canonical
    module digest used by the artifact cache. *)
