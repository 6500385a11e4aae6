(** SSA values: each is defined exactly once, either as an operation result or
    as a block argument.  Identity is a process-unique integer id; the value's
    type travels with it so lowerings can read (e.g. stencil bounds)
    information directly off operands. *)

type t = { id : int; ty : Typesys.ty }

val fresh : Typesys.ty -> t
(** Allocate a value with a fresh id; safe to call from several domains
    at once.  The only allocator: parsed values are fresh too. *)

val id : t -> int
val ty : t -> Typesys.ty
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints [%id]. *)

val pp_typed : Format.formatter -> t -> unit
(** Prints [%id : ty]. *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
