(* SSA values.  Identity is the numeric id; the type travels with the value so
   that, per the paper's design, any operation using stencil-related types can
   read bounds information directly off its operands. *)

type t = { id : int; ty : Typesys.ty }

(* Shared by every domain: the compile daemon parses and runs passes on
   several connection domains at once, so allocation must never hand out
   an id twice.  [fresh] is the only allocator; the parser maps textual
   ids onto fresh values too. *)
let counter = Atomic.make 0

let fresh ty = { id = Atomic.fetch_and_add counter 1 + 1; ty }

let id v = v.id
let ty v = v.ty
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let hash v = v.id

let pp fmt v = Format.fprintf fmt "%%%d" v.id
let pp_typed fmt v = Format.fprintf fmt "%%%d : %a" v.id Typesys.pp_ty v.ty

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
