(** The shared rewrite core: an indexed module workspace with use-def
    tracking plus the greedy worklist pattern driver built on it.

    The workspace gives passes an op-by-id, mutable view of a module —
    per-value defining sites and user counts, doubly-linked op order per
    block — with a small mutation API that keeps the indices consistent.
    The driver re-enqueues only the users of changed values. *)

module Workspace : sig
  type t

  type node_id = int
  (** Ops are addressed by dense integer ids assigned at import. *)

  type block_id = int

  val of_op : Op.t -> t
  (** Index a module (or any op tree) into a fresh workspace. *)

  val to_op : t -> Op.t
  (** Materialize the current state back into an immutable op tree. *)

  val root : t -> node_id

  val op : t -> node_id -> Op.t
  (** The op at [node_id], with its regions materialized. *)

  val shallow : t -> node_id -> Op.t
  (** The op at [node_id] with [regions = []]; cheap, and the form to
      feed to predicates that must not see stale region contents.  Never
      pass a shallow op of a region-bearing node to effect
      classification — check {!has_regions} first. *)

  val src : t -> node_id -> Op.t
  (** The original op record this node was imported from (physical
      identity is preserved, for passes that key state on it).  Stale
      with respect to later workspace mutations. *)

  val has_regions : t -> node_id -> bool
  val blocks : t -> node_id -> block_id list list
  val block_args : t -> block_id -> Value.t list
  val set_block_args : t -> block_id -> Value.t list -> unit
  val block_ops : t -> block_id -> node_id list
  val block_owner : t -> block_id -> node_id
  val parent_block : t -> node_id -> block_id option
  val parent_op : t -> node_id -> node_id option
  val is_erased : t -> node_id -> bool

  val use_count : t -> Value.t -> int
  (** Number of operand uses of a value across the whole workspace. *)

  val users : t -> Value.t -> node_id list
  (** Live nodes using the value as a direct operand, sorted by id. *)

  val def_site : t -> Value.t -> [ `Op of node_id | `Arg of block_id | `None ]

  val def_op : t -> Value.t -> Op.t option
  (** The materialized defining op of a value, if it is an op result. *)

  val in_subtree : t -> top:node_id -> node_id -> bool
  (** Is [top] the node itself or one of its ancestors? *)

  val block_in_subtree : t -> top:node_id -> block_id -> bool
  val ancestors : t -> node_id -> node_id list
  (** Proper ancestors, outermost first, excluding the root. *)

  val post_order : t -> node_id list
  (** Live ops, children before parents, program order otherwise; the
      root is excluded.  A fresh snapshot on every call. *)

  val subtree_post_order : t -> node_id -> node_id list

  val insert_before : t -> anchor:node_id -> Op.t -> node_id
  val insert_after : t -> anchor:node_id -> Op.t -> node_id
  val append : t -> block_id -> Op.t -> node_id
  val move_before : t -> anchor:node_id -> node_id -> unit

  val set_shallow : t -> node_id -> Op.t -> unit
  (** Swap the node's own name/operands/results/attrs (the argument's
      regions are ignored; nested blocks are kept as they are). *)

  val replace_all_uses : t -> Value.t -> Value.t -> node_id list
  (** Redirect every use; returns the affected user nodes. *)

  val erase_op : t -> node_id -> Value.t list
  (** Erase the op and everything nested in it.  Returns the values the
      erased subtree used that are defined elsewhere (candidates for
      becoming trivially dead). *)

  val replace_op :
    t -> node_id -> Op.t list -> (Value.t * Value.t) list ->
    node_id list * node_id list * Value.t list
  (** [replace_op ws n ops mapping] splices [ops] before [n], remaps each
      [(old_result, new_value)] pair, and erases [n]; returns (inserted
      top-level nodes, users affected by the remapping, released
      values). *)
end

type ctx = {
  ws : Workspace.t;
  def : Value.t -> Op.t option;
      (** Defining op of a value, anywhere in the module — this is what
          lets canonicalization fold over operand-defining constants
          without a per-block environment. *)
  uses : Value.t -> int;  (** Current use count of a value. *)
}
(** The read-side context handed to patterns. *)

type pattern = {
  pname : string;
  roots : string list;
      (** Op names the pattern can match; [[]] means try on every op.
          The driver dispatches through a per-root index, so rooted
          patterns are only tried where they can fire. *)
  rewrite : ctx -> Op.t -> Pattern.rewrite option;
}

val pattern :
  ?roots:string list -> string -> (ctx -> Op.t -> Pattern.rewrite option) ->
  pattern

val run :
  ?dead:(Op.t -> bool) -> name:string -> pattern list -> Op.t -> Op.t
(** Apply the patterns greedily until fixpoint.
    [dead] marks regionless ops the driver may erase on its own once all
    their results are unused (typically {!Transforms.Effects}'
    [removable_if_unused]), which folds trivial DCE into the rewrite.
    Applications are counted through {!Obs.Patterns}; worklist
    counters are recorded through {!Obs.Rewrites}; hitting the iteration
    budget warns through [Logs] and an Obs instant event instead of
    failing. *)

val erase_dead : ?removable:(Op.t -> bool) -> Workspace.t -> int
(** Cascading erasure of [removable] ops whose results are all unused
    (DCE as one workspace walk); returns the number of erased ops. *)
