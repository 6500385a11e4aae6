(** Decomposition strategies (paper §4.2).

    A strategy exposes the interface the distribution rewrite needs: the
    rank layout (the dmp.grid attribute), the rank-local domain computed
    from the global domain, and the halo exchange declarations generated
    from the stencil access patterns.  Slicing strategies for 1D, 2D and 3D
    grids are provided; adopters can supply their own layout via
    [Custom]. *)

open Ir

type strategy =
  | Slice1d
  | Slice2d
  | Slice3d
  | Custom of string * (int -> int -> int list)
      (** name, and [fun ranks rank -> grid dimensions]. *)

val strategy_name : strategy -> string

val balanced_factors : int -> int -> int list
(** [balanced_factors n k] factors [n] into [k] near-equal factors, largest
    first. *)

val grid_of : strategy -> ranks:int -> rank:int -> int list
(** The cartesian rank layout for [ranks] total ranks over a [rank]-D
    domain; the product of the grid always equals [ranks]. *)

val split_extent : global:int -> parts:int -> int
(** Equal split of one extent; raises {!Ir.Op.Ill_formed} when not
    divisible (the prototype decomposes equally, as in the paper). *)

val local_bounds :
  interior:int list ->
  grid:int list ->
  halo:(int * int) array ->
  Typesys.bound list
(** Rank-local bounds: interior [\[0, n/p)] per dimension extended by the
    halo (which doubles as the boundary ghost region on edge ranks). *)

val local_interior : interior:int list -> grid:int list -> int list
(** Local interior extents per dimension. *)

(** Which neighbor set to exchange with: [Faces] is the paper's prototype;
    [Diagonals] implements the future-work extension (corner and edge
    exchanges), required for stencils whose accesses mix dimensions. *)
type exchange_mode = Faces | Diagonals

val mode_name : exchange_mode -> string
(** ["faces"] or ["diagonals"]: the one spelling of a mode in target
    fingerprints, the serve protocol, the CLI and the bench records. *)

val mode_of_name : string -> exchange_mode option
(** Inverse of {!mode_name}. *)

val exchange_for_direction :
  interior:int list ->
  halo:(int * int) array ->
  grid:int list ->
  int list ->
  Typesys.exchange option
(** The exchange with the neighbor in a given direction vector (components
    in [-1;0;+1]); [None] when any involved dimension is undecomposed or
    has no halo on that side. *)

val directions : rank:int -> mode:exchange_mode -> int list list
(** All direction vectors for a mode: faces first (dimension order, low
    then high side), then edge/corner directions for [Diagonals]. *)

val exchanges :
  ?mode:exchange_mode ->
  interior:int list ->
  halo:(int * int) array ->
  grid:int list ->
  unit ->
  Typesys.exchange list
(** The exchange declarations of one rank-local domain. *)

val exchange_volume : Typesys.exchange list -> int
(** Total points communicated by a list of exchanges. *)
