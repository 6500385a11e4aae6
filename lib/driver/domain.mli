(** Host-side domain decomposition helpers: scatter a global field into
    rank-local buffers (halos included) and gather rank interiors back. *)

open Ir

val rank_coords : grid:int list -> int -> int list
(** Cartesian coordinates of a rank in a row-major grid. *)

val copy_box :
  src:Interp.Rtval.buffer ->
  src_at:int list ->
  dst:Interp.Rtval.buffer ->
  dst_at:int list ->
  sizes:int list ->
  unit
(** Copy the box of [sizes] cells at logical coordinates [src_at] in [src]
    to [dst_at] in [dst] with one strided blit ({!Interp.Rtval.blit_strided}).
    Raises [Interp.Rtval.Runtime_error] when the box does not lie inside
    both buffers; an empty box copies nothing. *)

val scatter_field :
  global:Interp.Rtval.buffer ->
  grid:int list ->
  local_bounds:Typesys.bound list ->
  rank:int ->
  Interp.Rtval.buffer
(** The local buffer for [rank]: every point (interior and halo) filled
    from the global buffer where the global coordinate exists, 0
    elsewhere, with one strided copy.  Assumes symmetric ghost margins. *)

val gather_interior :
  ?origin:int list ->
  global:Interp.Rtval.buffer ->
  local:Interp.Rtval.buffer ->
  grid:int list ->
  interior:int list ->
  rank:int ->
  unit ->
  unit
(** Copy the local interior into the global buffer at the rank's offset;
    [origin] shifts local coordinates for buffers rebased to zero after
    lowering.  Raises [Interp.Rtval.Runtime_error] when the interior box
    does not fit inside either buffer. *)

val field_arg_bounds : Op.t -> Typesys.bound list list
(** Bounds of a function's stencil-typed arguments. *)

val local_field_bounds : Op.t -> Typesys.bound list list
(** Localized bounds of the function's field arguments, read from the
    dmp.local_fields attribute left by the distribution pass (survives
    the field-to-memref conversion); falls back to
    {!field_arg_bounds} when the attribute is absent. *)

val topology_of : Op.t -> int list
(** The dmp.topology attribute left by the distribution pass. *)
