(* Host-side domain decomposition helpers: scatter a global field into
   rank-local buffers (halos included) and gather rank interiors back.  Used
   by examples, tests and benchmarks to set up and check distributed runs. *)

open Ir

let rank_coords ~grid rank =
  let strides = Core.Dmp_to_mpi.grid_strides grid in
  List.map2 (fun g s -> rank / s mod g) grid strides

(* Copy the box of [sizes] cells at logical coordinates [src_at] in [src]
   to [dst_at] in [dst] with one strided blit.  The box must lie inside
   both buffers; an empty box copies nothing. *)
let copy_box ~(src : Interp.Rtval.buffer) ~src_at ~(dst : Interp.Rtval.buffer)
    ~dst_at ~sizes =
  let sizes = Array.of_list sizes in
  let n = Array.length sizes in
  (* Linear offset of [at] and row-major strides, bounds-checked. *)
  let locate (b : Interp.Rtval.buffer) at =
    let shape = Array.of_list b.Interp.Rtval.shape
    and lo = Array.of_list b.Interp.Rtval.lo
    and at = Array.of_list at in
    if Array.length shape <> n || Array.length at <> n then
      Interp.Rtval.error "domain copy: %d-d box on a %d-d buffer" n
        (Array.length shape);
    let strides = Array.make n 1 in
    for d = n - 2 downto 0 do
      strides.(d) <- strides.(d + 1) * shape.(d + 1)
    done;
    let off = ref 0 in
    for d = 0 to n - 1 do
      let i = at.(d) - lo.(d) in
      if i < 0 || i + sizes.(d) > shape.(d) then
        Interp.Rtval.error
          "domain copy: box [%d, %d) out of bounds [%d, %d) in dimension %d"
          at.(d)
          (at.(d) + sizes.(d))
          lo.(d)
          (lo.(d) + shape.(d))
          d;
      off := !off + (i * strides.(d))
    done;
    (!off, strides)
  in
  if Array.for_all (fun s -> s > 0) sizes then begin
    let src_off, src_strides = locate src src_at in
    let dst_off, dst_strides = locate dst dst_at in
    Interp.Rtval.blit_strided ~src ~dst ~sizes ~src_off ~src_strides ~dst_off
      ~dst_strides
  end

(* Allocate the local buffer for [rank] of a field with [local_bounds],
   filling every point (interior and halo) from the global buffer where the
   corresponding global coordinate exists, and 0 elsewhere. *)
let scatter_field ~(global : Interp.Rtval.buffer) ~grid
    ~(local_bounds : Typesys.bound list) ~rank : Interp.Rtval.buffer =
  let coords = rank_coords ~grid rank in
  (* Ghost margins are symmetric ([lo, hi) = [-m, n_loc + m)), so the local
     interior extent per dimension is hi + lo. *)
  let interior =
    List.map
      (fun (b : Typesys.bound) -> b.Typesys.hi + b.Typesys.lo)
      local_bounds
  in
  let shape = List.map Typesys.bound_size local_bounds in
  let lo = List.map (fun (b : Typesys.bound) -> b.Typesys.lo) local_bounds in
  let local =
    Interp.Rtval.alloc_buffer ~lo shape global.Interp.Rtval.elt
  in
  let offset = List.map2 (fun c n -> c * n) coords interior in
  (* The local box in global coordinates, clipped to the global buffer. *)
  let box =
    List.map2
      (fun ((s, l), o) (gs, gl) ->
        let a = max (l + o) gl and b = min (l + o + s) (gl + gs) in
        (a, max 0 (b - a)))
      (List.combine (List.combine shape lo) offset)
      (List.combine global.Interp.Rtval.shape global.Interp.Rtval.lo)
  in
  let at = List.map fst box in
  copy_box ~src: global ~src_at: at ~dst: local
    ~dst_at: (List.map2 ( - ) at offset)
    ~sizes: (List.map snd box);
  local

(* Copy the interior [0, interior) of [local] into the global buffer at this
   rank's offset.  [origin] shifts local coordinates for buffers whose
   logical origin was rebased to zero after lowering (pass the halo width
   per dimension). *)
let gather_interior ?origin ~(global : Interp.Rtval.buffer)
    ~(local : Interp.Rtval.buffer) ~grid ~(interior : int list) ~rank () :
    unit =
  let coords = rank_coords ~grid rank in
  let offset = List.map2 (fun c n -> c * n) coords interior in
  let origin =
    match origin with Some o -> o | None -> List.map (fun _ -> 0) interior
  in
  copy_box ~src: local ~src_at: origin ~dst: global ~dst_at: offset
    ~sizes: interior

(* Local bounds of a distributed function's field arguments, read straight
   off the (already localized) types. *)
let field_arg_bounds (fop : Op.t) : Typesys.bound list list =
  let arg_tys, _ = Dialects.Func.signature_of fop in
  List.filter_map Typesys.bounds_of arg_tys

(* After full lowering the signature's field types have been converted to
   memrefs, so the localized bounds are no longer recoverable from the
   types alone; the distribution pass preserves them in the
   dmp.local_fields attribute.  Fall back to the signature for modules
   that still carry field types (e.g. a distributed-but-unlowered module). *)
let local_field_bounds (fop : Op.t) : Typesys.bound list list =
  match Op.attr fop "dmp.local_fields" with
  | Some (Typesys.Type_attr (Typesys.Fn (arg_tys, _))) ->
      List.filter_map Typesys.bounds_of arg_tys
  | _ -> field_arg_bounds fop

let topology_of (fop : Op.t) : int list =
  match Op.attr fop "dmp.topology" with
  | Some (Typesys.Grid_attr g) -> g
  | _ -> Op.ill_formed "function has no dmp.topology attribute"
