(* Lowering dmp.swap to the mpi dialect (paper §4.2/§4.3, fig. 4).

   Each swap becomes, per exchange declaration:
   - temporary contiguous send/receive buffers (argument-less allocations,
     which the shared LICM pass hoists out of time loops, mirroring the
     paper's hoisting of loop-invariant calls — exchange buffers are
     allocated once, not per timestep);
   - the neighbor-rank computation from the cartesian topology, with an
     existence check for ranks on the domain boundary;
   - bulk packing of the send subregion into the send buffer with a single
     memref.copy_strided (all geometry static — executors turn it into
     Array.blit runs, not per-element loops), then non-blocking mpi.isend /
     mpi.irecv under an scf.if (skipped exchanges yield null requests, as
     the paper notes);
   - one mpi.waitall over all requests of the swap;
   - bulk unpacking of each received buffer into its halo subregion.

   Pack and unpack phases are bracketed by mpi.pcontrol markers (the MPI
   profiling-control API), so substrate timelines can attribute time to
   packing/unpacking in traces.

   Tags encode the full direction vector of the message in base 3 so that
   matching sends and receives pair up and no two exchanges between the
   same rank pair can collide — including the edge/corner exchanges of
   [Decomposition.Diagonals], where several directions may share their
   first nonzero component. *)

open Ir
open Dialects

let product = List.fold_left ( * ) 1

(* Row-major strides of the cartesian rank grid. *)
let grid_strides grid =
  let n = List.length grid in
  List.init n (fun d ->
      product (List.filteri (fun i _ -> i > d) grid))

let direction_of (e : Typesys.exchange) =
  let rec find d = function
    | [] -> Op.ill_formed "dmp.exchange: neighbor direction is zero"
    | 0 :: rest -> find (d + 1) rest
    | s :: _ -> (d, s)
  in
  find 0 e.ex_neighbor

(* Base-3 encoding of a direction vector with components in {-1, 0, 1}:
   injective over directions, so distinct exchanges between the same rank
   pair always carry distinct tags.  Tags are non-negative (the zero vector
   is rejected), keeping clear of the reserved collective (-1) and
   any-source (-2) values. *)
let encode_direction (v : int list) : int =
  ignore
    (match List.find_opt (fun c -> c <> 0) v with
    | Some _ -> ()
    | None -> Op.ill_formed "dmp.exchange: neighbor direction is zero");
  List.fold_left
    (fun acc c ->
      if c < -1 || c > 1 then
        Op.ill_formed "dmp.exchange: neighbor component %d out of {-1,0,1}" c
      else (3 * acc) + (c + 1))
    0 v

let send_tag (e : Typesys.exchange) = encode_direction e.Typesys.ex_neighbor

let recv_tag (e : Typesys.exchange) =
  encode_direction (List.map (fun c -> -c) e.Typesys.ex_neighbor)

(* Row-major strides of a box/shape. *)
let shape_strides (shape : int list) : int list =
  let n = List.length shape in
  List.init n (fun d -> product (List.filteri (fun i _ -> i > d) shape))

(* Linear row-major index of static coordinates in [shape]. *)
let linear_offset (shape : int list) (coords : int list) : int =
  List.fold_left2 (fun acc s c -> acc + (s * c)) 0 (shape_strides shape) coords

(* Shared prologue: my rank and cartesian coordinates. *)
let emit_rank_coords bld grid strides =
  let rank32 = Mpi.comm_rank_op bld in
  let rank = Arith.index_cast_op bld rank32 Typesys.Index in
  List.map2
    (fun g s ->
      let sv = Arith.const_index bld s in
      let gv = Arith.const_index bld g in
      let q = Arith.div_i bld rank sv in
      Arith.rem_i bld q gv)
    grid strides

(* What one posted exchange leaves behind for its completion phase. *)
type posted = {
  p_exchange : Typesys.exchange;
  p_rbuf : Value.t;
  p_exists : Value.t;
  p_reqs : Value.t list;
}

(* Post the sends/receives of one swap (the begin phase): allocate buffers,
   compute neighbor existence, pack and issue isend/irecv under scf.if with
   null requests on skipped exchanges. *)
let emit_swap_begin bld (op : Op.t) : posted list =
  let buf = Dmp.buffer_of op in
  let grid = Dmp.grid_of op in
  let exchanges = Dmp.exchanges_of op in
  let origin = Op.dense_attr_exn op "origin" in
  let shape, elt =
    match Value.ty buf with
    | Typesys.Memref (s, t) -> (s, t)
    | t -> Op.ill_formed "dmp swap on %s" (Typesys.ty_to_string t)
  in
  let buf_strides = shape_strides shape in
  let strides = grid_strides grid in
  let coords = emit_rank_coords bld grid strides in
  List.map
    (fun (e : Typesys.exchange) ->
      let n_elems = product e.Typesys.ex_size in
      let sbuf = Memref.alloc_op bld [ n_elems ] elt in
      let rbuf = Memref.alloc_op bld [ n_elems ] elt in
      let ncoords =
        List.map2
          (fun c d ->
            if d = 0 then c
            else begin
              let dv = Arith.const_index bld d in
              Arith.add_i bld c dv
            end)
          coords e.Typesys.ex_neighbor
      in
      let exists =
        List.fold_left2
          (fun acc nc g ->
            let zero = Arith.const_index bld 0 in
            let gv = Arith.const_index bld g in
            let ge = Arith.cmp_i bld Arith.Ge nc zero in
            let lt = Arith.cmp_i bld Arith.Lt nc gv in
            let ok = Arith.binop bld Arith.andi ge lt in
            match acc with
            | None -> Some ok
            | Some acc -> Some (Arith.binop bld Arith.andi acc ok))
          None ncoords grid
      in
      let exists =
        match exists with
        | Some e -> e
        | None -> Op.ill_formed "dmp swap: zero-dimensional grid"
      in
      let neighbor_rank =
        List.fold_left2
          (fun acc nc st ->
            let sv = Arith.const_index bld st in
            let scaled = Arith.mul_i bld nc sv in
            match acc with
            | None -> Some scaled
            | Some acc -> Some (Arith.add_i bld acc scaled))
          None ncoords strides
      in
      let neighbor_rank =
        match neighbor_rank with Some r -> r | None -> assert false
      in
      let reqs =
        Scf.if_op bld exists
          ~res_tys: [ Typesys.Request; Typesys.Request ]
          ~then_: (fun b ->
            (* Bulk pack: one strided copy of the send box out of the
               field into the contiguous send buffer. *)
            let src_coords =
              List.mapi
                (fun d o ->
                  o
                  + List.nth e.Typesys.ex_offset d
                  + List.nth e.Typesys.ex_source_offset d)
                origin
            in
            Mpi.pcontrol_op b Mpi.pack_level;
            Memref.copy_strided_op b ~src: buf ~dst: sbuf
              ~sizes: e.Typesys.ex_size
              ~src_offset: (linear_offset shape src_coords)
              ~src_strides: buf_strides ~dst_offset: 0
              ~dst_strides: (shape_strides e.Typesys.ex_size);
            Mpi.pcontrol_op b (-Mpi.pack_level);
            let nr32 = Arith.index_cast_op b neighbor_rank Typesys.i32 in
            let stag = Arith.const_int b ~ty: Typesys.i32 (send_tag e) in
            let rtag = Arith.const_int b ~ty: Typesys.i32 (recv_tag e) in
            let r_send = Mpi.isend_op b sbuf ~dest: nr32 ~tag: stag in
            let r_recv = Mpi.irecv_op b rbuf ~source: nr32 ~tag: rtag in
            Scf.yield_op b [ r_send; r_recv ])
          ~else_: (fun b ->
            let n1 = Mpi.null_request_op b in
            let n2 = Mpi.null_request_op b in
            Scf.yield_op b [ n1; n2 ])
      in
      { p_exchange = e; p_rbuf = rbuf; p_exists = exists; p_reqs = reqs })
    exchanges

(* Complete posted exchanges: waitall, then unpack each received halo. *)
let emit_swap_complete bld (op : Op.t) (posted : posted list) : unit =
  let buf = Dmp.buffer_of op in
  let origin = Op.dense_attr_exn op "origin" in
  let shape =
    match Value.ty buf with
    | Typesys.Memref (s, _) -> s
    | t -> Op.ill_formed "dmp swap on %s" (Typesys.ty_to_string t)
  in
  let buf_strides = shape_strides shape in
  let all_reqs = List.concat_map (fun p -> p.p_reqs) posted in
  if all_reqs <> [] then Mpi.waitall_op bld all_reqs;
  List.iter
    (fun p ->
      let e = p.p_exchange in
      ignore
        (Scf.if_op bld p.p_exists ~res_tys: []
           ~then_: (fun b ->
             (* Bulk unpack: one strided copy of the received contiguous
                buffer into the halo box of the field. *)
             let dst_coords =
               List.mapi
                 (fun d o -> o + List.nth e.Typesys.ex_offset d)
                 origin
             in
             Mpi.pcontrol_op b Mpi.unpack_level;
             Memref.copy_strided_op b ~src: p.p_rbuf ~dst: buf
               ~sizes: e.Typesys.ex_size ~src_offset: 0
               ~src_strides: (shape_strides e.Typesys.ex_size)
               ~dst_offset: (linear_offset shape dst_coords)
               ~dst_strides: buf_strides;
             Mpi.pcontrol_op b (-Mpi.unpack_level);
             Scf.yield_op b [])
           ~else_: (fun b -> Scf.yield_op b [])))
    posted

(* A fused swap is begin followed immediately by completion. *)
let lower_swap bld (op : Op.t) =
  emit_swap_complete bld op (emit_swap_begin bld op)

(* The lowering runs as three patterns on the shared Rewriter core.  The
   split-phase state (requests posted at swap_begin, completed at the
   matching swap_wait) is keyed by the begin's first replacement request
   value in a table the pattern closures share per [run].  The begin's
   rewrite remaps the wait's request operands, which is what re-enqueues
   the wait; a wait whose operand
   is not yet a lowered request simply does not match yet. *)
let patterns () =
  let pending : (int, posted list) Hashtbl.t = Hashtbl.create 4 in
  let swap =
    Rewriter.pattern ~roots: [ Dmp.swap ] "lower-dmp-swap" (fun _ op ->
        let bld = Builder.create () in
        lower_swap bld op;
        Pattern.replace_with (Builder.ops bld) [])
  in
  let swap_begin =
    Rewriter.pattern ~roots: [ Dmp.swap_begin ] "lower-dmp-swap-begin"
      (fun _ op ->
        let bld = Builder.create () in
        let posted = emit_swap_begin bld op in
        let new_reqs = List.concat_map (fun p -> p.p_reqs) posted in
        (match new_reqs with
        | first :: _ -> Hashtbl.replace pending (Value.id first) posted
        | [] -> ());
        Pattern.replace_with (Builder.ops bld)
          (List.combine op.Op.results new_reqs))
  in
  let swap_wait =
    Rewriter.pattern ~roots: [ Dmp.swap_wait ] "lower-dmp-swap-wait"
      (fun _ op ->
        match op.Op.operands with
        | _ :: first_req :: _ -> (
            match Hashtbl.find_opt pending (Value.id first_req) with
            | Some posted ->
                let bld = Builder.create () in
                emit_swap_complete bld op posted;
                Pattern.replace_with (Builder.ops bld) []
            | None -> None (* the matching begin has not been lowered yet *))
        | [ _buf ] ->
            (* A swap with no exchanges (e.g. every dimension undecomposed
               on this grid): nothing was posted, nothing to wait for. *)
            Pattern.replace_with [] []
        | [] -> Op.ill_formed "dmp.swap_wait: missing buffer operand")
  in
  [ swap; swap_begin; swap_wait ]

let run (m : Op.t) : Op.t =
  let m' = Rewriter.run ~name: "convert-dmp-to-mpi" (patterns ()) m in
  (* Every wait must have found its begin; a leftover one means the input
     was ill-formed (e.g. a wait before its begin's requests exist). *)
  if Op.exists (fun o -> o.Op.name = Dmp.swap_wait) m' then
    Op.ill_formed "dmp.swap_wait: no matching swap_begin in this block";
  m'

let pass = Pass.make "convert-dmp-to-mpi" run
