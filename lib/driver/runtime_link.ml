(* Binding between interpreted IR and an MPI substrate.

   Provides an [Interp.Engine.externs] handler for one rank that implements:
   - the fully lowered ABI: external MPI_* function calls with mpich magic
     constants (what convert-mpi-to-func produces);
   - the mpi dialect ops (so modules can be executed right after
     convert-dmp-to-mpi, before the func lowering);
   - the dmp dialect ops (so distributed stencil programs can be executed
     directly after the distribution pass, validating each lowering stage
     independently).

   Functorized over [Mpi_intf.MPI_CORE], so the same binding drives the
   deterministic fiber simulator (Mpi_sim) and the multicore domain
   runtime (Mpi_par). *)

open Ir

module Make (M : Mpi_intf.MPI_CORE) = struct
  type state = {
    ctx : M.rank_ctx;
    requests : (int, M.request * Interp.Rtval.buffer option) Hashtbl.t;
    mutable next_handle : int;
  }

  let create ctx = { ctx; requests = Hashtbl.create 32; next_handle = 1 }

  let payload_of_buffer (b : Interp.Rtval.buffer) : Mpi_intf.payload =
    match b.Interp.Rtval.data with
    | Interp.Rtval.F a -> Mpi_intf.Floats (Array.copy a)
    | Interp.Rtval.I a -> Mpi_intf.Ints (Array.copy a)

  (* Both substrates copy a payload when they send it, so a point-to-point
     send hands over the buffer's storage without a copy of its own. *)
  let send_view (b : Interp.Rtval.buffer) : Mpi_intf.payload =
    match b.Interp.Rtval.data with
    | Interp.Rtval.F a -> Mpi_intf.Floats a
    | Interp.Rtval.I a -> Mpi_intf.Ints a

  let store_payload (b : Interp.Rtval.buffer) (p : Mpi_intf.payload) =
    match (b.Interp.Rtval.data, p) with
    | Interp.Rtval.F dst, Mpi_intf.Floats src ->
        Array.blit src 0 dst 0 (min (Array.length src) (Array.length dst))
    | Interp.Rtval.I dst, Mpi_intf.Ints src ->
        Array.blit src 0 dst 0 (min (Array.length src) (Array.length dst))
    | _ -> Interp.Rtval.error "mpi receive: payload kind mismatch"

  let byte_width_of_dtype dtype =
    if dtype = Core.Mpi.Mpich.float || dtype = Core.Mpi.Mpich.int then 4
    else if dtype = Core.Mpi.Mpich.double then 8
    else 8

  let fresh_handle st req buf =
    let h = st.next_handle in
    st.next_handle <- h + 1;
    Hashtbl.replace st.requests h (req, buf);
    h

  let lookup_request st h =
    if h = Core.Mpi.Mpich.request_null then None
    else
      match Hashtbl.find_opt st.requests h with
      | Some rb -> Some rb
      | None -> Interp.Rtval.error "unknown MPI request handle %d" h

  (* [lookup_request] for a handle known not to be null, without the
     option. *)
  let request st h =
    match Hashtbl.find st.requests h with
    | rb -> rb
    | exception Not_found -> Interp.Rtval.error "unknown MPI request handle %d" h

  let complete_recv (req, buf) =
    match (M.wait req, buf) with
    | Some payload, Some b -> store_payload b payload
    | _ -> ()

  let reduction_of magic =
    if magic = Core.Mpi.Mpich.sum then `Sum
    else if magic = Core.Mpi.Mpich.max then `Max
    else if magic = Core.Mpi.Mpich.min then `Min
    else Interp.Rtval.error "unknown MPI reduction constant %d" magic

  (* The function-call ABI (convert-mpi-to-func output). *)
  let handle_call st callee (args : Interp.Rtval.t list) :
      Interp.Rtval.t list option =
    let open Interp.Rtval in
    let int_arg i = as_int (List.nth args i) in
    let buf_arg i = as_buffer (List.nth args i) in
    match callee with
    | "MPI_Init" | "MPI_Finalize" -> Some [ Ri 0 ]
    | "MPI_Pcontrol" ->
        (* Positive level opens a named phase span, its negation closes
           it (pack/unpack markers emitted by convert-dmp-to-mpi). *)
        let level = int_arg 0 in
        let name = Core.Mpi.phase_name_of_level level in
        if level > 0 then M.span_begin st.ctx name
        else if level < 0 then M.span_end st.ctx name;
        Some [ Ri 0 ]
    | "MPI_Comm_rank" -> Some [ Ri (M.rank st.ctx) ]
    | "MPI_Comm_size" -> Some [ Ri (M.size st.ctx) ]
    | "MPI_Send" | "MPI_Isend" ->
        let b = buf_arg 0 in
        let count = int_arg 1 and dtype = int_arg 2 in
        let dest = int_arg 3 and tag = int_arg 4 in
        ignore count;
        let bytes = count * byte_width_of_dtype dtype in
        let req = M.isend st.ctx ~dest ~tag ~bytes (send_view b) in
        if callee = "MPI_Send" then Some [ Ri 0 ]
        else Some [ Ri (fresh_handle st req None) ]
    | "MPI_Recv" ->
        let b = buf_arg 0 in
        let source = int_arg 3 and tag = int_arg 4 in
        let payload = M.recv st.ctx ~source ~tag in
        store_payload b payload;
        Some [ Ri 0 ]
    | "MPI_Irecv" ->
        let b = buf_arg 0 in
        let source = int_arg 3 and tag = int_arg 4 in
        let req = M.irecv st.ctx ~source ~tag in
        Some [ Ri (fresh_handle st req (Some b)) ]
    | "MPI_Wait" ->
        (match lookup_request st (int_arg 0) with
        | Some rb -> complete_recv rb
        | None -> ());
        Some [ Ri 0 ]
    | "MPI_Test" -> (
        match lookup_request st (int_arg 0) with
        | Some (req, _) -> Some [ Ri (if M.test req then 1 else 0) ]
        | None -> Some [ Ri 1 ])
    | "MPI_Waitall" ->
        (* Walks the handle buffer directly: the request list passed to
           the substrate is the only allocation. *)
        let count = int_arg 0 in
        let handle =
          match (buf_arg 1).data with
          | I a -> fun i -> a.(i)
          | F _ -> fun _ -> error "expected integer value, got float"
        in
        let rec reqs i acc =
          if i < 0 then acc
          else
            let h = handle i in
            reqs (i - 1)
              (if h = Core.Mpi.Mpich.request_null then acc
               else fst (request st h) :: acc)
        in
        M.waitall (reqs (count - 1) []);
        for i = 0 to count - 1 do
          let h = handle i in
          if h <> Core.Mpi.Mpich.request_null then complete_recv (request st h)
        done;
        Some [ Ri 0 ]
    | "MPI_Barrier" ->
        M.barrier st.ctx;
        Some [ Ri 0 ]
    | "MPI_Reduce" ->
        let sb = buf_arg 0 and rb = buf_arg 1 in
        let op = reduction_of (int_arg 4) in
        let root = int_arg 5 in
        (match M.reduce st.ctx ~root op (payload_of_buffer sb) with
        | Some combined -> store_payload rb combined
        | None -> ());
        Some [ Ri 0 ]
    | "MPI_Allreduce" ->
        let sb = buf_arg 0 and rb = buf_arg 1 in
        let op = reduction_of (int_arg 4) in
        store_payload rb (M.allreduce st.ctx op (payload_of_buffer sb));
        Some [ Ri 0 ]
    | "MPI_Bcast" ->
        let b = buf_arg 0 in
        let root = int_arg 3 in
        let payload = M.bcast st.ctx ~root (payload_of_buffer b) in
        store_payload b payload;
        Some [ Ri 0 ]
    | "MPI_Gather" ->
        let sb = buf_arg 0 and rb = buf_arg 3 in
        let root = int_arg 6 in
        (match M.gather st.ctx ~root (payload_of_buffer sb) with
        | Some parts ->
            let per = num_elements sb in
            List.iteri
              (fun r part ->
                match part with
                | Mpi_intf.Floats src ->
                    Array.iteri
                      (fun i v -> set_linear rb ((r * per) + i) (Rf v))
                      src
                | Mpi_intf.Ints src ->
                    Array.iteri
                      (fun i v -> set_linear rb ((r * per) + i) (Ri v))
                      src)
              parts
        | None -> ());
        Some [ Ri 0 ]
    | _ -> None

  (* The mpi dialect ops (pre func-lowering). *)
  let handle_mpi_dialect st (op : Op.t) (args : Interp.Rtval.t list) :
      Interp.Rtval.t list option =
    let open Interp.Rtval in
    let int_arg i = as_int (List.nth args i) in
    let buf_arg i = as_buffer (List.nth args i) in
    match op.Op.name with
    | "mpi.init" | "mpi.finalize" -> Some []
    | "mpi.pcontrol" ->
        let level = Op.int_attr_exn op "level" in
        let name = Core.Mpi.phase_name_of_level level in
        if level > 0 then M.span_begin st.ctx name
        else if level < 0 then M.span_end st.ctx name;
        Some []
    | "mpi.comm_rank" -> Some [ Ri (M.rank st.ctx) ]
    | "mpi.comm_size" -> Some [ Ri (M.size st.ctx) ]
    | "mpi.send" ->
        M.send st.ctx ~dest: (int_arg 1) ~tag: (int_arg 2)
          (send_view (buf_arg 0));
        Some []
    | "mpi.recv" ->
        store_payload (buf_arg 0)
          (M.recv st.ctx ~source: (int_arg 1) ~tag: (int_arg 2));
        Some []
    | "mpi.isend" ->
        let req =
          M.isend st.ctx ~dest: (int_arg 1) ~tag: (int_arg 2)
            (send_view (buf_arg 0))
        in
        Some [ Ri (fresh_handle st req None) ]
    | "mpi.irecv" ->
        let req = M.irecv st.ctx ~source: (int_arg 1) ~tag: (int_arg 2) in
        Some [ Ri (fresh_handle st req (Some (buf_arg 0))) ]
    | "mpi.null_request" -> Some [ Ri Core.Mpi.Mpich.request_null ]
    | "mpi.wait" ->
        (match lookup_request st (int_arg 0) with
        | Some rb -> complete_recv rb
        | None -> ());
        Some []
    | "mpi.test" -> (
        match lookup_request st (int_arg 0) with
        | Some (req, _) -> Some [ Ri (if M.test req then 1 else 0) ]
        | None -> Some [ Ri 1 ])
    | "mpi.waitall" ->
        let reqs =
          List.filter_map (fun a -> lookup_request st (as_int a)) args
        in
        M.waitall (List.map fst reqs);
        List.iter complete_recv reqs;
        Some []
    | "mpi.barrier" ->
        M.barrier st.ctx;
        Some []
    | "mpi.allreduce" ->
        let op_kind =
          match Op.attr op "op" with
          | Some (Typesys.String_attr "sum") -> `Sum
          | Some (Typesys.String_attr "max") -> `Max
          | Some (Typesys.String_attr "min") -> `Min
          | _ -> `Sum
        in
        store_payload (buf_arg 1)
          (M.allreduce st.ctx op_kind (payload_of_buffer (buf_arg 0)));
        Some []
    | _ -> None

  (* The dmp dialect: execute swaps directly from their declarative
     attributes (grid + exchanges), using the buffer's logical origin (from
     the "origin" attribute after loop lowering, or zeros before it). *)

  (* Shared geometry helpers for one swap-like op. *)
  let swap_geometry st (op : Op.t) (args : Interp.Rtval.t list) =
    let open Interp.Rtval in
    let buf = as_buffer (List.hd args) in
    let grid = Core.Dmp.grid_of op in
    let exchanges = Core.Dmp.exchanges_of op in
    let origin =
      match Op.attr op "origin" with
      | Some (Typesys.Dense_attr o) -> o
      | _ -> List.map (fun _ -> 0) grid
    in
    let strides = Core.Dmp_to_mpi.grid_strides grid in
    let my = M.rank st.ctx in
    let coords = List.map2 (fun g s -> my / s mod g) grid strides in
    let neighbor_of (e : Typesys.exchange) =
      let nc = List.map2 ( + ) coords e.Typesys.ex_neighbor in
      if List.for_all2 (fun c g -> c >= 0 && c < g) nc grid then
        Some (List.fold_left2 (fun acc c s -> acc + (c * s)) 0 nc strides)
      else None
    in
    (buf, exchanges, origin, neighbor_of)

  let box_size (e : Typesys.exchange) =
    List.fold_left ( * ) 1 e.Typesys.ex_size

  (* Pack and unpack are one bounds-checked box copy each, between the
     field and a dense payload box of the exchange's size (the same
     strided copy scatter, gather and the lowered pack/unpack use). *)
  let box_origin (e : Typesys.exchange) =
    List.map (fun _ -> 0) e.Typesys.ex_size

  let pack_exchange buf origin (e : Typesys.exchange) : Mpi_intf.payload =
    let box =
      Interp.Rtval.alloc_buffer e.Typesys.ex_size buf.Interp.Rtval.elt
    in
    Domain.copy_box ~src: buf
      ~src_at:
        (List.map2 ( + )
           (List.map2 ( + ) origin e.Typesys.ex_offset)
           e.Typesys.ex_source_offset)
      ~dst: box ~dst_at: (box_origin e) ~sizes: e.Typesys.ex_size;
    match box.Interp.Rtval.data with
    | Interp.Rtval.F a -> Mpi_intf.Floats a
    | Interp.Rtval.I a -> Mpi_intf.Ints a

  let unpack_exchange buf origin (e : Typesys.exchange) (p : Mpi_intf.payload)
      =
    let data =
      match p with
      | Mpi_intf.Floats a -> Interp.Rtval.F a
      | Mpi_intf.Ints a -> Interp.Rtval.I a
    in
    let box =
      {
        Interp.Rtval.shape = e.Typesys.ex_size;
        lo = box_origin e;
        data;
        elt = buf.Interp.Rtval.elt;
      }
    in
    Domain.copy_box ~src: box ~src_at: (box_origin e) ~dst: buf
      ~dst_at: (List.map2 ( + ) origin e.Typesys.ex_offset)
      ~sizes: e.Typesys.ex_size

  let elt_bytes_of (buf : Interp.Rtval.buffer) =
    match buf.Interp.Rtval.elt with
    | Typesys.Float Typesys.F32 -> 4
    | _ -> 8

  (* Post one swap's sends and receives; returns per exchange
     (exchange, recv request option). *)
  let post_swap st buf exchanges origin neighbor_of :
      (Typesys.exchange * M.request option) list =
    List.map
      (fun (e : Typesys.exchange) ->
        match neighbor_of e with
        | None -> (e, None)
        | Some peer ->
            M.span_begin st.ctx "pack";
            let payload = pack_exchange buf origin e in
            M.span_end st.ctx "pack";
            ignore
              (M.isend st.ctx ~dest: peer
                 ~tag: (Core.Dmp_to_mpi.send_tag e)
                 ~bytes: (box_size e * elt_bytes_of buf)
                 payload);
            ( e,
              Some
                (M.irecv st.ctx ~source: peer
                   ~tag: (Core.Dmp_to_mpi.recv_tag e)) ))
      exchanges

  let complete_swap st buf origin pending =
    M.waitall (List.filter_map snd pending);
    List.iter
      (fun (e, req) ->
        match req with
        | None -> ()
        | Some req -> (
            match M.wait req with
            | Some p ->
                M.span_begin st.ctx "unpack";
                unpack_exchange buf origin e p;
                M.span_end st.ctx "unpack"
            | None -> Interp.Rtval.error "dmp swap: missing payload"))
      pending

  let handle_dmp st (op : Op.t) (args : Interp.Rtval.t list) :
      Interp.Rtval.t list option =
    let open Interp.Rtval in
    match op.Op.name with
    | "dmp.swap" ->
        let buf, exchanges, origin, neighbor_of = swap_geometry st op args in
        complete_swap st buf origin
          (post_swap st buf exchanges origin neighbor_of);
        Some []
    | "dmp.swap_begin" ->
        (* Post and hand back request handles: [send; recv] per exchange
           (sends complete eagerly, so their handles are null). *)
        let buf, exchanges, origin, neighbor_of = swap_geometry st op args in
        let pending = post_swap st buf exchanges origin neighbor_of in
        let handles =
          List.concat_map
            (fun (_, req) ->
              match req with
              | None ->
                  [ Ri Core.Mpi.Mpich.request_null;
                    Ri Core.Mpi.Mpich.request_null ]
              | Some r -> [ Ri Core.Mpi.Mpich.request_null;
                            Ri (fresh_handle st r None) ])
            pending
        in
        Some handles
    | "dmp.swap_wait" ->
        let buf, exchanges, origin, _ = swap_geometry st op args in
        let req_handles = List.tl args in
        (* Operand layout: per exchange a (send, recv) handle pair. *)
        let rec pair = function
          | [] -> []
          | _send :: recv :: rest -> recv :: pair rest
          | [ _ ] -> Interp.Rtval.error "dmp.swap_wait: odd request count"
        in
        let recv_handles = pair req_handles in
        List.iter2
          (fun (e : Typesys.exchange) h ->
            match lookup_request st (as_int h) with
            | Some (req, _) -> (
                match M.wait req with
                | Some p ->
                    M.span_begin st.ctx "unpack";
                    unpack_exchange buf origin e p;
                    M.span_end st.ctx "unpack"
                | None -> Interp.Rtval.error "dmp.swap_wait: missing payload")
            | None -> ())
          exchanges recv_handles;
        Some []
    | _ -> None

  (* The combined handler for one rank. *)
  let externs_for (st : state) : Interp.Engine.externs =
   fun op args ->
    match op.Op.name with
    | "func.call" -> (
        match Op.attr op "callee" with
        | Some (Typesys.Symbol_attr callee) -> handle_call st callee args
        | _ -> None)
    | name when String.length name > 4 && String.sub name 0 4 = "mpi." ->
        handle_mpi_dialect st op args
    | name when String.length name > 4 && String.sub name 0 4 = "dmp." ->
        handle_dmp st op args
    | _ -> None
end
