(* The discrete-event replay engine.

   One logical clock per rank advances through the schedule's items in
   program order.  Because the program is SPMD and the substrates match
   FIFO per (src, dst, tag), the k-th swap item on one rank pairs with
   the k-th swap item on its neighbors, so each swap can be resolved in
   two phases across all ranks — first every rank's sends are posted,
   then every rank's waits are released against the recorded post times
   — without a general event queue. *)

type prediction = {
  p_wall_s : float;
  p_rank_span_s : float array;
  p_timeline : Mpi_intf.timeline_event list;
  p_messages : int;
  p_bytes : int;
}

let predicted_efficiency ~baseline_ranks ~baseline_wall_s ~ranks ~wall_s =
  if wall_s <= 0. || ranks <= 0 then 0.
  else
    baseline_wall_s *. float_of_int baseline_ranks
    /. (wall_s *. float_of_int ranks)

(* Event-kind ordering for equal timestamps: a send must precede the
   completion of the receive it matches even under a zero-cost model. *)
let kind_order (k : Mpi_intf.event_kind) =
  match k with Mpi_intf.Recv_complete _ -> 1 | _ -> 0

let run ?(model = Netmodel.reference) ?cores ?(emit_timeline = true)
    (s : Schedule.t) : prediction =
  let ranks = s.Schedule.ranks in
  let cores = match cores with Some c -> max 1 c | None -> ranks in
  (* Time-sharing slowdown of host-side work when ranks exceed cores. *)
  let slow = Float.max 1. (float_of_int ranks /. float_of_int cores) in
  let compute_s cells =
    float_of_int cells *. model.Netmodel.compute_s_per_cell *. slow
  in
  let pack_s bytes =
    float_of_int bytes *. model.Netmodel.pack_s_per_byte *. slow
  in
  let unpack_s bytes =
    float_of_int bytes *. model.Netmodel.unpack_s_per_byte *. slow
  in
  let n_swaps = Array.length s.Schedule.swaps in
  (* Per (swap, rank) message lists, fixed across steps. *)
  let sends =
    Array.init n_swaps (fun swap ->
        Array.init ranks (fun rank -> Schedule.rank_sends s ~swap ~rank))
  in
  let recvs =
    Array.init n_swaps (fun swap ->
        Array.init ranks (fun rank -> Schedule.rank_recvs s ~swap ~rank))
  in
  let send_bytes = Array.map (Array.map (List.fold_left (fun a (_, _, b) -> a + b) 0)) sends in
  let recv_bytes = Array.map (Array.map (List.fold_left (fun a (_, _, b) -> a + b) 0)) recvs in
  let clock = Array.make ranks 0. in
  (* Send-post times of the current in-flight instance of each swap. *)
  let post = Array.make_matrix n_swaps ranks 0. in
  (* Per-rank event accumulators (reverse order). *)
  let events : (float * Mpi_intf.event_kind) list array = Array.make ranks [] in
  let emit r ts kind = if emit_timeline then events.(r) <- (ts, kind) :: events.(r) in
  let post_swap swap r =
    let pb = send_bytes.(swap).(r) in
    if pb > 0 then begin
      emit r clock.(r) (Mpi_intf.Span_begin "pack");
      clock.(r) <- clock.(r) +. pack_s pb;
      emit r clock.(r) (Mpi_intf.Span_end "pack")
    end;
    List.iter
      (fun (dest, tag, bytes) ->
        emit r clock.(r) (Mpi_intf.Isend { dest; tag; bytes }))
      sends.(swap).(r);
    List.iter
      (fun (source, tag, _) -> emit r clock.(r) (Mpi_intf.Irecv { source; tag }))
      recvs.(swap).(r);
    post.(swap).(r) <- clock.(r)
  in
  let wait_swap swap r =
    let rs = recvs.(swap).(r) in
    let n_req = List.length sends.(swap).(r) + List.length rs in
    if n_req > 0 then begin
      let t0 = clock.(r) in
      emit r t0 (Mpi_intf.Waitall_begin n_req);
      let arrivals =
        List.map
          (fun (source, tag, bytes) ->
            (* Message latency also stretches under time-sharing: the
               sender and receiver domains must each get scheduled for
               the transfer to progress, so delivery slows by the same
               factor as host-side work.  On a cluster-style replay
               (cores >= ranks) [slow] is 1 and this is the pure
               postal-model cost. *)
            let a =
              post.(swap).(source)
              +. (Netmodel.msg_cost model ~bytes *. slow)
            in
            ((source, tag, bytes), Float.max t0 a))
          rs
        |> List.sort (fun (_, a) (_, b) -> compare a b)
      in
      List.iter
        (fun ((source, tag, bytes), a) ->
          emit r a (Mpi_intf.Recv_complete { source; tag; bytes }))
        arrivals;
      let t_end =
        List.fold_left (fun acc (_, a) -> Float.max acc a) t0 arrivals
      in
      clock.(r) <- t_end;
      emit r t_end Mpi_intf.Waitall_end;
      let ub = recv_bytes.(swap).(r) in
      if ub > 0 then begin
        emit r clock.(r) (Mpi_intf.Span_begin "unpack");
        clock.(r) <- clock.(r) +. unpack_s ub;
        emit r clock.(r) (Mpi_intf.Span_end "unpack")
      end
    end
  in
  for _step = 1 to s.Schedule.steps do
    List.iter
      (fun (item : Schedule.item) ->
        match item with
        | Schedule.Compute cells ->
            for r = 0 to ranks - 1 do
              clock.(r) <- clock.(r) +. compute_s cells
            done
        | Schedule.Swap_begin swap ->
            for r = 0 to ranks - 1 do
              post_swap swap r
            done
        | Schedule.Swap_wait swap ->
            for r = 0 to ranks - 1 do
              wait_swap swap r
            done
        | Schedule.Swap swap ->
            (* Two phases: all posts land before any wait resolves. *)
            for r = 0 to ranks - 1 do
              post_swap swap r
            done;
            for r = 0 to ranks - 1 do
              wait_swap swap r
            done)
      s.Schedule.body
  done;
  let wall = Array.fold_left Float.max 0. clock in
  let timeline =
    if not emit_timeline then []
    else begin
      (* Merge per-rank streams into one global sequence: order by
         timestamp, sends before matching completions on ties, then by
         (rank, within-rank order). *)
      let all = ref [] in
      Array.iteri
        (fun r evs ->
          List.iteri
            (fun i (ts, kind) -> all := (ts, kind_order kind, r, -i, kind) :: !all)
            evs)
        events;
      let sorted =
        List.sort
          (fun (ts1, k1, r1, i1, _) (ts2, k2, r2, i2, _) ->
            compare (ts1, k1, r1, i1) (ts2, k2, r2, i2))
          !all
      in
      List.mapi
        (fun seq (ts, _, r, _, kind) ->
          { Mpi_intf.seq; ts; ev_rank = r; kind })
        sorted
    end
  in
  {
    p_wall_s = wall;
    p_rank_span_s = Array.copy clock;
    p_timeline = timeline;
    p_messages = Schedule.total_messages s;
    p_bytes = Schedule.total_bytes s;
  }
