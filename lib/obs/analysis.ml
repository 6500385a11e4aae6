(* Timeline analytics: a pure layer turning one run's substrate timeline
   (Mpi_intf.timeline_event list) into per-rank phase breakdowns, a
   rank x rank communication matrix, the critical path through the
   happens-before graph, an overlap-efficiency figure and the matched
   (bytes, latency) samples the alpha-beta network model is fitted from
   (bucketed, outlier-rejecting, constrained least squares).

   Phase attribution works on each rank's event sequence with a phase
   stack: pcontrol spans open pack/unpack phases, wait/waitall spans open
   exchange-wait (or collective, when the awaited request carries the
   reserved collective tag), and every gap between consecutive events is
   charged to the phase on top of the stack — compute when the stack is
   empty.  The five buckets therefore sum to the rank's span exactly.

   Message matching is FIFO per (src, dst, tag), mirroring the matching
   rule of both substrates, so the k-th Isend on a channel pairs with the
   k-th Recv_complete.  Those pairs induce the cross-rank edges of the
   happens-before DAG; within a rank consecutive events are chained.  The
   critical path is the longest path through that DAG (weights are
   clamped-nonnegative time gaps), which by construction is at least as
   long as the longest single-rank span. *)

type phase = Compute | Pack | Exchange_wait | Unpack | Collective_phase | Flight

let phase_name = function
  | Compute -> "compute"
  | Pack -> "pack"
  | Exchange_wait -> "wait"
  | Unpack -> "unpack"
  | Collective_phase -> "collective"
  | Flight -> "flight"

type rank_phases = {
  bd_rank : int;
  bd_span_s : float;
  bd_compute_s : float;
  bd_pack_s : float;
  bd_wait_s : float;
  bd_unpack_s : float;
  bd_collective_s : float;
  bd_events : int;
}

type comm_matrix = {
  cm_ranks : int;
  cm_messages : int array array;
  cm_bytes : int array array;
  cm_latency_s : float array array;
}

let matrix_total_messages m =
  Array.fold_left
    (fun acc row -> Array.fold_left ( + ) acc row)
    0 m.cm_messages

let matrix_total_bytes m =
  Array.fold_left (fun acc row -> Array.fold_left ( + ) acc row) 0 m.cm_bytes

type msg_sample = {
  ms_src : int;
  ms_dst : int;
  ms_tag : int;
  ms_bytes : int;
  ms_send_ts : float;
  ms_recv_ts : float;
}

type path_link = { pl_rank : int; pl_phase : phase; pl_dur_s : float }

type overlap_stats = {
  ov_inflight_s : float;
  ov_exposed_s : float;
  ov_hidden_s : float;
  ov_efficiency : float option;
}

type report = {
  r_ranks : int;
  r_breakdown : rank_phases array;
  r_matrix : comm_matrix;
  r_critical_path : path_link list;
  r_critical_path_s : float;
  r_slack_s : float array;
  r_overlap : overlap_stats;
  r_samples : msg_sample list;
  r_unmatched_sends : int;
}

(* --- phase classification --- *)

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let phase_of_span_name = function
  | "pack" -> Pack
  | "unpack" -> Unpack
  | _ -> Compute

let phase_of_wait desc =
  if contains_substring desc "collective" then Collective_phase
  else Exchange_wait

(* Per-rank walk: classify the gap after each event.  [on_gap] receives
   (rank, phase, dt); [phase_after] is filled with the classification of
   the gap following each global event index. *)
let classify_gaps (events : Mpi_intf.timeline_event array)
    (by_rank : int list array) (phase_after : phase array)
    ~(on_gap : int -> phase -> float -> unit) : unit =
  Array.iteri
    (fun r idxs ->
      let stack = ref [] in
      let push p = stack := p :: !stack in
      let pop () = match !stack with [] -> () | _ :: rest -> stack := rest in
      let top () = match !stack with [] -> Compute | p :: _ -> p in
      let rec walk = function
        | [] -> ()
        | i :: rest ->
            (match events.(i).Mpi_intf.kind with
            | Mpi_intf.Span_begin name -> push (phase_of_span_name name)
            | Mpi_intf.Span_end _ -> pop ()
            | Mpi_intf.Wait_begin desc -> push (phase_of_wait desc)
            | Mpi_intf.Waitall_begin _ -> push Exchange_wait
            | Mpi_intf.Wait_end | Mpi_intf.Waitall_end -> pop ()
            | Mpi_intf.Isend _ | Mpi_intf.Irecv _ | Mpi_intf.Recv_complete _
            | Mpi_intf.Collective _ ->
                ());
            let p = top () in
            phase_after.(i) <- p;
            (match rest with
            | next :: _ ->
                let dt =
                  Float.max 0.
                    (events.(next).Mpi_intf.ts -. events.(i).Mpi_intf.ts)
                in
                on_gap r p dt
            | [] -> ());
            walk rest
      in
      walk idxs)
    by_rank

let analyze ~ranks (tl : Mpi_intf.timeline_event list) : report =
  let events =
    Array.of_list
      (List.sort
         (fun (a : Mpi_intf.timeline_event) (b : Mpi_intf.timeline_event) ->
           compare a.Mpi_intf.seq b.Mpi_intf.seq)
         tl)
  in
  let n = Array.length events in
  let rank_of i = events.(i).Mpi_intf.ev_rank in
  let ts_of i = events.(i).Mpi_intf.ts in
  (* Event indices per rank, in sequence order. *)
  let by_rank = Array.make ranks [] in
  for i = n - 1 downto 0 do
    let r = rank_of i in
    if r >= 0 && r < ranks then by_rank.(r) <- i :: by_rank.(r)
  done;
  (* Phase buckets: compute/pack/wait/unpack/collective per rank. *)
  let buckets = Array.make_matrix ranks 5 0. in
  let bucket_index = function
    | Compute -> 0
    | Pack -> 1
    | Exchange_wait -> 2
    | Unpack -> 3
    | Collective_phase -> 4
    | Flight -> 0
  in
  let phase_after = Array.make (max n 1) Compute in
  classify_gaps events by_rank phase_after ~on_gap: (fun r p dt ->
      buckets.(r).(bucket_index p) <- buckets.(r).(bucket_index p) +. dt);
  let breakdown =
    Array.init ranks (fun r ->
        let span =
          match by_rank.(r) with
          | [] -> 0.
          | first :: _ ->
              let rec last = function
                | [ x ] -> x
                | _ :: rest -> last rest
                | [] -> first
              in
              Float.max 0. (ts_of (last by_rank.(r)) -. ts_of first)
        in
        {
          bd_rank = r;
          bd_span_s = span;
          bd_compute_s = buckets.(r).(0);
          bd_pack_s = buckets.(r).(1);
          bd_wait_s = buckets.(r).(2);
          bd_unpack_s = buckets.(r).(3);
          bd_collective_s = buckets.(r).(4);
          bd_events = List.length by_rank.(r);
        })
  in
  (* One pass in global sequence order: FIFO message matching (comm
     matrix + calibration samples) fused with the longest-path DP over
     the happens-before DAG. *)
  let matrix =
    {
      cm_ranks = ranks;
      cm_messages = Array.make_matrix ranks ranks 0;
      cm_bytes = Array.make_matrix ranks ranks 0;
      cm_latency_s = Array.make_matrix ranks ranks 0.;
    }
  in
  let pending_sends : (int * int * int, int Queue.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let sends_queue key =
    match Hashtbl.find_opt pending_sends key with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add pending_sends key q;
        q
  in
  let dist = Array.make (max n 1) 0. in
  (* Predecessor: (index, is_flight_edge). *)
  let pred = Array.make (max n 1) None in
  let prev_on_rank = Array.make ranks (-1) in
  let rev_samples = ref [] in
  for i = 0 to n - 1 do
    let r = rank_of i in
    if r >= 0 && r < ranks then begin
      (match prev_on_rank.(r) with
      | -1 -> ()
      | j ->
          let d = dist.(j) +. Float.max 0. (ts_of i -. ts_of j) in
          if d > dist.(i) then begin
            dist.(i) <- d;
            pred.(i) <- Some (j, false)
          end);
      (match events.(i).Mpi_intf.kind with
      | Mpi_intf.Isend { dest; tag; bytes } ->
          if dest >= 0 && dest < ranks then begin
            matrix.cm_messages.(r).(dest) <- matrix.cm_messages.(r).(dest) + 1;
            matrix.cm_bytes.(r).(dest) <- matrix.cm_bytes.(r).(dest) + bytes;
            Queue.push i (sends_queue (r, dest, tag))
          end
      | Mpi_intf.Recv_complete { source; tag; bytes } ->
          if source >= 0 && source < ranks then begin
            let q = sends_queue (source, r, tag) in
            if not (Queue.is_empty q) then begin
              let si = Queue.pop q in
              let latency = Float.max 0. (ts_of i -. ts_of si) in
              matrix.cm_latency_s.(source).(r) <-
                matrix.cm_latency_s.(source).(r) +. latency;
              rev_samples :=
                {
                  ms_src = source;
                  ms_dst = r;
                  ms_tag = tag;
                  ms_bytes = bytes;
                  ms_send_ts = ts_of si;
                  ms_recv_ts = ts_of si +. latency;
                }
                :: !rev_samples;
              let d = dist.(si) +. latency in
              if d > dist.(i) then begin
                dist.(i) <- d;
                pred.(i) <- Some (si, true)
              end
            end
          end
      | _ -> ());
      prev_on_rank.(r) <- i
    end
  done;
  let unmatched =
    Hashtbl.fold (fun _ q acc -> acc + Queue.length q) pending_sends 0
  in
  (* Critical path: backtrack from the farthest event, then merge
     consecutive links with the same (rank, phase). *)
  let critical_path_s, critical_path =
    if n = 0 then (0., [])
    else begin
      let best = ref 0 in
      for i = 1 to n - 1 do
        if dist.(i) > dist.(!best) then best := i
      done;
      let rec backtrack i acc =
        match pred.(i) with
        | None -> acc
        | Some (j, is_flight) ->
            let dur = Float.max 0. (ts_of i -. ts_of j) in
            let link =
              if is_flight then
                { pl_rank = rank_of i; pl_phase = Flight; pl_dur_s = dur }
              else
                {
                  pl_rank = rank_of i;
                  pl_phase = phase_after.(j);
                  pl_dur_s = dur;
                }
            in
            backtrack j (link :: acc)
      in
      let raw = backtrack !best [] in
      let merged =
        List.fold_left
          (fun acc link ->
            match acc with
            | prev :: rest
              when prev.pl_rank = link.pl_rank
                   && prev.pl_phase = link.pl_phase ->
                { prev with pl_dur_s = prev.pl_dur_s +. link.pl_dur_s } :: rest
            | _ -> link :: acc)
          [] raw
      in
      (dist.(!best), List.rev (List.filter (fun l -> l.pl_dur_s > 0.) merged))
    end
  in
  let slack =
    Array.map
      (fun bd -> Float.max 0. (critical_path_s -. bd.bd_span_s))
      breakdown
  in
  let samples = List.rev !rev_samples in
  let inflight =
    List.fold_left (fun acc s -> acc +. (s.ms_recv_ts -. s.ms_send_ts)) 0. samples
  in
  let exposed =
    Array.fold_left (fun acc bd -> acc +. bd.bd_wait_s) 0. breakdown
  in
  let hidden = Float.max 0. (inflight -. exposed) in
  let overlap =
    {
      ov_inflight_s = inflight;
      ov_exposed_s = exposed;
      ov_hidden_s = hidden;
      ov_efficiency =
        (if samples <> [] && inflight > 0. then Some (hidden /. inflight)
         else None);
    }
  in
  {
    r_ranks = ranks;
    r_breakdown = breakdown;
    r_matrix = matrix;
    r_critical_path = critical_path;
    r_critical_path_s = critical_path_s;
    r_slack_s = slack;
    r_overlap = overlap;
    r_samples = samples;
    r_unmatched_sends = unmatched;
  }

(* --- alpha-beta network-model calibration ---

   The fit deliberately does NOT pool every matched message into one
   ordinary least squares: on an oversubscribed host a message can sit
   matched-but-unserviced for milliseconds while the receiving domain is
   descheduled, and those stalls correlate with *small* late-run
   messages — pooled OLS then slopes downward (a negative per-byte cost)
   while explaining almost nothing (r² ≈ 0).  Bucketing by message size,
   rejecting per-bucket latency outliers and constraining the line
   nonnegative yields coefficients that are at least physical; when even
   that cannot be identified the fit fails loudly. *)

type bucket = {
  bk_bytes : int;
  bk_samples : int;
  bk_kept : int;
  bk_mean_s : float;
}

type fit = {
  f_alpha_s : float;
  f_beta_s_per_byte : float;
  f_r2 : float;
  f_samples : int;
  f_dropped : int;
  f_buckets : bucket list;
}

let median (xs : float list) =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Latencies beyond [outlier_k] times their bucket's median are dropped;
   [min_buckets] distinct sizes and [min_kept] surviving samples are
   needed to identify the line. *)
let outlier_k = 4.
let min_buckets = 2
let min_kept = 8

let fit_alpha_beta (samples : msg_sample list) : (fit, string) result =
  let by_size : (int, float list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let lat = s.ms_recv_ts -. s.ms_send_ts in
      if Float.is_finite lat && lat >= 0. then begin
        match Hashtbl.find_opt by_size s.ms_bytes with
        | Some l -> l := lat :: !l
        | None -> Hashtbl.add by_size s.ms_bytes (ref [ lat ])
      end)
    samples;
  let buckets =
    Hashtbl.fold
      (fun bytes lats acc ->
        let all = !lats in
        let med = median all in
        (* Outlier rejection: latencies beyond [outlier_k] times the
           bucket median are descheduling stalls (time-shared domains),
           not network behavior. *)
        let cutoff = outlier_k *. Float.max med 1e-12 in
        let kept = List.filter (fun l -> l <= cutoff) all in
        let kept = if kept = [] then all else kept in
        let mean =
          List.fold_left ( +. ) 0. kept /. float_of_int (List.length kept)
        in
        {
          bk_bytes = bytes;
          bk_samples = List.length all;
          bk_kept = List.length kept;
          bk_mean_s = mean;
        }
        :: acc)
      by_size []
    |> List.sort (fun a b -> compare a.bk_bytes b.bk_bytes)
  in
  let kept_total = List.fold_left (fun acc b -> acc + b.bk_kept) 0 buckets in
  let dropped =
    List.fold_left (fun acc b -> acc + b.bk_samples - b.bk_kept) 0 buckets
  in
  if buckets = [] then Error "no matched message samples"
  else if List.length buckets < min_buckets then
    Error
      (Printf.sprintf
         "only %d distinct message size(s); %d needed to identify alpha and \
          beta"
         (List.length buckets) min_buckets)
  else if kept_total < min_kept then
    Error
      (Printf.sprintf "only %d sample(s) after outlier rejection; %d needed"
         kept_total min_kept)
  else begin
    (* Weighted least squares over the bucket means, weight = kept count. *)
    let sw, swx, swy =
      List.fold_left
        (fun (sw, swx, swy) b ->
          let w = float_of_int b.bk_kept in
          ( sw +. w,
            swx +. (w *. float_of_int b.bk_bytes),
            swy +. (w *. b.bk_mean_s) ))
        (0., 0., 0.) buckets
    in
    let mx = swx /. sw and my = swy /. sw in
    let sxx, sxy, syy =
      List.fold_left
        (fun (sxx, sxy, syy) b ->
          let w = float_of_int b.bk_kept in
          let dx = float_of_int b.bk_bytes -. mx in
          let dy = b.bk_mean_s -. my in
          (sxx +. (w *. dx *. dx), sxy +. (w *. dx *. dy), syy +. (w *. dy *. dy)))
        (0., 0., 0.) buckets
    in
    let beta = if sxx > 0. then sxy /. sxx else 0. in
    let alpha = my -. (beta *. mx) in
    (* Nonnegativity: project onto the constraint set (for a 2-parameter
       line the active-set solution is one of the two axis fits). *)
    let alpha, beta =
      if beta < 0. then (Float.max 0. my, 0.)
      else if alpha < 0. then begin
        let sxx0, sxy0 =
          List.fold_left
            (fun (sxx0, sxy0) b ->
              let w = float_of_int b.bk_kept in
              let x = float_of_int b.bk_bytes in
              (sxx0 +. (w *. x *. x), sxy0 +. (w *. x *. b.bk_mean_s)))
            (0., 0.) buckets
        in
        (0., if sxx0 > 0. then Float.max 0. (sxy0 /. sxx0) else 0.)
      end
      else (alpha, beta)
    in
    let ss_res =
      List.fold_left
        (fun acc b ->
          let w = float_of_int b.bk_kept in
          let e =
            b.bk_mean_s -. (alpha +. (beta *. float_of_int b.bk_bytes))
          in
          acc +. (w *. e *. e))
        0. buckets
    in
    let r2 = if syy > 0. then 1. -. (ss_res /. syy) else 1. in
    Ok
      {
        f_alpha_s = alpha;
        f_beta_s_per_byte = beta;
        f_r2 = r2;
        f_samples = kept_total;
        f_dropped = dropped;
        f_buckets = buckets;
      }
  end

(* --- rendering --- *)

let pp_report fmt (r : report) =
  let pct part whole = if whole > 0. then 100. *. part /. whole else 0. in
  Format.fprintf fmt "== run analysis: %d rank(s), %d matched message(s) ==@."
    r.r_ranks
    (List.length r.r_samples);
  Format.fprintf fmt "per-rank phase breakdown (seconds):@.";
  Format.fprintf fmt "  %4s %10s %10s %10s %10s %10s %10s %8s@." "rank" "span"
    "compute" "pack" "wait" "unpack" "collective" "wait%";
  Array.iter
    (fun bd ->
      Format.fprintf fmt
        "  %4d %10.6f %10.6f %10.6f %10.6f %10.6f %10.6f %7.1f%%@." bd.bd_rank
        bd.bd_span_s bd.bd_compute_s bd.bd_pack_s bd.bd_wait_s bd.bd_unpack_s
        bd.bd_collective_s
        (pct bd.bd_wait_s bd.bd_span_s))
    r.r_breakdown;
  let m = r.r_matrix in
  Format.fprintf fmt "comm matrix (messages/bytes, rows send to columns):@.";
  Format.fprintf fmt "  %8s" "src\\dst";
  for dst = 0 to m.cm_ranks - 1 do
    Format.fprintf fmt " %12d" dst
  done;
  Format.fprintf fmt "@.";
  for src = 0 to m.cm_ranks - 1 do
    Format.fprintf fmt "  %8d" src;
    for dst = 0 to m.cm_ranks - 1 do
      if m.cm_messages.(src).(dst) = 0 then Format.fprintf fmt " %12s" "-"
      else
        Format.fprintf fmt " %12s"
          (Printf.sprintf "%d/%d" m.cm_messages.(src).(dst)
             m.cm_bytes.(src).(dst))
    done;
    Format.fprintf fmt "@."
  done;
  Format.fprintf fmt "  totals: %d message(s), %d byte(s)"
    (matrix_total_messages m) (matrix_total_bytes m);
  if r.r_unmatched_sends > 0 then
    Format.fprintf fmt " (%d unmatched send(s))" r.r_unmatched_sends;
  Format.fprintf fmt "@.";
  Format.fprintf fmt "critical path: %.6f s over %d link(s)@."
    r.r_critical_path_s
    (List.length r.r_critical_path);
  (* Time on the path per (rank, phase), largest first — the full link
     chain is in the json report. *)
  let path_totals = Hashtbl.create 16 in
  List.iter
    (fun l ->
      let key = (l.pl_rank, l.pl_phase) in
      let t =
        match Hashtbl.find_opt path_totals key with Some t -> t | None -> 0.
      in
      Hashtbl.replace path_totals key (t +. l.pl_dur_s))
    r.r_critical_path;
  let rows =
    Hashtbl.fold (fun (rk, p) t acc -> (rk, p, t) :: acc) path_totals []
    |> List.sort (fun (_, _, a) (_, _, b) -> compare (b : float) a)
  in
  List.iter
    (fun (rk, p, t) ->
      Format.fprintf fmt "  rank %d %-10s %.6f s (%.1f%% of path)@." rk
        (phase_name p) t
        (pct t r.r_critical_path_s))
    rows;
  Format.fprintf fmt "rank slack vs critical path (s):";
  Array.iteri (fun i s -> Format.fprintf fmt " r%d=%.6f" i s) r.r_slack_s;
  Format.fprintf fmt "@.";
  let ov = r.r_overlap in
  Format.fprintf fmt
    "overlap: in-flight %.6f s, exposed (blocked) %.6f s, hidden %.6f s"
    ov.ov_inflight_s ov.ov_exposed_s ov.ov_hidden_s;
  (match ov.ov_efficiency with
  | Some e -> Format.fprintf fmt ", efficiency %.1f%%@." (100. *. e)
  | None -> Format.fprintf fmt ", efficiency n/a (no matched messages)@.");
  match fit_alpha_beta r.r_samples with
  | Error reason ->
      Format.fprintf fmt "network model: not identified: %s@." reason
  | Ok f ->
      Format.fprintf fmt
        "network model fit: alpha=%.3e s, beta=%.3e s/byte, r2=%.3f (kept=%d, \
         dropped=%d)@."
        f.f_alpha_s f.f_beta_s_per_byte f.f_r2 f.f_samples f.f_dropped

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let int_matrix_json (m : int array array) =
  "["
  ^ String.concat ","
      (Array.to_list
         (Array.map
            (fun row ->
              "["
              ^ String.concat "," (Array.to_list (Array.map string_of_int row))
              ^ "]")
            m))
  ^ "]"

let float_matrix_json (m : float array array) =
  "["
  ^ String.concat ","
      (Array.to_list
         (Array.map
            (fun row ->
              "["
              ^ String.concat ","
                  (Array.to_list
                     (Array.map (fun v -> Printf.sprintf "%.9g" v) row))
              ^ "]")
            m))
  ^ "]"

(* The fit's verdict as one JSON object.  On [Error], alpha/beta/r² are
   [null] with a ["fit_error"] naming the reason, so a degenerate
   calibration is visible, not papered over. *)
let fit_json (f : (fit, string) result) : string =
  match f with
  | Error reason ->
      Printf.sprintf
        "{\"alpha_s\": null, \"beta_s_per_byte\": null, \"r2\": null, \
         \"samples\": 0, \"fit_error\": \"%s\"}"
        (json_escape reason)
  | Ok f ->
      Printf.sprintf
        "{\"alpha_s\": %.9g, \"beta_s_per_byte\": %.9g, \"r2\": %.6f, \
         \"samples\": %d, \"dropped_outliers\": %d, \"buckets\": [%s]}"
        f.f_alpha_s f.f_beta_s_per_byte f.f_r2 f.f_samples f.f_dropped
        (String.concat ", "
           (List.map
              (fun bk ->
                Printf.sprintf
                  "{\"bytes\": %d, \"samples\": %d, \"kept\": %d, \
                   \"mean_s\": %.9g}"
                  bk.bk_bytes bk.bk_samples bk.bk_kept bk.bk_mean_s)
              f.f_buckets))

let report_json (r : report) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"ranks\": %d,\n" r.r_ranks);
  Buffer.add_string b "  \"breakdown\": [\n";
  Array.iteri
    (fun i bd ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"rank\": %d, \"span_s\": %.9g, \"compute_s\": %.9g, \
            \"pack_s\": %.9g, \"wait_s\": %.9g, \"unpack_s\": %.9g, \
            \"collective_s\": %.9g, \"events\": %d}%s\n"
           bd.bd_rank bd.bd_span_s bd.bd_compute_s bd.bd_pack_s bd.bd_wait_s
           bd.bd_unpack_s bd.bd_collective_s bd.bd_events
           (if i = Array.length r.r_breakdown - 1 then "" else ",")))
    r.r_breakdown;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b
    (Printf.sprintf "  \"comm_matrix\": {\"messages\": %s, \"bytes\": %s, \"latency_s\": %s},\n"
       (int_matrix_json r.r_matrix.cm_messages)
       (int_matrix_json r.r_matrix.cm_bytes)
       (float_matrix_json r.r_matrix.cm_latency_s));
  Buffer.add_string b
    (Printf.sprintf "  \"critical_path_s\": %.9g,\n" r.r_critical_path_s);
  Buffer.add_string b "  \"critical_path\": [";
  List.iteri
    (fun i l ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "{\"rank\": %d, \"phase\": \"%s\", \"dur_s\": %.9g}"
           l.pl_rank
           (json_escape (phase_name l.pl_phase))
           l.pl_dur_s))
    r.r_critical_path;
  Buffer.add_string b "],\n";
  Buffer.add_string b "  \"slack_s\": [";
  Array.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "%.9g" s))
    r.r_slack_s;
  Buffer.add_string b "],\n";
  let ov = r.r_overlap in
  Buffer.add_string b
    (Printf.sprintf
       "  \"overlap\": {\"inflight_s\": %.9g, \"exposed_s\": %.9g, \
        \"hidden_s\": %.9g, \"efficiency\": %s},\n"
       ov.ov_inflight_s ov.ov_exposed_s ov.ov_hidden_s
       (match ov.ov_efficiency with
       | Some e -> Printf.sprintf "%.6f" e
       | None -> "null"));
  Buffer.add_string b
    (Printf.sprintf "  \"unmatched_sends\": %d,\n" r.r_unmatched_sends);
  Buffer.add_string b
    (Printf.sprintf "  \"netmodel\": %s\n" (fit_json (fit_alpha_beta r.r_samples)));
  Buffer.add_string b "}\n";
  Buffer.contents b
