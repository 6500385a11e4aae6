(* Decomposition auto-tuning by exhaustive replay over a small space.

   The space is tiny (strategies x modes x overlap = at most a dozen
   candidates) and each score is one symbolic schedule extraction plus a
   clock-only replay, so exhaustive search is cheap even at 1024 ranks.
   Enumeration order doubles as the tie-break: the stack's defaults
   (Slice2d, Faces) come first and win unless a candidate is strictly
   cheaper, keeping tuned runs reproducible against existing baselines. *)

open Ir

type candidate = {
  c_strategy : Core.Decomposition.strategy;
  c_mode : Core.Decomposition.exchange_mode;
  c_overlap : bool;
  c_grid : int list;
  c_wall_s : float;
  c_messages_per_step : int;
  c_bytes_per_step : int;
}

type choice = {
  best : candidate;
  considered : candidate list;
  skipped : int;
}

let default_strategies =
  [
    Core.Decomposition.Slice2d;
    Core.Decomposition.Slice1d;
    Core.Decomposition.Slice3d;
  ]

let candidate_name c =
  Printf.sprintf "%s/%s/%s grid %s"
    (Core.Decomposition.strategy_name c.c_strategy)
    (Core.Decomposition.mode_name c.c_mode)
    (if c.c_overlap then "overlap" else "no-overlap")
    (String.concat "x" (List.map string_of_int c.c_grid))

let schedule_of (c : candidate) ~ranks (m : Op.t) =
  Schedule.of_module ~strategy: c.c_strategy ~mode: c.c_mode
    ~overlap: c.c_overlap ~ranks m

let tune ?(model = Netmodel.reference) ?cores
    ?(strategies = default_strategies)
    ?(modes = [ Core.Decomposition.Faces; Core.Decomposition.Diagonals ])
    ?(overlaps = [ false; true ]) ~ranks (m : Op.t) : choice option =
  let skipped = ref 0 in
  let scored = ref [] in
  List.iter
    (fun strategy ->
      List.iter
        (fun mode ->
          List.iter
            (fun overlap ->
              match
                Schedule.of_module ~strategy ~mode ~overlap ~ranks m
              with
              | s ->
                  let p =
                    Replay.run ~model ?cores ~emit_timeline: false s
                  in
                  scored :=
                    {
                      c_strategy = strategy;
                      c_mode = mode;
                      c_overlap = overlap;
                      c_grid = s.Schedule.grid;
                      c_wall_s = p.Replay.p_wall_s;
                      c_messages_per_step = Schedule.messages_per_step s;
                      c_bytes_per_step = Schedule.bytes_per_step s;
                    }
                    :: !scored
              | exception Op.Ill_formed _ -> incr skipped)
            overlaps)
        modes)
    strategies;
  (* Enumeration order is the recency-reversed [!scored]; restore it so
     the fold's strict [<] keeps the earliest candidate on ties. *)
  match List.rev !scored with
  | [] -> None
  | first :: rest ->
      let best =
        List.fold_left
          (fun acc c -> if c.c_wall_s < acc.c_wall_s then c else acc)
          first rest
      in
      let considered =
        List.sort (fun a b -> compare a.c_wall_s b.c_wall_s) (first :: rest)
      in
      Some { best; considered; skipped = !skipped }
