(* Tests for the observability subsystem: span nesting/balance invariants,
   Chrome trace-event JSON export (validity + event-count round-trip),
   per-pass pipeline metrics, rewrite-pattern counters, deterministic
   mpi_sim rank timelines, and the stencilc --profile smoke run. *)

open Ir
open Core

let check = Alcotest.check
let int_c = Alcotest.int
let bool_c = Alcotest.bool

(* Every test runs against a fresh sink and a deterministic fake clock,
   and restores the disabled-by-default global state afterwards. *)
let with_obs f =
  let ticks = ref 0. in
  Obs.set_clock (fun () ->
      ticks := !ticks +. 1e-3;
      !ticks);
  Obs.enable ();
  Fun.protect
    ~finally: (fun () ->
      Obs.disable ();
      Obs.set_clock Sys.time)
    f

(* --- span nesting / balance --- *)

let test_span_balance () =
  with_obs (fun () ->
      Obs.Trace.with_span "outer" (fun () ->
          Obs.Trace.with_span "inner" (fun () ->
              check int_c "two open" 2 (Obs.Trace.open_spans ())));
      check int_c "balanced" 0 (Obs.Trace.open_spans ());
      check int_c "four events" 4 (Obs.Trace.event_count ());
      match Obs.Trace.events () with
      | [ b1; b2; e2; e1 ] ->
          check Alcotest.string "outer begins first" "outer" b1.Obs.name;
          check Alcotest.string "inner nested" "inner" b2.Obs.name;
          check Alcotest.string "inner ends first" "inner" e2.Obs.name;
          check Alcotest.string "outer ends last" "outer" e1.Obs.name;
          check bool_c "timestamps monotonic" true
            (b1.Obs.ts <= b2.Obs.ts && b2.Obs.ts <= e2.Obs.ts
            && e2.Obs.ts <= e1.Obs.ts)
      | _ -> Alcotest.fail "expected exactly four events")

let test_span_balance_on_exception () =
  with_obs (fun () ->
      (try
         Obs.Trace.with_span "failing" (fun () -> failwith "boom")
       with Failure _ -> ());
      check int_c "balanced after exception" 0 (Obs.Trace.open_spans ()))

let test_unbalanced_begin_detected () =
  with_obs (fun () ->
      Obs.Trace.begin_span "dangling";
      check int_c "one open span" 1 (Obs.Trace.open_spans ()))

let test_disabled_is_silent () =
  Obs.disable ();
  Obs.Trace.with_span "nothing" (fun () -> Obs.Trace.instant "nope");
  Obs.Patterns.note "nope";
  check bool_c "disabled" false (Obs.enabled ());
  check int_c "no events" 0 (Obs.Trace.event_count ());
  check int_c "no counts" 0 (List.length (Obs.Patterns.counts ()))

(* --- a minimal JSON parser, enough to validate the exporter --- *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some ('"' | '\\' | '/') ->
              Buffer.add_char b (Option.get (peek ()));
              advance ()
          | Some 'n' -> Buffer.add_char b '\n'; advance ()
          | Some 't' -> Buffer.add_char b '\t'; advance ()
          | Some 'r' -> Buffer.add_char b '\r'; advance ()
          | Some 'b' -> Buffer.add_char b '\b'; advance ()
          | Some 'f' -> Buffer.add_char b '\012'; advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail "bad \\u escape"
              done
          | _ -> fail "bad escape");
          go ()
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Jobj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Jobj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Jarr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Jarr (elements [])
        end
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some _ -> Jnum (parse_number ())
    | None -> fail "empty input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let trace_events_of json =
  match json with
  | Jobj members -> (
      match List.assoc_opt "traceEvents" members with
      | Some (Jarr evs) -> evs
      | _ -> Alcotest.fail "missing traceEvents array")
  | _ -> Alcotest.fail "top level is not an object"

(* --- Chrome JSON export --- *)

let test_chrome_json_roundtrip () =
  with_obs (fun () ->
      Obs.Trace.with_span ~cat: "pass"
        ~args: [ ("pipeline", Obs.Str "cpu\"quoted\nname") ]
        "span one"
        (fun () ->
          Obs.Trace.instant
            ~args:
              [
                ("n", Obs.Int (-3));
                ("x", Obs.Float 1.5);
                ("flag", Obs.Bool true);
              ]
            "marker");
      Obs.Trace.counter "ops" 42.;
      Obs.Trace.complete ~ts: 0.1 ~dur: 0.05 "window";
      let n_emitted = Obs.Trace.event_count () in
      let json_text = Obs.Trace.to_chrome_json () in
      let evs = trace_events_of (parse_json json_text) in
      check int_c "event count round-trips" n_emitted (List.length evs);
      (* Every event carries the mandatory Chrome fields. *)
      List.iter
        (fun ev ->
          match ev with
          | Jobj fields ->
              List.iter
                (fun k ->
                  check bool_c (k ^ " present") true (List.mem_assoc k fields))
                [ "name"; "ph"; "ts"; "pid"; "tid" ]
          | _ -> Alcotest.fail "event is not an object")
        evs;
      (* The escaped arg string survives the round trip. *)
      let has_escaped =
        List.exists
          (fun ev ->
            match ev with
            | Jobj fields -> (
                match List.assoc_opt "args" fields with
                | Some (Jobj args) ->
                    List.assoc_opt "pipeline" args
                    = Some (Jstr "cpu\"quoted\nname")
                | _ -> false)
            | _ -> false)
          evs
      in
      check bool_c "escaped string round-trips" true has_escaped)

(* --- per-pass pipeline metrics --- *)

let test_pass_stats_one_entry_per_pass () =
  with_obs (fun () ->
      let pl = Pipeline.pipeline_for Pipeline.Cpu_sequential in
      let m = Programs.heat2d_module ~nx: 8 ~ny: 8 in
      ignore (Pass.run_pipeline ~verify: true ~checks: Registry.checks pl m);
      let stats = Obs.Passes.stats () in
      check int_c "one stat per pass"
        (List.length pl.Pass.passes)
        (List.length stats);
      List.iter2
        (fun (pass : Pass.t) (st : Obs.pass_stat) ->
          check Alcotest.string "stat order follows pass order" pass.Pass.name
            st.Obs.pass_name;
          check Alcotest.string "pipeline recorded" pl.Pass.pipeline_name
            st.Obs.pipeline;
          check bool_c "op counts positive" true
            (st.Obs.ops_before > 0 && st.Obs.ops_after > 0);
          check bool_c "ir sizes positive" true
            (st.Obs.ir_bytes_before > 0 && st.Obs.ir_bytes_after > 0);
          check bool_c "wall time non-negative" true (st.Obs.wall_s >= 0.))
        pl.Pass.passes stats;
      (* One Begin span per pass, nested under the pipeline span. *)
      List.iter
        (fun (pass : Pass.t) ->
          let begins =
            List.filter
              (fun (ev : Obs.event) ->
                ev.Obs.ph = Obs.Begin && ev.Obs.name = pass.Pass.name)
              (Obs.Trace.events ())
          in
          check int_c
            (Printf.sprintf "one begin span for %s" pass.Pass.name)
            1 (List.length begins))
        pl.Pass.passes;
      check int_c "all spans closed" 0 (Obs.Trace.open_spans ()))

(* --- rewrite-pattern application counters --- *)

let test_pattern_apps_counted () =
  with_obs (fun () ->
      let erase_nop =
        Rewriter.pattern "erase-nop" (fun _ op ->
            if op.Op.name = "test.nop" then Some Pattern.Erase else None)
      in
      let m =
        Op.module_op
          [ Op.make "test.nop"; Op.make "test.keep"; Op.make "test.nop" ]
      in
      let pl =
        Pass.pipeline "pattern-test"
          [
            Pass.make "nop-elim" (fun m ->
                Rewriter.run ~name: "nop-elim" [ erase_nop ] m);
          ]
      in
      let m' = Pass.run_pipeline pl m in
      check int_c "nops erased" 0 (Transforms.Statistics.count m' "test.nop");
      check (Alcotest.list (Alcotest.pair Alcotest.string int_c))
        "two applications counted"
        [ ("erase-nop", 2) ]
        (Obs.Patterns.counts ());
      match Obs.Passes.stats () with
      | [ st ] ->
          check
            (Alcotest.list (Alcotest.pair Alcotest.string int_c))
            "per-pass pattern apps"
            [ ("erase-nop", 2) ]
            st.Obs.pattern_apps
      | sts -> Alcotest.fail (Printf.sprintf "expected 1 stat, got %d" (List.length sts)))

(* --- mpi_sim timelines --- *)

let run_message_pattern ~trace (ranks, msgs) =
  Mpi_sim.run ~trace ~ranks (fun ctx ->
      let me = Mpi_sim.rank ctx in
      List.iter
        (fun (src, dst, tag, len) ->
          if src = me then
            Mpi_sim.send ctx ~dest: dst ~tag
              (Mpi_sim.Floats (Array.make len 1.)))
        msgs;
      List.iter
        (fun (src, dst, tag, _) ->
          if dst = me then ignore (Mpi_sim.recv ctx ~source: src ~tag))
        msgs;
      Mpi_sim.barrier ctx)

let timeline_determinism_prop =
  QCheck.Test.make ~count: 25
    ~name: "mpi_sim timelines are identical across two runs"
    QCheck.(
      make
        Gen.(
          int_range 2 4 >>= fun ranks ->
          list_size (int_range 0 12)
            (int_range 0 (ranks - 1) >>= fun src ->
             int_range 0 (ranks - 1) >>= fun dst ->
             int_range 0 3 >>= fun tag ->
             int_range 1 5 >>= fun len -> return (src, dst, tag, len))
          >>= fun msgs -> return (ranks, msgs)))
    (fun case ->
      let c1 = run_message_pattern ~trace: true case in
      let c2 = run_message_pattern ~trace: true case in
      Mpi_sim.timeline c1 = Mpi_sim.timeline c2
      && Mpi_sim.edge_bytes c1 = Mpi_sim.total_bytes c1)

let test_trace_off_by_default () =
  let comm = run_message_pattern ~trace: false (2, [ (0, 1, 0, 4) ]) in
  check int_c "no timeline when tracing off" 0
    (List.length (Mpi_sim.timeline comm));
  check bool_c "traffic still counted" true (Mpi_sim.total_bytes comm > 0)

(* --- the 4-rank heat acceptance run: per-rank timeline edges vs
   aggregate traffic counters --- *)

let test_heat_timeline_edge_bytes () =
  let nx = 16 and ny = 16 and steps = 4 in
  let init i j = Float.sin (float_of_int ((3 * i) + j)) in
  let ranks = 4 in
  let m = Programs.heat2d_timeloop_module ~nx ~ny ~steps in
  let dm =
    Distribute.run
      (Distribute.options ~ranks ~strategy: Decomposition.Slice2d ())
      m
  in
  let fop = Option.get (Op.lookup_symbol dm "run") in
  let grid = Driver.Domain.topology_of fop in
  let local_bounds = List.hd (Driver.Domain.field_arg_bounds fop) in
  let global_a = Programs.make_field_2d ~nx ~ny init in
  let hook_called = ref false in
  let comm =
    with_obs (fun () ->
        let comm =
          Driver.Simulate.run_spmd ~trace: true
            ~on_timeline: (fun _ -> hook_called := true)
            ~ranks ~func: "run"
            ~make_args: (fun ctx ->
              let rank = Mpi_sim.rank ctx in
              let mk () =
                Driver.Domain.scatter_field ~global: global_a ~grid
                  ~local_bounds ~rank
              in
              [ Interp.Rtval.Rbuf (mk ()); Interp.Rtval.Rbuf (mk ()) ])
            dm
        in
        (* The timeline also lands in the Obs sink, one process per rank. *)
        check bool_c "mpi events exported to obs" true
          (List.exists
             (fun (ev : Obs.event) -> ev.Obs.cat = "mpi")
             (Obs.Trace.events ()));
        comm)
  in
  check bool_c "on_timeline hook ran" true !hook_called;
  let tl = Mpi_sim.timeline comm in
  check bool_c "timeline nonempty" true (tl <> []);
  (* Message-edge byte totals must equal the aggregate traffic counter,
     globally and per rank. *)
  check int_c "edge bytes == total_bytes" (Mpi_sim.total_bytes comm)
    (Mpi_sim.edge_bytes comm);
  for r = 0 to ranks - 1 do
    let sent =
      List.fold_left
        (fun acc (ev : Mpi_sim.timeline_event) ->
          match ev.Mpi_sim.kind with
          | Mpi_sim.Isend { bytes; _ } -> acc + bytes
          | _ -> acc)
        0
        (Mpi_sim.rank_timeline comm r)
    in
    check int_c
      (Printf.sprintf "rank %d edge bytes" r)
      (Mpi_sim.rank_stats comm r).Mpi_sim.bytes sent
  done;
  (* Each rank's events are a sub-sequence: seqs strictly increase. *)
  for r = 0 to ranks - 1 do
    let seqs =
      List.map
        (fun (ev : Mpi_sim.timeline_event) -> ev.Mpi_sim.seq)
        (Mpi_sim.rank_timeline comm r)
    in
    check bool_c
      (Printf.sprintf "rank %d seq monotone" r)
      true
      (List.sort compare seqs = seqs)
  done

(* --- enriched deadlock reports --- *)

let test_deadlock_names_ranks () =
  match
    Mpi_sim.run ~trace: true ~ranks: 2 (fun ctx ->
        ignore (Mpi_sim.recv ctx ~source: (1 - Mpi_sim.rank ctx) ~tag: 3))
  with
  | _ -> Alcotest.fail "expected deadlock"
  | exception Mpi_sim.Deadlock msg ->
      let has needle =
        check bool_c
          (Printf.sprintf "message mentions %S" needle)
          true
          (Support.contains msg needle)
      in
      has "rank 0";
      has "rank 1";
      has "irecv src=1 tag=3";
      has "irecv src=0 tag=3";
      has "last event"

(* --- stencilc --profile smoke run (the built binary is a test dep) --- *)

let test_stencilc_profile_smoke () =
  (* The binary path comes from the dune stanza (STENCILC) with a
     fallback next to the test executable, and all artifacts live in a
     temp dir, so this test is independent of the invoking cwd and
     leaves nothing behind. *)
  let stencilc = Support.stencilc_path () in
  let dir = Filename.temp_dir "obs_smoke" "" in
  let out_file = Filename.concat dir "obs_smoke_out.txt" in
  let err_file = Filename.concat dir "obs_smoke_err.txt" in
  let trace_file = Filename.concat dir "obs_smoke_trace.json" in
  Fun.protect
    ~finally: (fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ out_file; err_file; trace_file ];
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      let rc =
        Sys.command
          (Printf.sprintf
             "%s --demo heat2d -p distributed-cpu-4 --profile --trace-out \
              %s > %s 2> %s"
             (Filename.quote stencilc)
             (Filename.quote trace_file)
             (Filename.quote out_file)
             (Filename.quote err_file))
      in
      check int_c "stencilc --profile exits 0" 0 rc;
      let slurp path = In_channel.with_open_text path In_channel.input_all in
      let err = slurp err_file in
      check bool_c "pass table printed" true (Support.contains err "pass");
      check bool_c "trace summary printed" true
        (Support.contains err "trace summary");
      (* The trace file is valid JSON with >= 1 begin span per pipeline
         pass. *)
      let evs = trace_events_of (parse_json (slurp trace_file)) in
      check bool_c "trace has events" true (evs <> []);
      let pl = List.assoc "distributed-cpu-4" Pipeline.named_pipelines in
      List.iter
        (fun (pass : Pass.t) ->
          let spans =
            List.filter
              (fun ev ->
                match ev with
                | Jobj fields ->
                    List.assoc_opt "name" fields = Some (Jstr pass.Pass.name)
                    && List.assoc_opt "ph" fields = Some (Jstr "B")
                | _ -> false)
              evs
          in
          check bool_c
            (Printf.sprintf "trace has a span for pass %s" pass.Pass.name)
            true
            (spans <> []))
        pl.Pass.passes)

let suite =
  [
    Alcotest.test_case "span nesting and balance" `Quick test_span_balance;
    Alcotest.test_case "span balance on exception" `Quick
      test_span_balance_on_exception;
    Alcotest.test_case "unbalanced begin detected" `Quick
      test_unbalanced_begin_detected;
    Alcotest.test_case "disabled sink is silent" `Quick
      test_disabled_is_silent;
    Alcotest.test_case "chrome json round-trips" `Quick
      test_chrome_json_roundtrip;
    Alcotest.test_case "pass stats: one entry per pass" `Quick
      test_pass_stats_one_entry_per_pass;
    Alcotest.test_case "pattern applications counted" `Quick
      test_pattern_apps_counted;
    Alcotest.test_case "mpi trace off by default" `Quick
      test_trace_off_by_default;
    Alcotest.test_case "heat 4-rank timeline edge bytes" `Quick
      test_heat_timeline_edge_bytes;
    Alcotest.test_case "deadlock names blocked ranks" `Quick
      test_deadlock_names_ranks;
    Alcotest.test_case "stencilc --profile smoke" `Quick
      test_stencilc_profile_smoke;
    QCheck_alcotest.to_alcotest timeline_determinism_prop;
  ]
