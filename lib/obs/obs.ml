(* Observability substrate shared by the whole stack: structured span
   tracing with a Chrome-trace-event exporter, per-pass pipeline metrics,
   rewrite-pattern application counters, and the structured IR-dump
   reporter used by print-after-all.

   Everything funnels into one optional global sink.  Instrumentation is
   off by default: every emit site first matches on the sink option (one
   load and one branch), so a disabled build pays no allocation, no
   formatting and no clock read on the hot paths. *)

(* --- clock --- *)

(* [Sys.time] keeps the library dependency-free and is plenty for
   pass-level profiling.  It is processor time summed over every domain
   of the process, not wall time, so pass times are labelled "cpu ms".
   Tests install a deterministic fake clock through [set_clock]. *)
let clock : (unit -> float) ref = ref Sys.time
let set_clock f = clock := f
let now () = !clock ()

(* --- events --- *)

type arg = Str of string | Int of int | Float of float | Bool of bool

type phase = Begin | End | Complete | Instant | Counter

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts : float; (* seconds since the sink was installed *)
  dur : float; (* seconds; meaningful only for [Complete] *)
  pid : int;
  tid : int;
  ev_args : (string * arg) list;
}

type pass_stat = {
  pipeline : string;
  pass_name : string;
  wall_s : float;
  verify_s : float;
  ops_before : int;
  ops_after : int;
  ir_bytes_before : int;
  ir_bytes_after : int;
  pattern_apps : (string * int) list;
}

type rewrite_stat = {
  rw_pass : string;
  rw_enqueued : int;
  rw_processed : int;
  rw_max_depth : int;
  rw_applied : int;
  rw_erased_dead : int;
}

type sink = {
  t0 : float;
  mutable rev_events : event list;
  mutable n_events : int;
  mutable dropped_events : int;
  mutable open_spans : int;
  mutable rev_pass_stats : pass_stat list;
  mutable rev_rewrite_stats : rewrite_stat list;
  pattern_counts : (string, int) Hashtbl.t;
}

let current : sink option ref = ref None

let enabled () = !current <> None

(* Keep-first cap on the retained event list: long mpi_par runs would
   otherwise grow it without bound.  The earliest [cap] events are kept
   (they carry setup and the first iterations — the interesting part of a
   runaway trace); later ones are counted as dropped. *)
let default_event_cap = 1_000_000
let event_cap_ref : int option ref = ref (Some default_event_cap)
let set_event_cap c = event_cap_ref := c
let event_cap () = !event_cap_ref

let enable () =
  current :=
    Some
      {
        t0 = now ();
        rev_events = [];
        n_events = 0;
        dropped_events = 0;
        open_spans = 0;
        rev_pass_stats = [];
        rev_rewrite_stats = [];
        pattern_counts = Hashtbl.create 32;
      }

let disable () = current := None

(* --- span tracing --- *)

module Trace = struct
  let enabled = enabled

  let push s ev =
    match !event_cap_ref with
    | Some cap when s.n_events >= cap ->
        s.dropped_events <- s.dropped_events + 1
    | _ ->
        s.rev_events <- ev :: s.rev_events;
        s.n_events <- s.n_events + 1

  let emit ?ts ?(cat = "") ?(pid = 0) ?(tid = 0) ?(args = []) ?(dur = 0.) ph
      name =
    match !current with
    | None -> ()
    | Some s ->
        let ts = match ts with Some t -> t | None -> now () -. s.t0 in
        push s { name; cat; ph; ts; dur; pid; tid; ev_args = args }

  let begin_span ?ts ?cat ?pid ?tid ?args name =
    (match !current with
    | None -> ()
    | Some s -> s.open_spans <- s.open_spans + 1);
    emit ?ts ?cat ?pid ?tid ?args Begin name

  let end_span ?ts ?pid ?tid name =
    (match !current with
    | None -> ()
    | Some s -> s.open_spans <- s.open_spans - 1);
    emit ?ts ?pid ?tid End name

  let with_span ?cat ?args name f =
    match !current with
    | None -> f ()
    | Some _ ->
        begin_span ?cat ?args name;
        Fun.protect ~finally: (fun () -> end_span name) f

  let complete ?(cat = "") ?(pid = 0) ?(tid = 0) ?(args = []) ~ts ~dur name =
    emit ~ts ~cat ~pid ~tid ~args ~dur Complete name

  let instant ?ts ?cat ?pid ?tid ?args name =
    emit ?ts ?cat ?pid ?tid ?args Instant name

  let counter ?ts ?pid ?tid name v =
    emit ?ts ?pid ?tid ~args: [ ("value", Float v) ] Counter name

  let events () =
    match !current with None -> [] | Some s -> List.rev s.rev_events

  let event_count () = match !current with None -> 0 | Some s -> s.n_events

  let dropped_events () =
    match !current with None -> 0 | Some s -> s.dropped_events

  let open_spans () =
    match !current with None -> 0 | Some s -> s.open_spans

  (* --- Chrome trace-event JSON (Perfetto / chrome://tracing) --- *)

  let json_escape b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  let add_json_arg b (k, v) =
    Buffer.add_char b '"';
    json_escape b k;
    Buffer.add_string b "\":";
    match v with
    | Str s ->
        Buffer.add_char b '"';
        json_escape b s;
        Buffer.add_char b '"'
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (Printf.sprintf "%.6g" f)
    | Bool v -> Buffer.add_string b (if v then "true" else "false")

  let phase_letter = function
    | Begin -> "B"
    | End -> "E"
    | Complete -> "X"
    | Instant -> "i"
    | Counter -> "C"

  let add_json_event b ev =
    Buffer.add_string b "{\"name\":\"";
    json_escape b ev.name;
    Buffer.add_string b "\",\"cat\":\"";
    json_escape b (if ev.cat = "" then "default" else ev.cat);
    Buffer.add_string b "\",\"ph\":\"";
    Buffer.add_string b (phase_letter ev.ph);
    Buffer.add_string b (Printf.sprintf "\",\"ts\":%.3f" (ev.ts *. 1e6));
    if ev.ph = Complete then
      Buffer.add_string b (Printf.sprintf ",\"dur\":%.3f" (ev.dur *. 1e6));
    if ev.ph = Instant then Buffer.add_string b ",\"s\":\"t\"";
    Buffer.add_string b (Printf.sprintf ",\"pid\":%d,\"tid\":%d" ev.pid ev.tid);
    (match ev.ev_args with
    | [] -> ()
    | args ->
        Buffer.add_string b ",\"args\":{";
        List.iteri
          (fun i a ->
            if i > 0 then Buffer.add_char b ',';
            add_json_arg b a)
          args;
        Buffer.add_char b '}');
    Buffer.add_char b '}'

  let to_chrome_json () =
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\"traceEvents\":[";
    List.iteri
      (fun i ev ->
        if i > 0 then Buffer.add_string b ",\n";
        add_json_event b ev)
      (events ());
    Buffer.add_string b "],\"displayTimeUnit\":\"ms\"";
    let dropped = dropped_events () in
    if dropped > 0 then
      Buffer.add_string b
        (Printf.sprintf ",\"metadata\":{\"droppedEvents\":%d}" dropped);
    Buffer.add_string b "}\n";
    Buffer.contents b

  let write_chrome_json path =
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (to_chrome_json ()))

  (* --- human-readable summary: time per span name --- *)

  let pp_summary fmt () =
    (* Match Begin/End pairs per (pid, tid) with a stack; Complete events
       contribute their duration directly. *)
    let totals : (string, float * int) Hashtbl.t = Hashtbl.create 16 in
    let stacks : (int * int, (string * float) list ref) Hashtbl.t =
      Hashtbl.create 8
    in
    let stack_of k =
      match Hashtbl.find_opt stacks k with
      | Some st -> st
      | None ->
          let st = ref [] in
          Hashtbl.add stacks k st;
          st
    in
    let account name dur =
      let t, n =
        match Hashtbl.find_opt totals name with
        | Some tn -> tn
        | None -> (0., 0)
      in
      Hashtbl.replace totals name (t +. dur, n + 1)
    in
    List.iter
      (fun ev ->
        let st = stack_of (ev.pid, ev.tid) in
        match ev.ph with
        | Begin -> st := (ev.name, ev.ts) :: !st
        | End -> (
            match !st with
            | (name, t0) :: rest when name = ev.name ->
                st := rest;
                account name (ev.ts -. t0)
            | _ -> account ev.name 0.)
        | Complete -> account ev.name ev.dur
        | Instant | Counter -> ())
      (events ());
    let rows =
      Hashtbl.fold (fun name (t, n) acc -> (name, t, n) :: acc) totals []
    in
    let rows =
      List.sort (fun (_, a, _) (_, b, _) -> compare (b : float) a) rows
    in
    (match dropped_events () with
    | 0 -> Format.fprintf fmt "// trace summary: %d event(s)@." (event_count ())
    | d ->
        Format.fprintf fmt
          "// trace summary: %d event(s) (+%d dropped at buffer cap)@."
          (event_count ()) d);
    List.iter
      (fun (name, t, n) ->
        Format.fprintf fmt "//   %-40s %4d span(s) %10.3f ms@." name n
          (t *. 1e3))
      rows
end

(* --- per-pass pipeline metrics --- *)

module Passes = struct
  let record st =
    match !current with
    | None -> ()
    | Some s -> s.rev_pass_stats <- st :: s.rev_pass_stats

  let stats () =
    match !current with None -> [] | Some s -> List.rev s.rev_pass_stats

  let clear () =
    match !current with None -> () | Some s -> s.rev_pass_stats <- []

  let pp_table fmt () =
    let sts = stats () in
    if sts <> [] then begin
      Format.fprintf fmt
        "// %-14s %-32s %9s %9s %13s %13s %s@." "pipeline" "pass" "cpu ms"
        "verify ms" "ops" "IR bytes" "pattern apps";
      List.iter
        (fun st ->
          let apps =
            match st.pattern_apps with
            | [] -> "-"
            | apps ->
                String.concat ", "
                  (List.map
                     (fun (name, n) -> Printf.sprintf "%s:%d" name n)
                     apps)
          in
          Format.fprintf fmt
            "// %-14s %-32s %9.3f %9.3f %5d->%-6d %6d->%-6d %s@."
            st.pipeline st.pass_name (st.wall_s *. 1e3)
            (st.verify_s *. 1e3) st.ops_before st.ops_after
            st.ir_bytes_before st.ir_bytes_after apps)
        sts
    end
end

(* --- rewrite-driver counters (per pass run) --- *)

module Rewrites = struct
  let record st =
    match !current with
    | None -> ()
    | Some s -> s.rev_rewrite_stats <- st :: s.rev_rewrite_stats

  let stats () =
    match !current with None -> [] | Some s -> List.rev s.rev_rewrite_stats

  let clear () =
    match !current with None -> () | Some s -> s.rev_rewrite_stats <- []

  let pp_table fmt () =
    let sts = stats () in
    if sts <> [] then begin
      Format.fprintf fmt "// %-32s %9s %9s %9s %8s %7s@." "rewrite pass"
        "enqueued" "processed" "max-depth" "applied" "erased";
      List.iter
        (fun st ->
          Format.fprintf fmt "// %-32s %9d %9d %9d %8d %7d@." st.rw_pass
            st.rw_enqueued st.rw_processed st.rw_max_depth st.rw_applied
            st.rw_erased_dead)
        sts
    end
end

(* --- rewrite-pattern application counters --- *)

module Patterns = struct
  let note name =
    match !current with
    | None -> ()
    | Some s ->
        let n =
          match Hashtbl.find_opt s.pattern_counts name with
          | Some n -> n
          | None -> 0
        in
        Hashtbl.replace s.pattern_counts name (n + 1)

  let counts () =
    match !current with
    | None -> []
    | Some s ->
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.pattern_counts []
        |> List.sort compare

  let diff before =
    let base name =
      match List.assoc_opt name before with Some n -> n | None -> 0
    in
    List.filter_map
      (fun (name, n) ->
        let d = n - base name in
        if d > 0 then Some (name, d) else None)
      (counts ())
end

(* --- structured reporters (print-after-all and friends) --- *)

module Report = struct
  let fmt_ref = ref Format.err_formatter
  let set_formatter fmt = fmt_ref := fmt
  let formatter () = !fmt_ref

  let ir_dump ~pipeline ~pass pp =
    let fmt = !fmt_ref in
    Format.fprintf fmt "// ----- IR dump after pass '%s' (pipeline '%s') -----@." pass
      pipeline;
    pp fmt;
    Format.pp_print_newline fmt ()
end
