(* Performance-regression gate: compare a freshly produced
   BENCH_scaling.json against its checked-in baseline and fail loudly on
   regressions beyond a tolerance band.  Wall times are timed by
   perfbench/, not gated here.

   Absolute wall times are machine speed; comparing them across hosts is
   meaningless.  The gate therefore checks only the machine-independent
   slice: the reference-model curve points (frozen Netmodel.reference
   constants, deterministic replay) must keep their strong-scaling
   efficiency within the tolerance band and their per-step traffic
   exactly, the tuner must never lose to the default decomposition
   (tuned_vs_default <= 1), and every current validation row must be
   within its prediction-error bound; calibrated-model rows are
   host-specific and skipped.
   A baseline row missing from the current run fails the gate (a silently
   dropped benchmark is a regression too); rows only present in the
   current run pass. *)

(* --- minimal JSON reader (objects, arrays, numbers, strings, bools,
   null) --- *)

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
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
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
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let parse_lit lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail ("expected " ^ lit)
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
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'r' -> Buffer.add_char b '\r'
          | Some 'u' ->
              (* keep escaped code points verbatim; keys here are ASCII *)
              Buffer.add_string b "\\u"
          | Some c -> Buffer.add_char b c
          | None -> fail "unterminated escape");
          advance ();
          go ()
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
            | _ -> fail "expected , or }"
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
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          Jarr (items [])
        end
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> parse_lit "true" (Jbool true)
    | Some 'f' -> parse_lit "false" (Jbool false)
    | Some 'n' -> parse_lit "null" Jnull
    | Some _ -> Jnum (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  v

let member key = function
  | Jobj kvs -> ( match List.assoc_opt key kvs with Some v -> v | None -> Jnull)
  | _ -> Jnull

let jnum = function Jnum f -> Some f | _ -> None
let jstr = function Jstr s -> Some s | _ -> None
let jbool = function Jbool b -> Some b | _ -> None
let jarr = function Jarr vs -> vs | _ -> []

let load_json path =
  let content = In_channel.with_open_text path In_channel.input_all in
  parse_json content

(* --- the gate --- *)

type outcome = { mutable failures : string list; mutable checked : int }

let fail_row out fmt =
  Printf.ksprintf (fun msg -> out.failures <- msg :: out.failures) fmt

let check_exact_num out ~key ~what ~base ~cur =
  match (base, cur) with
  | Some b, Some c ->
      out.checked <- out.checked + 1;
      if b <> c then
        fail_row out "%s: %s changed %g -> %g (expected exact match)" key what
          b c
  | _ -> ()

(* BENCH_scaling.json's curves and validation rows.  Gate only what is
   machine-independent (see header comment). *)
let compare_scale out ~tolerance ~baseline ~current =
  let curve_key e =
    match
      ( jstr (member "workload" e),
        jstr (member "model" e),
        jnum (member "ranks" e) )
    with
    | Some w, Some m, Some r ->
        Some (Printf.sprintf "%s/%s/ranks=%d" w m (int_of_float r))
    | _ -> None
  in
  let curves json =
    List.filter_map
      (fun e -> match curve_key e with Some k -> Some (k, e) | None -> None)
      (jarr (member "curves" json))
  in
  let reference (k, e) =
    jstr (member "model" e) = Some "reference" && String.length k > 0
  in
  let base_rows = List.filter reference (curves baseline) in
  let cur_rows = curves current in
  List.iter
    (fun (key, b) ->
      match List.assoc_opt key cur_rows with
      | None -> fail_row out "%s: row missing from current BENCH_scaling" key
      | Some c ->
          let num fld e = jnum (member fld e) in
          (* frozen-model efficiency: same replay, same constants — a
             drop is a real change in the predicted schedule *)
          (match (num "efficiency" b, num "efficiency" c) with
          | Some eb, Some ec when eb > 0. ->
              out.checked <- out.checked + 1;
              if ec < eb /. (1. +. tolerance) then
                fail_row out
                  "%s: reference-model efficiency regressed %.3f -> %.3f \
                   (tolerance %.0f%%)"
                  key eb ec (100. *. tolerance)
          | _ -> ());
          check_exact_num out ~key ~what: "messages_per_step"
            ~base: (num "messages_per_step" b)
            ~cur: (num "messages_per_step" c);
          check_exact_num out ~key ~what: "bytes_per_step"
            ~base: (num "bytes_per_step" b)
            ~cur: (num "bytes_per_step" c))
    base_rows;
  (* current-run self-checks: machine-independent invariants that must
     hold wherever the bench ran *)
  List.iter
    (fun (key, c) ->
      match jnum (member "tuned_vs_default" c) with
      | Some t ->
          out.checked <- out.checked + 1;
          if t > 1. +. 1e-9 then
            fail_row out
              "%s: tuner lost to the default decomposition \
               (tuned_vs_default=%.4f)"
              key t
      | None -> ())
    cur_rows;
  List.iter
    (fun v ->
      match
        ( jstr (member "workload" v),
          jnum (member "ranks" v),
          jbool (member "within_bound" v) )
      with
      | Some w, Some r, Some ok ->
          out.checked <- out.checked + 1;
          if not ok then
            fail_row out
              "%s/ranks=%d: replay prediction outside its error bound \
               (rel_error=%.3f > %.2f)"
              w (int_of_float r)
              (Option.value (jnum (member "rel_error" v)) ~default: nan)
              (Option.value (jnum (member "bound" v)) ~default: nan)
      | _ -> ())
    (jarr (member "validation" current))

let gate_file out ~tolerance ~baseline_dir ~current_dir =
  let name = "BENCH_scaling.json" in
  let bpath = Filename.concat baseline_dir name in
  let cpath = Filename.concat current_dir name in
  if not (Sys.file_exists bpath) then
    fail_row out "%s: baseline %s does not exist" name bpath
  else if not (Sys.file_exists cpath) then
    fail_row out "%s: current %s does not exist (bench not run?)" name cpath
  else
    match (load_json bpath, load_json cpath) with
    | baseline, current -> compare_scale out ~tolerance ~baseline ~current
    | exception Bad_json msg -> fail_row out "%s: unparseable (%s)" name msg

let run ?(baseline_dir : string option) ?(current_dir : string option)
    ?(tolerance = 0.25) () =
  let baseline_dir =
    match baseline_dir with
    | Some d -> d
    | None ->
        Filename.concat (Bench_paths.repo_root ())
          (Filename.concat "bench" "baselines")
  in
  let current_dir =
    match current_dir with Some d -> d | None -> Bench_paths.out_dir ()
  in
  Printf.printf "== Benchmark regression gate ==\n";
  Printf.printf "   baseline: %s\n   current:  %s\n   tolerance: %.0f%%\n"
    baseline_dir current_dir (100. *. tolerance);
  let out = { failures = []; checked = 0 } in
  gate_file out ~tolerance ~baseline_dir ~current_dir;
  match out.failures with
  | [] ->
      Printf.printf "   PASS: %d check(s), no regression beyond %.0f%%\n\n"
        out.checked (100. *. tolerance);
      true
  | fs ->
      Printf.printf "   FAIL: %d regression(s) (%d check(s) run):\n"
        (List.length fs) out.checked;
      List.iter (fun f -> Printf.printf "     - %s\n" f) (List.rev fs);
      print_newline ();
      false
