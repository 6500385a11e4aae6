(* Newline-delimited compile/run protocol over channels.  One request per
   line, one response line per request ("ok key=value ..." or
   "error <message>"); the artifact cache does the heavy lifting, so a
   warm server answers compile requests without recompiling.

   Framing rule: an [ir=<nbytes>] payload is consumed from the channel
   BEFORE any validation of the rest of the request.  Draining first is
   what keeps the stream in sync — if validation rejected the request
   while the payload was still unread, the loop would parse those bytes
   as the next request and desynchronize every later exchange. *)

type run_handler =
  Ir.Op.t ->
  Artifact.t ->
  ranks:int ->
  substrate:string ->
  threads:int ->
  (string * string) list

type handlers = {
  resolve_demo : string -> Ir.Op.t option;
  run : run_handler option;
}

let default_handlers = { resolve_demo = (fun _ -> None); run = None }

(* ---------- request parsing ---------- *)

let split_words line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let kv_of_word w =
  match String.index_opt w '=' with
  | Some i ->
      (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
  | None -> (w, "")

let parse_request line =
  match split_words line with
  | [] -> ("", [])
  | cmd :: rest -> (cmd, List.map kv_of_word rest)

let lookup params key = List.assoc_opt key params

let int_param params key default =
  match lookup params key with
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> failwith (Printf.sprintf "%s=%S is not an integer" key v))
  | None -> default

let bool_param params key default =
  match lookup params key with
  | Some v -> (
      match bool_of_string_opt v with
      | Some b -> b
      | None -> failwith (Printf.sprintf "%s=%S is not a bool" key v))
  | None -> default

let strategy_param params =
  match Option.value (lookup params "strategy") ~default: "slice2d" with
  | "slice1d" -> Core.Decomposition.Slice1d
  | "slice2d" -> Core.Decomposition.Slice2d
  | "slice3d" -> Core.Decomposition.Slice3d
  | s ->
      failwith
        (Printf.sprintf
           "unknown strategy %S (available: slice1d, slice2d, slice3d)" s)

let mode_param params =
  let s = Option.value (lookup params "mode") ~default: "faces" in
  match Core.Decomposition.mode_of_name s with
  | Some mode -> mode
  | None ->
      failwith
        (Printf.sprintf "unknown mode %S (available: faces, diagonals)" s)

(* tile=8,8 — cache-block sizes for the tiled omp lowering; absent or
   empty means untiled.  Part of the compile target (and thus the
   artifact digest), unlike [threads] which is a pure runtime knob. *)
let tiles_param params =
  let spec = Option.value (lookup params "tile") ~default: "" in
  match Core.Pipeline.tiles_of_string spec with
  | Some tiles -> tiles
  | None ->
      failwith
        (Printf.sprintf
           "tile=%S is not a comma-separated list of positive ints" spec)

let target_of_params params : Core.Pipeline.target =
  match Option.value (lookup params "target") ~default: "distributed-cpu" with
  | "cpu-sequential" -> Core.Pipeline.Cpu_sequential
  | "cpu-openmp" -> Core.Pipeline.Cpu_openmp { tiles = [ 32; 32; 32 ] }
  | "distributed-cpu" ->
      Core.Pipeline.Distributed_cpu
        {
          ranks = int_param params "ranks" 4;
          strategy = strategy_param params;
          mode = mode_param params;
          tiles = tiles_param params;
          overlap = bool_param params "overlap" true;
        }
  | t ->
      failwith
        (Printf.sprintf
           "unknown target %S (available: cpu-sequential, cpu-openmp, \
            distributed-cpu)" t)

(* Drain a declared [ir=<nbytes>] payload unconditionally, before the
   request is validated in any way (see the framing rule above).  A
   non-numeric byte count is the one unrecoverable case: there is no
   trustworthy length to drain, so the error answer is all we can do. *)
let read_ir_payload ic params : string option =
  match lookup params "ir" with
  | None -> None
  | Some nbytes -> (
      match int_of_string_opt nbytes with
      | Some n when n >= 0 -> Some (really_input_string ic n)
      | _ -> failwith (Printf.sprintf "ir=%S is not a byte count" nbytes))

(* The module spec: demo=<name> | file=<path> | ir=<nbytes> (payload
   already drained from the request channel by [read_ir_payload]).  Text
   goes through the artifact layer's payload memo, keyed on its bytes. *)
let module_of_params handlers ~payload params =
  match (lookup params "demo", lookup params "file", lookup params "ir") with
  | Some name, None, None -> (
      match handlers.resolve_demo name with
      | Some m -> `Module m
      | None -> failwith (Printf.sprintf "unknown demo %S" name))
  | None, Some path, None ->
      `Text (In_channel.with_open_text path In_channel.input_all, Some path)
  | None, None, Some _ -> (
      match payload with
      | Some buf -> `Text (buf, None)
      | None -> failwith "internal error: ir payload was not drained")
  | None, None, None ->
      failwith "missing module spec (demo=<name> | file=<path> | ir=<nbytes>)"
  | _ -> failwith "ambiguous module spec (give exactly one of demo/file/ir)"

(* ---------- request handling ---------- *)

let compile_artifact handlers ~payload params =
  let source = module_of_params handlers ~payload params in
  let target = target_of_params params in
  let executor =
    Interp.Executor.of_name
      (Option.value (lookup params "exec") ~default: "compiled")
  in
  match source with
  | `Module m ->
      let art, flag = Artifact.get_cached ~executor ~target m in
      (m, art, flag)
  | `Text (text, None) -> Artifact.get_cached_text ~executor ~target text
  | `Text (text, Some path) -> (
      try Artifact.get_cached_text ~executor ~target text
      with Failure msg -> failwith (Printf.sprintf "%s: %s" path msg))

let artifact_kvs (art : Artifact.t) flag =
  [
    ("digest", art.Artifact.digest);
    ( "cached",
      match flag with `Hit -> "hit" | `Miss -> "miss" | `Store -> "store" );
    ("compile_ms", Printf.sprintf "%.3f" (art.Artifact.compile_s *. 1000.));
    ("exec", art.Artifact.executor_name);
  ]

let handle_request handlers ic line : (string * string) list =
  let cmd, params = parse_request line in
  (* Drain any declared payload before validating anything, even for
     commands that do not use it — framing first, semantics second. *)
  let payload = read_ir_payload ic params in
  match cmd with
  | "ping" -> [ ("pong", "") ]
  | "stats" ->
      let s = Artifact.stats () in
      [
        ("hits", string_of_int s.Cache.hits);
        ("misses", string_of_int s.Cache.misses);
        ("failed_hits", string_of_int s.Cache.failed_hits);
        ("failures", string_of_int s.Cache.failures);
        ("evictions", string_of_int s.Cache.evictions);
        ("entries", string_of_int (Artifact.cache_length ()));
        ("compile_s", Printf.sprintf "%.6f" s.Cache.compute_s);
      ]
  | "compile" ->
      let _, art, flag = compile_artifact handlers ~payload params in
      artifact_kvs art flag
  | "run" -> (
      match handlers.run with
      | None -> failwith "run requests not supported by this server"
      | Some run ->
          let m, art, flag = compile_artifact handlers ~payload params in
          let ranks =
            match art.Artifact.target with
            | Core.Pipeline.Distributed_cpu { ranks; _ } -> ranks
            | _ -> 1
          in
          let substrate =
            match Option.value (lookup params "substrate") ~default: "sim" with
            | ("sim" | "par") as s -> s
            | s -> failwith (Printf.sprintf "unknown substrate %S" s)
          in
          let threads = int_param params "threads" 1 in
          if threads < 1 then
            failwith
              (Printf.sprintf "threads=%d must be positive" threads);
          artifact_kvs art flag @ run m art ~ranks ~substrate ~threads)
  | "" -> []
  | c -> failwith (Printf.sprintf "unknown command %S" c)

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let respond oc kvs =
  let words =
    List.map (fun (k, v) -> if v = "" then k else k ^ "=" ^ v) kvs
  in
  output_string oc (String.concat " " ("ok" :: words) ^ "\n");
  flush oc

let serve_connection ?(handlers = default_handlers) (ic : in_channel)
    (oc : out_channel) : [ `Eof | `Quit | `Shutdown ] =
  let rec loop () =
    match In_channel.input_line ic with
    | None -> `Eof
    | Some line ->
        let line = String.trim line in
        if line = "" || String.length line > 0 && line.[0] = '#' then loop ()
        else if line = "quit" || line = "shutdown" then begin
          (* Best effort: a client that closes without reading the
             farewell must not turn the disposition into an exception —
             a shutdown request has to reach the accept loop even if
             the requester is already gone. *)
          (try
             output_string oc "ok bye\n";
             flush oc
           with Sys_error _ -> ());
          if line = "quit" then `Quit else `Shutdown
        end
        else begin
          (match handle_request handlers ic line with
          | kvs -> respond oc kvs
          | exception e ->
              let msg =
                match e with Failure m -> m | e -> Printexc.to_string e
              in
              output_string oc ("error " ^ one_line msg ^ "\n");
              flush oc);
          loop ()
        end
  in
  loop ()

let serve ?handlers (ic : in_channel) (oc : out_channel) : unit =
  ignore (serve_connection ?handlers ic oc)
