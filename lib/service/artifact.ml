(* The artifact layer: compilation as a pure function of
   (canonical module, target fingerprint, executor), memoized process-wide
   and optionally persisted to a digest-keyed on-disk store.

   Referencing [Exec_compile.executor] below also forces the closure
   compiler's registration into any binary that links the service
   library, so [Interp.Executor.of_name "compiled"] resolves wherever
   artifacts are in use. *)

type t = {
  digest : string;
  target : Core.Pipeline.target;
  executor_name : string;
  lowered : Ir.Op.t;
  program : Interp.Executor.shared;
  compile_s : float;
}

let _force_compiled_registration = Exec_compile.executor

(* The hash recipe, shared by the live path (structured module in hand)
   and the store path (canonical text read back from disk). *)
let digest_of_parts ~fingerprint ~executor_name canonical =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" [ fingerprint; executor_name; canonical ]))

let digest_of ?(executor = Interp.Executor.interpreter)
    ~(target : Core.Pipeline.target) (m : Ir.Op.t) : string =
  digest_of_parts
    ~fingerprint: (Core.Pipeline.target_fingerprint target)
    ~executor_name: executor.Interp.Executor.exec_name
    (Ir.Printer.canonical_module_string m)

(* Compile unconditionally: no cache, no store.  [digest] is
   [digest_of ~executor ~target m], computed by the caller. *)
let compile ~digest ~executor ~(target : Core.Pipeline.target)
    (m : Ir.Op.t) : t =
  let t0 = Unix.gettimeofday () in
  let lowered =
    Obs.Trace.with_span ~cat: "service"
      ("pipeline:" ^ Core.Pipeline.target_name target)
      (fun () -> Core.Pipeline.compile target m)
  in
  let program = executor.Interp.Executor.compile lowered in
  {
    digest;
    target;
    executor_name = executor.Interp.Executor.exec_name;
    lowered;
    program;
    compile_s = Unix.gettimeofday () -. t0;
  }

(* The process-wide artifact cache.  Capacity bounds memory when --serve
   handles many distinct programs; 128 artifacts is far beyond any bench
   or test working set; [set_policy] resizes it. *)
let cache : t Cache.t = Cache.create ~capacity: 128 "artifact-cache"

(* The payload memo: request text -> (digest, parsed module), so a
   repeated text skips the parse, the canonical print and the hash.  The
   key is the text's exact bytes behind the target fingerprint and the
   executor name (neither contains a newline), so two keys are equal
   only when the digest recipe's inputs are.  Sharing one parsed module
   between connection domains is safe: [Ir.Op.t] values are immutable.
   It follows the artifact cache's capacity and is emptied with it. *)
let memo : (string * Ir.Op.t) Cache.t = Cache.create ~capacity: 128 "payload-memo"

let set_policy ~capacity =
  Cache.set_policy ~capacity cache;
  Cache.set_policy ~capacity memo

(* ---------- the on-disk store (optional) ---------- *)

(* Process-wide like the cache; [set_store] installs it (the --serve CLI
   does, tests do, plain one-shot compiles run without).  Guarded by its
   own mutex only for pointer swaps — Store itself is safe to use from
   many domains (atomic writes, read-only loads). *)
let store_lock = Mutex.create ()
let store_ref : Store.t option ref = ref None

let set_store s =
  Mutex.lock store_lock;
  store_ref := s;
  Mutex.unlock store_lock

let store () =
  Mutex.lock store_lock;
  let s = !store_ref in
  Mutex.unlock store_lock;
  s

let persist ~(source : Ir.Op.t) (art : t) =
  match store () with
  | None -> ()
  | Some s -> (
      let p =
        {
          Store.p_digest = art.digest;
          p_executor = art.executor_name;
          p_target = Core.Pipeline.target_fingerprint art.target;
          p_compile_s = art.compile_s;
          p_canonical = Ir.Printer.canonical_module_string source;
          p_lowered = Ir.Printer.module_to_string art.lowered;
        }
      in
      (* Best effort: a full disk must not fail the compile itself. *)
      try Store.save s p with Sys_error _ | Unix.Unix_error _ -> ())

(* Rebuild an artifact from its persisted form: re-parse the lowered
   module and re-run only the executor's [compile] — the pass pipeline is
   skipped entirely.  [compile_s] becomes the restore cost.  Any integrity or
   parse problem returns [None] and the caller falls back to a full
   compile. *)
let restore_persisted ~(target : Core.Pipeline.target)
    ~(executor : Interp.Executor.t) (p : Store.persisted) : t option =
  let fingerprint = Core.Pipeline.target_fingerprint target in
  let executor_name = executor.Interp.Executor.exec_name in
  if p.Store.p_target <> fingerprint || p.Store.p_executor <> executor_name
  then None
  else if
    digest_of_parts ~fingerprint ~executor_name p.Store.p_canonical
    <> p.Store.p_digest
  then None
  else
    let t0 = Unix.gettimeofday () in
    match Ir.Parser.parse_string p.Store.p_lowered with
    | exception _ -> None
    | lowered -> (
        match executor.Interp.Executor.compile lowered with
        | exception _ -> None
        | program ->
            Some
              {
                digest = p.Store.p_digest;
                target;
                executor_name;
                lowered;
                program;
                compile_s = Unix.gettimeofday () -. t0;
              })

(* ---------- cached acquisition ---------- *)

let get_cached_as ~digest ~executor ~target m =
  let restored = ref false in
  let compute () =
    let from_store =
      match store () with
      | None -> None
      | Some s ->
          Obs.Trace.with_span ~cat: "service" "store:load" (fun () ->
              Option.bind
                (Store.load s ~digest)
                (restore_persisted ~target ~executor))
    in
    match from_store with
    | Some art ->
        restored := true;
        art
    | None ->
        let art = compile ~digest ~executor ~target m in
        persist ~source: m art;
        art
  in
  let art, flag = Cache.find_or_compute cache ~key: digest compute in
  let flag =
    match flag with
    | `Hit -> `Hit
    | `Miss -> if !restored then `Store else `Miss
  in
  ((if flag = `Hit then { art with compile_s = 0. } else art), flag)

let get_cached ?(executor = Interp.Executor.interpreter) ~target m =
  get_cached_as ~digest: (digest_of ~executor ~target m) ~executor ~target m

let get ?executor ~target m = fst (get_cached ?executor ~target m)

let get_cached_text ?(executor = Interp.Executor.interpreter) ~target text =
  let parse () =
    let m =
      try Ir.Parser.parse_string text
      with e -> failwith ("parse error: " ^ Printexc.to_string e)
    in
    (digest_of ~executor ~target m, m)
  in
  let key =
    String.concat "\n"
      [ Core.Pipeline.target_fingerprint target;
        executor.Interp.Executor.exec_name; text ]
  in
  let (digest, m), _ = Cache.find_or_compute memo ~key parse in
  let art, flag = get_cached_as ~digest ~executor ~target m in
  (m, art, flag)

(* Warm-start: preload every valid persisted artifact into the cache so a
   restarted daemon answers previously-seen digests without touching the
   pass pipeline.  Artifacts whose target fingerprint cannot be rebuilt
   (or whose executor is unknown here) are skipped, not errors — another
   build may have written them. *)
let warm_start ?limit () : int =
  match store () with
  | None -> 0
  | Some s ->
      let digests = Store.list s in
      let digests =
        match limit with
        | Some n -> List.filteri (fun i _ -> i < n) digests
        | None -> digests
      in
      List.fold_left
        (fun loaded digest ->
          match Store.load s ~digest with
          | None -> loaded
          | Some p -> (
              match
                ( Core.Pipeline.target_of_fingerprint p.Store.p_target,
                  Interp.Executor.of_name_opt p.Store.p_executor )
              with
              | Some target, Some executor -> (
                  (* Restore before touching the cache: a corrupt file
                     must not publish a cached failure for its digest. *)
                  match restore_persisted ~target ~executor p with
                  | None -> loaded
                  | Some art ->
                      ignore
                        (Cache.find_or_compute cache ~key: digest (fun () ->
                             art));
                      loaded + 1)
              | _ -> loaded))
        0 digests

let stats () = Cache.stats cache
let memo_stats () = Cache.stats memo

let clear () =
  Cache.clear cache;
  Cache.clear memo
let cache_length () = Cache.length cache
