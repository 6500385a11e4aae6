(** The compile service behind [stencilc --serve]: a newline-delimited
    request/response protocol over arbitrary channels (a pipe, a socket,
    stdin/stdout), answering compile and run requests from the
    process-wide {!Artifact} cache.

    Requests are single lines [cmd key=value ...]:

    - [ping] → [ok pong]
    - [stats] → [ok hits=... misses=... failed_hits=... failures=...
      evictions=... entries=... compile_s=...]
    - [compile <module> <target>] → [ok digest=<hex>
      cached=hit|miss|store compile_ms=<ms> exec=<name>]
      ([cached=store] means the artifact was restored from the on-disk
      store, skipping the pass pipeline; a cold compile runs inline on
      the requesting connection)
    - [run <module> <target> substrate=sim|par] → compile (cached) then
      execute via the installed run handler; its key/value results are
      appended to the [ok] line
    - [quit] → [ok bye], and this connection's loop returns
    - [shutdown] → [ok bye]; additionally asks the enclosing socket
      server (if any) to stop accepting connections

    Module spec (exactly one): [demo=<name>] (resolved by the injected
    demo resolver), [file=<path>] (textual IR on disk), or [ir=<nbytes>]
    (that many bytes of textual IR follow the request line verbatim).
    A declared [ir=] payload is always drained from the channel before
    the request is validated, so a malformed request cannot leave its
    payload behind to be misparsed as the next request.
    Target spec: [target=<cpu-sequential|cpu-openmp|distributed-cpu>]
    (default distributed-cpu) with [ranks=<n>] (default 4),
    [strategy=<slice1d|slice2d|slice3d>] (default slice2d),
    [overlap=<bool>] (default true), [tile=<t1,t2,...>] (cache-block
    sizes for the tiled omp lowering; default untiled; part of the
    artifact digest) and [exec=<executor>] (default compiled).  [run]
    additionally takes [threads=<n>] (threads per rank for the compiled
    executor's domain pool; default 1; a runtime knob, not part of the
    digest).  Failures answer [error <message>] and the loop
    continues. *)

type run_handler =
  Ir.Op.t ->
  Artifact.t ->
  ranks:int ->
  substrate:string ->
  threads:int ->
  (string * string) list
(** Executes a compiled artifact and returns response key/values (e.g.
    [max_diff], [wall_ms]).  Receives the source module as well — the
    CLI's handler runs it serially as the correctness oracle.  Injected
    by the CLI so the service library stays below the driver in the
    dependency order. *)

type handlers = {
  resolve_demo : string -> Ir.Op.t option;
      (** named built-in programs ([demo=heat2d], ...) *)
  run : run_handler option;  (** [None] rejects [run] requests *)
}

val default_handlers : handlers
(** No demos, no run handler: a pure compile server. *)

val handle_request :
  handlers -> in_channel -> string -> (string * string) list
(** Process one request line (draining any [ir=<nbytes>] payload from the
    channel before validation) and return response key/values; raises on
    malformed or failing requests.  Exposed for tests. *)

val serve_connection :
  ?handlers:handlers -> in_channel -> out_channel -> [ `Eof | `Quit | `Shutdown ]
(** Serve requests from one connection until EOF, [quit] or [shutdown],
    writing one response line per request, and report which of the three
    ended the loop (the socket server turns [`Shutdown] into a full
    daemon stop). *)

val serve : ?handlers:handlers -> in_channel -> out_channel -> unit
(** {!serve_connection}, discarding the disposition — the stdin/stdout
    single-client mode, where [quit] and [shutdown] are equivalent. *)
