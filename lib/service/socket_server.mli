(** Multi-client socket front end for the compile service: a Unix-domain
    (or loopback TCP) listener where every accepted connection runs the
    {!Serve} line protocol in its own domain against the process-wide
    {!Artifact} cache.  The cache's promise-per-key semantics already
    guarantee each distinct digest compiles exactly once no matter how
    many clients race.  A cold compile runs inline on the domain of the
    connection that requested it. *)

type endpoint =
  | Unix_path of string
      (** Unix-domain socket at this path; a stale socket file from a
          dead daemon is replaced, and the file is removed on exit *)
  | Tcp_port of int  (** loopback (127.0.0.1) TCP on this port *)

val endpoint_name : endpoint -> string

type stats = {
  connections : int;  (** connections accepted over the daemon's life *)
  batches : int;
      (** cold compiles: the artifact cache's [misses] delta over {!run},
          i.e. every computation (pipeline compile or store restore) the
          cache started while the daemon ran.  Each cold compile is its
          own batch, so this equals [batched_jobs]; perfbench reads both
          to compute jobs per batch. *)
  batched_jobs : int;  (** the same count as [batches] *)
}

val run :
  ?handlers:Serve.handlers ->
  ?max_clients:int ->
  ?on_ready:(unit -> unit) ->
  endpoint ->
  stats
(** Serve until some client sends [shutdown].  Blocking: returns only
    after the listener closed and every connection domain joined.
    [handlers] supplies demo resolution and the run handler exactly as
    for {!Serve.serve}; [max_clients] bounds concurrently live connection
    domains (default 8), and with them concurrent cold compiles —
    further clients queue in the listen backlog; [on_ready] fires once
    the socket is listening (tests use it to know when to connect). *)
