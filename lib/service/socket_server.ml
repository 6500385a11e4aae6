(* The hardened daemon behind [stencilc --serve --socket/--tcp]: a
   Unix-domain (or loopback TCP) listener accepting multiple concurrent
   client connections, each served by its own domain running the same
   line protocol as the stdin/stdout mode ([Serve.serve_connection])
   against the process-wide artifact cache — which already guarantees
   compile-exactly-once under contention (promise-per-key).  A cold
   compile runs on the domain of the connection that asked for it, so
   requests for distinct digests compile concurrently and the only
   domains the daemon spawns are its connection domains. *)

type endpoint = Unix_path of string | Tcp_port of int

let endpoint_name = function
  | Unix_path p -> "unix:" ^ p
  | Tcp_port p -> Printf.sprintf "tcp:127.0.0.1:%d" p

(* ---------- the listener ---------- *)

let sockaddr_of = function
  | Unix_path path -> Unix.ADDR_UNIX path
  | Tcp_port port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let listen_fd endpoint =
  let addr = sockaddr_of endpoint in
  let fd =
    Unix.socket ~cloexec: true (Unix.domain_of_sockaddr addr)
      Unix.SOCK_STREAM 0
  in
  (match endpoint with
  | Unix_path path ->
      (* A stale socket file from a dead daemon would make bind fail. *)
      if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ())
  | Tcp_port _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
  Unix.bind fd addr;
  Unix.listen fd 64;
  let cleanup () =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    match endpoint with
    | Unix_path path -> ( try Sys.remove path with Sys_error _ -> ())
    | Tcp_port _ -> ()
  in
  (fd, addr, cleanup)

type stats = { connections : int; batches : int; batched_jobs : int }

let run ?(handlers = Serve.default_handlers) ?(max_clients = 8) ?on_ready
    (endpoint : endpoint) : stats =
  (* A client that disconnects mid-response must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd, addr, cleanup = listen_fd endpoint in
  let misses_before = (Artifact.stats ()).Cache.misses in
  let stop = Atomic.make false in
  (* Unblock the blocking [accept] from a handler domain that just saw a
     [shutdown] request: a throwaway self-connection. *)
  let wake () =
    match
      let s =
        Unix.socket ~cloexec: true (Unix.domain_of_sockaddr addr)
          Unix.SOCK_STREAM 0
      in
      Unix.connect s addr;
      s
    with
    | s -> ( try Unix.close s with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  let workers = Queue.create () in
  let connections = ref 0 in
  Option.iter (fun f -> f ()) on_ready;
  let rec accept_loop () =
    if Atomic.get stop then ()
    else
      match Unix.accept ~cloexec: true fd with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error _ -> ()
      | conn, _ ->
          if Atomic.get stop then (
            (try Unix.close conn with Unix.Unix_error _ -> ()))
          else begin
            incr connections;
            (* Bound live domains: join the oldest before admitting more.
               Joining the head can wait on one slow client, which is the
               deliberate backpressure for a compile daemon. *)
            if Queue.length workers >= max_clients then
              Domain.join (Queue.pop workers);
            let d =
              Domain.spawn (fun () ->
                  let ic = Unix.in_channel_of_descr conn in
                  let oc = Unix.out_channel_of_descr conn in
                  (match Serve.serve_connection ~handlers ic oc with
                  | `Shutdown ->
                      Atomic.set stop true;
                      wake ()
                  | `Quit | `Eof -> ()
                  | exception _ -> ());
                  (try flush oc with Sys_error _ -> ());
                  try Unix.close conn with Unix.Unix_error _ -> ())
            in
            Queue.push d workers;
            accept_loop ()
          end
  in
  accept_loop ();
  Queue.iter Domain.join workers;
  Queue.clear workers;
  cleanup ();
  let cold = (Artifact.stats ()).Cache.misses - misses_before in
  { connections = !connections; batches = cold; batched_jobs = cold }
