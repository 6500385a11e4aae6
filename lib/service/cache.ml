(* Promise-per-key memo cache, safe across OCaml 5 domains.

   One mutex guards the table; a requester that misses installs a Pending
   entry, releases the lock, runs the computation, then publishes the
   result and broadcasts.  Requesters that find a Pending entry wait on
   the condition variable — so N concurrent requests for one key cost
   exactly one computation.  Failed computations are published as [Failed]
   (compilation is deterministic: retrying would fail identically) and the
   exception is re-raised to every requester.

   Completed entries live on a recency ring (a sentinel-linked circular
   doubly-linked list, least recently used first) with a mirror table
   from key to ring node, so insert, touch and evict are all O(1) and the
   entry count is a plain integer — the earlier list-based order was
   O(n) per insert and O(n²) per eviction sweep, all under the lock. *)

type 'a entry = Pending | Ready of 'a | Failed of exn

(* Ring node for one completed key. *)
type node = { nkey : string; mutable prev : node; mutable next : node }

type 'a t = {
  cache_name : string;
  mutable capacity : int option;
  lock : Mutex.t;
  changed : Condition.t;
  table : (string, 'a entry) Hashtbl.t;
  nodes : (string, node) Hashtbl.t;  (* completed keys -> ring node *)
  ring : node;  (* sentinel: [ring.next] is the LRU end, [ring.prev] the MRU *)
  mutable count : int;  (* completed entries (= ring length), O(1) *)
  mutable hits : int;
  mutable misses : int;
  mutable failed_hits : int;
  mutable failures : int;
  mutable evictions : int;
  mutable compute_s : float;
}

type stats = {
  hits : int;
  misses : int;
  failed_hits : int;
  failures : int;
  evictions : int;
  compute_s : float;
}

let create ?capacity cache_name =
  let rec ring = { nkey = ""; prev = ring; next = ring } in
  {
    cache_name;
    capacity;
    lock = Mutex.create ();
    changed = Condition.create ();
    table = Hashtbl.create 64;
    nodes = Hashtbl.create 64;
    ring;
    count = 0;
    hits = 0;
    misses = 0;
    failed_hits = 0;
    failures = 0;
    evictions = 0;
    compute_s = 0.;
  }

let name c = c.cache_name

let locked c f =
  Mutex.lock c.lock;
  Fun.protect ~finally: (fun () -> Mutex.unlock c.lock) f

(* ---------- recency ring (all under the lock) ---------- *)

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev;
  n.prev <- n;
  n.next <- n

let push_mru c n =
  n.prev <- c.ring.prev;
  n.next <- c.ring;
  c.ring.prev.next <- n;
  c.ring.prev <- n

(* A key was used or finished (re)computing: put it at the MRU end. *)
let touch c key =
  match Hashtbl.find_opt c.nodes key with
  | Some n ->
      unlink n;
      push_mru c n
  | None ->
      let rec n = { nkey = key; prev = n; next = n } in
      Hashtbl.replace c.nodes key n;
      push_mru c n;
      c.count <- c.count + 1

(* Must hold the lock.  Evicts from the LRU end; pending entries have no
   ring node and are never evicted. *)
let evict_over_capacity c =
  match c.capacity with
  | None -> ()
  | Some cap ->
      while c.count > cap && c.ring.next != c.ring do
        let v = c.ring.next in
        unlink v;
        Hashtbl.remove c.nodes v.nkey;
        Hashtbl.remove c.table v.nkey;
        c.count <- c.count - 1;
        c.evictions <- c.evictions + 1
      done

let set_policy ~capacity c =
  locked c (fun () ->
      c.capacity <- (if capacity <= 0 then None else Some capacity);
      evict_over_capacity c)

let emit_counters c =
  if Obs.Trace.enabled () then begin
    Obs.Trace.counter (c.cache_name ^ ".hits") (float_of_int c.hits);
    Obs.Trace.counter (c.cache_name ^ ".misses") (float_of_int c.misses)
  end

let find_or_compute c ~key compute =
  let action =
    locked c (fun () ->
        let rec decide () =
          match Hashtbl.find_opt c.table key with
          | Some (Ready v) ->
              c.hits <- c.hits + 1;
              touch c key;
              `Use (Ready v, `Hit)
          | Some (Failed e) ->
              (* A lookup that lands on a cached failure is NOT a healthy
                 hit: count it apart so a server hammered with a broken
                 module cannot report a clean hit rate. *)
              c.failed_hits <- c.failed_hits + 1;
              touch c key;
              `Use (Failed e, `Hit)
          | Some Pending ->
              (* Join the in-flight computation: wait until its owner
                 publishes, then re-decide — we land on Ready/Failed and
                 count accordingly (no new computation was needed). *)
              Condition.wait c.changed c.lock;
              decide ()
          | None ->
              c.misses <- c.misses + 1;
              Hashtbl.replace c.table key Pending;
              `Compute
        in
        let a = decide () in
        emit_counters c;
        a)
  in
  match action with
  | `Use (Ready v, flag) -> (v, flag)
  | `Use (Failed e, _) -> raise e
  | `Use (Pending, _) -> assert false
  | `Compute ->
      let t0 = Unix.gettimeofday () in
      let outcome =
        match compute () with v -> Ready v | exception e -> Failed e
      in
      let dt = Unix.gettimeofday () -. t0 in
      locked c (fun () ->
          c.compute_s <- c.compute_s +. dt;
          (match outcome with
          | Failed _ -> c.failures <- c.failures + 1
          | _ -> ());
          Hashtbl.replace c.table key outcome;
          touch c key;
          evict_over_capacity c;
          Condition.broadcast c.changed);
      (match outcome with
      | Ready v -> (v, `Miss)
      | Failed e -> raise e
      | Pending -> assert false)

let stats c =
  locked c (fun () ->
      {
        hits = c.hits;
        misses = c.misses;
        failed_hits = c.failed_hits;
        failures = c.failures;
        evictions = c.evictions;
        compute_s = c.compute_s;
      })

let length c = locked c (fun () -> c.count)

let clear c =
  locked c (fun () ->
      (* Drop completed entries only: a Pending entry's owner will publish
         into the table when it finishes, and must find its slot intact. *)
      Hashtbl.iter (fun key _ -> Hashtbl.remove c.table key) c.nodes;
      Hashtbl.reset c.nodes;
      c.ring.prev <- c.ring;
      c.ring.next <- c.ring;
      c.count <- 0)
