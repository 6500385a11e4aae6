(** Domains-safe memo cache with promise-per-key semantics: concurrent
    requests for the same key block until the single in-flight computation
    finishes, so a value is computed exactly once no matter how many
    domains ask for it at the same time.  Failures are cached too (the
    computation is deterministic) and re-raised to every requester.

    Completed entries sit on an O(1) recency structure; over-capacity
    caches evict the least recently used entry in O(1) per eviction. *)

type 'a t

type stats = {
  hits : int;  (** requests answered from a {!Ready} entry *)
  misses : int;  (** requests that started a computation *)
  failed_hits : int;
      (** requests answered from a cached {e failure} — kept apart from
          [hits] so repeated lookups of a broken key cannot masquerade as
          a healthy hit rate *)
  failures : int;  (** computations that raised *)
  evictions : int;  (** entries dropped by capacity pressure *)
  compute_s : float;  (** total seconds spent inside computations *)
}

val create : ?capacity:int -> string -> 'a t
(** A named cache (the name prefixes its Obs counters).  [capacity] bounds
    the number of retained entries (unbounded by default); over capacity,
    the least recently used completed entries are evicted (hits refresh
    recency; in-flight entries are never evicted). *)

val set_policy : capacity:int -> 'a t -> unit
(** Change the capacity (<= 0 means unbounded) of a live cache; evicts
    immediately if the new capacity is exceeded. *)

val find_or_compute : 'a t -> key:string -> (unit -> 'a) -> 'a * [ `Hit | `Miss ]
(** The cached value for [key], computing it with the thunk on first
    request.  The thunk runs outside the cache lock; other requesters of
    the same key wait on a condition variable instead of recomputing.
    [`Hit] means the value (or cached failure) was already resident. *)

val stats : 'a t -> stats
val length : 'a t -> int
(** Number of completed resident entries; O(1). *)

val clear : 'a t -> unit
(** Drop all completed entries.  Counters keep accumulating (measure with
    {!stats} deltas); in-flight computations are left to finish and
    publish into their intact slots. *)

val name : 'a t -> string
