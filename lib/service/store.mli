(** Digest-keyed on-disk artifact store: persists the canonical source
    rendering, the fully lowered module text and the compile metadata of
    each artifact, so a restarted daemon can skip the pass pipeline and
    re-run only the executor's [compile] step.  One atomic file per digest
    ([<dir>/<digest>.art], temp-file + rename); corrupt or truncated files
    load as [None].  The file carries a digest of the lowered text, checked
    on every load; {!Artifact} owns the content-hash recipe and re-checks
    the canonical text against it. *)

type persisted = {
  p_digest : string;  (** hex content hash, also the filename stem *)
  p_executor : string;  (** executor name the artifact was compiled for *)
  p_target : string;  (** [Core.Pipeline.target_fingerprint] rendering *)
  p_compile_s : float;  (** the original cold-compile seconds *)
  p_canonical : string;  (** canonical rendering of the source module *)
  p_lowered : string;  (** textual rendering of the lowered module *)
}

type t

val create : ?max_bytes:int -> string -> t
(** Open (creating directories as needed) the store rooted at a path.
    [max_bytes] caps the total size of the store's artifact files:
    after every {!save}, artifacts are evicted oldest-first (by mtime,
    never the one just saved) until the store fits, each eviction
    logged loudly to stderr.  Unset = unbounded (the historical
    behavior).  Raises [Invalid_argument] when non-positive. *)

val dir : t -> string

val save : t -> persisted -> unit
(** Persist one artifact atomically; raises [Invalid_argument] on a
    malformed digest and [Sys_error] on I/O failure. *)

val load : t -> digest:string -> persisted option
(** The persisted artifact for a digest, or [None] when absent, corrupt,
    mislabeled (stored digest must equal the requested one), or when the
    lowered text no longer matches the digest written beside it. *)

val list : t -> string list
(** All digests present, sorted. *)

val remove : t -> digest:string -> unit
