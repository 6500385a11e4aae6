(** The pluggable cost model the scale-out replay engine prices runs
    with: an alpha-beta postal model per message (fixed latency plus a
    per-byte transfer cost) and per-unit host rates for compute, halo
    packing and unpacking.

    Models come from four places: {!reference} (frozen constants that
    never change — the machine-independent model every default and
    fallback uses, and the one the test suite pins the scaling curves
    under), {!slingshot} (the paper's interconnect, for the scaling
    figures), {!of_fit} / {!calibrate} (the {!Analysis.fit_alpha_beta}
    verdict and host rates from a real traced [mpi_par] run), and
    {!of_spec} (explicit constants). *)

type t = {
  alpha_s : float;  (** fixed cost per message (seconds) *)
  beta_s_per_byte : float;  (** transfer cost per payload byte *)
  compute_s_per_cell : float;  (** stencil compute cost per output cell *)
  pack_s_per_byte : float;  (** halo pack cost per byte staged *)
  unpack_s_per_byte : float;  (** halo unpack cost per byte drained *)
  nm_source : string;  (** provenance: "reference", "slingshot", "calibrated", "spec" *)
}

val reference : t
(** Frozen constants (never retuned): deterministic replay results
    across machines, for the test-pinned scaling curves. *)

val slingshot : t
(** HPE Slingshot, the interconnect of the paper's ARCHER2 figures:
    [alpha_s] = 2.1 us (1.7 us latency + 0.4 us per-message host cost),
    [beta_s_per_byte] = 4e-11 (25 GB/s), pack/unpack at the {!reference}
    rates.  Its [compute_s_per_cell] is a placeholder; the figures set it
    per point from [Machine.Cpu]. *)

val msg_cost : t -> bytes:int -> float
(** [alpha_s + beta_s_per_byte * bytes]. *)

val describe : t -> string

val of_spec : string -> t
(** Parse ["alpha=2e-6,beta=1e-9,compute=5e-9,pack=1e-9,unpack=1e-9"]
    (any subset; unset fields keep {!reference}).  Raises [Failure] on an
    unknown key or a malformed/negative number. *)

(** {1 Calibration} *)

val of_fit : ?base:t -> Analysis.fit -> t
(** Install a fitted alpha/beta into [base] (default {!reference});
    [nm_source] becomes ["calibrated"]. *)

val calibrate :
  compute_cells:float ->
  compute_s:float ->
  pack_bytes:float ->
  pack_s:float ->
  unpack_bytes:float ->
  unpack_s:float ->
  t ->
  t
(** Refine host rates of a model from a traced run's phase totals (the
    [Analysis] per-rank breakdown summed over ranks) and the run's known
    work totals; a rate whose work or time total is nonpositive keeps
    the incoming model's value. *)
