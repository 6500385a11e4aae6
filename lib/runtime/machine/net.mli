(** First-order interconnect model (alpha-beta with per-message host
    costs): the Slingshot substitute for the strong-scaling figures.
    Message counts and volumes come from the compiled dmp.swap
    declarations or from simulated-MPI traffic. *)

type spec = {
  name : string;
  latency_us : float;
  bw_gbs : float;
  per_msg_cpu_us : float;
}

val slingshot : spec

(** One rank's per-timestep exchange schedule.  [host_us_per_msg] is the
    host-side pack/unpack cost per message — the shared stack's generated
    scalar pack loops vs Devito's optimized derived datatypes (part of why
    Devito scales more robustly in fig. 8). *)
type schedule = {
  messages : int;
  bytes : float;
  overlap : bool;
  host_us_per_msg : float;
}

val xdsl_host_us_per_msg : float
val devito_host_us_per_msg : float

val wire_time : spec -> schedule -> float
val host_time : schedule -> float
val comm_time : spec -> schedule -> float

val step_time : spec -> compute:float -> schedule -> float
(** Combine compute and communication; overlap hides most wire time but
    never the host-side costs. *)
