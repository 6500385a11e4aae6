(* First-order interconnect model (alpha-beta with per-message overhead):
   the Slingshot substitute for the strong-scaling figures.  Message counts
   and volumes are supplied by the compiler output — either computed from
   the dmp.swap exchange declarations or measured from mpi_sim traffic. *)

type spec = {
  name : string;
  latency_us : float;  (* per-message latency (alpha) *)
  bw_gbs : float;  (* per-NIC bandwidth (1/beta) *)
  per_msg_cpu_us : float;  (* host-side overhead per message *)
}

let slingshot =
  { name = "HPE Slingshot"; latency_us = 1.7; bw_gbs = 25.; per_msg_cpu_us = 0.4 }

(* One rank's halo exchange schedule per timestep.  [host_us_per_msg] is
   the host-side cost per message (packing/unpacking and MPI progress):
   the shared stack's generated pack loops are plain scalar loops, while
   native Devito uses optimized MPI-derived datatypes — this asymmetry is
   part of why Devito scales more robustly (fig. 8). *)
type schedule = {
  messages : int;  (* sends posted by this rank per step *)
  bytes : float;  (* bytes sent by this rank per step *)
  overlap : bool;  (* communication/computation overlap *)
  host_us_per_msg : float;
}

(* Host-side per-message cost of the shared stack's scalar pack loops vs
   Devito's optimized derived-datatype path. *)
let xdsl_host_us_per_msg = 12.
let devito_host_us_per_msg = 2.

(* Wire time: latency plus serialization. *)
let wire_time (spec : spec) (s : schedule) : float =
  (float_of_int s.messages *. (spec.latency_us +. spec.per_msg_cpu_us) *. 1e-6)
  +. (s.bytes /. (spec.bw_gbs *. 1e9))

(* Host time: packing/unpacking, never hidden by overlap. *)
let host_time (s : schedule) : float =
  float_of_int s.messages *. s.host_us_per_msg *. 1e-6

let comm_time (spec : spec) (s : schedule) : float =
  wire_time spec s +. host_time s

(* Combine one step's compute and communication: overlap hides most of the
   wire time behind compute but never the host-side costs. *)
let step_time (spec : spec) ~(compute : float) (s : schedule) : float =
  let wire = wire_time spec s in
  let host = host_time s in
  if s.overlap then compute +. host +. (0.10 *. wire)
  else compute +. host +. wire
