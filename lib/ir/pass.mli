(** Pass management: named module transformations composed into pipelines. *)

type t = { name : string; run : Op.t -> Op.t }

val make : string -> (Op.t -> Op.t) -> t

type pipeline = { pipeline_name : string; passes : t list }

val pipeline : string -> t list -> pipeline

val run_pipeline :
  ?verify:bool ->
  ?checks:Verifier.check list ->
  ?print_after:bool ->
  pipeline ->
  Op.t ->
  Op.t
(** Run each pass in order.  [verify] re-checks the module after every pass;
    [print_after] dumps the IR after every pass through {!Obs.Report},
    labeled with the pass and pipeline names.  When the {!Obs} sink is
    installed, every pass additionally records a trace span and an
    {!Obs.pass_stat} (wall time, verifier time, op-count and IR-size
    deltas, rewrite-pattern application counts). *)
