(** The native-Devito comparison path (paper §6.1 baseline): reproduces
    standalone Devito's symbolic flop reduction (CSE, factorization of
    symmetric FD coefficients) at the feature level the machine models
    consume.  Devito's MPI schedule (diagonal exchanges with
    computation/communication overlap, Bisbas et al. 2023) is not modelled
    here: fig 8 derives it with [Scale.Schedule.of_module ~mode:Diagonals
    ~overlap:true] and prices it with [Scale.Replay]. *)

val cse_flops : Symbolic.expr -> int
(** Flops after hash-consing shared subtrees. *)

val factorized_flops : Symbolic.expr -> int
(** Flops after grouping additive (weight * access) terms by weight —
    symmetric FD weights repeat, so the saving grows with space order. *)

val features : Operator.t -> elt_bytes:int -> Machine.Features.t
