(* The *native Devito* comparison path (paper §6.1 baseline).

   Standalone Devito applies symbolic flop-reduction passes (common
   sub-expression elimination, factorization of symmetric finite-difference
   coefficients) before emitting C, and its MPI layer supports diagonal
   halo exchanges with computation/communication overlap (Bisbas et al.
   2023).  This module reproduces the flop reduction at the symbolic level:
   it measures the baseline's effective kernel features (flops after
   symbolic optimization), which the machine models consume next to the
   shared-stack ("xDSL-Devito") features measured from the compiled IR.
   The MPI schedule is derived from the compiled module instead
   ([Scale.Schedule] with [Diagonals] and overlap, bench fig 8). *)

open Symbolic

(* Structural key for expression hash-consing. *)
let rec key (e : expr) : string =
  match e with
  | Const c -> Printf.sprintf "c%.17g" c
  | Access (fl, t, offs) ->
      Printf.sprintf "a%s@%d[%s]" fl.name t
        (String.concat "," (List.map string_of_int offs))
  | Add (a, b) -> Printf.sprintf "(+ %s %s)" (key a) (key b)
  | Sub (a, b) -> Printf.sprintf "(- %s %s)" (key a) (key b)
  | Mul (a, b) -> Printf.sprintf "(* %s %s)" (key a) (key b)
  | Div (a, b) -> Printf.sprintf "(/ %s %s)" (key a) (key b)
  | Neg a -> Printf.sprintf "(~ %s)" (key a)

(* Flops after hash-consing common subexpressions: every distinct non-leaf
   node costs one op, shared subtrees cost once. *)
let cse_flops (e : expr) : int =
  let seen = Hashtbl.create 64 in
  let count = ref 0 in
  let rec go e =
    let k = key e in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      match e with
      | Const _ | Access _ -> ()
      | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
          incr count;
          go a;
          go b
      | Neg a ->
          incr count;
          go a
    end
  in
  go e;
  !count

(* Flatten nested additions into a term list. *)
let rec terms = function
  | Add (a, b) -> terms a @ terms b
  | e -> [ e ]

(* Factorization: group additive terms of the form (w * access) by their
   coefficient w, turning sum_i w*a_i into w * sum_i a_i.  Symmetric FD
   weights repeat 2d times per coefficient, so the saving grows with the
   space order — exactly why native Devito pulls ahead at high arithmetic
   intensity in fig. 7. *)
let rec factorized_flops (e : expr) : int =
  match e with
  | Const _ | Access _ -> 0
  | Add _ ->
      let ts = terms e in
      let groups : (string, int) Hashtbl.t = Hashtbl.create 16 in
      let other = ref 0 and n_other = ref 0 in
      List.iter
        (fun t ->
          match t with
          | Mul (Const w, Access _) | Mul (Access _, Const w) ->
              let k = Printf.sprintf "%.17g" w in
              Hashtbl.replace groups k
                (1 + try Hashtbl.find groups k with Not_found -> 0)
          | t ->
              incr n_other;
              other := !other + factorized_flops t)
        ts;
      let grouped =
        Hashtbl.fold
          (fun _ n acc ->
            (* n accesses: (n-1) adds + 1 multiply by the shared weight *)
            acc + (n - 1) + 1)
          groups 0
      in
      let n_groups = Hashtbl.length groups in
      let joins = max 0 (n_groups + !n_other - 1) in
      grouped + !other + joins
  | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      1 + factorized_flops a + factorized_flops b
  | Neg a -> 1 + factorized_flops a

(* Features of the native-Devito compiled kernel for the machine model. *)
let features (spec : Operator.t) ~(elt_bytes : int) : Machine.Features.t =
  let e = spec.Operator.update in
  let reads = Symbolic.count_accesses e in
  let inputs =
    List.length (Symbolic.distinct_reads e)
  in
  let radius =
    Array.fold_left
      (fun acc (n, p) -> max acc (max (-n) p))
      0 spec.Operator.halo
  in
  let points =
    List.fold_left
      (fun acc n -> acc * n)
      1 spec.Operator.target.Symbolic.fgrid.shape
  in
  {
    Machine.Features.flops_per_pt = float_of_int (factorized_flops e);
    reads_per_pt = float_of_int reads;
    unique_bytes_per_pt = float_of_int ((inputs + 2) * elt_bytes);
    stencil_regions = 1;
    points_per_step = float_of_int points;
    elt_bytes;
    radius;
  }
