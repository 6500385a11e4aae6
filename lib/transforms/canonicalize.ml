(* Canonicalization: constant folding and algebraic identities for the arith
   dialect, as context-aware rewrite patterns on the shared Rewriter core.

   Patterns look up each operand's defining constant through the rewriter
   context's use-def index, so folding needs no per-block constant
   environment: replacing an op re-enqueues its users, and a user whose
   operands have just become constants folds when it is re-visited.  The
   driver's [dead] predicate erases the constants (and other pure ops) that
   folding strands, which replaces the old trailing DCE sweep. *)

open Ir
open Dialects

let const_int_op v ty =
  let r = Value.fresh ty in
  ( Op.make Arith.constant ~results: [ r ]
      ~attrs: [ ("value", Typesys.Int_attr (v, ty)) ],
    r )

let const_float_op v ty =
  let r = Value.fresh ty in
  ( Op.make Arith.constant ~results: [ r ]
      ~attrs: [ ("value", Typesys.Float_attr (v, ty)) ],
    r )

let eval_int_binop name a b =
  match name with
  | "arith.addi" -> Some (a + b)
  | "arith.subi" -> Some (a - b)
  | "arith.muli" -> Some (a * b)
  | "arith.divsi" -> if b = 0 then None else Some (a / b)
  | "arith.remsi" -> if b = 0 then None else Some (a mod b)
  | "arith.andi" -> Some (a land b)
  | "arith.ori" -> Some (a lor b)
  | "arith.xori" -> Some (a lxor b)
  | _ -> None

let eval_float_binop name a b =
  match name with
  | "arith.addf" -> Some (a +. b)
  | "arith.subf" -> Some (a -. b)
  | "arith.mulf" -> Some (a *. b)
  | "arith.divf" -> Some (a /. b)
  | "arith.maximumf" -> Some (Float.max a b)
  | "arith.minimumf" -> Some (Float.min a b)
  | _ -> None

let eval_cmp pred a b =
  let open Arith in
  match pred with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

type const_value = Cint of int | Cfloat of float

(* The constant defining [v], if its defining op is an arith.constant. *)
let const_of (ctx : Rewriter.ctx) v =
  match ctx.Rewriter.def v with
  | Some op when op.Op.name = Arith.constant -> (
      match Op.attr op "value" with
      | Some (Typesys.Int_attr (i, _)) -> Some (Cint i)
      | Some (Typesys.Float_attr (f, _)) -> Some (Cfloat f)
      | _ -> None)
  | _ -> None

let forward old_v new_v = Pattern.replace_with [] [ (old_v, new_v) ]

let fold_int_binop =
  Rewriter.pattern ~roots: Arith.int_binops "fold-int-binop"
    (fun ctx op ->
      match (op.Op.operands, op.Op.results) with
      | [ a; b ], [ r ] -> (
          match (const_of ctx a, const_of ctx b) with
          | Some (Cint va), Some (Cint vb) -> (
              match eval_int_binop op.Op.name va vb with
              | Some v ->
                  let cop, nr = const_int_op v (Value.ty r) in
                  Pattern.replace_with [ cop ] [ (r, nr) ]
              | None -> None)
          | _ -> None)
      | _ -> None)

let fold_float_binop =
  Rewriter.pattern ~roots: Arith.float_binops "fold-float-binop"
    (fun ctx op ->
      match (op.Op.operands, op.Op.results) with
      | [ a; b ], [ r ] -> (
          match (const_of ctx a, const_of ctx b) with
          | Some (Cfloat va), Some (Cfloat vb) -> (
              match eval_float_binop op.Op.name va vb with
              | Some v ->
                  let cop, nr = const_float_op v (Value.ty r) in
                  Pattern.replace_with [ cop ] [ (r, nr) ]
              | None -> None)
          | _ -> None)
      | _ -> None)

let fold_negf =
  Rewriter.pattern ~roots: [ "arith.negf" ] "fold-negf" (fun ctx op ->
      match (op.Op.operands, op.Op.results) with
      | [ a ], [ r ] -> (
          match const_of ctx a with
          | Some (Cfloat va) ->
              let cop, nr = const_float_op (-.va) (Value.ty r) in
              Pattern.replace_with [ cop ] [ (r, nr) ]
          | _ -> None)
      | _ -> None)

let fold_cmpi =
  Rewriter.pattern ~roots: [ "arith.cmpi" ] "fold-cmpi" (fun ctx op ->
      match (op.Op.operands, op.Op.results) with
      | [ a; b ], [ r ] -> (
          match (const_of ctx a, const_of ctx b) with
          | Some (Cint va), Some (Cint vb) ->
              let pred =
                Arith.predicate_of_string (Op.string_attr_exn op "predicate")
              in
              let v = if eval_cmp pred va vb then 1 else 0 in
              let cop, nr = const_int_op v Typesys.i1 in
              Pattern.replace_with [ cop ] [ (r, nr) ]
          | _ -> None)
      | _ -> None)

let fold_index_cast =
  Rewriter.pattern ~roots: [ "arith.index_cast" ] "fold-index-cast"
    (fun ctx op ->
      match (op.Op.operands, op.Op.results) with
      | [ a ], [ r ] -> (
          match const_of ctx a with
          | Some (Cint va) ->
              let cop, nr = const_int_op va (Value.ty r) in
              Pattern.replace_with [ cop ] [ (r, nr) ]
          | _ -> None)
      | _ -> None)

let fold_sitofp =
  Rewriter.pattern ~roots: [ "arith.sitofp" ] "fold-sitofp" (fun ctx op ->
      match (op.Op.operands, op.Op.results) with
      | [ a ], [ r ] -> (
          match const_of ctx a with
          | Some (Cint va) ->
              let v = float_of_int va in
              let cop, nr = const_float_op v (Value.ty r) in
              Pattern.replace_with [ cop ] [ (r, nr) ]
          | _ -> None)
      | _ -> None)

(* Algebraic identities with one constant side: the result is forwarded to
   an existing value, no replacement op is needed. *)
let float_identities =
  Rewriter.pattern
    ~roots: [ "arith.addf"; "arith.subf"; "arith.mulf"; "arith.divf" ]
    "float-identity"
    (fun ctx op ->
      match (op.Op.operands, op.Op.results) with
      | [ a; b ], [ r ] -> (
          let ca = const_of ctx a and cb = const_of ctx b in
          match (op.Op.name, ca, cb) with
          | "arith.addf", _, Some (Cfloat 0.) -> forward r a
          | "arith.addf", Some (Cfloat 0.), _ -> forward r b
          | "arith.subf", _, Some (Cfloat 0.) -> forward r a
          | "arith.mulf", _, Some (Cfloat 1.) -> forward r a
          | "arith.mulf", Some (Cfloat 1.), _ -> forward r b
          | "arith.divf", _, Some (Cfloat 1.) -> forward r a
          | _ -> None)
      | _ -> None)

let int_identities =
  Rewriter.pattern
    ~roots: [ "arith.addi"; "arith.subi"; "arith.muli" ]
    "int-identity"
    (fun ctx op ->
      match (op.Op.operands, op.Op.results) with
      | [ a; b ], [ r ] -> (
          let ca = const_of ctx a and cb = const_of ctx b in
          match (op.Op.name, ca, cb) with
          | "arith.addi", _, Some (Cint 0) -> forward r a
          | "arith.addi", Some (Cint 0), _ -> forward r b
          | "arith.subi", _, Some (Cint 0) -> forward r a
          | "arith.muli", _, Some (Cint 1) -> forward r a
          | "arith.muli", Some (Cint 1), _ -> forward r b
          | _ -> None)
      | _ -> None)

let select_identity =
  Rewriter.pattern ~roots: [ "arith.select" ] "select-const" (fun ctx op ->
      match (op.Op.operands, op.Op.results) with
      | [ c; t; f ], [ r ] -> (
          match const_of ctx c with
          | Some (Cint 1) -> forward r t
          | Some (Cint 0) -> forward r f
          | _ -> None)
      | _ -> None)

let patterns =
  [
    fold_int_binop;
    fold_float_binop;
    fold_negf;
    fold_cmpi;
    fold_index_cast;
    fold_sitofp;
    float_identities;
    int_identities;
    select_identity;
  ]

let run (m : Op.t) : Op.t =
  Rewriter.run ~dead: Effects.removable_if_unused
    ~name: "canonicalize" patterns m

let pass = Pass.make "canonicalize" (fun m -> run m)
