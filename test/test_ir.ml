(* Unit and property tests for the IR core: types, attributes, ops, builder,
   printer/parser round-tripping and the verifier. *)

open Ir

let check = Alcotest.check
let bool_c = Alcotest.bool
let string_c = Alcotest.string
let int_c = Alcotest.int

(* --- types and attributes --- *)

let test_ty_printing () =
  check string_c "i32" "i32" (Typesys.ty_to_string Typesys.i32);
  check string_c "f64" "f64" (Typesys.ty_to_string Typesys.f64);
  check string_c "index" "index" (Typesys.ty_to_string Typesys.Index);
  check string_c "memref" "memref<4x5xf32>"
    (Typesys.ty_to_string (Typesys.Memref ([ 4; 5 ], Typesys.f32)));
  check string_c "field"
    "!stencil.field<[-4,68] x [-4,68] x f64>"
    (Typesys.ty_to_string
       (Typesys.Field
          ([ Typesys.bound (-4) 68; Typesys.bound (-4) 68 ], Typesys.f64)));
  check string_c "request" "!mpi.request" (Typesys.ty_to_string Typesys.Request)

let test_attr_printing () =
  check string_c "int attr" "42 : i32"
    (Typesys.attr_to_string (Typesys.Int_attr (42, Typesys.i32)));
  check string_c "dense" "dense<[1, -2, 3]>"
    (Typesys.attr_to_string (Typesys.Dense_attr [ 1; -2; 3 ]));
  check string_c "grid" "#dmp.grid<2x2x1>"
    (Typesys.attr_to_string (Typesys.Grid_attr [ 2; 2; 1 ]))

let test_bounds () =
  let b = Typesys.bound (-2) 10 in
  check int_c "size" 12 (Typesys.bound_size b);
  Alcotest.check_raises "bad bound" (Invalid_argument "Typesys.bound: hi < lo")
    (fun () -> ignore (Typesys.bound 3 1))

let test_byte_width () =
  check int_c "f32" 4 (Typesys.byte_width Typesys.f32);
  check int_c "f64" 8 (Typesys.byte_width Typesys.f64);
  check int_c "i1" 1 (Typesys.byte_width Typesys.i1)

(* --- ops and builder --- *)

let build_simple () =
  let bld = Builder.create () in
  let a = Dialects.Arith.const_int bld ~ty: Typesys.i32 1 in
  let b = Dialects.Arith.const_int bld ~ty: Typesys.i32 2 in
  let _c = Dialects.Arith.add_i bld a b in
  Builder.ops bld

let test_builder_order () =
  let ops = build_simple () in
  check int_c "three ops" 3 (List.length ops);
  check string_c "last is add" "arith.addi" (List.nth ops 2).Op.name

let test_op_attrs () =
  let op =
    Op.make "test.op" ~attrs: [ ("x", Typesys.Int_attr (7, Typesys.i64)) ]
  in
  check int_c "attr" 7 (Op.int_attr_exn op "x");
  check bool_c "has" true (Op.has_attr op "x");
  let op = Op.set_attr op "x" (Typesys.Int_attr (9, Typesys.i64)) in
  check int_c "updated" 9 (Op.int_attr_exn op "x");
  let op = Op.remove_attr op "x" in
  check bool_c "removed" false (Op.has_attr op "x")

let test_walk_count () =
  let m = Programs.jacobi1d_module ~n: 8 in
  let applies = ref 0 in
  Op.walk
    (fun o -> if o.Op.name = "stencil.apply" then incr applies)
    m;
  check int_c "one apply" 1 !applies;
  check bool_c "count > 5" true (Op.count_ops m > 5)

let test_clone_fresh_values () =
  let m = Programs.jacobi1d_module ~n: 8 in
  let c = Op.clone m in
  let ids op =
    Op.fold
      (fun acc o -> List.map Value.id o.Op.results @ acc)
      [] op
  in
  let orig = ids m and cloned = ids c in
  List.iter
    (fun i -> check bool_c "fresh id" false (List.mem i orig))
    cloned

let test_substitute () =
  let v1 = Value.fresh Typesys.i32 in
  let v2 = Value.fresh Typesys.i32 in
  let op = Op.make "test.op" ~operands: [ v1 ] in
  let op' = Op.substitute (Value.Map.singleton v1 v2) op in
  check int_c "substituted" (Value.id v2) (Value.id (List.hd op'.Op.operands))

let test_free_values () =
  let outer = Value.fresh Typesys.f64 in
  let bld = Builder.create () in
  let a = Dialects.Arith.const_float bld 1. in
  let _ = Dialects.Arith.add_f bld a outer in
  let wrapper =
    Op.make "test.wrap" ~regions: [ Op.region (Builder.ops bld) ]
  in
  let free = Op.free_values wrapper in
  check bool_c "outer free" true (Value.Set.mem outer free);
  check bool_c "a not free" false (Value.Set.mem a free)

(* --- printer / parser --- *)

let roundtrip m =
  let s = Printer.module_to_string m in
  let m' = Parser.parse_string s in
  let s' = Printer.module_to_string m' in
  (s, s')

let test_roundtrip_jacobi () =
  let s, s' = roundtrip (Programs.jacobi1d_module ~n: 16) in
  check string_c "roundtrip fixpoint" s s'

let test_roundtrip_heat_timeloop () =
  let s, s' =
    roundtrip (Programs.heat2d_timeloop_module ~nx: 8 ~ny: 8 ~steps: 3)
  in
  check string_c "roundtrip fixpoint" s s'

let test_parse_example () =
  let src =
    {|
    %1 = "arith.constant"() {value = 42 : i32} : () -> (i32)
    %2 = "arith.addi"(%1, %1) : (i32, i32) -> (i32)
    |}
  in
  let m = Parser.parse_string src in
  check int_c "two ops" 2 (List.length (Op.module_ops m))

let test_parse_errors () =
  let bad = "%1 = \"arith.addi\"(%7, %7) : (i32, i32) -> (i32)" in
  Alcotest.check_raises "undefined value"
    (Parser.Parse_error "use of undefined value %7") (fun () ->
      ignore (Parser.parse_string bad))

let test_parse_type_mismatch () =
  let bad =
    "%1 = \"arith.constant\"() {value = 1 : i32} : () -> (i32)\n\
     %2 = \"arith.addi\"(%1, %1) : (i64, i64) -> (i64)"
  in
  (try
     ignore (Parser.parse_string bad);
     Alcotest.fail "expected parse error"
   with Parser.Parse_error _ -> ())

(* Random module generator for round-trip property testing. *)

let gen_scalar_ty =
  QCheck.Gen.oneofl
    [ Typesys.i1; Typesys.i32; Typesys.i64; Typesys.f32; Typesys.f64;
      Typesys.Index ]

let gen_ty =
  QCheck.Gen.(
    frequency
      [
        (6, gen_scalar_ty);
        ( 2,
          map2
            (fun dims elt -> Typesys.Memref (dims, elt))
            (list_size (int_range 1 3) (int_range 1 8))
            gen_scalar_ty );
        ( 1,
          map2
            (fun bs elt -> Typesys.Field (bs, elt))
            (list_size (int_range 1 3)
               (map2
                  (fun lo size -> Typesys.bound lo (lo + size))
                  (int_range (-4) 0) (int_range 1 16)))
            (oneofl [ Typesys.f32; Typesys.f64 ]) );
      ])

let gen_attr =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> Typesys.Int_attr (i, Typesys.i64)) (int_range (-100) 100));
        ( 2,
          map
            (fun f -> Typesys.Float_attr (f, Typesys.f64))
            (map (fun i -> float_of_int i /. 8.) (int_range (-800) 800)) );
        (2, map (fun s -> Typesys.String_attr s) (string_size ~gen: (char_range 'a' 'z') (int_range 0 8)));
        (1, map (fun xs -> Typesys.Dense_attr xs) (list_size (int_range 0 4) (int_range (-9) 9)));
        (1, map (fun s -> Typesys.Symbol_attr s) (string_size ~gen: (char_range 'a' 'z') (int_range 1 6)));
        (1, return Typesys.Unit_attr);
        (1, map (fun b -> Typesys.Bool_attr b) bool);
      ])

(* Random straight-line module: constants and unary/binary "test.op"s with
   random attributes, nested one level of regions occasionally. *)
let gen_module =
  QCheck.Gen.(
    let gen_op defined =
      let* n_operands = int_range 0 (min 2 (List.length defined)) in
      let* operands =
        if n_operands = 0 then return []
        else
          list_size (return n_operands) (oneofl defined)
      in
      let* n_results = int_range 0 2 in
      let* result_tys = list_size (return n_results) gen_ty in
      let* n_attrs = int_range 0 2 in
      let* attr_vals = list_size (return n_attrs) gen_attr in
      let attrs = List.mapi (fun i a -> (Printf.sprintf "k%d" i, a)) attr_vals in
      let results = List.map Value.fresh result_tys in
      return (Op.make "test.op" ~operands ~results ~attrs)
    in
    let* n_ops = int_range 0 12 in
    let rec build k defined acc =
      if k = 0 then return (List.rev acc)
      else
        let* op = gen_op defined in
        build (k - 1) (op.Op.results @ defined) (op :: acc)
    in
    let* ops = build n_ops [] [] in
    return (Op.module_op ops))

let roundtrip_prop =
  QCheck.Test.make ~count: 200 ~name: "printer/parser round-trip"
    (QCheck.make gen_module ~print: Printer.module_to_string)
    (fun m ->
      let s = Printer.module_to_string m in
      let m' = Parser.parse_string s in
      Printer.module_to_string m' = s)

let ty_roundtrip_prop =
  QCheck.Test.make ~count: 500 ~name: "type print/parse round-trip"
    (QCheck.make gen_ty ~print: Typesys.ty_to_string)
    (fun t ->
      (* Parse the type by embedding it in an op signature. *)
      let v = Value.fresh t in
      let op = Op.make "test.op" ~results: [ v ] in
      let s = Printer.module_to_string (Op.module_op [ op ]) in
      Printer.module_to_string (Parser.parse_string s) = s)

(* --- verifier --- *)

let test_verify_ok () =
  Verifier.verify ~checks: Dialects.Registry.checks
    (Programs.jacobi1d_module ~n: 8);
  Verifier.verify ~checks: Core.Registry.checks
    (Programs.heat2d_timeloop_module ~nx: 4 ~ny: 4 ~steps: 2)

let test_verify_use_before_def () =
  let v = Value.fresh Typesys.i32 in
  let bad =
    Op.module_op
      [
        Op.make "test.use" ~operands: [ v ];
        Op.make "test.def" ~results: [ v ];
      ]
  in
  (try
     Verifier.verify bad;
     Alcotest.fail "expected verification error"
   with Verifier.Verification_error _ -> ())

let test_verify_double_def () =
  let v = Value.fresh Typesys.i32 in
  let bad =
    Op.module_op
      [ Op.make "test.def" ~results: [ v ]; Op.make "test.def2" ~results: [ v ] ]
  in
  (try
     Verifier.verify bad;
     Alcotest.fail "expected verification error"
   with Verifier.Verification_error _ -> ())

let test_verify_arith_type_mismatch () =
  let a = Value.fresh Typesys.i32 in
  let r = Value.fresh Typesys.i64 in
  let bad =
    Op.module_op
      [
        Op.make "arith.constant" ~results: [ a ]
          ~attrs: [ ("value", Typesys.Int_attr (1, Typesys.i32)) ];
        Op.make "arith.addi" ~operands: [ a; a ] ~results: [ r ];
      ]
  in
  (try
     Verifier.verify ~checks: Dialects.Registry.checks bad;
     Alcotest.fail "expected verification error"
   with Verifier.Verification_error _ -> ())

(* The parser allocates every value through [Value.fresh]: no parsed id
   may come from the text, so all of them sit above the counter read just
   before the parse, while the canonical print is unchanged.  A textual id
   defined twice is a parse error, not a silent shadow. *)
let test_parse_fresh_values () =
  let m = Programs.heat2d_timeloop_module ~nx: 8 ~ny: 8 ~steps: 3 in
  let s = Printer.module_to_string m in
  let before = Value.id (Value.fresh Typesys.i32) in
  let m' = Parser.parse_string s in
  let defined = Op.defined_values m' in
  check bool_c "module defines values" true (Value.Set.cardinal defined > 0);
  Value.Set.iter
    (fun v ->
      if Value.id v <= before then
        Alcotest.failf "parsed value %%%d not above counter %d" (Value.id v)
          before)
    defined;
  check string_c "canonical print survives the round trip"
    (Printer.canonical_module_string m)
    (Printer.canonical_module_string m');
  Alcotest.check_raises "redefinition"
    (Parser.Parse_error "redefinition of value %1") (fun () ->
      ignore
        (Parser.parse_string
           "%1 = \"arith.constant\"() {value = 1 : i32} : () -> (i32)\n\
            %1 = \"arith.constant\"() {value = 2 : i32} : () -> (i32)"))

let suite =
  [
    Alcotest.test_case "type printing" `Quick test_ty_printing;
    Alcotest.test_case "attr printing" `Quick test_attr_printing;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "byte widths" `Quick test_byte_width;
    Alcotest.test_case "builder order" `Quick test_builder_order;
    Alcotest.test_case "op attrs" `Quick test_op_attrs;
    Alcotest.test_case "walk count" `Quick test_walk_count;
    Alcotest.test_case "clone freshness" `Quick test_clone_fresh_values;
    Alcotest.test_case "substitute" `Quick test_substitute;
    Alcotest.test_case "free values" `Quick test_free_values;
    Alcotest.test_case "roundtrip jacobi" `Quick test_roundtrip_jacobi;
    Alcotest.test_case "roundtrip heat timeloop" `Quick
      test_roundtrip_heat_timeloop;
    Alcotest.test_case "parse example" `Quick test_parse_example;
    Alcotest.test_case "parse undefined value" `Quick test_parse_errors;
    Alcotest.test_case "parse type mismatch" `Quick test_parse_type_mismatch;
    QCheck_alcotest.to_alcotest roundtrip_prop;
    QCheck_alcotest.to_alcotest ty_roundtrip_prop;
    Alcotest.test_case "verify ok" `Quick test_verify_ok;
    Alcotest.test_case "verify use-before-def" `Quick
      test_verify_use_before_def;
    Alcotest.test_case "verify double-def" `Quick test_verify_double_def;
    Alcotest.test_case "verify arith mismatch" `Quick
      test_verify_arith_type_mismatch;
    Alcotest.test_case "parse allocates fresh values" `Quick
      test_parse_fresh_values;
  ]
