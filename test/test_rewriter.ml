(* The shared rewrite core: workspace mutation API, worklist re-enqueue
   cascades, the CSE attr-order fix, non-convergence reporting, and
   semantic preservation of the rewrite passes against the interpreter
   (deterministic and qcheck). *)

open Ir
module W = Rewriter.Workspace

let check = Alcotest.check
let float_c = Alcotest.float 1e-9

let mk_const n =
  let v = Value.fresh Typesys.i64 in
  ( Op.make Dialects.Arith.constant ~results: [ v ]
      ~attrs: [ ("value", Typesys.Int_attr (n, Typesys.i64)) ],
    v )

let const_value (op : Op.t) =
  match Op.attr op "value" with
  | Some (Typesys.Int_attr (n, _)) -> Some n
  | _ -> None

(* --- workspace mutation API --- *)

let test_use_counts () =
  let c, v = mk_const 1 in
  let u1 = Op.make "test.use" ~operands: [ v ] in
  let u2 = Op.make "test.use" ~operands: [ v; v ] in
  let ws = W.of_op (Op.module_op [ c; u1; u2 ]) in
  check Alcotest.int "three uses" 3 (W.use_count ws v);
  check Alcotest.int "two users" 2 (List.length (W.users ws v));
  let u2_nid = List.nth (W.users ws v) 1 in
  let released = W.erase_op ws u2_nid in
  check Alcotest.int "one use left" 1 (W.use_count ws v);
  check Alcotest.int "one user left" 1 (List.length (W.users ws v));
  check Alcotest.bool "erase released the constant" true
    (List.exists (fun r -> Value.id r = Value.id v) released)

let test_replace_all_uses () =
  let c1, v1 = mk_const 1 in
  let c2, v2 = mk_const 2 in
  let u = Op.make "test.use" ~operands: [ v1 ] in
  let ws = W.of_op (Op.module_op [ c1; c2; u ]) in
  let affected = W.replace_all_uses ws v1 v2 in
  check Alcotest.int "one affected user" 1 (List.length affected);
  check Alcotest.int "old value unused" 0 (W.use_count ws v1);
  check Alcotest.int "new value used" 1 (W.use_count ws v2);
  Op.walk
    (fun o ->
      if o.Op.name = "test.use" then
        check Alcotest.int "operand redirected" (Value.id v2)
          (Value.id (List.hd o.Op.operands)))
    (W.to_op ws)

let test_insert_and_replace () =
  let c1, v1 = mk_const 1 in
  let u = Op.make "test.use" ~operands: [ v1 ] in
  let ws = W.of_op (Op.module_op [ c1; u ]) in
  (* Insert a marker between the constant and its use. *)
  let u_nid = List.hd (W.users ws v1) in
  ignore (W.insert_before ws ~anchor: u_nid (Op.make "test.marker"));
  check (Alcotest.list Alcotest.string) "insertion order"
    [ "arith.constant"; "test.marker"; "test.use" ]
    (List.map (fun (o : Op.t) -> o.Op.name) (Op.module_ops (W.to_op ws)));
  (* Replace the constant with another one; the use must be remapped. *)
  let c_nid =
    match W.def_site ws v1 with `Op n -> n | _ -> Alcotest.fail "def site"
  in
  let c9, v9 = mk_const 9 in
  let _, affected, _ = W.replace_op ws c_nid [ c9 ] [ (v1, v9) ] in
  check Alcotest.int "use re-targeted on replace" 1 (List.length affected);
  check Alcotest.int "new value used" 1 (W.use_count ws v9);
  Op.walk
    (fun o ->
      if o.Op.name = "test.use" then
        check Alcotest.int "use reads replacement" (Value.id v9)
          (Value.id (List.hd o.Op.operands)))
    (W.to_op ws)

let test_erase_dead_cascade () =
  let c1, v1 = mk_const 1 in
  let c2, v2 = mk_const 2 in
  let add = Value.fresh Typesys.i64 in
  let a = Op.make Dialects.Arith.addi ~operands: [ v1; v1 ] ~results: [ add ] in
  let u = Op.make "test.use" ~operands: [ v2 ] in
  let ws = W.of_op (Op.module_op [ c1; c2; a; u ]) in
  let n =
    Rewriter.erase_dead ~removable: Transforms.Effects.removable_if_unused ws
  in
  check Alcotest.int "dead add and its constant erased" 2 n;
  check (Alcotest.list Alcotest.string) "survivors"
    [ "arith.constant"; "test.use" ]
    (List.map (fun (o : Op.t) -> o.Op.name) (Op.module_ops (W.to_op ws)))

(* --- worklist re-enqueue cascade --- *)

(* test.inc(constant c) -> constant (c + 1): each application strands the
   old constant, which only the driver's dead-op folding can remove, and
   enables the next inc, which only re-enqueueing its user can reach. *)
let inc_pattern =
  Rewriter.pattern ~roots: [ "test.inc" ] "fold-inc" (fun ctx op ->
      match op.Op.operands with
      | [ x ] -> (
          match ctx.Rewriter.def x with
          | Some d when d.Op.name = Dialects.Arith.constant -> (
              match const_value d with
              | Some n ->
                  let c, v = mk_const (n + 1) in
                  Pattern.replace_with [ c ] [ (Op.result_exn op, v) ]
              | None -> None)
          | _ -> None)
      | _ -> None)

let test_worklist_cascade () =
  Obs.enable ();
  let c0, v0 = mk_const 0 in
  let mk_inc x =
    let r = Value.fresh Typesys.i64 in
    (Op.make "test.inc" ~operands: [ x ] ~results: [ r ], r)
  in
  let i1, r1 = mk_inc v0 in
  let i2, r2 = mk_inc r1 in
  let i3, r3 = mk_inc r2 in
  let u = Op.make "test.use" ~operands: [ r3 ] in
  let m = Op.module_op [ c0; i1; i2; i3; u ] in
  let m' =
    Rewriter.run ~dead: Transforms.Effects.removable_if_unused
      ~name: "test-cascade" [ inc_pattern ] m
  in
  check Alcotest.int "one constant left" 1
    (Transforms.Statistics.count m' Dialects.Arith.constant);
  check Alcotest.int "incs all folded" 0
    (Transforms.Statistics.count m' "test.inc");
  Op.walk
    (fun o ->
      if o.Op.name = Dialects.Arith.constant then
        check (Alcotest.option Alcotest.int) "cascade reached 3" (Some 3)
          (const_value o))
    m';
  let st =
    List.find
      (fun (s : Obs.rewrite_stat) -> s.Obs.rw_pass = "test-cascade")
      (Obs.Rewrites.stats ())
  in
  check Alcotest.int "three applications" 3 st.Obs.rw_applied;
  check Alcotest.int "three stranded constants erased" 3 st.Obs.rw_erased_dead;
  check Alcotest.bool "enqueued counted" true (st.Obs.rw_enqueued > 0);
  Obs.disable ()

(* --- CSE attr-order regression ---

   Op.set_attr prepends, so semantically equal ops can carry their attrs
   in different orders; the CSE key must not distinguish them. *)
let test_cse_attr_order () =
  let c1, v1 = mk_const 1 in
  let c2, v2 = mk_const 2 in
  let attrs_a =
    [ ("k1", Typesys.Unit_attr); ("k2", Typesys.Int_attr (7, Typesys.i64)) ]
  in
  let attrs_b = List.rev attrs_a in
  let r1 = Value.fresh Typesys.i64 and r2 = Value.fresh Typesys.i64 in
  let a1 =
    Op.make Dialects.Arith.addi ~operands: [ v1; v2 ] ~results: [ r1 ]
      ~attrs: attrs_a
  in
  let a2 =
    Op.make Dialects.Arith.addi ~operands: [ v1; v2 ] ~results: [ r2 ]
      ~attrs: attrs_b
  in
  let u = Op.make "test.use" ~operands: [ r1; r2 ] in
  let m' = Transforms.Cse.run (Op.module_op [ c1; c2; a1; a2; u ]) in
  check Alcotest.int "attr order does not defeat CSE" 1
    (Transforms.Statistics.count m' Dialects.Arith.addi)

(* --- non-convergence warning --- *)

(* A flip-flop that never converges: each application toggles an attr. *)
let flip_pattern =
  Rewriter.pattern ~roots: [ "test.flip" ] "flip" (fun _ op ->
      let phase =
        match Op.attr op "phase" with
        | Some (Typesys.Int_attr (n, _)) -> n
        | _ -> 0
      in
      Pattern.replace_with
        [
          Op.make "test.flip"
            ~attrs: [ ("phase", Typesys.Int_attr (1 - phase, Typesys.i64)) ];
        ]
        [])

let test_non_convergence_warning () =
  Obs.enable ();
  let m = Op.module_op [ Op.make "test.flip" ] in
  ignore (Rewriter.run ~name: "test-flip" [ flip_pattern ] m);
  let instants =
    List.filter
      (fun (e : Obs.event) ->
        e.Obs.name = "rewrite-non-convergence" && e.Obs.ph = Obs.Instant)
      (Obs.Trace.events ())
  in
  check Alcotest.int "non-convergence reported once" 1
    (List.length instants);
  List.iter
    (fun (e : Obs.event) ->
      check Alcotest.bool "event names the pass" true
        (List.mem ("pass", Obs.Str "test-flip") e.Obs.ev_args))
    instants;
  Obs.disable ()

(* --- compiled pipeline against the interpreted source --- *)

let rebase (b : Interp.Rtval.buffer) =
  { b with Interp.Rtval.lo = List.map (fun _ -> 0) b.Interp.Rtval.lo }

let test_pipeline_matches_interpreter () =
  let m = Programs.heat2d_timeloop_module ~nx: 8 ~ny: 8 ~steps: 3 in
  let init i j = Float.sin (float_of_int ((2 * i) + j)) in
  let run prog prep =
    let a = prep (Programs.make_field_2d ~nx: 8 ~ny: 8 init) in
    let b = prep (Programs.make_field_2d ~nx: 8 ~ny: 8 init) in
    ignore
      (Driver.Simulate.run_serial ~func: "run" prog
         [ Interp.Rtval.Rbuf a; Interp.Rtval.Rbuf b ]);
    (a, b)
  in
  let a1, b1 = run m Fun.id in
  let a2, b2 =
    run (Core.Pipeline.compile Core.Pipeline.Cpu_sequential m) rebase
  in
  check float_c "compiled program matches the interpreted source" 0.
    (Float.max
       (Driver.Simulate.max_abs_diff a1 a2)
       (Driver.Simulate.max_abs_diff b1 b2))

(* --- rewrite passes preserve semantics: random arith/scf programs --- *)

let pick xs k = List.nth xs (abs k mod List.length xs)

(* Deterministic program builder from a list of step seeds: a pool-based
   straight-line function over random constants, exercising every
   canonicalize pattern family (int/float folds, cmpi+select, sitofp,
   identities) plus an optional scf.for reduction. *)
let build_program (int_vals, float_vals, steps, use_loop) =
  let f =
    Dialects.Func.define "main" ~arg_tys: [] ~res_tys: [ Typesys.f64 ]
      (fun bld _args ->
        let module A = Dialects.Arith in
        let ipool = ref (List.map (fun n -> A.const_int bld n) int_vals) in
        let fpool = ref (List.map (fun x -> A.const_float bld x) float_vals) in
        List.iter
          (fun seed ->
            let s1 = seed / 4 and s2 = seed / 16 and s3 = seed / 64 in
            match seed mod 4 with
            | 0 ->
                let name = pick [ A.addi; A.subi; A.muli ] s1 in
                let r = A.binop bld name (pick !ipool s2) (pick !ipool s3) in
                ipool := r :: !ipool
            | 1 ->
                let name = pick [ A.addf; A.subf; A.mulf ] s1 in
                let r = A.binop bld name (pick !fpool s2) (pick !fpool s3) in
                fpool := r :: !fpool
            | 2 ->
                let pred =
                  pick [ A.Eq; A.Ne; A.Lt; A.Le; A.Gt; A.Ge ] s1
                in
                let c = A.cmp_i bld pred (pick !ipool s2) (pick !ipool s3) in
                let r =
                  A.select_op bld c (pick !fpool s2) (pick !fpool s3)
                in
                fpool := r :: !fpool
            | _ ->
                let r = Value.fresh Typesys.f64 in
                Builder.add bld
                  (Op.make A.sitofp
                     ~operands: [ pick !ipool s2 ]
                     ~results: [ r ]);
                fpool := r :: !fpool)
          steps;
        if use_loop then begin
          let lo = A.const_index bld 0
          and hi = A.const_index bld 4
          and step = A.const_index bld 1 in
          let addend = pick !fpool 1 in
          let res =
            Dialects.Scf.for_op bld ~lo ~hi ~step ~init: [ pick !fpool 0 ]
              (fun b _iv args ->
                Dialects.Scf.yield_op b
                  [ A.add_f b (List.hd args) addend ])
          in
          fpool := res @ !fpool
        end;
        let result =
          List.fold_left (fun a b -> A.add_f bld a b) (List.hd !fpool)
            (List.tl !fpool)
        in
        Dialects.Func.return_op bld [ result ])
  in
  Op.module_op [ f ]

let gen_program =
  QCheck.Gen.(
    let* int_vals = list_size (int_range 1 3) (int_range (-20) 20) in
    let* float_vals =
      list_size (int_range 1 3)
        (map (fun i -> float_of_int i /. 8.) (int_range (-100) 100))
    in
    let* steps = list_size (int_range 0 12) (int_range 0 1_000_000) in
    let* use_loop = bool in
    return (int_vals, float_vals, steps, use_loop))

let run_main m =
  match Interp.Engine.run (Interp.Engine.create m) "main" [] with
  | [ Interp.Rtval.Rf x ] -> x
  | _ -> Alcotest.fail "main must return one f64"

let rewrites_prop =
  QCheck.Test.make ~count: 60 ~name: "worklist rewrites preserve semantics"
    (QCheck.make gen_program ~print: (fun spec ->
         Printer.module_to_string (build_program spec)))
    (fun spec ->
      let m = build_program spec in
      let m' =
        Transforms.Dce.run
          (Transforms.Cse.run (Transforms.Canonicalize.run m))
      in
      Float.equal (run_main m) (run_main m'))

let suite =
  [
    Alcotest.test_case "workspace use counts" `Quick test_use_counts;
    Alcotest.test_case "replace_all_uses" `Quick test_replace_all_uses;
    Alcotest.test_case "insert and replace_op" `Quick test_insert_and_replace;
    Alcotest.test_case "erase_dead cascade" `Quick test_erase_dead_cascade;
    Alcotest.test_case "worklist re-enqueue cascade" `Quick
      test_worklist_cascade;
    Alcotest.test_case "cse ignores attr order" `Quick test_cse_attr_order;
    Alcotest.test_case "non-convergence is reported" `Quick
      test_non_convergence_warning;
    Alcotest.test_case "pipeline matches the interpreter" `Quick
      test_pipeline_matches_interpreter;
    QCheck_alcotest.to_alcotest rewrites_prop;
  ]
