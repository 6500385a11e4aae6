(* Tests for the closure-compiled executor (Exec_compile): differential
   equivalence against the reference interpreter on random arith/scf
   programs, lowered stencil programs, and the full distributed harness. *)

open Ir
open Dialects
module R = Interp.Rtval

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let float_c = Alcotest.float 1e-12

let run_on (e : Interp.Executor.t) ?externs m func args =
  e.Interp.Executor.prepare ?externs m func args

(* --- random well-typed arith/scf programs --- *)

(* Integer expressions over the loop induction variable; divisors are
   nonzero constants so both executors see the same defined behavior. *)
type ie =
  | IC of int
  | IV  (* the induction variable *)
  | IAdd of ie * ie
  | ISub of ie * ie
  | IMul of ie * ie
  | IDiv of ie * int
  | IRem of ie * int
  | ISel of Arith.predicate * ie * ie * ie * ie

type fe =
  | FC of float
  | FOfI of ie
  | FAdd of fe * fe
  | FSub of fe * fe
  | FMul of fe * fe
  | FDiv of fe * fe
  | FMax of fe * fe
  | FMin of fe * fe
  | FNeg of fe
  | FSel of Arith.predicate * fe * fe * fe * fe

let gen_pred =
  QCheck.Gen.oneofl
    [ Arith.Eq; Arith.Ne; Arith.Lt; Arith.Le; Arith.Gt; Arith.Ge ]

let gen_divisor =
  QCheck.Gen.(map (fun (s, d) -> if s then d else -d) (pair bool (1 -- 7)))

let gen_ie =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 0 then
             oneof [ map (fun c -> IC c) (-20 -- 20); return IV ]
           else
             let sub = self (n / 2) in
             frequency
               [
                 (2, map (fun c -> IC c) (-20 -- 20));
                 (2, return IV);
                 (3, map2 (fun a b -> IAdd (a, b)) sub sub);
                 (3, map2 (fun a b -> ISub (a, b)) sub sub);
                 (2, map2 (fun a b -> IMul (a, b)) sub sub);
                 (1, map2 (fun a d -> IDiv (a, d)) sub gen_divisor);
                 (1, map2 (fun a d -> IRem (a, d)) sub gen_divisor);
                 ( 1,
                   map2
                     (fun (p, a, b) (c, d) -> ISel (p, a, b, c, d))
                     (triple gen_pred sub sub)
                     (pair sub sub) );
               ]))

let gen_fe =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 0 then
             oneof
               [
                 map (fun c -> FC c) (float_range (-10.) 10.);
                 map (fun i -> FOfI i) (gen_ie |> map (fun x -> x));
               ]
           else
             let sub = self (n / 2) in
             frequency
               [
                 (2, map (fun c -> FC c) (float_range (-10.) 10.));
                 (1, map (fun i -> FOfI i) gen_ie);
                 (3, map2 (fun a b -> FAdd (a, b)) sub sub);
                 (2, map2 (fun a b -> FSub (a, b)) sub sub);
                 (2, map2 (fun a b -> FMul (a, b)) sub sub);
                 (1, map2 (fun a b -> FDiv (a, b)) sub sub);
                 (1, map2 (fun a b -> FMax (a, b)) sub sub);
                 (1, map2 (fun a b -> FMin (a, b)) sub sub);
                 (1, map (fun a -> FNeg a) sub);
                 ( 1,
                   map2
                     (fun (p, a, b) (c, d) -> FSel (p, a, b, c, d))
                     (triple gen_pred sub sub)
                     (pair sub sub) );
               ]))

let rec emit_ie bld iv = function
  | IC c -> Arith.const_int bld c
  | IV -> iv
  | IAdd (a, b) -> Arith.add_i bld (emit_ie bld iv a) (emit_ie bld iv b)
  | ISub (a, b) -> Arith.sub_i bld (emit_ie bld iv a) (emit_ie bld iv b)
  | IMul (a, b) -> Arith.mul_i bld (emit_ie bld iv a) (emit_ie bld iv b)
  | IDiv (a, d) -> Arith.div_i bld (emit_ie bld iv a) (Arith.const_int bld d)
  | IRem (a, d) -> Arith.rem_i bld (emit_ie bld iv a) (Arith.const_int bld d)
  | ISel (p, a, b, c, d) ->
      let cond = Arith.cmp_i bld p (emit_ie bld iv a) (emit_ie bld iv b) in
      Arith.select_op bld cond (emit_ie bld iv c) (emit_ie bld iv d)

let rec emit_fe bld iv = function
  | FC c -> Arith.const_float bld c
  | FOfI i -> Arith.si_to_fp bld (emit_ie bld iv i) Typesys.f64
  | FAdd (a, b) -> Arith.add_f bld (emit_fe bld iv a) (emit_fe bld iv b)
  | FSub (a, b) -> Arith.sub_f bld (emit_fe bld iv a) (emit_fe bld iv b)
  | FMul (a, b) -> Arith.mul_f bld (emit_fe bld iv a) (emit_fe bld iv b)
  | FDiv (a, b) -> Arith.div_f bld (emit_fe bld iv a) (emit_fe bld iv b)
  | FMax (a, b) -> Arith.max_f bld (emit_fe bld iv a) (emit_fe bld iv b)
  | FMin (a, b) -> Arith.min_f bld (emit_fe bld iv a) (emit_fe bld iv b)
  | FNeg a -> Arith.neg_f bld (emit_fe bld iv a)
  | FSel (p, a, b, c, d) ->
      let cond = Arith.cmp_f bld p (emit_fe bld iv a) (emit_fe bld iv b) in
      Arith.select_op bld cond (emit_fe bld iv c) (emit_fe bld iv d)

(* func @main() -> (i64, f64): an scf.for over [0, steps) accumulating an
   int and a float carried value through the generated expressions. *)
let program_module (ie, fe, steps) : Op.t =
  let f =
    Func.define "main" ~arg_tys: [] ~res_tys: [ Typesys.i64; Typesys.f64 ]
      (fun bld _ ->
        let lo = Arith.const_index bld 0 in
        let hi = Arith.const_index bld steps in
        let st = Arith.const_index bld 1 in
        let i0 = Arith.const_int bld 0 in
        let f0 = Arith.const_float bld 0. in
        let outs =
          Scf.for_op bld ~lo ~hi ~step: st ~init: [ i0; f0 ]
            (fun body iv iters ->
              match iters with
              | [ ia; fa ] ->
                  let iv64 = Arith.index_cast_op body iv Typesys.i64 in
                  let i' = Arith.add_i body ia (emit_ie body iv64 ie) in
                  let f' = Arith.add_f body fa (emit_fe body iv64 fe) in
                  Scf.yield_op body [ i'; f' ]
              | _ -> assert false)
        in
        Func.return_op bld outs)
  in
  Op.module_op [ f ]

let differential_prop =
  QCheck.Test.make ~count: 200
    ~name: "random arith/scf: compiled == interpreted"
    (QCheck.make
       QCheck.Gen.(triple gen_ie gen_fe (1 -- 5))
       ~print: (fun (_, _, steps) ->
         Printf.sprintf "<random program, %d steps>" steps))
    (fun prog ->
      let m = program_module prog in
      let interp = run_on Interp.Executor.interpreter m "main" [] in
      let compiled = run_on Exec_compile.executor m "main" [] in
      (* Structural equality is bitwise here: Rf nan compares equal to
         itself under Stdlib.compare, matching interpreter semantics. *)
      Stdlib.compare interp compiled = 0)

(* --- lowered stencil programs --- *)

let lowered_equivalence name m args_of =
  let func = Driver.Harness.default_func m in
  let lowered =
    Core.Pipeline.compile ~verify: false Core.Pipeline.Cpu_sequential m
  in
  let run e =
    let args = args_of () in
    let results = run_on e lowered func args in
    List.filter_map
      (function R.Rbuf b -> Some b | _ -> None)
      (results @ args)
  in
  let bi = run Interp.Executor.interpreter in
  let bc = run Exec_compile.executor in
  check int_c (name ^ ": same buffer count") (List.length bi)
    (List.length bc);
  List.iter2
    (fun a b ->
      check bool_c (name ^ ": identical contents") true
        (R.float_contents a = R.float_contents b))
    bi bc

let test_jacobi_lowered () =
  let n = 32 in
  lowered_equivalence "jacobi1d"
    (Programs.jacobi1d_timeloop_module ~n ~steps: 5)
    (fun () ->
      [
        R.Rbuf
          (Driver.Harness.rebase
             (Programs.make_field_1d ~n (fun i -> Float.sin (float_of_int i))));
        R.Rbuf
          (Driver.Harness.rebase (Programs.make_field_1d ~n (fun _ -> 0.)));
      ])

let test_heat_lowered () =
  let nx = 16 and ny = 16 in
  let mk f = R.Rbuf (Driver.Harness.rebase (Programs.make_field_2d ~nx ~ny f)) in
  lowered_equivalence "heat2d"
    (Programs.heat2d_timeloop_module ~nx ~ny ~steps: 3)
    (fun () ->
      [
        mk (fun i j -> Float.cos (float_of_int (i + (2 * j)) *. 0.21));
        mk (fun _ _ -> 0.);
      ])

(* Loop-carried swap through scf.yield: the parallel-move case — the
   compiled loop must read all yielded values before writing any carried
   slot. *)
let test_scalar_swap_loop () =
  let f =
    Func.define "main" ~arg_tys: [] ~res_tys: [ Typesys.i64; Typesys.i64 ]
      (fun bld _ ->
        let lo = Arith.const_index bld 0 in
        let hi = Arith.const_index bld 5 in
        let st = Arith.const_index bld 1 in
        let a0 = Arith.const_int bld 1 in
        let b0 = Arith.const_int bld 2 in
        let outs =
          Scf.for_op bld ~lo ~hi ~step: st ~init: [ a0; b0 ]
            (fun body _iv iters ->
              match iters with
              | [ a; b ] ->
                  let b' = Arith.add_i body b (Arith.const_int body 10) in
                  (* swap: next (a, b) = (b + 10, a) *)
                  Scf.yield_op body [ b'; a ]
              | _ -> assert false)
        in
        Func.return_op bld outs)
  in
  let m = Op.module_op [ f ] in
  let interp = run_on Interp.Executor.interpreter m "main" [] in
  let compiled = run_on Exec_compile.executor m "main" [] in
  check bool_c "swap loop identical" true (Stdlib.compare interp compiled = 0)

(* --- compile-time behavior --- *)

let test_unsupported_stencil () =
  let m = Programs.jacobi1d_module ~n: 8 in
  match run_on Exec_compile.executor m "step" [] with
  | _ -> Alcotest.fail "expected Unsupported on a stencil-dialect module"
  | exception Exec_compile.Unsupported msg ->
      Support.assert_contains ~what: "Unsupported message" msg "stencil"

(* Extern calls are pre-bound at compile time and dispatch through the
   externs handler exactly like the interpreter's stub calls. *)
let test_extern_call () =
  let f =
    Func.define "main" ~arg_tys: [] ~res_tys: [ Typesys.i64 ] (fun bld _ ->
        let x = Arith.const_int bld 21 in
        let rs = Func.call_op bld "MY_EXT" [ x ] [ Typesys.i64 ] in
        Func.return_op bld rs)
  in
  let m = Op.module_op [ f ] in
  let calls = ref 0 in
  let externs (op : Op.t) args =
    match (op.Op.name, Op.attr op "callee") with
    | "func.call", Some (Typesys.Symbol_attr "MY_EXT") ->
        incr calls;
        Some [ R.Ri (2 * R.as_int (List.hd args)) ]
    | _ -> None
  in
  let results = run_on Exec_compile.executor ~externs m "main" [] in
  check int_c "extern called once" 1 !calls;
  check bool_c "extern result" true (results = [ R.Ri 42 ]);
  (* An unbound extern is a runtime error, as in the interpreter. *)
  match run_on Exec_compile.executor m "main" [] with
  | _ -> Alcotest.fail "expected undefined-function error"
  | exception R.Runtime_error msg ->
      Support.assert_contains ~what: "error" msg "MY_EXT"

let test_of_name () =
  check bool_c "compiled resolves" true
    (match Interp.Executor.of_name_opt "compiled" with
    | Some e -> e.Interp.Executor.exec_name = "compiled"
    | None -> false);
  check bool_c "interp resolves" true
    (match Interp.Executor.of_name_opt "interp" with
    | Some e -> e.Interp.Executor.exec_name = "interp"
    | None -> false);
  check bool_c "unknown rejected" true (Interp.Executor.of_name_opt "jit" = None);
  (* The raising registry lookup must spell out what would have worked. *)
  check bool_c "unknown name error lists available executors" true
    (match Interp.Executor.of_name "jit" with
    | _ -> false
    | exception Failure msg ->
        let mentions needle =
          let nh = String.length msg and nn = String.length needle in
          let rec go i =
            i + nn <= nh && (String.sub msg i nn = needle || go (i + 1))
          in
          go 0
        in
        mentions "available" && mentions "compiled" && mentions "interp")

(* --- full harness equivalence: compiled-par == compiled-sim ==
   interpreted-serial, exactly --- *)

let wave_module ~shape ~timesteps : Op.t =
  let g = Devito.Symbolic.grid ~dt: 0.02 shape in
  let u = Devito.Symbolic.function_ ~space_order: 4 ~time_order: 2 "u" g in
  let eqn =
    Devito.Symbolic.eq (Devito.Symbolic.Dt2 u)
      Devito.Symbolic.(f 2.25 *: laplace u)
  in
  snd (Devito.Operator.operator ~name: "wave" ~timesteps eqn)

let test_harness_equivalence_compiled () =
  let workloads =
    [
      ("heat2d", Programs.heat2d_timeloop_module ~nx: 16 ~ny: 16 ~steps: 2);
      ("wave", wave_module ~shape: [ 16; 16 ] ~timesteps: 2);
    ]
  in
  List.iter
    (fun (name, m) ->
      List.iter
        (fun ranks ->
          let executor = Exec_compile.executor in
          let sim =
            Driver.Harness.run_distributed ~substrate: Driver.Harness.Sim
              ~executor ~ranks m
          in
          let par =
            Driver.Harness.run_distributed ~substrate: Driver.Harness.Par
              ~executor ~ranks m
          in
          check float_c
            (Printf.sprintf "%s: compiled-sim == interp-serial at %d ranks"
               name ranks)
            0. sim.Driver.Harness.max_diff_vs_serial;
          check float_c
            (Printf.sprintf "%s: compiled-par == interp-serial at %d ranks"
               name ranks)
            0. par.Driver.Harness.max_diff_vs_serial;
          check float_c
            (Printf.sprintf "%s: compiled-par == compiled-sim at %d ranks"
               name ranks)
            0.
            (Driver.Harness.max_result_diff par sim))
        [ 1; 2; 4 ])
    workloads

(* --- pinned traffic: the exact halo counters of Devito heat2d so=2 on a
   16x16 grid for 2 steps under the default 2d-slice/faces decomposition,
   compiled on both substrates --- *)

let heat_module ~shape ~timesteps : Op.t =
  let g = Devito.Symbolic.grid ~dt: 0.1 shape in
  let u = Devito.Symbolic.function_ ~space_order: 2 "u" g in
  let eqn =
    Devito.Symbolic.eq (Devito.Symbolic.Dt u)
      Devito.Symbolic.(f 0.5 *: laplace u)
  in
  snd (Devito.Operator.operator ~name: "heat" ~timesteps eqn)

let test_pinned_traffic () =
  let exactly_zero name d = check (Alcotest.float 0.) name 0. d in
  let m = heat_module ~shape: [ 16; 16 ] ~timesteps: 2 in
  List.iter
    (fun (ranks, overlap, messages, bytes) ->
      let run substrate =
        Driver.Harness.run_distributed ~substrate
          ~executor: Exec_compile.executor ~overlap ~ranks m
      in
      let par = run Driver.Harness.Par and sim = run Driver.Harness.Sim in
      List.iter
        (fun (r : Driver.Harness.result) ->
          let tag =
            Printf.sprintf "%s ranks=%d overlap=%b" r.Driver.Harness.substrate_name
              ranks overlap
          in
          check int_c (tag ^ ": messages") messages r.Driver.Harness.messages;
          check int_c (tag ^ ": bytes") bytes r.Driver.Harness.bytes;
          exactly_zero (tag ^ ": == interp-serial")
            r.Driver.Harness.max_diff_vs_serial)
        [ par; sim ];
      exactly_zero
        (Printf.sprintf "ranks=%d overlap=%b: par == sim" ranks overlap)
        (Driver.Harness.max_result_diff par sim))
    [ (1, true, 0, 0); (2, true, 4, 256); (2, false, 4, 256) ]

let suite =
  [
    Alcotest.test_case "jacobi1d lowered: compiled == interp" `Quick
      test_jacobi_lowered;
    Alcotest.test_case "heat2d lowered: compiled == interp" `Quick
      test_heat_lowered;
    Alcotest.test_case "scf.for carried swap (parallel move)" `Quick
      test_scalar_swap_loop;
    Alcotest.test_case "stencil dialect raises Unsupported" `Quick
      test_unsupported_stencil;
    Alcotest.test_case "extern calls pre-bound" `Quick test_extern_call;
    Alcotest.test_case "of_name executor selection" `Quick test_of_name;
    Alcotest.test_case "harness: compiled par == sim == serial" `Quick
      test_harness_equivalence_compiled;
    QCheck_alcotest.to_alcotest differential_prop;
    Alcotest.test_case "heat2d so=2 pinned traffic: par == sim == serial"
      `Quick test_pinned_traffic;
  ]
