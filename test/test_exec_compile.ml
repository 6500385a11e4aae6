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

(* --- fused inner loops: generated memref loop programs --- *)

(* One coordinate of an access, [ci * iv + co * outer + c]: [iv] is the
   innermost induction variable, [outer] the enclosing loop's. *)
type coord = { ci : int; co : int; c : int }

type lacc = { arg : int; coords : coord list }

type lfe =
  | LLd of lacc
  | LC of float
  | LBin of string * lfe * lfe
  | LNeg of lfe
  | LSel of Arith.predicate * lfe * lfe * lfe * lfe
  | LPrev of int  (* the value an earlier store of the body stored *)

type lprog = {
  shapes : int list array;  (* three float memref arguments *)
  los : int list array;  (* their runtime buffers' logical lower bounds *)
  outer : int;  (* trip count of the enclosing loop *)
  lo : int;
  hi : int;
  step : int;
  body : (lacc * lfe) list;  (* stores, each of an expression over loads *)
  alias : bool;  (* argument 1 is bound to argument 0's buffer *)
  int_buf : bool;  (* argument 2 is bound to an int-typed buffer *)
  nonaffine : bool;  (* one coordinate squares iv: the body cannot fuse *)
}

(* Values [ci * iv + co * outer] take over the loop nest. *)
let coord_range p { ci; co; _ } =
  let last = p.lo + (max 0 ((p.hi - p.lo - 1) / p.step) * p.step) in
  let ends = [ ci * p.lo; ci * last ] in
  let lo_o = List.fold_left min max_int ends
  and hi_o = List.fold_left max min_int ends in
  (lo_o, hi_o + (co * (p.outer - 1)))

(* Shift most coordinates so the whole nest stays in range: the
   differential then compares results, not only errors.  A fitted
   coordinate keeps [c] as its offset within the slack, so accesses to
   one buffer alias at different distances.  The rest keep [c] as their
   offset and may leave the buffer at any iteration. *)
let fit p (fit_it : bool) (a : lacc) =
  if not fit_it then a
  else
    let ext = Array.of_list p.shapes.(a.arg)
    and lo = Array.of_list p.los.(a.arg) in
    {
      a with
      coords =
        List.mapi
          (fun d (k : coord) ->
            let mn, mx = coord_range p k in
            let slack = ext.(d) - 1 - (mx - mn) in
            if slack >= 0 then { k with c = lo.(d) - mn + (k.c mod (slack + 1)) }
            else k)
          a.coords;
    }

(* Half the programs are short (up to 6 iterations per entry, any
   coefficient), half long (4 to 13 iterations, coefficients -1..1, and
   extents that leave room to fit): most long entries bind and run
   fused. *)
let gen_lprog : lprog QCheck.Gen.t =
  let open QCheck.Gen in
  bool >>= fun long ->
  (if long then 4 -- 13 else 0 -- 6) >>= fun trip ->
  let gen_shape =
    list_size (1 -- 3) (if long then trip + 3 -- (trip + 8) else 3 -- 9)
  in
  let gen_coord =
    map3
      (fun ci co c -> { ci; co; c })
      (if long then -1 -- 1 else -2 -- 2)
      (0 -- 1) (0 -- 5)
  in
  gen_shape >>= fun s0 ->
  gen_shape >>= fun s1 ->
  gen_shape >>= fun s2 ->
  bool >>= fun alias ->
  let shapes = [| s0; (if alias then s0 else s1); s2 |] in
  let gen_lo sh = flatten_l (List.map (fun _ -> -2 -- 2) sh) in
  gen_lo s0 >>= fun l0 ->
  gen_lo s1 >>= fun l1 ->
  gen_lo s2 >>= fun l2 ->
  let los = [| l0; (if alias then l0 else l1); l2 |] in
  let gen_acc =
    int_bound 2 >>= fun arg ->
    map
      (fun coords -> { arg; coords })
      (flatten_l (List.map (fun _ -> gen_coord) shapes.(arg)))
  in
  let gen_fe =
    sized_size (0 -- 4)
    @@ fix (fun self n ->
           if n <= 0 then
             frequency
               [ (4, map (fun a -> LLd a) gen_acc);
                 (1, map (fun c -> LC c) (float_range (-4.) 4.));
                 (1, map (fun k -> LPrev k) (0 -- 2)) ]
           else
             let sub = self (n / 2) in
             frequency
               [
                 (2, map (fun a -> LLd a) gen_acc);
                 ( 4,
                   map3
                     (fun o a b -> LBin (o, a, b))
                     (oneofl Arith.float_binops) sub sub );
                 (1, map (fun a -> LNeg a) sub);
                 ( 1,
                   map2
                     (fun (p, a, b) (c, d) -> LSel (p, a, b, c, d))
                     (triple gen_pred sub sub) (pair sub sub) );
               ])
  in
  1 -- 3 >>= fun outer ->
  -2 -- 3 >>= fun lo ->
  (if long then return 1 else 1 -- 3) >>= fun step ->
  list_size (1 -- 3) (pair gen_acc gen_fe) >>= fun body ->
  frequency [ (6, return true); (1, return false) ] >>= fun fit_all ->
  bool >>= fun int_buf ->
  frequency [ (6, return false); (1, return true) ] >>= fun nonaffine ->
  let p =
    { shapes; los; outer; lo; hi = lo + trip; step; body; alias; int_buf;
      nonaffine }
  in
  let rec fit_fe = function
    | LLd a -> LLd (fit p fit_all a)
    | LC c -> LC c
    | LBin (o, a, b) -> LBin (o, fit_fe a, fit_fe b)
    | LNeg a -> LNeg (fit_fe a)
    | LSel (q, a, b, c, d) -> LSel (q, fit_fe a, fit_fe b, fit_fe c, fit_fe d)
    | LPrev k -> LPrev k
  in
  return
    { p with
      body = List.map (fun (a, e) -> (fit p fit_all a, fit_fe e)) body }

let lprog_module (p : lprog) : Op.t =
  let arg_tys =
    Array.to_list (Array.map (fun sh -> Typesys.Memref (sh, Typesys.f64)) p.shapes)
  in
  let f =
    Func.define "main" ~arg_tys ~res_tys: [] (fun bld args ->
        let args = Array.of_list args in
        let idx b k = Arith.const_index b k in
        (* Offsets defined outside the loops: loop-invariant operands. *)
        let outer_c = Hashtbl.create 8 in
        let const_out k =
          match Hashtbl.find_opt outer_c k with
          | Some v -> v
          | None ->
              let v = idx bld k in
              Hashtbl.replace outer_c k v;
              v
        in
        let _ =
          Scf.for_op bld ~lo: (idx bld 0) ~hi: (idx bld p.outer)
            ~step: (idx bld 1) (fun ob o _ ->
              let _ =
                Scf.for_op ob ~lo: (idx ob p.lo) ~hi: (idx ob p.hi)
                  ~step: (idx ob p.step) (fun b iv _ ->
                    let coord first { ci; co; c } =
                      let t =
                        match ci with
                        | 0 -> idx b 0
                        | 1 -> iv
                        | -1 -> Arith.sub_i b (idx b 0) iv
                        | k -> Arith.mul_i b (idx b k) iv
                      in
                      let t =
                        if co = 0 then t
                        else
                          Arith.add_i b t
                            (Arith.index_cast_op b
                               (Arith.index_cast_op b o Typesys.i64)
                               Typesys.Index)
                      in
                      let t =
                        if first && p.nonaffine then Arith.add_i b t (Arith.mul_i b iv iv)
                        else t
                      in
                      (* Alternate in-body and outer constants. *)
                      if c land 1 = 0 then Arith.add_i b t (idx b c)
                      else Arith.sub_i b t (const_out (-c))
                    in
                    let coords a = List.mapi (fun d k -> coord (d = 0) k) a.coords in
                    let stored = ref [] in
                    let rec fe = function
                      | LPrev k -> (
                          match !stored with
                          | [] -> Arith.const_float b 1.
                          | vs -> List.nth vs (k mod List.length vs))
                      | LLd a -> Memref.load_op b args.(a.arg) (coords a)
                      | LC c -> Arith.const_float b c
                      | LBin (o, x, y) ->
                          let x = fe x in
                          Arith.binop b o x (fe y)
                      | LNeg x -> Arith.neg_f b (fe x)
                      | LSel (q, x, y, u, w) ->
                          let x = fe x in
                          let cond = Arith.cmp_f b q x (fe y) in
                          let u = fe u in
                          Arith.select_op b cond u (fe w)
                    in
                    List.iter
                      (fun (a, e) ->
                        let v = fe e in
                        stored := v :: !stored;
                        Memref.store_op b v args.(a.arg) (coords a))
                      p.body;
                    Scf.yield_op b [])
              in
              Scf.yield_op ob [])
        in
        Func.return_op bld [])
  in
  Op.module_op [ f ]

(* Runs [p] on fresh buffers; the outcome is the error message, if any,
   and every buffer's contents bit for bit (partial writes included). *)
let lprog_outcome (e : Interp.Executor.t) (p : lprog) m =
  let fbuf k seed =
    let b = R.alloc_buffer ~lo: p.los.(k) p.shapes.(k) Typesys.f64 in
    R.fill b (fun i -> float_of_int (((i * 7) + seed) mod 11) -. 3.5);
    b
  in
  let b0 = fbuf 0 1 in
  let b1 = if p.alias then b0 else fbuf 1 2 in
  let b2 =
    if p.int_buf then begin
      let b = R.alloc_buffer ~lo: p.los.(2) p.shapes.(2) Typesys.i64 in
      R.fill b (fun i -> float_of_int ((i mod 5) - 2));
      b
    end
    else fbuf 2 3
  in
  let bufs = [ b0; b1; b2 ] in
  let err =
    match run_on e m "main" (List.map (fun b -> R.Rbuf b) bufs) with
    | _ -> None
    | exception R.Runtime_error msg -> Some msg
  in
  let bits (b : R.buffer) =
    match b.R.data with
    | R.F a -> Array.map Int64.bits_of_float a
    | R.I a -> Array.map Int64.of_int a
  in
  (err, List.map bits bufs)

(* 400 programs in batches of 10: each batch's kernels go through one cc
   run, as one module's nests do. *)
let fused_loops_prop =
  QCheck.Test.make ~count: 40
    ~name: "fused inner loops: compiled == interpreted, bitwise"
    (QCheck.make (QCheck.Gen.list_repeat 10 gen_lprog) ~print: (fun ps ->
         String.concat "\n"
           (List.map
              (fun p ->
                Printf.sprintf "alias=%b int_buf=%b nonaffine=%b\n%s" p.alias
                  p.int_buf p.nonaffine
                  (Printer.module_to_string (lprog_module p)))
              ps)))
    (fun ps ->
      let ms = List.map lprog_module ps in
      let cms = List.map Exec_compile.compile_module ms in
      Exec_compile.load_kernels cms;
      List.for_all2
        (fun (p, m) cm ->
          Exec_compile.kernel_coverage cm = ((if p.nonaffine then 0 else 1), 1)
          && lprog_outcome Interp.Executor.interpreter p m
             = lprog_outcome Exec_compile.executor p m)
        (List.combine ps ms) cms)

(* A fused entry reads and writes the flat storage directly, so every
   dependence distance [d] through one buffer, up to and past the trip
   count [n], must still match the interpreter: a load then a store, a
   store then a load, and two stores. *)
let test_dependence_distances () =
  let program shape n d : Op.t =
    let mem = Typesys.Memref ([ 40 ], Typesys.f64) in
    let f =
      Func.define "main" ~arg_tys: [ mem; mem ] ~res_tys: [] (fun bld args ->
          let a, out =
            match args with [ a; o ] -> (a, o) | _ -> assert false
          in
          let idx k = Arith.const_index bld k in
          let _ =
            Scf.for_op bld ~lo: (idx 10) ~hi: (idx (10 + n)) ~step: (idx 1)
              (fun b i _ ->
                let shifted = Arith.add_i b i (Arith.const_index b d) in
                let one = Arith.const_float b 1. in
                (match shape with
                | `Load_store ->
                    let x = Memref.load_op b a [ shifted ] in
                    Memref.store_op b (Arith.add_f b x one) a [ i ]
                | `Store_load ->
                    Memref.store_op b (Arith.const_float b 7.) a [ i ];
                    Memref.store_op b (Memref.load_op b a [ shifted ]) out [ i ]
                | `Store_store ->
                    Memref.store_op b one a [ i ];
                    Memref.store_op b (Arith.const_float b 2.) a [ shifted ]);
                Scf.yield_op b [])
          in
          Func.return_op bld [])
    in
    Op.module_op [ f ]
  in
  let outcome e m =
    let buf () =
      let b = R.alloc_buffer [ 40 ] Typesys.f64 in
      R.fill b float_of_int;
      b
    in
    let a = buf () and out = buf () in
    ignore (run_on e m "main" [ R.Rbuf a; R.Rbuf out ]);
    (R.float_contents a, R.float_contents out)
  in
  List.iter
    (fun shape ->
      List.iter
        (fun n ->
          for d = -8 to 8 do
            let m = program shape n d in
            if outcome Interp.Executor.interpreter m
               <> outcome Exec_compile.executor m
            then Alcotest.failf "n=%d d=%d: compiled differs" n d
          done)
        [ 4; 5; 7 ])
    [ `Load_store; `Store_load; `Store_store ]

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

let wave_module ?(so = 4) ~shape ~timesteps () : Op.t =
  let g = Devito.Symbolic.grid ~dt: 0.02 shape in
  let u = Devito.Symbolic.function_ ~space_order: so ~time_order: 2 "u" g in
  let eqn =
    Devito.Symbolic.eq (Devito.Symbolic.Dt2 u)
      Devito.Symbolic.(f 2.25 *: laplace u)
  in
  snd (Devito.Operator.operator ~name: "wave" ~timesteps eqn)

let test_harness_equivalence_compiled () =
  let workloads =
    [
      ("heat2d", Programs.heat2d_timeloop_module ~nx: 16 ~ny: 16 ~steps: 2);
      ("wave", wave_module ~shape: [ 16; 16 ] ~timesteps: 2 ());
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

(* --- the hot path allocates nothing per cell update --- *)

(* Minor-heap words of one run of lowered heat2d (cpu-sequential) at
   n x n, compiled once and warmed by a first run, and its cell updates.
   Nothing is timed. *)
let heat_run_words n =
  let steps = 4 in
  let lowered =
    Core.Pipeline.compile ~verify: false Core.Pipeline.Cpu_sequential
      (Programs.heat2d_timeloop_module ~nx: n ~ny: n ~steps)
  in
  let module C = Exec_compile.Compiled in
  let prog = C.instantiate (C.compile lowered) in
  let field () =
    R.Rbuf
      (Driver.Harness.rebase
         (Programs.make_field_2d ~nx: n ~ny: n (fun i j ->
              float_of_int (i - (2 * j)))))
  in
  let args = [ field (); field () ] in
  ignore (C.run prog "run" args);
  let w0 = Gc.minor_words () in
  ignore (C.run prog "run" args);
  (Gc.minor_words () -. w0, float_of_int (n * n * steps))

(* func @main(%b: memref<1000xf64>, %n: index): one loop over [0, n)
   through every direct-slot op (float binops, negf, cmpf/cmpi, selects,
   casts, int binops, load, store).  sitofp keeps it out of the kernel
   subset, so the per-op closures run. *)
let ops_loop_module () : Op.t =
  let f =
    Func.define "main"
      ~arg_tys: [ Typesys.Memref ([ 1000 ], Typesys.f64); Typesys.Index ]
      ~res_tys: [] (fun bld args ->
        match args with
        | [ buf; n ] ->
            let idx k = Arith.const_index bld k in
            let c1 = Arith.const_float bld 3.5 and c2 = Arith.const_float bld 7. in
            let _ =
              Scf.for_op bld ~lo: (idx 0) ~hi: n ~step: (idx 1) (fun b iv _ ->
                  let x =
                    Arith.si_to_fp b (Arith.index_cast_op b iv Typesys.i64)
                      Typesys.f64
                  in
                  let y = Arith.max_f b x c1 in
                  let z = Arith.min_f b y c2 in
                  let w = Arith.neg_f b (Arith.div_f b z c1) in
                  let s =
                    Arith.select_op b (Arith.cmp_f b Arith.Lt w y) w
                      (Arith.sub_f b (Arith.mul_f b z x) (Memref.load_op b buf [ iv ]))
                  in
                  let k = Builder.emit1 b Arith.fptosi Typesys.Index ~operands: [ s ] in
                  let k =
                    Arith.select_op b (Arith.cmp_i b Arith.Ge k iv)
                      (Arith.rem_i b (Arith.mul_i b k iv) (idx 7))
                      (Arith.div_i b (Arith.add_i b k iv) (idx 3))
                  in
                  let s = Arith.add_f b s (Arith.si_to_fp b k Typesys.f64) in
                  Memref.store_op b s buf [ iv ];
                  Scf.yield_op b [])
            in
            Func.return_op bld []
        | _ -> assert false)
  in
  Op.module_op [ f ]

let test_no_allocation_per_cell () =
  let w32, _ = heat_run_words 32 in
  let w96, cells96 = heat_run_words 96 in
  if w96 > w32 +. 100. then
    Alcotest.failf "heat2d: %.0f minor words at 96x96 against %.0f at 32x32" w96
      w32;
  check bool_c "heat2d: under 1 minor word per cell update" true
    (w96 /. cells96 < 1.);
  (* The per-op closures: compiled once, run at two trip counts. *)
  let m = ops_loop_module () in
  check (Alcotest.pair int_c int_c) "ops loop runs per op" (0, 1)
    (Exec_compile.kernel_coverage (Exec_compile.compile_module m));
  let module C = Exec_compile.Compiled in
  let prog = C.instantiate (C.compile m) in
  let buf = R.Rbuf (R.alloc_buffer [ 1000 ] Typesys.f64) in
  let words trips =
    ignore (C.run prog "main" [ buf; R.Ri trips ]);
    let w0 = Gc.minor_words () in
    ignore (C.run prog "main" [ buf; R.Ri trips ]);
    Gc.minor_words () -. w0
  in
  let w10 = words 10 and w1000 = words 1000 in
  if w1000 > w10 +. 100. then
    Alcotest.failf "per-op loop: %.0f minor words at 1000 trips against %.0f at 10"
      w1000 w10

(* --- fusion coverage of the benchmark programs --- *)

(* perfbench's solve and halo programs, lowered as it lowers them: every
   innermost loop must compile to a kernel.  A lowering change that makes
   a body unfusable fails here instead of running several times slower. *)
let test_kernel_coverage () =
  let target =
    Core.Pipeline.Distributed_cpu
      {
        ranks = 2;
        strategy = Core.Decomposition.Slice2d;
        mode = Core.Decomposition.Faces;
        tiles = [];
        overlap = true;
      }
  in
  List.iter
    (fun (name, m, want) ->
      let cm = Exec_compile.compile_module (Core.Pipeline.compile target m) in
      check (Alcotest.pair int_c int_c)
        (name ^ ": (kernels, innermost loops)")
        want
        (Exec_compile.kernel_coverage cm))
    [
      ("heat2d 96x96", heat_module ~shape: [ 96; 96 ] ~timesteps: 8, (5, 5));
      ( "wave2d so=8",
        wave_module ~so: 8 ~shape: [ 16; 64 ] ~timesteps: 40 (),
        (2, 2) );
    ]


(* --- native kernels: edge semantics, the kernel table, no cc --- *)

(* The outcome (error, every buffer bit for bit) of [m] on buffers
   [inits], under [e]. *)
let outcome_bits (e : Interp.Executor.t) m (inits : (int list * float array) list) =
  let bufs =
    List.map
      (fun (shape, init) ->
        let b = R.alloc_buffer shape Typesys.f64 in
        R.fill b (fun i -> init.(i));
        b)
      inits
  in
  let err =
    match run_on e m "main" (List.map (fun b -> R.Rbuf b) bufs) with
    | _ -> None
    | exception R.Runtime_error msg -> Some msg
  in
  (err, List.map (fun b -> Array.map Int64.bits_of_float (R.float_contents b)) bufs)

let same_as_interp name m inits =
  check bool_c (name ^ ": native == interpreted, bitwise") true
    (outcome_bits Interp.Executor.interpreter m inits
     = outcome_bits Exec_compile.executor m inits)

(* out[i] = max/min/select over pairs of NaN, signed zeros and
   infinities: the C transliterations of Float.max, Float.min and
   Float.compare. *)
let test_native_nan_zero () =
  let vals = [| nan; -.nan; 0.; -0.; 1.; -1.; infinity; neg_infinity |] in
  let n = Array.length vals in
  let a = Array.init (n * n) (fun k -> vals.(k / n))
  and b = Array.init (n * n) (fun k -> vals.(k mod n)) in
  let mem = Typesys.Memref ([ n * n ], Typesys.f64) in
  List.iter
    (fun (name, mk) ->
      let f =
        Func.define "main" ~arg_tys: [ mem; mem; mem ] ~res_tys: [] (fun bld args ->
            match args with
            | [ x; y; out ] ->
                let idx k = Arith.const_index bld k in
                let _ =
                  Scf.for_op bld ~lo: (idx 0) ~hi: (idx (n * n)) ~step: (idx 1)
                    (fun body i _ ->
                      let u = Memref.load_op body x [ i ] and v = Memref.load_op body y [ i ] in
                      Memref.store_op body (mk body u v) out [ i ];
                      Scf.yield_op body [])
                in
                Func.return_op bld []
            | _ -> assert false)
      in
      let m = Op.module_op [ f ] in
      check (Alcotest.pair int_c int_c) (name ^ ": native") (1, 1)
        (Exec_compile.kernel_coverage (Exec_compile.compile_module m));
      same_as_interp name m
        [ ([ n * n ], a); ([ n * n ], b); ([ n * n ], Array.make (n * n) 5.) ])
    ([ ("maximumf", fun bd u v -> Arith.max_f bd u v);
       ("minimumf", fun bd u v -> Arith.min_f bd u v) ]
    @ List.map
        (fun p ->
          ( "cmpf " ^ Arith.predicate_to_string p,
            fun bd u v -> Arith.select_op bd (Arith.cmp_f bd p u v) u (Arith.neg_f bd v) ))
        [ Arith.Eq; Arith.Ne; Arith.Lt; Arith.Le; Arith.Gt; Arith.Ge ])

(* A 2-deep nest over a 6x9 buffer: row [o + 1] from row [o] shifted by
   [d] (aliasing across outer iterations), columns [lo, hi).  Columns
   that leave the buffer at a corner must fail exactly as per op: same
   message, same partial writes. *)
let test_native_nests () =
  let rows = 6 and cols = 9 in
  let program d lo hi : Op.t =
    let mem = Typesys.Memref ([ rows; cols ], Typesys.f64) in
    let f =
      Func.define "main" ~arg_tys: [ mem ] ~res_tys: [] (fun bld args ->
          let a = List.hd args in
          let idx k = Arith.const_index bld k in
          let half = Arith.const_float bld 0.5 in
          let _ =
            Scf.for_op bld ~lo: (idx 0) ~hi: (idx (rows - 1)) ~step: (idx 1)
              (fun ob o _ ->
                let o1 = Arith.add_i ob o (Arith.const_index ob 1) in
                let _ =
                  Scf.for_op ob ~lo: (idx lo) ~hi: (idx hi) ~step: (idx 1) (fun b i _ ->
                      let x = Memref.load_op b a [ o; Arith.add_i b i (Arith.const_index b d) ] in
                      let y = Memref.load_op b a [ o1; i ] in
                      Memref.store_op b (Arith.add_f b (Arith.mul_f b x half) y) a [ o1; i ];
                      Scf.yield_op b [])
                in
                Scf.yield_op ob [])
          in
          Func.return_op bld [])
    in
    Op.module_op [ f ]
  in
  let init = Array.init (rows * cols) (fun k -> float_of_int ((k * 5) mod 13) -. 6.) in
  for d = -3 to 3 do
    let m = program d 3 6 in
    check (Alcotest.pair int_c int_c) "2-deep nest: one native kernel" (1, 1)
      (Exec_compile.kernel_coverage (Exec_compile.compile_module m));
    same_as_interp (Printf.sprintf "in range d=%d" d) m [ ([ rows; cols ], init) ];
    (* Past either end of a row at the last or the first column. *)
    same_as_interp (Printf.sprintf "out of range d=%d" d) (program d 0 cols)
      [ ([ rows; cols ], init) ]
  done;
  match outcome_bits Exec_compile.executor (program 2 0 cols) [ ([ rows; cols ], init) ] with
  | Some msg, _ -> Support.assert_contains ~what: "error" msg "out of bounds"
  | None, _ -> Alcotest.fail "expected an out-of-bounds error"

(* Space order 6: a loop shape no other test builds, so its first run
   is the process's first cc run for it. *)
let heat_coef ~shape ~coef =
  let g = Devito.Symbolic.grid ~dt: 0.1 shape in
  let u = Devito.Symbolic.function_ ~space_order: 6 "u" g in
  snd
    (Devito.Operator.operator ~name: "heat" ~timesteps: 3
       (Devito.Symbolic.eq (Devito.Symbolic.Dt u) Devito.Symbolic.(f coef *: laplace u)))

let nk_temp_files () =
  List.filter
    (fun f -> String.length f >= 10 && String.sub f 0 10 = "stencil_nk")
    (Array.to_list (Sys.readdir (Filename.get_temp_dir_name ())))

(* Kernels live in a process-wide table keyed by their C text: a program
   that differs only in a coefficient, compiled again after the artifact
   cache is cleared, reuses them; two ranks racing a first run build
   once; nothing is left in the temp dir. *)
let test_kernel_table () =
  let files0 = nk_temp_files () in
  let b0 = Exec_compile.build_count () in
  List.iter
    (fun coef ->
      Service.Artifact.clear ();
      let r =
        Driver.Harness.run_distributed ~substrate: Driver.Harness.Par
          ~executor: Exec_compile.executor ~ranks: 2
          (heat_coef ~shape: [ 22; 26 ] ~coef)
      in
      check (Alcotest.float 0.) "== serial" 0. r.Driver.Harness.max_diff_vs_serial)
    [ 0.5; 0.25 ];
  check int_c "two coefficients: one cc run" 1 (Exec_compile.build_count () - b0);
  (* out[i] = -...-a[i] through 11 negations: another unique shape. *)
  let mem = Typesys.Memref ([ 64 ], Typesys.f64) in
  let f =
    Func.define "main" ~arg_tys: [ mem; mem ] ~res_tys: [] (fun bld args ->
        match args with
        | [ a; out ] ->
            let idx k = Arith.const_index bld k in
            let _ =
              Scf.for_op bld ~lo: (idx 0) ~hi: (idx 64) ~step: (idx 1) (fun b i _ ->
                  let rec negs k x = if k = 0 then x else negs (k - 1) (Arith.neg_f b x) in
                  Memref.store_op b (negs 11 (Memref.load_op b a [ i ])) out [ i ];
                  Scf.yield_op b [])
            in
            Func.return_op bld []
        | _ -> assert false)
  in
  let module C = Exec_compile.Compiled in
  let cm = C.compile (Op.module_op [ f ]) in
  let b1 = Exec_compile.build_count () in
  let rank () =
    let buf () = R.Rbuf (R.alloc_buffer [ 64 ] Typesys.f64) in
    ignore (C.run (C.instantiate cm) "main" [ buf (); buf () ])
  in
  List.iter Domain.join [ Domain.spawn rank; Domain.spawn rank ];
  check int_c "racing first runs: one cc run" 1 (Exec_compile.build_count () - b1);
  check (Alcotest.list Alcotest.string) "no file left in the temp dir" files0
    (nk_temp_files ())

(* With no cc on PATH, stencilc says so on one stderr line, records it on
   the kernel-coverage instant, and still matches the serial oracle. *)
let test_no_cc () =
  let stencilc = Support.stencilc_path () in
  let dir = Filename.temp_dir "no_cc" "" in
  let out = Filename.concat dir "out" and err = Filename.concat dir "err" in
  let trace = Filename.concat dir "trace.json" in
  Fun.protect
    ~finally: (fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ out; err; trace ];
      Sys.rmdir dir)
    (fun () ->
      let rc =
        Sys.command
          (Printf.sprintf "env PATH=%s %s --demo heat2d --run-par 2 --trace-out %s > %s 2> %s"
             (Filename.quote dir) (Filename.quote stencilc) (Filename.quote trace)
             (Filename.quote out) (Filename.quote err))
      in
      let slurp p = In_channel.with_open_text p In_channel.input_all in
      check int_c "exits 0" 0 rc;
      let lines =
        List.filter
          (fun l -> Support.contains l "native kernels off")
          (String.split_on_char '\n' (slurp err))
      in
      check int_c "one stderr line" 1 (List.length lines);
      check bool_c "it names the cause" true
        (String.length (List.hd lines) > 20
         && String.sub (List.hd lines) 0 20 = "native kernels off: ");
      Support.assert_contains ~what: "stdout" (slurp out) "max abs diff vs serial: 0";
      Support.assert_contains ~what: "trace" (slurp trace) "off: cannot run cc")

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
    QCheck_alcotest.to_alcotest fused_loops_prop;
    Alcotest.test_case "fused inner loops: dependence distances" `Quick
      test_dependence_distances;
    Alcotest.test_case "no minor allocation per cell update" `Quick
      test_no_allocation_per_cell;
    Alcotest.test_case "benchmark programs: every innermost loop fused"
      `Quick test_kernel_coverage;
    Alcotest.test_case "native kernels: NaN, signed zeros, cmpf" `Quick
      test_native_nan_zero;
    Alcotest.test_case "native kernels: 2-deep nests, aliasing, corners"
      `Quick test_native_nests;
    Alcotest.test_case "native kernels: one build per loop shape" `Quick
      test_kernel_table;
    Alcotest.test_case "native kernels: loud without cc" `Quick test_no_cc;
  ]
