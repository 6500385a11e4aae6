(* Recursive-descent parser for the generic textual IR format produced by
   Printer.  The two are developed together; round-tripping is enforced by
   property tests. *)

open Lexer

exception Parse_error of string

type state = { mutable toks : token list; values : (int, Value.t) Hashtbl.t }

let error fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

let peek st = match st.toks with [] -> EOF | t :: _ -> t

let peek2 st = match st.toks with _ :: t :: _ -> t | _ -> EOF

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect st tok =
  let t = peek st in
  if t = tok then advance st
  else error "expected %s, found %s" (token_to_string tok) (token_to_string t)

let expect_ident st name =
  match peek st with
  | IDENT s when s = name -> advance st
  | t -> error "expected %S, found %s" name (token_to_string t)

let parse_int st =
  match peek st with
  | INT i ->
      advance st;
      i
  | t -> error "expected integer, found %s" (token_to_string t)

(* Sequences like 4x5x2 appear as DIM 4, DIM 5, INT 2. *)
let parse_dims_then_int st =
  let rec go acc =
    match peek st with
    | DIM d ->
        advance st;
        go (d :: acc)
    | INT i ->
        advance st;
        List.rev (i :: acc)
    | t -> error "expected dimension, found %s" (token_to_string t)
  in
  go []

let parse_int_list st =
  expect st LBRACK;
  let rec go acc =
    match peek st with
    | RBRACK ->
        advance st;
        List.rev acc
    | COMMA ->
        advance st;
        go acc
    | INT i ->
        advance st;
        go (i :: acc)
    | t -> error "expected int in list, found %s" (token_to_string t)
  in
  go []

let parse_bound st =
  expect st LBRACK;
  let lo = parse_int st in
  expect st COMMA;
  let hi = parse_int st in
  expect st RBRACK;
  Typesys.{ lo; hi }

let rec parse_ty st : Typesys.ty =
  match peek st with
  | IDENT "i1" ->
      advance st;
      Typesys.i1
  | IDENT "i8" ->
      advance st;
      Typesys.Int W8
  | IDENT "i16" ->
      advance st;
      Typesys.Int W16
  | IDENT "i32" ->
      advance st;
      Typesys.i32
  | IDENT "i64" ->
      advance st;
      Typesys.i64
  | IDENT "f32" ->
      advance st;
      Typesys.f32
  | IDENT "f64" ->
      advance st;
      Typesys.f64
  | IDENT "index" ->
      advance st;
      Typesys.Index
  | IDENT "none" ->
      advance st;
      Typesys.None_type
  | IDENT "memref" ->
      advance st;
      expect st LT;
      let rec dims acc =
        match peek st with
        | DIM d ->
            advance st;
            dims (d :: acc)
        | _ -> List.rev acc
      in
      let shape = dims [] in
      let elt = parse_ty st in
      expect st GT;
      Typesys.Memref (shape, elt)
  | LPAREN ->
      let args = parse_ty_parens st in
      expect st ARROW;
      let res = parse_ty_parens st in
      Typesys.Fn (args, res)
  | BANG name ->
      advance st;
      parse_bang_ty st name
  | t -> error "expected type, found %s" (token_to_string t)

and parse_ty_parens st =
  expect st LPAREN;
  let rec go acc =
    match peek st with
    | RPAREN ->
        advance st;
        List.rev acc
    | COMMA ->
        advance st;
        go acc
    | _ ->
        let t = parse_ty st in
        go (t :: acc)
  in
  go []

and parse_bounded_ty st =
  (* [lo,hi] x [lo,hi] x elt-type *)
  let rec go acc =
    match peek st with
    | LBRACK ->
        let b = parse_bound st in
        expect_ident st "x";
        go (b :: acc)
    | _ ->
        let elt = parse_ty st in
        (List.rev acc, elt)
  in
  go []

and parse_bang_ty st name =
  match name with
  | "llvm.ptr" -> Typesys.Ptr
  | "mpi.request" -> Typesys.Request
  | "mpi.status" -> Typesys.Status
  | "mpi.datatype" -> Typesys.Datatype
  | "mpi.comm" -> Typesys.Comm
  | "mpi.request_array" ->
      expect st LT;
      let n = parse_int st in
      expect st GT;
      Typesys.Request_array n
  | "stencil.result" ->
      expect st LT;
      let t = parse_ty st in
      expect st GT;
      Typesys.Result_type t
  | "stencil.field" ->
      expect st LT;
      let bs, elt = parse_bounded_ty st in
      expect st GT;
      Typesys.Field (bs, elt)
  | "stencil.temp" ->
      expect st LT;
      let bs, elt = parse_bounded_ty st in
      expect st GT;
      Typesys.Temp (bs, elt)
  | "hls.stream" ->
      expect st LT;
      let t = parse_ty st in
      expect st GT;
      Typesys.Stream t
  | _ -> error "unknown dialect type !%s" name

let rec parse_attr st : Typesys.attr =
  match peek st with
  | IDENT "unit" ->
      advance st;
      Typesys.Unit_attr
  | IDENT "true" ->
      advance st;
      Typesys.Bool_attr true
  | IDENT "false" ->
      advance st;
      Typesys.Bool_attr false
  | IDENT "type" ->
      advance st;
      expect st LT;
      let t = parse_ty st in
      expect st GT;
      Typesys.Type_attr t
  | IDENT "dense" ->
      advance st;
      expect st LT;
      let xs = parse_int_list st in
      expect st GT;
      Typesys.Dense_attr xs
  | INT v ->
      advance st;
      expect st COLON;
      let t = parse_ty st in
      Typesys.Int_attr (v, t)
  | FLOAT v ->
      advance st;
      expect st COLON;
      let t = parse_ty st in
      Typesys.Float_attr (v, t)
  | STRING s ->
      advance st;
      Typesys.String_attr s
  | AT s ->
      advance st;
      Typesys.Symbol_attr s
  | LBRACK ->
      advance st;
      let rec go acc =
        match peek st with
        | RBRACK ->
            advance st;
            List.rev acc
        | COMMA ->
            advance st;
            go acc
        | _ ->
            let a = parse_attr st in
            go (a :: acc)
      in
      Typesys.Array_attr (go [])
  | HASH "dmp.grid" ->
      advance st;
      expect st LT;
      let dims = parse_dims_then_int st in
      expect st GT;
      Typesys.Grid_attr dims
  | HASH "dmp.exchange" ->
      advance st;
      expect st LT;
      expect_ident st "at";
      let ex_offset = parse_int_list st in
      expect_ident st "size";
      let ex_size = parse_int_list st in
      expect_ident st "source";
      expect_ident st "offset";
      let ex_source_offset = parse_int_list st in
      expect_ident st "to";
      let ex_neighbor = parse_int_list st in
      expect st GT;
      Typesys.Exchange_attr
        { ex_offset; ex_size; ex_source_offset; ex_neighbor }
  | t -> error "expected attribute, found %s" (token_to_string t)

let parse_attr_dict st =
  if peek st <> LBRACE then []
  else begin
    advance st;
    let rec go acc =
      match peek st with
      | RBRACE ->
          advance st;
          List.rev acc
      | COMMA ->
          advance st;
          go acc
      | IDENT key ->
          advance st;
          expect st EQUAL;
          let a = parse_attr st in
          go ((key, a) :: acc)
      | t -> error "expected attribute key, found %s" (token_to_string t)
    in
    go []
  end

(* Textual ids only name values within one parse: each definition gets a
   fresh value, so parsing never adopts ids from outside the counter. *)
let define_value st id ty =
  if Hashtbl.mem st.values id then error "redefinition of value %%%d" id;
  let v = Value.fresh ty in
  Hashtbl.replace st.values id v;
  v

let use_value st id =
  match Hashtbl.find_opt st.values id with
  | Some v -> v
  | None -> error "use of undefined value %%%d" id

let rec parse_op st : Op.t =
  (* optional result list *)
  let result_ids =
    match peek st with
    | PERCENT _ ->
        let rec go acc =
          match peek st with
          | PERCENT id ->
              advance st;
              (match peek st with
              | COMMA ->
                  advance st;
                  go (id :: acc)
              | EQUAL ->
                  advance st;
                  List.rev (id :: acc)
              | t ->
                  error "expected ',' or '=' after result, found %s"
                    (token_to_string t))
          | t -> error "expected result value, found %s" (token_to_string t)
        in
        go []
    | _ -> []
  in
  let name =
    match peek st with
    | STRING s ->
        advance st;
        s
    | t -> error "expected op name string, found %s" (token_to_string t)
  in
  expect st LPAREN;
  let rec operands acc =
    match peek st with
    | RPAREN ->
        advance st;
        List.rev acc
    | COMMA ->
        advance st;
        operands acc
    | PERCENT id ->
        advance st;
        operands (use_value st id :: acc)
    | t -> error "expected operand, found %s" (token_to_string t)
  in
  let operands = operands [] in
  let attrs = parse_attr_dict st in
  let regions =
    if peek st = LPAREN && peek2 st = LBRACE then begin
      advance st;
      let rec go acc =
        let r = parse_region st in
        match peek st with
        | COMMA ->
            advance st;
            go (r :: acc)
        | RPAREN ->
            advance st;
            List.rev (r :: acc)
        | t ->
            error "expected ',' or ')' after region, found %s"
              (token_to_string t)
      in
      go []
    end
    else []
  in
  expect st COLON;
  let operand_tys = parse_ty_parens st in
  expect st ARROW;
  let result_tys = parse_ty_parens st in
  if List.length operand_tys <> List.length operands then
    error "%s: operand count mismatch with signature" name;
  List.iter2
    (fun v t ->
      if not (Typesys.equal_ty (Value.ty v) t) then
        error "%s: operand %%%d has type %s, signature says %s" name
          (Value.id v)
          (Typesys.ty_to_string (Value.ty v))
          (Typesys.ty_to_string t))
    operands operand_tys;
  if List.length result_tys <> List.length result_ids then
    error "%s: result count mismatch with signature" name;
  let results = List.map2 (define_value st) result_ids result_tys in
  Op.make name ~operands ~results ~attrs ~regions

and parse_region st : Op.region =
  expect st LBRACE;
  let rec blocks acc =
    match peek st with
    | RBRACE ->
        advance st;
        List.rev acc
    | CARET ->
        let b = parse_block st in
        blocks (b :: acc)
    | t -> error "expected block or '}', found %s" (token_to_string t)
  in
  { Op.blocks = blocks [] }

and parse_block st : Op.block =
  expect st CARET;
  expect st LPAREN;
  let rec args acc =
    match peek st with
    | RPAREN ->
        advance st;
        List.rev acc
    | COMMA ->
        advance st;
        args acc
    | PERCENT id ->
        advance st;
        expect st COLON;
        let ty = parse_ty st in
        args (define_value st id ty :: acc)
    | t -> error "expected block argument, found %s" (token_to_string t)
  in
  let args = args [] in
  expect st COLON;
  let rec ops acc =
    match peek st with
    | RBRACE | CARET -> List.rev acc
    | _ ->
        let op = parse_op st in
        ops (op :: acc)
  in
  { Op.args; ops = ops [] }

let parse_string (src : string) : Op.t =
  let st = { toks = Lexer.tokenize src; values = Hashtbl.create 64 } in
  let rec go acc =
    match peek st with
    | EOF -> List.rev acc
    | _ ->
        let op = parse_op st in
        go (op :: acc)
  in
  match go [] with
  | [ m ] when m.Op.name = "builtin.module" -> m
  | ops -> Op.module_op ops

let parse_op_string (src : string) : Op.t =
  let st = { toks = Lexer.tokenize src; values = Hashtbl.create 64 } in
  parse_op st
