(* Textual output in MLIR's generic-operation style.  Printer and parser are
   designed together: everything printed here round-trips through Parser.

   SSA names are local to one print, as in MLIR: values are numbered from
   %0 in order of first appearance.  The parser binds every textual id to
   a fresh value, so print (parse (print m)) = print m even though the
   reparsed values carry new ids. *)

let numbering () : Value.t -> int =
  let ids : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let next = ref 0 in
  fun v ->
    match Hashtbl.find_opt ids (Value.id v) with
    | Some n -> n
    | None ->
        let n = !next in
        incr next;
        Hashtbl.add ids (Value.id v) n;
        n

let pp_attr_dict fmt attrs =
  if attrs <> [] then begin
    Format.fprintf fmt " {";
    List.iteri
      (fun i (k, a) ->
        if i > 0 then Format.fprintf fmt ", ";
        Format.fprintf fmt "%s = %a" k Typesys.pp_attr a)
      attrs;
    Format.fprintf fmt "}"
  end

let rec pp_named ~name ~indent fmt (op : Op.t) =
  let pad = String.make indent ' ' in
  let pp_value fmt v = Format.fprintf fmt "%%%d" (name v) in
  Format.fprintf fmt "%s" pad;
  if op.results <> [] then begin
    List.iteri
      (fun i v ->
        if i > 0 then Format.fprintf fmt ", ";
        pp_value fmt v)
      op.results;
    Format.fprintf fmt " = "
  end;
  Format.fprintf fmt "%S(" op.name;
  List.iteri
    (fun i v ->
      if i > 0 then Format.fprintf fmt ", ";
      pp_value fmt v)
    op.operands;
  Format.fprintf fmt ")";
  pp_attr_dict fmt op.attrs;
  if op.regions <> [] then begin
    Format.fprintf fmt " (";
    List.iteri
      (fun i r ->
        if i > 0 then Format.fprintf fmt ", ";
        pp_region ~name ~indent fmt r)
      op.regions;
    Format.fprintf fmt ")"
  end;
  Format.fprintf fmt " : (%a) -> (%a)" Typesys.pp_ty_list
    (List.map Value.ty op.operands)
    Typesys.pp_ty_list
    (List.map Value.ty op.results)

and pp_region ~name ~indent fmt (r : Op.region) =
  Format.fprintf fmt "{\n";
  List.iter (pp_block ~name ~indent: (indent + 2) fmt) r.blocks;
  Format.fprintf fmt "%s}" (String.make indent ' ')

and pp_block ~name ~indent fmt (b : Op.block) =
  Format.fprintf fmt "%s^(" (String.make (indent - 1) ' ');
  List.iteri
    (fun i v ->
      if i > 0 then Format.fprintf fmt ", ";
      Format.fprintf fmt "%%%d : %a" (name v) Typesys.pp_ty (Value.ty v))
    b.args;
  Format.fprintf fmt "):\n";
  List.iter
    (fun op -> Format.fprintf fmt "%a\n" (pp_named ~name ~indent) op)
    b.ops

let pp_op ?(indent = 0) fmt op = pp_named ~name: (numbering ()) ~indent fmt op

let op_to_string op = Format.asprintf "%a" (pp_op ~indent: 0) op

let print_module fmt m =
  Format.fprintf fmt "%a@." (pp_op ~indent: 0) m

let module_to_string m = Format.asprintf "%a" print_module m

(* ---------- canonical form (content hashing) ---------- *)

(* A deterministic rendering of a module meant for content-addressing, not
   for round-tripping: SSA values are numbered as in the generic print, and
   attribute dictionaries are sorted by key so the hash is insensitive to
   attribute insertion order (the same normalization the CSE op-key
   uses). *)

let canonical_module_string (m : Op.t) : string =
  let buf = Buffer.create 4096 in
  let vid = numbering () in
  let add_ty t = Buffer.add_string buf (Format.asprintf "%a" Typesys.pp_ty t) in
  let add_value v =
    Buffer.add_char buf '%';
    Buffer.add_string buf (string_of_int (vid v))
  in
  let add_typed_value v =
    add_value v;
    Buffer.add_char buf ':';
    add_ty (Value.ty v)
  in
  let rec add_op (op : Op.t) =
    List.iter
      (fun r ->
        add_value r;
        Buffer.add_char buf ' ')
      op.Op.results;
    Buffer.add_char buf '=';
    Buffer.add_string buf op.Op.name;
    Buffer.add_char buf '(';
    List.iter
      (fun v ->
        add_typed_value v;
        Buffer.add_char buf ',')
      op.Op.operands;
    Buffer.add_char buf ')';
    (match
       List.sort (fun (a, _) (b, _) -> String.compare a b) op.Op.attrs
     with
    | [] -> ()
    | attrs ->
        Buffer.add_char buf '{';
        List.iter
          (fun (k, a) ->
            Buffer.add_string buf k;
            Buffer.add_char buf '=';
            Buffer.add_string buf (Format.asprintf "%a" Typesys.pp_attr a);
            Buffer.add_char buf ',')
          attrs;
        Buffer.add_char buf '}');
    List.iter
      (fun (r : Op.region) ->
        Buffer.add_char buf '(';
        List.iter
          (fun (b : Op.block) ->
            Buffer.add_char buf '^';
            List.iter
              (fun a ->
                add_typed_value a;
                Buffer.add_char buf ',')
              b.Op.args;
            Buffer.add_char buf ':';
            List.iter add_op b.Op.ops)
          r.Op.blocks;
        Buffer.add_char buf ')')
      op.Op.regions;
    List.iter
      (fun r ->
        Buffer.add_char buf ':';
        add_ty (Value.ty r))
      op.Op.results;
    Buffer.add_char buf '\n'
  in
  add_op m;
  Buffer.contents buf
