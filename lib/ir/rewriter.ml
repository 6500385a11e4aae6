(* The shared rewrite core: an indexed, mutable view of a module (the
   workspace) plus the greedy worklist pattern driver built on top of it.

   The workspace decomposes the immutable [Op.t] tree into node and block
   tables addressed by integer ids, with per-[Value] use-def indices
   (defining node / block argument, user nodes with operand counts) and a
   doubly-linked op order per block.  Mutations ([replace_op], [erase_op],
   [replace_all_uses], [insert_before/after], [move_before]) keep the
   indices consistent incrementally, so the driver can re-examine only the
   users of changed values instead of re-sweeping the whole module.

   The driver is MLIR-style greedy rewriting over a per-root-op pattern
   index.  All ops are seeded in reverse post-order on a LIFO worklist;
   applying a rewrite re-enqueues the replacement ops, the users of
   remapped values and the ancestor ops, and ops that become trivially
   dead (per the driver's [dead] predicate) are erased on the spot.

   Hitting the iteration budget emits a warning through Logs and an Obs
   instant event naming the pass and the last applied pattern instead of
   silently returning a non-converged module. *)

let log_src = Logs.Src.create "ir.rewriter" ~doc: "Shared rewrite core"

module Log = (val Logs.src_log log_src)

module Workspace = struct
  type node_id = int
  type block_id = int

  type def_site = Def_op of node_id | Def_arg of block_id

  type wblock = {
    blk_id : block_id;
    owner : node_id;
    mutable bargs : Value.t list;
    mutable bfirst : node_id; (* -1 when the block is empty *)
    mutable blast : node_id;
  }

  type wnode = {
    nid : node_id;
    src : Op.t; (* the original op record this node was imported from *)
    mutable shallow : Op.t; (* current op with [regions = []] *)
    mutable wregions : wblock list list;
    mutable parent : block_id; (* -1 for the root *)
    mutable prev : node_id;
    mutable next : node_id;
    mutable erased : bool;
    mutable queued : bool; (* worklist membership flag (driver-owned) *)
  }

  type t = {
    mutable next_nid : int;
    mutable next_bid : int;
    nodes : (node_id, wnode) Hashtbl.t;
    blks : (block_id, wblock) Hashtbl.t;
    defs : (int, def_site) Hashtbl.t; (* Value.id -> defining site *)
    uses : (int, (node_id, int) Hashtbl.t) Hashtbl.t;
        (* Value.id -> user node -> operand count *)
    mutable root_id : node_id;
  }

  let node ws nid =
    match Hashtbl.find_opt ws.nodes nid with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "Rewriter.Workspace: unknown op #%d" nid)

  let blk ws bid =
    match Hashtbl.find_opt ws.blks bid with
    | Some b -> b
    | None ->
        invalid_arg (Printf.sprintf "Rewriter.Workspace: unknown block #%d" bid)

  let root ws = ws.root_id
  let is_erased ws nid = (node ws nid).erased

  (* --- use/def index maintenance --- *)

  let add_use ws v nid =
    let key = Value.id v in
    let tbl =
      match Hashtbl.find_opt ws.uses key with
      | Some t -> t
      | None ->
          let t = Hashtbl.create 4 in
          Hashtbl.replace ws.uses key t;
          t
    in
    let n = match Hashtbl.find_opt tbl nid with Some n -> n | None -> 0 in
    Hashtbl.replace tbl nid (n + 1)

  let remove_use ws v nid =
    let key = Value.id v in
    match Hashtbl.find_opt ws.uses key with
    | None -> ()
    | Some tbl -> (
        match Hashtbl.find_opt tbl nid with
        | None -> ()
        | Some 1 -> Hashtbl.remove tbl nid
        | Some n -> Hashtbl.replace tbl nid (n - 1))

  let use_count ws v =
    match Hashtbl.find_opt ws.uses (Value.id v) with
    | None -> 0
    | Some tbl -> Hashtbl.fold (fun _ n acc -> acc + n) tbl 0

  let users ws v =
    match Hashtbl.find_opt ws.uses (Value.id v) with
    | None -> []
    | Some tbl ->
        Hashtbl.fold
          (fun nid _ acc -> if (node ws nid).erased then acc else nid :: acc)
          tbl []
        |> List.sort compare

  let def_site ws v =
    match Hashtbl.find_opt ws.defs (Value.id v) with
    | Some (Def_op nid) when not (node ws nid).erased -> `Op nid
    | Some (Def_arg bid) -> `Arg bid
    | _ -> `None

  (* --- linked-list order within a block --- *)

  let link_last ws wb nid =
    let n = node ws nid in
    n.prev <- wb.blast;
    n.next <- -1;
    if wb.blast >= 0 then (node ws wb.blast).next <- nid else wb.bfirst <- nid;
    wb.blast <- nid

  let link_before ws wb ~anchor nid =
    let a = node ws anchor in
    let n = node ws nid in
    n.prev <- a.prev;
    n.next <- anchor;
    if a.prev >= 0 then (node ws a.prev).next <- nid else wb.bfirst <- nid;
    a.prev <- nid

  let link_after ws wb ~anchor nid =
    let a = node ws anchor in
    let n = node ws nid in
    n.prev <- anchor;
    n.next <- a.next;
    if a.next >= 0 then (node ws a.next).prev <- nid else wb.blast <- nid;
    a.next <- nid

  let unlink ws nid =
    let n = node ws nid in
    if n.parent >= 0 then begin
      let wb = blk ws n.parent in
      if n.prev >= 0 then (node ws n.prev).next <- n.next
      else wb.bfirst <- n.next;
      if n.next >= 0 then (node ws n.next).prev <- n.prev
      else wb.blast <- n.prev;
      n.prev <- -1;
      n.next <- -1
    end

  let block_ops ws bid =
    let wb = blk ws bid in
    let rec go acc nid =
      if nid < 0 then List.rev acc else go (nid :: acc) (node ws nid).next
    in
    go [] wb.bfirst

  (* --- import --- *)

  let rec import_op ws ~parent (op : Op.t) : node_id =
    let nid = ws.next_nid in
    ws.next_nid <- nid + 1;
    let n =
      {
        nid;
        src = op;
        shallow = (if op.Op.regions = [] then op else { op with Op.regions = [] });
        wregions = [];
        parent;
        prev = -1;
        next = -1;
        erased = false;
        queued = false;
      }
    in
    Hashtbl.replace ws.nodes nid n;
    n.wregions <-
      List.map
        (fun (r : Op.region) -> List.map (import_block ws ~owner: nid) r.Op.blocks)
        op.Op.regions;
    List.iter
      (fun v -> Hashtbl.replace ws.defs (Value.id v) (Def_op nid))
      op.Op.results;
    List.iter (fun v -> add_use ws v nid) op.Op.operands;
    nid

  and import_block ws ~owner (b : Op.block) : wblock =
    let bid = ws.next_bid in
    ws.next_bid <- bid + 1;
    let wb = { blk_id = bid; owner; bargs = b.Op.args; bfirst = -1; blast = -1 } in
    Hashtbl.replace ws.blks bid wb;
    List.iter
      (fun a -> Hashtbl.replace ws.defs (Value.id a) (Def_arg bid))
      b.Op.args;
    List.iter
      (fun op ->
        let nid = import_op ws ~parent: bid op in
        link_last ws wb nid)
      b.Op.ops;
    wb

  let of_op (m : Op.t) : t =
    let ws =
      {
        next_nid = 0;
        next_bid = 0;
        nodes = Hashtbl.create 256;
        blks = Hashtbl.create 32;
        defs = Hashtbl.create 256;
        uses = Hashtbl.create 256;
        root_id = -1;
      }
    in
    ws.root_id <- import_op ws ~parent: (-1) m;
    ws

  (* --- materialization --- *)

  let rec materialize ws nid : Op.t =
    let n = node ws nid in
    if n.wregions = [] then n.shallow
    else
      {
        n.shallow with
        Op.regions =
          List.map
            (fun wbs ->
              { Op.blocks = List.map (materialize_block ws) wbs })
            n.wregions;
      }

  and materialize_block ws wb : Op.block =
    {
      Op.args = wb.bargs;
      ops = List.map (materialize ws) (block_ops ws wb.blk_id);
    }

  let op = materialize
  let to_op ws = materialize ws ws.root_id

  (* --- structure queries --- *)

  let shallow ws nid = (node ws nid).shallow
  let src ws nid = (node ws nid).src
  let has_regions ws nid = (node ws nid).wregions <> []

  let blocks ws nid =
    List.map (List.map (fun wb -> wb.blk_id)) (node ws nid).wregions

  let block_args ws bid = (blk ws bid).bargs
  let block_owner ws bid = (blk ws bid).owner

  let parent_block ws nid =
    let n = node ws nid in
    if n.parent < 0 then None else Some n.parent

  let parent_op ws nid =
    match parent_block ws nid with
    | None -> None
    | Some bid -> Some (blk ws bid).owner

  let rec in_subtree ws ~top nid =
    nid = top
    || (match parent_op ws nid with
       | Some p -> in_subtree ws ~top p
       | None -> false)

  let block_in_subtree ws ~top bid = in_subtree ws ~top (blk ws bid).owner

  let ancestors ws nid =
    let rec go acc nid =
      match parent_op ws nid with
      | Some p when p <> ws.root_id -> go (p :: acc) p
      | _ -> acc
    in
    go [] nid

  (* Live ops in post order (children before parents, program order
     otherwise); the root is excluded. *)
  let post_order ws =
    let acc = ref [] in
    let rec go nid =
      let n = node ws nid in
      List.iter
        (fun wbs ->
          List.iter
            (fun wb -> List.iter go (block_ops ws wb.blk_id))
            wbs)
        n.wregions;
      if nid <> ws.root_id then acc := nid :: !acc
    in
    go ws.root_id;
    List.rev !acc

  let subtree_post_order ws top =
    let acc = ref [] in
    let rec go nid =
      let n = node ws nid in
      List.iter
        (fun wbs ->
          List.iter
            (fun wb -> List.iter go (block_ops ws wb.blk_id))
            wbs)
        n.wregions;
      acc := nid :: !acc
    in
    go top;
    List.rev !acc

  (* --- mutation --- *)

  let set_shallow ws nid (op : Op.t) =
    let n = node ws nid in
    List.iter (fun v -> remove_use ws v nid) n.shallow.Op.operands;
    List.iter
      (fun v ->
        match Hashtbl.find_opt ws.defs (Value.id v) with
        | Some (Def_op d) when d = nid -> Hashtbl.remove ws.defs (Value.id v)
        | _ -> ())
      n.shallow.Op.results;
    n.shallow <- (if op.Op.regions = [] then op else { op with Op.regions = [] });
    List.iter
      (fun v -> Hashtbl.replace ws.defs (Value.id v) (Def_op nid))
      op.Op.results;
    List.iter (fun v -> add_use ws v nid) op.Op.operands

  let set_block_args ws bid args =
    let wb = blk ws bid in
    List.iter
      (fun v ->
        match Hashtbl.find_opt ws.defs (Value.id v) with
        | Some (Def_arg d) when d = bid -> Hashtbl.remove ws.defs (Value.id v)
        | _ -> ())
      wb.bargs;
    wb.bargs <- args;
    List.iter
      (fun a -> Hashtbl.replace ws.defs (Value.id a) (Def_arg bid))
      args

  let insert_before ws ~anchor (op : Op.t) : node_id =
    let a = node ws anchor in
    if a.parent < 0 then
      invalid_arg "Rewriter.Workspace.insert_before: anchor is the root";
    let nid = import_op ws ~parent: a.parent op in
    link_before ws (blk ws a.parent) ~anchor nid;
    nid

  let insert_after ws ~anchor (op : Op.t) : node_id =
    let a = node ws anchor in
    if a.parent < 0 then
      invalid_arg "Rewriter.Workspace.insert_after: anchor is the root";
    let nid = import_op ws ~parent: a.parent op in
    link_after ws (blk ws a.parent) ~anchor nid;
    nid

  let append ws bid (op : Op.t) : node_id =
    let wb = blk ws bid in
    let nid = import_op ws ~parent: bid op in
    link_last ws wb nid;
    nid

  let move_before ws ~anchor nid =
    let a = node ws anchor in
    if a.parent < 0 then
      invalid_arg "Rewriter.Workspace.move_before: anchor is the root";
    unlink ws nid;
    (node ws nid).parent <- a.parent;
    link_before ws (blk ws a.parent) ~anchor nid

  (* Redirect every use of [old_v] to [new_v]; returns the affected user
     nodes (for driver re-enqueueing). *)
  let replace_all_uses ws old_v new_v : node_id list =
    if Value.equal old_v new_v then []
    else
      let affected = users ws old_v in
      List.iter
        (fun nid ->
          let n = node ws nid in
          let operands =
            List.map
              (fun v ->
                if Value.equal v old_v then begin
                  remove_use ws v nid;
                  add_use ws new_v nid;
                  new_v
                end
                else v)
              n.shallow.Op.operands
          in
          n.shallow <- { n.shallow with Op.operands })
        affected;
      affected

  (* Erase an op (and everything nested inside it); returns the values the
     erased subtree was using that are defined elsewhere — candidates for
     becoming trivially dead. *)
  let erase_op ws nid : Value.t list =
    unlink ws nid;
    let released = ref [] in
    let rec erase_tree nid =
      let n = node ws nid in
      n.erased <- true;
      List.iter
        (fun v ->
          remove_use ws v nid;
          released := v :: !released)
        n.shallow.Op.operands;
      List.iter
        (fun v ->
          match Hashtbl.find_opt ws.defs (Value.id v) with
          | Some (Def_op d) when d = nid -> Hashtbl.remove ws.defs (Value.id v)
          | _ -> ())
        n.shallow.Op.results;
      List.iter
        (fun wbs ->
          List.iter
            (fun wb ->
              List.iter
                (fun a ->
                  match Hashtbl.find_opt ws.defs (Value.id a) with
                  | Some (Def_arg d) when d = wb.blk_id ->
                      Hashtbl.remove ws.defs (Value.id a)
                  | _ -> ())
                wb.bargs;
              List.iter erase_tree (block_ops ws wb.blk_id);
              Hashtbl.remove ws.blks wb.blk_id)
            wbs)
        n.wregions
    in
    erase_tree nid;
    (* Values defined within the erased subtree are gone from [defs], so
       they no longer qualify as dead-op candidates. *)
    List.filter (fun v -> def_site ws v <> `None) !released

  (* Splice [new_ops] in front of [nid], remap [mapping] (old result ->
     replacement value), erase [nid].  Returns the inserted top-level
     nodes, the user nodes affected by the remapping, and the values the
     erased op released. *)
  let replace_op ws nid new_ops mapping =
    let inserted = List.map (fun op -> insert_before ws ~anchor: nid op) new_ops in
    let affected =
      List.concat_map
        (fun (old_v, new_v) -> replace_all_uses ws old_v new_v)
        mapping
    in
    let released = erase_op ws nid in
    (inserted, affected, released)

  let def_op ws v =
    match def_site ws v with `Op nid -> Some (op ws nid) | _ -> None
end

(* --- patterns --- *)

type ctx = {
  ws : Workspace.t;
  def : Value.t -> Op.t option;
  uses : Value.t -> int;
}

type pattern = {
  pname : string;
  roots : string list;
  rewrite : ctx -> Op.t -> Pattern.rewrite option;
}

let pattern ?(roots = []) pname rewrite = { pname; roots; rewrite }

(* --- pattern index: patterns tried per root op name, in list order --- *)

type index = {
  by_root : (string, (int * pattern) list) Hashtbl.t;
  generic : (int * pattern) list; (* patterns with no declared roots *)
  resolved : (string, pattern list) Hashtbl.t;
}

let index_patterns patterns =
  let by_root = Hashtbl.create 16 in
  let generic = ref [] in
  List.iteri
    (fun i p ->
      if p.roots = [] then generic := (i, p) :: !generic
      else
        List.iter
          (fun root ->
            let prev =
              match Hashtbl.find_opt by_root root with Some l -> l | None -> []
            in
            Hashtbl.replace by_root root ((i, p) :: prev))
          p.roots)
    patterns;
  { by_root; generic = List.rev !generic; resolved = Hashtbl.create 16 }

let candidates idx name =
  match Hashtbl.find_opt idx.resolved name with
  | Some ps -> ps
  | None ->
      let rooted =
        match Hashtbl.find_opt idx.by_root name with
        | Some l -> List.rev l
        | None -> []
      in
      let ps =
        List.merge
          (fun (a, _) (b, _) -> compare (a : int) b)
          rooted idx.generic
        |> List.map snd
      in
      Hashtbl.replace idx.resolved name ps;
      ps

(* --- the worklist driver --- *)

type counters = {
  mutable enqueued : int;
  mutable processed : int;
  mutable max_depth : int;
  mutable applied : int;
  mutable erased_dead : int;
}

(* An op the driver may erase on its own: regionless (the workspace's
   shallow ops drop regions, so region-bearing nodes must never reach the
   effect predicates), matching the pass's [dead] predicate, with no
   remaining uses of any result. *)
let dead_candidate ws dead nid =
  (not (Workspace.has_regions ws nid))
  && dead (Workspace.shallow ws nid)
  &&
  let op = Workspace.shallow ws nid in
  List.for_all (fun r -> Workspace.use_count ws r = 0) op.Op.results

let rec try_candidates ctx op = function
  | [] -> None
  | p :: rest -> (
      match p.rewrite ctx op with
      | None -> try_candidates ctx op rest
      | Some rw -> Some (p, rw))

(* Materializing a node (rebuilding its region subtree as an [Op.t]) is
   the expensive step of a visit, so the driver consults the pattern
   index on the cheap shallow record first and only materialize ops that
   have at least one candidate pattern. *)
let try_patterns ctx idx nid =
  match candidates idx (Workspace.shallow ctx.ws nid).Op.name with
  | [] -> None
  | cands -> try_candidates ctx (Workspace.op ctx.ws nid) cands

let warn_non_convergence ~name ~budget ~last_pattern =
  Log.warn (fun f ->
      f
        "pass %s: rewrite driver hit its budget (%d) without converging; \
         last applied pattern: %s"
        name budget
        (if last_pattern = "" then "<none>" else last_pattern));
  Obs.Trace.instant ~cat: "rewrite"
    ~args:
      [
        ("pass", Obs.Str name);
        ("budget", Obs.Int budget);
        ("last_pattern", Obs.Str last_pattern);
      ]
    "rewrite-non-convergence"

let run_worklist ws ~name ~dead idx (c : counters) =
  let ctx =
    {
      ws;
      def = (fun v -> Workspace.def_op ws v);
      uses = (fun v -> Workspace.use_count ws v);
    }
  in
  let stack = ref [] in
  let depth = ref 0 in
  let push nid =
    if nid <> Workspace.root ws then begin
      let n = Workspace.node ws nid in
      if (not n.Workspace.erased) && not n.Workspace.queued then begin
        n.Workspace.queued <- true;
        stack := nid :: !stack;
        incr depth;
        c.enqueued <- c.enqueued + 1;
        if !depth > c.max_depth then c.max_depth <- !depth
      end
    end
  in
  (* Seed in reverse post order: pops then follow program order with
     nested ops visited before their parents.
     Ops with no candidate pattern for their name and no chance of
     driver-side erasure are not seeded at all — visiting them would be a
     no-op, and any later mutation that could make them interesting
     re-enqueues them (affected users, ancestors, released defs). *)
  let initial = Workspace.post_order ws in
  List.iter
    (fun nid ->
      if
        candidates idx (Workspace.shallow ws nid).Op.name <> []
        || dead_candidate ws dead nid
      then push nid)
    (List.rev initial);
  let budget = 100 * max 64 (List.length initial) in
  let push_dead_candidates released =
    List.iter
      (fun v ->
        if Workspace.use_count ws v = 0 then
          match Workspace.def_site ws v with `Op d -> push d | _ -> ())
      released
  in
  let last_pattern = ref "" in
  let process nid =
    if dead_candidate ws dead nid then begin
      let ancestors = Workspace.ancestors ws nid in
      let released = Workspace.erase_op ws nid in
      c.erased_dead <- c.erased_dead + 1;
      List.iter push ancestors;
      push_dead_candidates released
    end
    else
      match try_patterns ctx idx nid with
      | None -> ()
      | Some (p, rw) -> (
          Obs.Patterns.note p.pname;
          c.applied <- c.applied + 1;
          last_pattern := p.pname;
          let ancestors = Workspace.ancestors ws nid in
          match rw with
          | Pattern.Erase ->
              let released = Workspace.erase_op ws nid in
              List.iter push ancestors;
              push_dead_candidates released
          | Pattern.Replace (ops, mapping) ->
              let inserted, affected, released =
                Workspace.replace_op ws nid ops mapping
              in
              List.iter
                (fun top ->
                  (* Reversed so pops visit the new subtree children
                     first, in program order. *)
                  List.iter push
                    (List.rev (Workspace.subtree_post_order ws top)))
                inserted;
              List.iter push affected;
              List.iter push ancestors;
              push_dead_candidates released)
  in
  let exhausted = ref false in
  let rec loop () =
    match !stack with
    | [] -> ()
    | nid :: rest ->
        stack := rest;
        decr depth;
        let n = Workspace.node ws nid in
        n.Workspace.queued <- false;
        if n.Workspace.erased then loop ()
        else begin
          c.processed <- c.processed + 1;
          if c.processed > budget then exhausted := true
          else begin
            process nid;
            loop ()
          end
        end
  in
  loop ();
  if !exhausted then
    warn_non_convergence ~name ~budget ~last_pattern: !last_pattern

let run ?(dead = fun _ -> false) ~name patterns (m : Op.t) : Op.t =
  let ws = Workspace.of_op m in
  let idx = index_patterns patterns in
  let c =
    { enqueued = 0; processed = 0; max_depth = 0; applied = 0; erased_dead = 0 }
  in
  run_worklist ws ~name ~dead idx c;
  if Obs.enabled () then
    Obs.Rewrites.record
      {
        Obs.rw_pass = name;
        rw_enqueued = c.enqueued;
        rw_processed = c.processed;
        rw_max_depth = c.max_depth;
        rw_applied = c.applied;
        rw_erased_dead = c.erased_dead;
      };
  Workspace.to_op ws

(* Cascading erasure of ops matching [removable] whose results are all
   unused — DCE as one workspace walk.  Returns the number of erased
   ops. *)
let erase_dead ?(removable = fun _ -> false) ws : int =
  let count = ref 0 in
  let stack = ref (List.rev (Workspace.post_order ws)) in
  let rec loop () =
    match !stack with
    | [] -> ()
    | nid :: rest ->
        stack := rest;
        if
          (not (Workspace.is_erased ws nid))
          && dead_candidate ws removable nid
        then begin
          let released = Workspace.erase_op ws nid in
          incr count;
          List.iter
            (fun v ->
              if Workspace.use_count ws v = 0 then
                match Workspace.def_site ws v with
                | `Op d -> stack := d :: !stack
                | _ -> ())
            released
        end;
        loop ()
  in
  loop ();
  !count
