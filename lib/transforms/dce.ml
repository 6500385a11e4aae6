(* Dead code elimination: drop side-effect-free ops whose results are never
   used.  On the Rewriter workspace this is a single cascading walk — erasing
   an op releases its operands, and any released definition whose use count
   drops to zero is erased in turn — so no fixpoint iteration over the whole
   module is needed even when uses cross region boundaries. *)

open Ir

let run (m : Op.t) : Op.t =
  let ws = Rewriter.Workspace.of_op m in
  ignore (Rewriter.erase_dead ~removable: Effects.removable_if_unused ws);
  Rewriter.Workspace.to_op ws

let pass = Pass.make "dce" run
