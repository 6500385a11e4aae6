(* The executor seam of the execution half of the stack.

   An executor turns a module into something runnable: the tree-walking
   reference interpreter ([Engine]) and the ahead-of-time closure compiler
   ([Exec_compile], in lib/exec/compile) both implement the [EXECUTOR]
   signature, and everything downstream — [Driver.Simulate.Spmd],
   [Driver.Harness], stencilc's --run-par/--run-sim, the bench harness —
   is written against the packed first-class form [t], so the execution
   backend is a runtime choice while the MPI substrates stay orthogonal.

   Preparation is split in two since the artifact layer landed:

   - [compile] does all per-PROGRAM work (slot resolution, closure
     compilation) and returns a rank-independent [shared] program;
   - [shared.instantiate] does the cheap per-RANK work only — binding the
     extern handler (the MPI_* ABI of this rank's context) to the shared
     program.

   N ranks therefore share one compilation instead of each redoing it,
   and [Service.Artifact] caches the [shared] form across runs.  The
   historical one-shot [prepare] remains as compile-then-instantiate. *)

(* External-call handler, shared by every executor: the [Runtime_link]
   binding implements the MPI_* ABI against either substrate through this
   type. *)
type externs = Engine.externs

module type EXECUTOR = sig
  val name : string

  (* A compiled program, independent of any rank: safe to share across
     domains (no mutable state reachable from concurrent runs). *)
  type shared_prog

  (* A prepared per-rank instance: shared program + bound externs, plus
     any per-rank execution resources ([threads > 1] asks a backend for
     an intra-rank worker pool; backends without one ignore it). *)
  type prog

  val compile : Ir.Op.t -> shared_prog
  val instantiate : ?externs:externs -> ?threads:int -> shared_prog -> prog

  (* Tear down per-rank resources (joins worker domains).  Must be called
     when the instance is done — OCaml caps live domains, so a leaked
     pool is a hard failure a few instantiations later, not a slow drip.
     Idempotent; a no-op for pool-less backends. *)
  val release : prog -> unit
  val run : prog -> string -> Rtval.t list -> Rtval.t list
end

(* A live per-rank instance of a packed program: the run function plus
   the release hook that frees its execution resources. *)
type instance = {
  runf : string -> Rtval.t list -> Rtval.t list;
  release : unit -> unit;
}

(* A packed rank-independent compiled program: [instantiate] binds one
   rank's extern handler (and optional worker-pool width) and returns
   that rank's live instance. *)
type shared = {
  shared_exec : string;  (** executor name, e.g. "compiled" *)
  instantiate : ?externs:externs -> ?threads:int -> unit -> instance;
}

(* Packed executor for runtime selection (e.g. stencilc --exec).
   [compile] does all per-module work once; [prepare] is the historical
   compile-then-instantiate shorthand. *)
type t = {
  exec_name : string;
  prepare : ?externs:externs -> Ir.Op.t -> string -> Rtval.t list -> Rtval.t list;
  compile : Ir.Op.t -> shared;
}

let pack (module E : EXECUTOR) : t =
  {
    exec_name = E.name;
    prepare =
      (* The one-shot path never asks for threads, so no pool exists and
         nothing needs releasing. *)
      (fun ?externs m ->
        let prog = E.instantiate ?externs (E.compile m) in
        E.run prog);
    compile =
      (fun m ->
        let sp = E.compile m in
        {
          shared_exec = E.name;
          instantiate =
            (fun ?externs ?threads () ->
              let prog = E.instantiate ?externs ?threads sp in
              { runf = E.run prog; release = (fun () -> E.release prog) });
        });
  }

(* The reference interpreter as an executor.  Compilation is the identity
   — the tree walker needs no ahead-of-time work — so instantiation does
   what [Engine.create] always did, per rank.  [threads] is ignored: the
   interpreter is the sequential bitwise oracle, by design. *)
module Interpreter : EXECUTOR = struct
  let name = "interp"

  type shared_prog = Ir.Op.t
  type prog = Engine.t

  let compile m = m
  let instantiate ?externs ?threads:_ m = Engine.create ?externs m
  let release _ = ()
  let run = Engine.run
end

let interpreter = pack (module Interpreter)

(* ---------- the executor registry ---------- *)

(* Backends register themselves at module-initialization time under
   their one name; the interpreter is built in. *)

let registry : (string * t) list ref = ref [ ("interp", interpreter) ]

let register (e : t) : unit =
  if not (List.mem_assoc e.exec_name !registry) then
    registry := !registry @ [ (e.exec_name, e) ]

let names () = List.map fst !registry
let of_name_opt name = List.assoc_opt name !registry

(* Unknown names fail with the available names spelled out, so a typo'd
   --exec tells the user what would have worked. *)
let of_name name =
  match of_name_opt name with
  | Some e -> e
  | None ->
      failwith
        (Printf.sprintf "unknown executor %S (available: %s)" name
           (String.concat ", " (List.sort String.compare (names ()))))
