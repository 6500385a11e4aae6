(* Decomposition strategies (paper §4.2).

   A strategy exposes the interface the distribution rewrite needs: the rank
   layout (the dmp.grid attribute), the rank-local domain computed from the
   global domain, and the halo exchange declarations (dmp.exchange
   attributes) generated from the stencil access patterns.  The standard
   slicing strategies support 1D, 2D and 3D grids; adopters can supply their
   own layout via [Custom]. *)

open Ir

type strategy =
  | Slice1d
  | Slice2d
  | Slice3d
  | Custom of string * (int -> int -> int list)
      (** name, and [fun ranks rank -> grid dims]. *)

let strategy_name = function
  | Slice1d -> "1d-slice"
  | Slice2d -> "2d-slice"
  | Slice3d -> "3d-slice"
  | Custom (name, _) -> name

(* Balanced factorization of [n] into [k] factors, largest first. *)
let balanced_factors n k =
  let rec factor n k =
    if k = 1 then [ n ]
    else begin
      (* Choose the divisor of n closest to n^(1/k) from above. *)
      let target = int_of_float (Float.round (Float.pow (float n) (1. /. float k))) in
      let rec search d =
        if d > n then n
        else if d >= target && n mod d = 0 then d
        else search (d + 1)
      in
      let d = search (max target 1) in
      d :: factor (n / d) (k - 1)
    end
  in
  List.sort (fun a b -> compare b a) (factor n k)

(* The cartesian rank layout for [ranks] total ranks over a [rank]-D domain.
   Dimensions beyond the strategy's slicing depth get extent 1. *)
let rec grid_of strategy ~ranks ~rank =
  match strategy with
  | Custom (_, f) -> f ranks rank
  | Slice1d -> List.init rank (fun i -> if i = 0 then ranks else 1)
  | Slice2d ->
      if rank < 2 then [ ranks ]
      else begin
        match balanced_factors ranks 2 with
        | [ a; b ] -> a :: b :: List.init (rank - 2) (fun _ -> 1)
        | _ -> assert false
      end
  | Slice3d ->
      if rank < 3 then grid_of Slice2d ~ranks ~rank
      else begin
        match balanced_factors ranks 3 with
        | [ a; b; c ] -> a :: b :: c :: List.init (rank - 3) (fun _ -> 1)
        | _ -> assert false
      end

(* Split a global interior extent over [parts] ranks.  The paper's prototype
   decomposes equally; we require divisibility and report a clear error
   otherwise (recompilation per problem size is already assumed by the
   compile-time-bounds design). *)
let split_extent ~global ~parts =
  if global mod parts <> 0 then
    Op.ill_formed
      "decomposition: extent %d not divisible by %d ranks along a dimension"
      global parts
  else global / parts

(* Rank-local bounds from the global *interior* extents: interior
   [0, n/p) per dimension, extended by the halo (which doubles as the
   boundary ghost region on edge ranks).  [halo] gives (neg, pos) extents
   per dimension, with neg <= 0 <= pos. *)
let local_bounds ~(interior : int list) ~(grid : int list)
    ~(halo : (int * int) array) : Typesys.bound list =
  List.mapi
    (fun d n ->
      let parts = List.nth grid d in
      let local = split_extent ~global: n ~parts in
      let neg, pos = if d < Array.length halo then halo.(d) else (0, 0) in
      Typesys.{ lo = neg; hi = local + pos })
    interior

(* Local interior extents per dimension. *)
let local_interior ~(interior : int list) ~(grid : int list) : int list =
  List.mapi
    (fun d n -> split_extent ~global: n ~parts: (List.nth grid d))
    interior

(* Which neighbor set to exchange with.  [Faces] is the paper's prototype
   (a limitation it notes versus Devito's diagonal scheme); [Diagonals]
   implements the extension the paper leaves as future work — corner and
   edge exchanges in the cartesian topology, required for stencils whose
   accesses mix dimensions. *)
type exchange_mode = Faces | Diagonals

let mode_name = function Faces -> "faces" | Diagonals -> "diagonals"

let mode_of_name = function
  | "faces" -> Some Faces
  | "diagonals" -> Some Diagonals
  | _ -> None

(* The exchange with the neighbor in direction [v] (components in
   {-1,0,+1}): per dimension, a -1/+1 component selects the low/high halo
   slab while 0 spans the interior.  Returns None if any involved
   dimension is undecomposed or has no halo there. *)
let exchange_for_direction ~(interior : int list)
    ~(halo : (int * int) array) ~(grid : int list) (v : int list) :
    Typesys.exchange option =
  let per_dim =
    List.mapi
      (fun d vd ->
        let n_d = List.nth interior d in
        let neg, pos = if d < Array.length halo then halo.(d) else (0, 0) in
        let parts = List.nth grid d in
        match vd with
        | 0 -> Some (0, n_d, 0)
        | -1 ->
            if parts > 1 && neg < 0 then Some (neg, -neg, -neg) else None
        | 1 ->
            if parts > 1 && pos > 0 then Some (n_d, pos, -pos) else None
        | _ -> None)
      v
  in
  if List.exists (( = ) None) per_dim then None
  else begin
    let per_dim = List.map Option.get per_dim in
    Some
      Typesys.
        {
          ex_offset = List.map (fun (o, _, _) -> o) per_dim;
          ex_size = List.map (fun (_, s, _) -> s) per_dim;
          ex_source_offset = List.map (fun (_, _, so) -> so) per_dim;
          ex_neighbor = v;
        }
  end

(* All direction vectors in {-1,0,1}^rank minus the origin: the faces
   first (dimension order, low side then high side), then — with
   [Diagonals] — the edge/corner directions. *)
let directions ~rank ~(mode : exchange_mode) : int list list =
  let face d v = List.init rank (fun i -> if i = d then v else 0) in
  let faces =
    List.concat (List.init rank (fun d -> [ face d (-1); face d 1 ]))
  in
  match mode with
  | Faces -> faces
  | Diagonals ->
      let rec enum d =
        if d = 0 then [ [] ]
        else
          List.concat_map
            (fun rest -> [ -1 :: rest; 0 :: rest; 1 :: rest ])
            (enum (d - 1))
      in
      let diag =
        List.filter
          (fun v -> List.length (List.filter (( <> ) 0) v) >= 2)
          (enum rank)
      in
      faces @ diag

(* Exchange declarations for a local domain.

   Every exchange pairs a receive with a send to the same neighbor, and all
   ranks execute the same program — so each dimension's halo is symmetrized
   first ([(-1,0)] becomes [(-1,1)]): otherwise a rank with only a low-side
   halo would wait on a neighbor that never posts the matching send (the
   neighbor's high-side exchange would not exist).  Asymmetric stencils
   thus over-communicate slightly, in the spirit of the prototype's
   swap-then-eliminate design. *)
let exchanges ?(mode = Faces) ~(interior : int list)
    ~(halo : (int * int) array) ~(grid : int list) () :
    Typesys.exchange list =
  let rank = List.length interior in
  let halo =
    Array.map (fun (neg, pos) -> (min neg (-pos), max pos (-neg))) halo
  in
  List.filter_map
    (exchange_for_direction ~interior ~halo ~grid)
    (directions ~rank ~mode)

(* Total number of points communicated by a list of exchanges. *)
let exchange_volume (exs : Typesys.exchange list) =
  List.fold_left
    (fun acc (e : Typesys.exchange) ->
      acc + List.fold_left ( * ) 1 e.ex_size)
    0 exs
