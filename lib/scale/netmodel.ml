(* The replay engine's cost model and its calibration.  The alpha-beta
   fit itself is [Analysis.fit_alpha_beta]; this module installs its
   coefficients and refines the host rates from traced phase totals. *)

type t = {
  alpha_s : float;
  beta_s_per_byte : float;
  compute_s_per_cell : float;
  pack_s_per_byte : float;
  unpack_s_per_byte : float;
  nm_source : string;
}

(* Frozen forever: the reference curves in BENCH_scaling.json are pinned
   exactly by the test suite, so these constants must never track any
   particular host.  Every default and fallback model starts here. *)
let reference =
  {
    alpha_s = 1e-6;
    beta_s_per_byte = 5e-10;  (* 2 GB/s *)
    compute_s_per_cell = 5e-9;
    pack_s_per_byte = 5e-10;
    unpack_s_per_byte = 5e-10;
    nm_source = "reference";
  }

(* HPE Slingshot, the interconnect of the paper's ARCHER2 runs: 1.7 us
   latency plus 0.4 us per-message host cost, 25 GB/s per NIC.  Pack and
   unpack keep the frozen [reference] rates so the figures priced under
   this model do not depend on the host that prints them; callers set
   [compute_s_per_cell] per point from the CPU model. *)
let slingshot =
  {
    reference with
    alpha_s = 2.1e-6;
    beta_s_per_byte = 4e-11;
    nm_source = "slingshot";
  }

let msg_cost m ~bytes = m.alpha_s +. (m.beta_s_per_byte *. float_of_int bytes)

let describe m =
  Printf.sprintf
    "%s: alpha=%.3e s, beta=%.3e s/B, compute=%.3e s/cell, pack=%.3e s/B, \
     unpack=%.3e s/B"
    m.nm_source m.alpha_s m.beta_s_per_byte m.compute_s_per_cell
    m.pack_s_per_byte m.unpack_s_per_byte

let of_spec spec =
  let parse_field m kv =
    match String.index_opt kv '=' with
    | None -> failwith ("netmodel spec: expected key=value, got " ^ kv)
    | Some i ->
        let k = String.trim (String.sub kv 0 i) in
        let vs = String.trim (String.sub kv (i + 1) (String.length kv - i - 1)) in
        let v =
          match float_of_string_opt vs with
          | Some f when f >= 0. && Float.is_finite f -> f
          | _ -> failwith ("netmodel spec: bad value for " ^ k ^ ": " ^ vs)
        in
        (match k with
        | "alpha" -> { m with alpha_s = v }
        | "beta" -> { m with beta_s_per_byte = v }
        | "compute" -> { m with compute_s_per_cell = v }
        | "pack" -> { m with pack_s_per_byte = v }
        | "unpack" -> { m with unpack_s_per_byte = v }
        | _ -> failwith ("netmodel spec: unknown key " ^ k))
  in
  let fields =
    List.filter
      (fun s -> String.trim s <> "")
      (String.split_on_char ',' spec)
  in
  { (List.fold_left parse_field reference fields) with nm_source = "spec" }

(* --- calibration --- *)

let of_fit ?(base = reference) (f : Analysis.fit) =
  {
    base with
    alpha_s = f.Analysis.f_alpha_s;
    beta_s_per_byte = f.Analysis.f_beta_s_per_byte;
    nm_source = "calibrated";
  }

let calibrate ~compute_cells ~compute_s ~pack_bytes ~pack_s ~unpack_bytes
    ~unpack_s (m : t) =
  let rate work time fallback =
    if work > 0. && time > 0. then time /. work else fallback
  in
  {
    m with
    compute_s_per_cell = rate compute_cells compute_s m.compute_s_per_cell;
    pack_s_per_byte = rate pack_bytes pack_s m.pack_s_per_byte;
    unpack_s_per_byte = rate unpack_bytes unpack_s m.unpack_s_per_byte;
    nm_source = "calibrated";
  }
