(* The on-disk artifact store: one file per digest holding everything a
   restarted daemon needs to skip the pass pipeline — the canonical source
   rendering (for integrity re-hashing), the fully lowered module text,
   and the metadata that keyed the compilation.  The content-hash digest
   is validated by the caller (Artifact), which owns its recipe.

   File format (length-framed, so module text needs no quoting):

     stencilc-artifact v3
     digest <hex>
     executor <name>
     target <fingerprint>
     compile_s <float>
     lowered_digest <hex of the lowered-module text>
     canonical <nbytes>
     <nbytes of canonical IR>
     lowered <nbytes>
     <nbytes of lowered-module text>

   The store itself checks the lowered text against [lowered_digest], so
   an edited or truncated lowered module is never served.

   Writes are atomic (temp file + rename), so a crashed or concurrent
   writer can never leave a half-written artifact behind; unreadable or
   malformed files (including files of the older v2 format) load as
   [None] and the caller falls back to a full compile. *)

type persisted = {
  p_digest : string;
  p_executor : string;
  p_target : string;  (* Core.Pipeline.target_fingerprint rendering *)
  p_compile_s : float;  (* the original cold-compile seconds *)
  p_canonical : string;
  p_lowered : string;
}

let magic = "stencilc-artifact v3"
let text_digest s = Digest.to_hex (Digest.string s)

type t = { dir : string; max_bytes : int option }

let dir t = t.dir

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?max_bytes dir =
  (match max_bytes with
  | Some b when b <= 0 ->
      invalid_arg "Store.create: max_bytes must be positive"
  | _ -> ());
  mkdir_p dir;
  { dir; max_bytes }

let suffix = ".art"
let path t digest = Filename.concat t.dir (digest ^ suffix)

(* Digests are hex Digest.t strings; refuse anything else so a hostile
   request can never be turned into a path escape. *)
let valid_digest d =
  String.length d = 32
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       d

let list t : string list =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | files ->
      Array.to_list files
      |> List.filter_map (fun f ->
             if Filename.check_suffix f suffix then
               let d = Filename.chop_suffix f suffix in
               if valid_digest d then Some d else None
             else None)
      |> List.sort String.compare

let remove t ~digest =
  if valid_digest digest then
    try Sys.remove (path t digest) with Sys_error _ -> ()

(* Size-cap enforcement: after every save, evict oldest-first (mtime)
   until the store's .art files fit under [max_bytes] again.  The digest
   just written is exempt — a cap smaller than one artifact must not
   evict the artifact it was asked to keep.  Evictions are loud (one
   stderr line each): a daemon silently shedding its warm cache is a
   perf mystery; one that says so is a config knob. *)
let enforce_cap t ~(keep : string) =
  match t.max_bytes with
  | None -> ()
  | Some cap ->
      let entries =
        List.filter_map
          (fun d ->
            match Unix.stat (path t d) with
            | st -> Some (d, st.Unix.st_size, st.Unix.st_mtime)
            | exception Unix.Unix_error _ -> None)
          (list t)
      in
      let total =
        List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 entries
      in
      if total > cap then begin
        let oldest_first =
          List.sort (fun (_, _, a) (_, _, b) -> Float.compare a b) entries
        in
        ignore
          (List.fold_left
             (fun excess (d, sz, _) ->
               if excess <= 0 || d = keep then excess
               else begin
                 remove t ~digest: d;
                 Printf.eprintf
                   "stencilc: store: evicted artifact %s (%d bytes, oldest) \
                    to fit size cap %d bytes\n\
                    %!"
                   d sz cap;
                 excess - sz
               end)
             (total - cap) oldest_first)
      end

let save t (p : persisted) =
  if not (valid_digest p.p_digest) then
    invalid_arg ("Store.save: not a digest: " ^ p.p_digest);
  let final = path t p.p_digest in
  let tmp =
    Filename.concat t.dir
      (Printf.sprintf ".%s.%d.tmp" p.p_digest (Unix.getpid ()))
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally: (fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "%s\n" magic;
      Printf.fprintf oc "digest %s\n" p.p_digest;
      Printf.fprintf oc "executor %s\n" p.p_executor;
      Printf.fprintf oc "target %s\n" p.p_target;
      Printf.fprintf oc "compile_s %.9e\n" p.p_compile_s;
      Printf.fprintf oc "lowered_digest %s\n" (text_digest p.p_lowered);
      Printf.fprintf oc "canonical %d\n" (String.length p.p_canonical);
      output_string oc p.p_canonical;
      Printf.fprintf oc "lowered %d\n" (String.length p.p_lowered);
      output_string oc p.p_lowered);
  Sys.rename tmp final;
  enforce_cap t ~keep: p.p_digest

(* One "<keyword> <value>" header line; [None] on any mismatch. *)
let header_value ic keyword =
  match In_channel.input_line ic with
  | None -> None
  | Some line ->
      let prefix = keyword ^ " " in
      let np = String.length prefix in
      if String.length line > np && String.sub line 0 np = prefix then
        Some (String.sub line np (String.length line - np))
      else None

let load t ~digest : persisted option =
  if not (valid_digest digest) then None
  else
    let file = path t digest in
    if not (Sys.file_exists file) then None
    else
      let parse ic =
        let ( let* ) = Option.bind in
        let* first = In_channel.input_line ic in
        if first <> magic then None
        else
          let* p_digest = header_value ic "digest" in
          let* p_executor = header_value ic "executor" in
          let* p_target = header_value ic "target" in
          let* compile_s = header_value ic "compile_s" in
          let* p_compile_s = float_of_string_opt compile_s in
          let* lowered_digest = header_value ic "lowered_digest" in
          let segment keyword =
            let* n = header_value ic keyword in
            let* n = int_of_string_opt n in
            if n < 0 then None
            else
              match really_input_string ic n with
              | s -> Some s
              | exception End_of_file -> None
          in
          let* p_canonical = segment "canonical" in
          let* p_lowered = segment "lowered" in
          if p_digest <> digest || text_digest p_lowered <> lowered_digest
          then None
          else
            Some
              {
                p_digest;
                p_executor;
                p_target;
                p_compile_s;
                p_canonical;
                p_lowered;
              }
      in
      (try In_channel.with_open_bin file parse with Sys_error _ -> None)

