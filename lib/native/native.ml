(* Native kernel engine: cc -> .so -> dlopen/dlsym, with a two-tier cache.
 *
 * Tier 1 is an in-process table from cache key to the already-resolved
 * [kernel] record — a hit costs one Hashtbl lookup and returns the same
 * physical record (the handle-identity tests rely on this). Tier 2 is an
 * on-disk directory of shared objects named by the key, so a fresh
 * process (or [clear_memory_cache]) pays only dlopen + dlsym, never the
 * compiler. The key folds the source text, entry name, cflags, and
 * compiler identity (and an optional caller salt), so any input that
 * could change the machine code changes the file name — and a factor
 * kernel, whose text is one per shape, is shared by every pattern of
 * that shape.
 *
 * Shared objects are never dlclosed: a [kernel] stays callable for the
 * life of the process even after [clear_memory_cache], and leaking a
 * handful of mapped .so files is cheaper than proving no plan still
 * holds a function pointer into one. *)

module Prof = Sympiler_prof.Prof
module Trace = Sympiler_trace.Trace
module Metrics = Sympiler_metrics.Metrics

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type ints = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type origin = Compiled | Disk_cache | Memory_cache

type kernel = {
  fn : nativeint;
  so_path : string;
  origin : origin;
  compile_seconds : float;
}

type stats = {
  compiles : int;
  disk_hits : int;
  memory_hits : int;
  fallbacks : int;
}

external dlopen_so : string -> nativeint = "sympiler_native_dlopen"
external dlsym_fn : nativeint -> string -> nativeint = "sympiler_native_dlsym"

external call_fn : nativeint -> buf -> buf -> buf -> buf -> int
  = "sympiler_native_call"
[@@noalloc]

external run_fn :
  nativeint -> int -> float array -> float array array -> ints array -> int
  = "sympiler_native_run"
[@@noalloc]

let dummy : buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 1
let call k b0 b1 b2 b3 = call_fn k.fn b0 b1 b2 b3

(* The stub collects the pointers on its stack: these are its bounds
   (SYMPILER_MAX_F, SYMPILER_MAX_IX in native_stubs.c). *)
let max_f = 8
let max_ix = 16

let run k n x f ix =
  if Array.length f > max_f || Array.length ix > max_ix then
    invalid_arg "Native.run: too many argument arrays";
  run_fn k.fn n x f ix

(* ---------------------------- Bookkeeping ----------------------------- *)

let lock = Mutex.create ()
let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let n_compiles = ref 0
let n_disk_hits = ref 0
let n_memory_hits = ref 0
let n_fallbacks = ref 0
let fallback_noted = ref false

let stats () =
  with_lock (fun () ->
      {
        compiles = !n_compiles;
        disk_hits = !n_disk_hits;
        memory_hits = !n_memory_hits;
        fallbacks = !n_fallbacks;
      })

(* Serving metrics: where native loads were served from, how long the C
   compiler took, and how often the engine declined. *)
let m_cc_seconds =
  Metrics.histogram "sympiler_native_cc_seconds"
    ~help:"Wall time of one generated-C compile (write, cc, dlopen)"

let m_loads_memory =
  Metrics.counter "sympiler_native_loads" ~labels:[ ("source", "memory") ]
    ~help:"Native kernel loads by serving source"

let m_loads_disk =
  Metrics.counter "sympiler_native_loads" ~labels:[ ("source", "disk") ]
    ~help:"Native kernel loads by serving source"

let m_compiles =
  Metrics.counter "sympiler_native_compiles" ~help:"Generated-C kernels compiled to .so"

let m_fallbacks =
  Metrics.counter "sympiler_native_fallbacks"
    ~help:"Native requests that fell back to the OCaml executor"

(* The fallback counter always bumps (it is how tests observe the engine
   declining), but the human-facing note prints once per process: a run
   on a compiler-less machine should say so, not repeat it per plan. *)
let note_fallback reason =
  incr n_fallbacks;
  Metrics.inc m_fallbacks 1;
  Trace.instant ~attrs:[ ("reason", Trace.Str reason) ] "native.fallback";
  if not !fallback_noted then begin
    fallback_noted := true;
    Printf.eprintf
      "sympiler: native engine unavailable (%s); using OCaml executor\n%!"
      reason
  end

(* --------------------------- Compiler probe --------------------------- *)

(* No unix library in the closure, so there is no access(2) probe: treat
   any existing non-directory as a candidate and let the compile step
   surface permission errors. For PATH search this matches what the shell
   finds in practice. *)
let file_exists_nondir path =
  Sys.file_exists path && not (try Sys.is_directory path with Sys_error _ -> false)

let path_sep = if Sys.win32 then ';' else ':'

let search_path name =
  if String.contains name '/' then
    if file_exists_nondir name then Some name else None
  else
    match Sys.getenv_opt "PATH" with
    | None -> None
    | Some path ->
        String.split_on_char path_sep path
        |> List.find_map (fun dir ->
               if dir = "" then None
               else
                 let candidate = Filename.concat dir name in
                 if file_exists_nondir candidate then Some candidate else None)

(* Re-read the environment on every call: the fallback tests flip
   SYMPILER_CC mid-process and must see the change immediately. *)
let cc () =
  match Sys.getenv_opt "SYMPILER_CC" with
  | Some override when String.trim override <> "" -> search_path override
  | Some _ | None ->
      List.find_map search_path [ "cc"; "gcc"; "clang" ]

let available () = cc () <> None

(* Compiler identity is path + first line of --version, memoized per path
   (the subprocess is too slow for per-load). A compiler upgrade changes
   the line, changes every key, and naturally invalidates the disk cache. *)
let identity_tbl : (string, string) Hashtbl.t = Hashtbl.create 4

let quote = Filename.quote

let first_line_of_file path =
  try
    In_channel.with_open_text path (fun ic ->
        match In_channel.input_line ic with Some l -> l | None -> "")
  with Sys_error _ -> ""

let compiler_identity path =
  with_lock (fun () ->
      match Hashtbl.find_opt identity_tbl path with
      | Some id -> id
      | None ->
          let tmp = Filename.temp_file "sympiler-ccid" ".txt" in
          let cmd =
            Printf.sprintf "%s --version > %s 2>/dev/null" (quote path)
              (quote tmp)
          in
          let version =
            if Sys.command cmd = 0 then first_line_of_file tmp else ""
          in
          (try Sys.remove tmp with Sys_error _ -> ());
          let id = path ^ " | " ^ version in
          Hashtbl.replace identity_tbl path id;
          id)

(* ----------------------------- Disk cache ----------------------------- *)

let mkdir_p dir =
  let rec aux dir =
    if not (Sys.file_exists dir) then begin
      aux (Filename.dirname dir);
      try Sys.mkdir dir 0o755 with Sys_error _ -> ()
    end
  in
  aux dir

let cache_dir () =
  let dir =
    match Sys.getenv_opt "SYMPILER_NATIVE_CACHE" with
    | Some d when d <> "" -> d
    | _ -> (
        match Sys.getenv_opt "XDG_CACHE_HOME" with
        | Some d when d <> "" -> Filename.concat d "sympiler-native"
        | _ -> (
            match Sys.getenv_opt "HOME" with
            | Some h when h <> "" ->
                Filename.concat (Filename.concat h ".cache") "sympiler-native"
            | _ -> Filename.concat (Filename.get_temp_dir_name ()) "sympiler-native"))
  in
  mkdir_p dir;
  dir

(* FNV-1a over strings, folded into the caller's salt. Stable
   across runs (unlike Hashtbl.hash's implementation freedom guarantees
   we don't want to rely on for on-disk names). *)
let fnv1a_fold h s =
  let h = ref (Int64.of_int h) in
  let prime = 0x100000001b3L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  Int64.to_int !h land max_int

let default_cflags =
  [ "-O3"; "-march=native"; "-ffp-contract=off"; "-fPIC"; "-shared" ]

let cache_key ~salt ~entry ~ccid source =
  let h = fnv1a_fold (salt land max_int) source in
  let h = fnv1a_fold h entry in
  let h = List.fold_left fnv1a_fold h default_cflags in
  fnv1a_fold h ccid

(* ------------------------------- Loading ------------------------------ *)

let memory_cache : (string, kernel) Hashtbl.t = Hashtbl.create 16
let clear_memory_cache () = with_lock (fun () -> Hashtbl.reset memory_cache)

let reset_stats () =
  with_lock (fun () ->
      n_compiles := 0;
      n_disk_hits := 0;
      n_memory_hits := 0;
      n_fallbacks := 0)

let resolve so_path entry =
  let handle = dlopen_so so_path in
  dlsym_fn handle entry

let remove_quiet path = try Sys.remove path with Sys_error _ -> ()

let run_compile ~cc_path ~src_path ~out_path =
  let log_path = out_path ^ ".log" in
  let cmd flags =
    Printf.sprintf "%s %s -o %s %s > %s 2>&1" (quote cc_path)
      (String.concat " " (List.map quote flags))
      (quote out_path) (quote src_path) (quote log_path)
  in
  let rc = Sys.command (cmd default_cflags) in
  let rc =
    (* -march=native can fail on exotic hosts/emulators; retry portable. *)
    if rc <> 0 then
      Sys.command
        (cmd (List.filter (fun f -> f <> "-march=native") default_cflags))
    else rc
  in
  let first = if rc = 0 then "" else first_line_of_file log_path in
  remove_quiet log_path;
  if rc = 0 then Ok () else Error (Printf.sprintf "cc exited %d (%s)" rc first)

let compile_and_load ~cc_path ~entry ~hexkey source =
  let dir = cache_dir () in
  let so_path = Filename.concat dir (hexkey ^ ".so") in
  if Sys.file_exists so_path then begin
    let t0 = Prof.now_seconds () in
    let fn = resolve so_path entry in
    let dt = Prof.now_seconds () -. t0 in
    incr n_disk_hits;
    Metrics.inc m_loads_disk 1;
    Ok { fn; so_path; origin = Disk_cache; compile_seconds = dt }
  end
  else begin
    (* Source and object go to temp names unique to this compile, and the
       object is renamed into place: processes compiling the same key at
       once never truncate each other's source or dlopen a half-written
       object. rename is atomic within the directory. *)
    let tmp prefix suffix =
      Filename.temp_file ~temp_dir:dir ("." ^ hexkey ^ prefix) suffix
    in
    let src_path = tmp "." ".c" in
    let tmp_out = tmp ".tmp." ".so" in
    let t0 = Prof.now_seconds () in
    Fun.protect
      ~finally:(fun () ->
        remove_quiet src_path;
        remove_quiet tmp_out)
      (fun () ->
        Out_channel.with_open_text src_path (fun oc ->
            Out_channel.output_string oc source);
        match run_compile ~cc_path ~src_path ~out_path:tmp_out with
        | Error _ as e -> e
        | Ok () ->
            Sys.rename tmp_out so_path;
            let fn = resolve so_path entry in
            let dt = Prof.now_seconds () -. t0 in
            incr n_compiles;
            Metrics.inc m_compiles 1;
            Metrics.observe m_cc_seconds dt;
            Ok { fn; so_path; origin = Compiled; compile_seconds = dt })
  end

let load ?(key = 0) ~entry source =
  match cc () with
  | None ->
      with_lock (fun () -> note_fallback "no C compiler found");
      None
  | Some cc_path ->
      let ccid = compiler_identity cc_path in
      let hexkey =
        Printf.sprintf "%016x"
          (cache_key ~salt:key ~entry ~ccid source)
      in
      with_lock (fun () ->
          match Hashtbl.find_opt memory_cache hexkey with
          | Some k ->
              incr n_memory_hits;
              Metrics.inc m_loads_memory 1;
              Some k
          | None -> (
              match
                try compile_and_load ~cc_path ~entry ~hexkey source
                with Failure msg | Sys_error msg -> Error msg
              with
              | Ok k ->
                  Hashtbl.replace memory_cache hexkey k;
                  Some k
              | Error msg ->
                  note_fallback msg;
                  None))
