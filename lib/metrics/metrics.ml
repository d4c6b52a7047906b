(* Serving-grade metrics registry: the library's one store of counters,
   gauges and latency histograms. See metrics.mli for the layer contract
   and DESIGN.md "Instrumentation" for the spine (Prof = switch + clock,
   Metrics = every count, Trace = every span).

   Concurrency design: every hot-path instrument is an array of
   [int Atomic.t] cells indexed by [Domain.self () land shard_mask], so
   concurrent domains land on distinct cells in the common case (the pool
   spawns domains with consecutive ids) and on a correct-but-contended
   fetch-and-add in the worst case. Reads sum the cells; there is no
   read-side synchronization beyond the atomics themselves, so a snapshot
   taken while writers run is a consistent-per-cell, slightly-stale view —
   exactly what a scrape wants. Cells are interleaved with dead padding
   blocks at allocation time so neighbouring atomics start on different
   cache lines (best effort: the GC may compact them later, but cells are
   allocated once at registration and live in the major heap together).

   Histograms are log-linear (HDR-style) over integer nanoseconds: values
   below 16 ns get exact single-value buckets, then every power of two is
   split into 16 sub-buckets, giving <= 6.25% relative bucket width over
   the whole range and saturating near 4.9 hours. Count and sum are exact
   (integer fetch-and-add); max is exact (CAS loop); percentiles are exact
   to one bucket. *)

module Prof = Sympiler_prof.Prof
module Json = Prof.Json

let enabled = Prof.enabled
let enable = Prof.enable
let disable = Prof.disable

(* ------------------------------ Sharding ------------------------------ *)

let n_shards = 8
let shard_mask = n_shards - 1
let shard_index () = (Domain.self () :> int) land shard_mask

(* Allocate [k] atomics separated by dead blocks so consecutive cells do
   not share a 64-byte cache line (an Atomic.t is a 2-word block; the
   56-byte spacer pushes the next one past the line). *)
let padded_atomics k =
  Array.init k (fun _ ->
      let a = Atomic.make 0 in
      ignore (Sys.opaque_identity (Bytes.make 56 '\000'));
      a)

let sum_cells (cells : int Atomic.t array) =
  let s = ref 0 in
  for i = 0 to Array.length cells - 1 do
    s := !s + Atomic.get cells.(i)
  done;
  !s

let zero_cells (cells : int Atomic.t array) =
  for i = 0 to Array.length cells - 1 do
    Atomic.set cells.(i) 0
  done

(* -------------------------- Histogram geometry ------------------------- *)

(* Buckets: index v for v in [0, 16); for larger v with top bit at
   position e (so 2^e <= v < 2^(e+1), e >= 4), index
   (e - 3) * 16 + ((v lsr (e - 4)) land 15) — the four bits under the
   leading one select the sub-bucket. Exponents up to 43 are covered;
   larger values saturate into the last bucket. *)

let n_buckets = 656 (* (43 - 3) * 16 + 16 *)

let rec log2_floor v acc = if v <= 1 then acc else log2_floor (v lsr 1) (acc + 1)

let bucket_of_ns v =
  if v < 16 then if v < 0 then 0 else v
  else begin
    let e = log2_floor v 0 in
    let b = ((e - 3) lsl 4) + ((v lsr (e - 4)) land 15) in
    if b >= n_buckets then n_buckets - 1 else b
  end

let bucket_upper_ns b =
  if b < 16 then (if b < 0 then 0 else b)
  else
    let b = if b >= n_buckets then n_buckets - 1 else b in
    let e = (b lsr 4) + 3 and m = b land 15 in
    ((16 + m + 1) lsl (e - 4)) - 1

(* ------------------------------- Metrics ------------------------------- *)

type meta = {
  m_name : string;
  m_help : string;
  m_labels : (string * string) list; (* sorted by label name *)
}

type counter = { c_meta : meta; c_cells : int Atomic.t array }
type gauge = { g_meta : meta; g_value : float Atomic.t }

(* One histogram shard: fine buckets plus exact sum (integer ns) and max.
   The bucket arrays are not padded — two domains contend on a line only
   when observing near-identical latencies simultaneously, and correctness
   never depends on it. *)
type hshard = {
  hs_buckets : int Atomic.t array;
  hs_sum_ns : int Atomic.t;
  hs_max_ns : int Atomic.t;
}

type histogram = { h_meta : meta; h_shards : hshard array }

type metric =
  | MCounter of counter
  | MGauge of gauge
  | MHistogram of histogram

let meta_of = function
  | MCounter c -> c.c_meta
  | MGauge g -> g.g_meta
  | MHistogram h -> h.h_meta

(* ------------------------------ Registry ------------------------------ *)

let registry : (string, metric) Hashtbl.t = Hashtbl.create 32
let registry_lock = Mutex.create ()

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let valid_name_char first c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || c = '_' || c = ':'
  || ((not first) && c >= '0' && c <= '9')

let valid_metric_name s =
  String.length s > 0
  && valid_name_char true s.[0]
  &&
  let ok = ref true in
  String.iteri (fun i c -> if i > 0 && not (valid_name_char false c) then ok := false) s;
  !ok

let valid_label_name s =
  String.length s > 0
  && (not (String.contains s ':'))
  && valid_name_char true s.[0]
  &&
  let ok = ref true in
  String.iteri
    (fun i c -> if i > 0 && not (valid_name_char false c || (c >= '0' && c <= '9')) then ok := false)
    s;
  !ok

let normalize_labels name labels =
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg (Printf.sprintf "Metrics.%s: invalid label name %S" name k))
    labels;
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as rest) -> if a = b then Some a else dup rest
    | _ -> None
  in
  (match dup sorted with
  | Some k ->
      invalid_arg (Printf.sprintf "Metrics.%s: duplicate label %S" name k)
  | None -> ());
  sorted

let identity name labels =
  let buf = Buffer.create 64 in
  Buffer.add_string buf name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf '\x00';
      Buffer.add_string buf k;
      Buffer.add_char buf '\x01';
      Buffer.add_string buf v)
    labels;
  Buffer.contents buf

let register ~kind_name ~make ~cast name help labels =
  if not (valid_metric_name name) then
    invalid_arg (Printf.sprintf "Metrics.%s: invalid metric name %S" kind_name name);
  let labels = normalize_labels name labels in
  let key = identity name labels in
  with_registry (fun () ->
      match Hashtbl.find_opt registry key with
      | Some m -> cast m
      | None ->
          let meta = { m_name = name; m_help = help; m_labels = labels } in
          let m = make meta in
          Hashtbl.add registry key m;
          cast m)

let counter ?(help = "") ?(labels = []) name =
  register ~kind_name:"counter"
    ~make:(fun meta -> MCounter { c_meta = meta; c_cells = padded_atomics n_shards })
    ~cast:(function
      | MCounter c -> c
      | m ->
          invalid_arg
            (Printf.sprintf "Metrics.counter: %S already registered as a %s"
               name
               (match m with MGauge _ -> "gauge" | _ -> "histogram")))
    name help labels

let gauge ?(help = "") ?(labels = []) name =
  register ~kind_name:"gauge"
    ~make:(fun meta -> MGauge { g_meta = meta; g_value = Atomic.make 0.0 })
    ~cast:(function
      | MGauge g -> g
      | m ->
          invalid_arg
            (Printf.sprintf "Metrics.gauge: %S already registered as a %s" name
               (match m with MCounter _ -> "counter" | _ -> "histogram")))
    name help labels

let make_hshard () =
  {
    hs_buckets = padded_atomics n_buckets;
    hs_sum_ns = Atomic.make 0;
    hs_max_ns = Atomic.make 0;
  }

let histogram ?(help = "") ?(labels = []) name =
  register ~kind_name:"histogram"
    ~make:(fun meta ->
      MHistogram { h_meta = meta; h_shards = Array.init n_shards (fun _ -> make_hshard ()) })
    ~cast:(function
      | MHistogram h -> h
      | m ->
          invalid_arg
            (Printf.sprintf "Metrics.histogram: %S already registered as a %s"
               name
               (match m with MCounter _ -> "counter" | _ -> "gauge")))
    name help labels

(* ----------------------------- Work series ---------------------------- *)

(* The library's work counts, registered once here so every layer
   (orderings, symbolic analysis, kernels, the facade) bumps one handle. *)
let flops =
  counter "sympiler_flops" ~help:"Useful floating-point operations executed by kernels"

let nnz_touched =
  counter "sympiler_nnz_touched" ~help:"Matrix nonzeros read or written by kernels"

let iters_pruned =
  counter "sympiler_iters_pruned" ~help:"Loop iterations removed by VI-Prune"

let supernodes =
  counter "sympiler_supernodes" ~help:"Supernodes produced by VS-Block detection"

let supernode_cols =
  counter "sympiler_supernode_cols" ~help:"Columns covered by detected supernodes"

let levels = counter "sympiler_levels" ~help:"Level sets built by level-set schedules"

let max_level_width =
  gauge "sympiler_max_level_width"
    ~help:"Widest level set of the last level schedule built"

let orderings = counter "sympiler_orderings" ~help:"Fill-reducing orderings computed"

let updown_path_hits =
  counter "sympiler_updown_path_hits"
    ~help:"Rank-update etree paths served from the memoized table"

let updown_path_misses =
  counter "sympiler_updown_path_misses"
    ~help:"Rank-update etree paths computed (first use of a jmin)"

let updown_escalations =
  counter "sympiler_updown_escalations"
    ~help:"Rank updates that outgrew the factor pattern and recompiled"

(* ----------------------------- Hot paths ------------------------------ *)

let inc c n =
  if Prof.enabled () then
    ignore (Atomic.fetch_and_add c.c_cells.(shard_index ()) n)

let set g v = if Prof.enabled () then Atomic.set g.g_value v

let rec store_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then store_max a v

let observe_ns h v =
  if Prof.enabled () && v >= 0 then begin
    let s = h.h_shards.(shard_index ()) in
    ignore (Atomic.fetch_and_add s.hs_buckets.(bucket_of_ns v) 1);
    ignore (Atomic.fetch_and_add s.hs_sum_ns v);
    store_max s.hs_max_ns v
  end

let observe h seconds =
  if Prof.enabled () && seconds >= 0.0 && seconds < 1e18 then
    observe_ns h (int_of_float ((seconds *. 1e9) +. 0.5))

(* ------------------------------- Reading ------------------------------- *)

let counter_value c = sum_cells c.c_cells
let gauge_value g = Atomic.get g.g_value

(* Aggregate a histogram's shards into one fine bucket array (+ sum/max). *)
let h_aggregate h =
  let buckets = Array.make n_buckets 0 in
  let sum_ns = ref 0 and max_ns = ref 0 in
  Array.iter
    (fun s ->
      for b = 0 to n_buckets - 1 do
        buckets.(b) <- buckets.(b) + Atomic.get s.hs_buckets.(b)
      done;
      sum_ns := !sum_ns + Atomic.get s.hs_sum_ns;
      let m = Atomic.get s.hs_max_ns in
      if m > !max_ns then max_ns := m)
    h.h_shards;
  (buckets, !sum_ns, !max_ns)

let percentile_of_buckets buckets count q =
  if count = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int count)) in
      if r < 1 then 1 else if r > count then count else r
    in
    let b = ref 0 and cum = ref 0 in
    (try
       for i = 0 to n_buckets - 1 do
         cum := !cum + buckets.(i);
         if !cum >= rank then begin
           b := i;
           raise Exit
         end
       done
     with Exit -> ());
    float_of_int (bucket_upper_ns !b) /. 1e9
  end

type histogram_snapshot = {
  count : int;
  sum : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

let snapshot h =
  let buckets, sum_ns, max_ns = h_aggregate h in
  let count = Array.fold_left ( + ) 0 buckets in
  {
    count;
    sum = float_of_int sum_ns /. 1e9;
    p50 = percentile_of_buckets buckets count 0.50;
    p90 = percentile_of_buckets buckets count 0.90;
    p99 = percentile_of_buckets buckets count 0.99;
    max = float_of_int max_ns /. 1e9;
  }

let percentile h q =
  let buckets, _, _ = h_aggregate h in
  percentile_of_buckets buckets (Array.fold_left ( + ) 0 buckets) q

let reset () =
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | MCounter c -> zero_cells c.c_cells
          | MGauge g -> Atomic.set g.g_value 0.0
          | MHistogram h ->
              Array.iter
                (fun s ->
                  zero_cells s.hs_buckets;
                  Atomic.set s.hs_sum_ns 0;
                  Atomic.set s.hs_max_ns 0)
                h.h_shards)
        registry)

(* --------------------------- Process gauges ---------------------------- *)

(* VmHWM from /proc/self/status, in kB; None off-Linux. *)
let vm_hwm_kb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some line ->
              if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                String.sub line 6 (String.length line - 6)
                |> String.trim
                |> String.split_on_char ' '
                |> (function kb :: _ -> int_of_string_opt kb | [] -> None)
              else scan ()
        in
        scan ())
  with Sys_error _ -> None

(* Process gauges are part of every snapshot, switch or not: written
   directly, past [set]'s guard. *)
let sample_process () =
  let sample name help v = Atomic.set (gauge name ~help).g_value v in
  let g = Gc.quick_stat () in
  sample "process_gc_minor_words" "Minor heap words allocated" g.Gc.minor_words;
  sample "process_gc_major_words" "Major heap words allocated" g.Gc.major_words;
  sample "process_gc_compactions" "Heap compactions run"
    (float_of_int g.Gc.compactions);
  match vm_hwm_kb () with
  | Some kb ->
      sample "process_vm_hwm_kb" "Peak resident set size (VmHWM)"
        (float_of_int kb)
  | None -> ()

(* ------------------------------ Exporters ------------------------------ *)

let sorted_metrics () =
  let all = with_registry (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry []) in
  List.sort
    (fun a b ->
      let ma = meta_of a and mb = meta_of b in
      match compare ma.m_name mb.m_name with
      | 0 -> compare ma.m_labels mb.m_labels
      | c -> c)
    all

let escape_label_value s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Render a label set (plus an optional extra pair, used for [le]). *)
let render_labels ?extra labels =
  let pairs =
    labels @ (match extra with None -> [] | Some kv -> [ kv ])
  in
  if pairs = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) pairs)
    ^ "}"

let fmt_float f = Printf.sprintf "%.9g" f

(* The coarse exposition ladder (seconds): cumulative counts are computed
   from the fine buckets — an observation counts toward boundary B once
   its whole (<= 6.25%-wide) bucket is below B, so boundary counts are
   conservative by at most one bucket width; [+Inf] is exact. *)
let ladder_seconds =
  [| 1e-7; 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0 |]

let to_openmetrics () =
  sample_process ();
  let buf = Buffer.create 4096 in
  let seen_type : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let emit_meta name kind help =
    if not (Hashtbl.mem seen_type name) then begin
      Hashtbl.add seen_type name ();
      if help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name (escape_help help));
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun m ->
      let meta = meta_of m in
      match m with
      | MCounter c ->
          emit_meta meta.m_name "counter" meta.m_help;
          Buffer.add_string buf
            (Printf.sprintf "%s_total%s %d\n" meta.m_name
               (render_labels meta.m_labels) (counter_value c))
      | MGauge g ->
          emit_meta meta.m_name "gauge" meta.m_help;
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" meta.m_name (render_labels meta.m_labels)
               (fmt_float (gauge_value g)))
      | MHistogram h ->
          emit_meta meta.m_name "histogram" meta.m_help;
          let buckets, sum_ns, _ = h_aggregate h in
          let count = Array.fold_left ( + ) 0 buckets in
          let cum = ref 0 and fine = ref 0 in
          Array.iter
            (fun boundary ->
              let bound_ns = int_of_float (boundary *. 1e9) in
              while
                !fine < n_buckets && bucket_upper_ns !fine <= bound_ns
              do
                cum := !cum + buckets.(!fine);
                incr fine
              done;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" meta.m_name
                   (render_labels meta.m_labels ~extra:("le", fmt_float boundary))
                   !cum))
            ladder_seconds;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" meta.m_name
               (render_labels meta.m_labels ~extra:("le", "+Inf"))
               count);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" meta.m_name
               (render_labels meta.m_labels)
               (fmt_float (float_of_int sum_ns /. 1e9)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" meta.m_name
               (render_labels meta.m_labels) count))
    (sorted_metrics ());
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let labels_json labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let to_json () =
  sample_process ();
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun m ->
      let meta = meta_of m in
      let base = [ ("name", Json.Str meta.m_name); ("labels", labels_json meta.m_labels) ] in
      match m with
      | MCounter c ->
          counters := Json.Obj (base @ [ ("value", Json.Int (counter_value c)) ]) :: !counters
      | MGauge g ->
          gauges := Json.Obj (base @ [ ("value", Json.Float (gauge_value g)) ]) :: !gauges
      | MHistogram h ->
          let s = snapshot h in
          histograms :=
            Json.Obj
              (base
              @ [
                  ("count", Json.Int s.count);
                  ("sum", Json.Float s.sum);
                  ("p50", Json.Float s.p50);
                  ("p90", Json.Float s.p90);
                  ("p99", Json.Float s.p99);
                  ("max", Json.Float s.max);
                ])
            :: !histograms)
    (sorted_metrics ());
  Json.Obj
    [
      ("counters", Json.List (List.rev !counters));
      ("gauges", Json.List (List.rev !gauges));
      ("histograms", Json.List (List.rev !histograms));
    ]

let to_table () =
  sample_process ();
  let rows =
    List.map
      (fun m ->
        let meta = meta_of m in
        let name = meta.m_name ^ render_labels meta.m_labels in
        match m with
        | MCounter c -> (name, string_of_int (counter_value c))
        | MGauge g -> (name, fmt_float (gauge_value g))
        | MHistogram h ->
            let s = snapshot h in
            ( name,
              Printf.sprintf "count=%d sum=%s p50=%s p99=%s max=%s" s.count
                (fmt_float s.sum) (fmt_float s.p50) (fmt_float s.p99)
                (fmt_float s.max) ))
      (sorted_metrics ())
  in
  let w = List.fold_left (fun acc (n, _) -> max acc (String.length n)) (String.length "metric") rows in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%-*s  %s\n" w "metric" "value");
  List.iter (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "%-*s  %s\n" w n v)) rows;
  Buffer.contents buf

(* ------------------------- OpenMetrics linting ------------------------- *)

(* Structural checker for the exposition format: enough to catch broken
   names, unescaped label values, non-cumulative buckets, and a missing
   [# EOF] terminator — the failure modes that break real scrapers. *)

type lint_state = {
  mutable types : (string * string) list; (* metric name -> TYPE *)
  mutable hist_buckets : (string, (float * int) list) Hashtbl.t;
      (* (name + labels-sans-le) -> (le, cumulative count) in file order *)
  mutable hist_counts : (string, int) Hashtbl.t;
  mutable saw_eof : bool;
}

let lint_fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let parse_label_block (line : string) (i : int) :
    ((string * string) list * int, string) result =
  (* [i] points at '{'. Returns labels and the index after '}'. *)
  let n = String.length line in
  let labels = ref [] in
  let i = ref (i + 1) in
  let ok = ref (Ok ()) in
  let finished = ref false in
  while (not !finished) && !ok = Ok () do
    if !i >= n then ok := lint_fail "unterminated label block: %s" line
    else if line.[!i] = '}' then begin
      incr i;
      finished := true
    end
    else begin
      (* label name *)
      let start = !i in
      while !i < n && line.[!i] <> '=' do
        incr i
      done;
      if !i >= n then ok := lint_fail "label without '=': %s" line
      else begin
        let lname = String.sub line start (!i - start) in
        if not (valid_label_name lname) then
          ok := lint_fail "invalid label name %S: %s" lname line
        else begin
          incr i (* '=' *);
          if !i >= n || line.[!i] <> '"' then
            ok := lint_fail "label value not quoted: %s" line
          else begin
            incr i;
            let buf = Buffer.create 16 in
            let closed = ref false in
            while (not !closed) && !ok = Ok () do
              if !i >= n then ok := lint_fail "unterminated label value: %s" line
              else
                match line.[!i] with
                | '"' ->
                    closed := true;
                    incr i
                | '\\' ->
                    if !i + 1 >= n then
                      ok := lint_fail "dangling escape: %s" line
                    else begin
                      (match line.[!i + 1] with
                      | '\\' | '"' | 'n' -> ()
                      | c -> ok := lint_fail "invalid escape '\\%c': %s" c line);
                      Buffer.add_char buf line.[!i + 1];
                      i := !i + 2
                    end
                | '\n' -> ok := lint_fail "raw newline in label value: %s" line
                | c ->
                    Buffer.add_char buf c;
                    incr i
            done;
            if !ok = Ok () then begin
              labels := (lname, Buffer.contents buf) :: !labels;
              if !i < n && line.[!i] = ',' then incr i
            end
          end
        end
      end
    end
  done;
  match !ok with Ok () -> Ok (List.rev !labels, !i) | Error e -> Error e

let parse_number s =
  let s = String.trim s in
  if s = "+Inf" then Some infinity
  else if s = "-Inf" then Some neg_infinity
  else if s = "NaN" then Some nan
  else float_of_string_opt s

let strip_series_suffix name =
  let strip suffix =
    let ls = String.length suffix and ln = String.length name in
    if ln > ls && String.sub name (ln - ls) ls = suffix then
      Some (String.sub name 0 (ln - ls))
    else None
  in
  match strip "_bucket" with
  | Some base -> (base, `Bucket)
  | None -> (
      match strip "_count" with
      | Some base -> (base, `Count)
      | None -> (
          match strip "_sum" with
          | Some base -> (base, `Sum)
          | None -> (
              match strip "_total" with
              | Some base -> (base, `Total)
              | None -> (name, `Plain))))

let lint_sample st (line : string) : (unit, string) result =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && valid_name_char (!i = 0) line.[!i] do
    incr i
  done;
  if !i = 0 then lint_fail "sample line does not start with a metric name: %s" line
  else begin
    let name = String.sub line 0 !i in
    let labels_result =
      if !i < n && line.[!i] = '{' then parse_label_block line !i
      else Ok ([], !i)
    in
    match labels_result with
    | Error e -> Error e
    | Ok (labels, j) ->
        if j >= n || line.[j] <> ' ' then
          lint_fail "missing space before value: %s" line
        else begin
          let value = String.sub line (j + 1) (n - j - 1) in
          match parse_number value with
          | None -> lint_fail "unparseable sample value %S: %s" value line
          | Some v -> (
              let base, series = strip_series_suffix name in
              let declared k =
                match List.assoc_opt k st.types with
                | Some ty -> Some ty
                | None -> None
              in
              match series with
              | `Bucket when declared base = Some "histogram" -> (
                  match List.assoc_opt "le" labels with
                  | None -> lint_fail "_bucket sample without le: %s" line
                  | Some le_s -> (
                      match parse_number le_s with
                      | None -> lint_fail "unparseable le %S: %s" le_s line
                      | Some le ->
                          let key =
                            identity base
                              (List.filter (fun (k, _) -> k <> "le") labels)
                          in
                          let prev =
                            Option.value ~default:[]
                              (Hashtbl.find_opt st.hist_buckets key)
                          in
                          Hashtbl.replace st.hist_buckets key
                            (prev @ [ (le, int_of_float v) ]);
                          Ok ()))
              | `Count when declared base = Some "histogram" ->
                  let key = identity base labels in
                  Hashtbl.replace st.hist_counts key (int_of_float v);
                  Ok ()
              | `Total ->
                  if declared base = Some "counter" && v < 0.0 then
                    lint_fail "negative counter: %s" line
                  else Ok ()
              | _ -> Ok ())
        end
  end

let lint_openmetrics (text : string) : (unit, string) result =
  let st =
    {
      types = [];
      hist_buckets = Hashtbl.create 16;
      hist_counts = Hashtbl.create 16;
      saw_eof = false;
    }
  in
  let lines = String.split_on_char '\n' text in
  let rec go = function
    | [] -> Ok ()
    | line :: rest ->
        if st.saw_eof && line <> "" then lint_fail "content after # EOF: %s" line
        else if line = "" then go rest
        else if line = "# EOF" then begin
          st.saw_eof <- true;
          go rest
        end
        else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
          match String.split_on_char ' ' line with
          | [ _; _; name; ty ] ->
              if not (valid_metric_name name) then
                lint_fail "invalid metric name in TYPE: %s" line
              else if not (List.mem ty [ "counter"; "gauge"; "histogram"; "summary"; "unknown" ])
              then lint_fail "unknown TYPE %S: %s" ty line
              else begin
                st.types <- (name, ty) :: st.types;
                go rest
              end
          | _ -> lint_fail "malformed TYPE line: %s" line
        end
        else if String.length line >= 2 && String.sub line 0 2 = "# " then go rest
        else begin
          match lint_sample st line with Ok () -> go rest | Error e -> Error e
        end
  in
  match go lines with
  | Error e -> Error e
  | Ok () ->
      if not st.saw_eof then lint_fail "missing # EOF terminator"
      else
        (* Bucket series: le ascending, counts non-decreasing, +Inf last
           and equal to _count. *)
        Hashtbl.fold
          (fun key series acc ->
            match acc with
            | Error _ -> acc
            | Ok () -> (
                let rec check prev_le prev_c = function
                  | [] -> Ok ()
                  | (le, c) :: rest ->
                      if le <= prev_le then lint_fail "le not increasing (%s)" key
                      else if c < prev_c then
                        lint_fail "bucket counts not cumulative (%s)" key
                      else check le c rest
                in
                match check neg_infinity 0 series with
                | Error e -> Error e
                | Ok () -> (
                    match List.rev series with
                    | (le, c) :: _ ->
                        if le <> infinity then
                          lint_fail "last bucket is not le=\"+Inf\" (%s)" key
                        else (
                          match Hashtbl.find_opt st.hist_counts key with
                          | Some total when total <> c ->
                              lint_fail "+Inf bucket %d <> _count %d (%s)" c total key
                          | _ -> Ok ())
                    | [] -> Ok ())))
          st.hist_buckets (Ok ())
