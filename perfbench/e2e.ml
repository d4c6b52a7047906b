(* The repository benchmark: three closed-loop workloads (one client, one
   request in flight) that time calls into the public library API from
   outside. [run.py] builds this program and runs it in a fresh process
   per run; README.md lists the workloads, the metrics and which layer
   metric should move which end-to-end metric.

   With [--trace 0] it prints the end-to-end metrics, with every
   instrumentation switch of the library left at its default (off). With
   [--trace 1] it prints the per-layer metrics: spans recorded through the
   library's Trace ring around each call into a layer, plus probes that
   time one layer's public entry point on the same inputs outside the
   request clock. *)

open Sympiler_sparse
module S = Sympiler
module Prof = Sympiler_prof.Prof
module Trace = Sympiler_trace.Trace
module Native = Sympiler_native.Native
module Fill = Sympiler_symbolic.Fill_pattern
module Supernodes = Sympiler_symbolic.Supernodes
module Stages = Sympiler_kernels.Stages
module Pl = S.Pipeline

let now = Prof.now_seconds

(* ------------------------------------------------------------------ *)
(* Command line *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let traced = ref 0
let inject_wrong = ref 0

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME refactor | pcg | churn");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int traced, "0|1 end-to-end or per-layer metrics");
      ( "--inject-wrong",
        Arg.Set_int inject_wrong,
        "K corrupt every K-th answer before its check (smoke test)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e --workload NAME --seed N --seconds S --trace 0|1"

(* ------------------------------------------------------------------ *)
(* Samples and results *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  (* Nearest-rank quantile; 0 on an empty set. *)
  let quantile t q =
    if t.n = 0 then 0.0
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort compare s;
      let k = int_of_float (Float.ceil (q *. float_of_int t.n)) - 1 in
      s.(max 0 (min (t.n - 1) k))
    end

  let median t = quantile t 0.5

  (* The samples added from index [lo] on. *)
  let since t lo = { a = Array.sub t.a lo (t.n - lo); n = t.n - lo }

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s

  let mean t = if t.n = 0 then 0.0 else sum t /. float_of_int t.n
end

let median_of l =
  let s = Samples.create () in
  List.iter (Samples.add s) l;
  Samples.median s

(* The metrics printed, with their units, in BENCHMARK.json's order. A
   layer a workload does not load reads 0. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("req_p50_ms", "ms");
    ("req_p99_ms", "ms");
    ("req_per_s", "1/s");
    ("ok_frac", "ratio");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("sparse.assemble_ms", "ms");
    ("sparse.amd_ms", "ms");
    ("symbolic.analyze_ms", "ms");
    ("symbolic.fill_ratio", "ratio");
    ("symbolic.breakeven_reqs", "count");
    ("core.compile_ms", "ms");
    ("core.plan_ms", "ms");
    ("core.cache_hit_ratio", "ratio");
    ("core.cache_evictions", "count");
    ("core.hit_ms", "ms");
    ("core.boundary_us", "us");
    ("core.minor_words_per_req", "words");
    ("ir.emit_ms", "ms");
    ("ir.c_kbytes", "KiB");
    ("native.cc_s", "s");
    ("native.kernel_us", "us");
    ("native.compiles", "count");
    ("native.fallbacks", "count");
    ("kernels.factor_ms", "ms");
    ("kernels.solve_ms", "ms");
    ("kernels.factor_ocaml_ms", "ms");
    ("kernels.precond_us", "us");
    ("kernels.spmv_us", "us");
    ("kernels.blas1_us", "us");
    ("kernels.pcg_iters", "count");
    ("kernels.ic0_factor_ms", "ms");
    ("kernels.gflops", "GFLOP/s");
    ("kernels.gflops_frac", "ratio");
    ("kernels.gbs_computed", "GB/s");
    ("kernels.gbs_frac", "ratio");
    ("metrics.enabled_overhead_frac", "ratio");
    ("ceiling.triad_gbs_ocaml", "GB/s");
    ("ceiling.triad_gbs_native", "GB/s");
    ("ceiling.panel_gflops_ocaml", "GFLOP/s");
    ("ceiling.panel_gflops_native", "GFLOP/s");
    ("trace.coverage", "ratio");
    ("trace.overhead_ms", "ms");
  ]

let results : (string, float) Hashtbl.t = Hashtbl.create 64

let report name v =
  if not (List.mem_assoc name end_to_end || List.mem_assoc name per_layer) then
    invalid_arg ("report: unknown metric " ^ name);
  Hashtbl.replace results name v

let attempted = ref 0
let failed = ref 0

(* Facts about the run, printed on the line before the result. *)
let env_notes : (string * string) list ref = ref []
let note k v = env_notes := (k, v) :: List.remove_assoc k !env_notes

let print_results () =
  let fields =
    List.map
      (fun (name, unit) ->
        let v = Option.value (Hashtbl.find_opt results name) ~default:0.0 in
        let v = if Float.is_finite v then v else 0.0 in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      (if !traced = 1 then per_layer else end_to_end)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0 && !attempted > 0)
    !attempted !failed
    (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* Spans, recorded only in the traced run through the library's Trace
   ring, which also holds the spans the library records itself. The
   benchmark opens a "request" root per request and one span per layer
   call beneath it; each carries the request id as its "req" attribute,
   and its parent is the enclosing span one depth up. A layer span has no
   benchmark span beneath it, so its self time is its duration (library
   spans inside it are that layer's own work). Between requests the ring
   is drained into per-layer totals before it can wrap; the spans since
   the last drain are written out as a Chrome trace when the run ends. *)

let trace_dir = ".bench_build/traces"
let trace_capacity = 1 lsl 16
let request = ref 0

let span name =
  if Trace.enabled () then begin
    Trace.begin_span name;
    Trace.set_attr "req" (Trace.Int !request)
  end

module Layers = struct
  let totals : (string, float * int) Hashtbl.t = Hashtbl.create 16
  let wall = ref 0.0
  let covered = ref 0.0
  let recorded = ref 0
  let dropped = ref 0

  (* Fold the ring into the totals, replaying spans in begin order so the
     root of each is known, then empty it. Only layer spans directly
     under a "request" root count. *)
  let drain () =
    let spans =
      Array.of_list
        (List.filter (fun s -> s.Trace.kind = Trace.Span) (Trace.spans ()))
    in
    Array.sort
      (fun a b -> compare (a.Trace.start_ns, a.Trace.depth) (b.Trace.start_ns, b.Trace.depth))
      spans;
    let root = ref "" in
    Array.iter
      (fun s ->
        let d = 1e-9 *. float_of_int s.Trace.dur_ns in
        if s.Trace.depth = 0 then begin
          root := s.Trace.name;
          if !root = "request" then wall := !wall +. d
        end
        else if s.Trace.depth = 1 && !root = "request" then begin
          covered := !covered +. d;
          let t, c =
            Option.value (Hashtbl.find_opt totals s.Trace.name) ~default:(0.0, 0)
          in
          Hashtbl.replace totals s.Trace.name (t +. d, c + 1)
        end)
      spans;
    recorded := !recorded + Array.length spans;
    dropped := !dropped + Trace.dropped_spans ();
    Trace.reset ()

  (* Summed self time of one layer's spans, and their number. *)
  let time name = Option.value (Hashtbl.find_opt totals name) ~default:(0.0, 0)

  (* Layer self times summed, as a share of the requests' wall-clock. *)
  let coverage () = if !wall > 0.0 then !covered /. !wall else 0.0
end

(* Mean self time of one layer's spans; 0 when there were none. *)
let per_span name =
  let s, c = Layers.time name in
  if c = 0 then 0.0 else s /. float_of_int c

(* ------------------------------------------------------------------ *)
(* Independent correctness checks: plain loops over the generated
   inputs and the returned factors, sharing no code with the compiled
   plans. *)

let tol_c = 4.0

(* y <- A x for symmetric A stored as its lower triangle. *)
let sym_lower_mv (a : Csc.t) x y =
  Array.fill y 0 (Array.length y) 0.0;
  for j = 0 to a.Csc.ncols - 1 do
    for p = a.Csc.colptr.(j) to a.Csc.colptr.(j + 1) - 1 do
      let i = a.Csc.rowind.(p) and v = a.Csc.values.(p) in
      y.(i) <- y.(i) +. (v *. x.(j));
      if i <> j then y.(j) <- y.(j) +. (v *. x.(i))
    done
  done

let full_mv (a : Csc.t) x y =
  Array.fill y 0 (Array.length y) 0.0;
  for j = 0 to a.Csc.ncols - 1 do
    for p = a.Csc.colptr.(j) to a.Csc.colptr.(j + 1) - 1 do
      let i = a.Csc.rowind.(p) in
      y.(i) <- y.(i) +. (a.Csc.values.(p) *. x.(j))
    done
  done

(* ||A||_inf from the row sums of |a_ij| (both triangles when [sym]). *)
let norm_inf_csc ~sym (a : Csc.t) =
  let rows = Array.make a.Csc.nrows 0.0 in
  for j = 0 to a.Csc.ncols - 1 do
    for p = a.Csc.colptr.(j) to a.Csc.colptr.(j + 1) - 1 do
      let i = a.Csc.rowind.(p) and v = Float.abs a.Csc.values.(p) in
      rows.(i) <- rows.(i) +. v;
      if sym && i <> j then rows.(j) <- rows.(j) +. v
    done
  done;
  Array.fold_left Float.max 0.0 rows

let vnorm_inf v = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 v

let diag_entry (l : Csc.t) j =
  let d = ref 0.0 in
  for p = l.Csc.colptr.(j) to l.Csc.colptr.(j + 1) - 1 do
    if l.Csc.rowind.(p) = j then d := l.Csc.values.(p)
  done;
  !d

(* x <- L^-1 x, L lower triangular in CSC, diagonal stored. *)
let lower_solve (l : Csc.t) x =
  for j = 0 to l.Csc.ncols - 1 do
    let xj = x.(j) /. diag_entry l j in
    x.(j) <- xj;
    for p = l.Csc.colptr.(j) to l.Csc.colptr.(j + 1) - 1 do
      let i = l.Csc.rowind.(p) in
      if i > j then x.(i) <- x.(i) -. (l.Csc.values.(p) *. xj)
    done
  done

(* x <- L^-T x. *)
let lower_t_solve (l : Csc.t) x =
  for j = l.Csc.ncols - 1 downto 0 do
    let s = ref x.(j) in
    for p = l.Csc.colptr.(j) to l.Csc.colptr.(j + 1) - 1 do
      let i = l.Csc.rowind.(p) in
      if i > j then s := !s -. (l.Csc.values.(p) *. x.(i))
    done;
    x.(j) <- !s /. diag_entry l j
  done

(* x <- U^-1 x, U upper triangular in CSC, diagonal stored. *)
let upper_solve (u : Csc.t) x =
  for j = u.Csc.ncols - 1 downto 0 do
    let xj = x.(j) /. diag_entry u j in
    x.(j) <- xj;
    for p = u.Csc.colptr.(j) to u.Csc.colptr.(j + 1) - 1 do
      let i = u.Csc.rowind.(p) in
      if i < j then x.(i) <- x.(i) -. (u.Csc.values.(p) *. xj)
    done
  done

(* Scaled backward error ||A x - b|| / (||A|| ||x|| + ||b||), inf-norms,
   against its bound c n eps. [mv] computes A x. *)
let backward_ok ~mv ~anorm x b =
  let n = Array.length b in
  let ax = Array.make n 0.0 in
  mv x ax;
  let r = ref 0.0 in
  for i = 0 to n - 1 do
    r := Float.max !r (Float.abs (ax.(i) -. b.(i)))
  done;
  let be = !r /. ((anorm *. vnorm_inf x) +. vnorm_inf b) in
  be <= tol_c *. float_of_int n *. epsilon_float

(* Every [--inject-wrong K]-th checked answer is corrupted first, so the
   smoke test can see the check count it. *)
let checks = ref 0

let maybe_corrupt x =
  incr checks;
  if !inject_wrong > 0 && !checks mod !inject_wrong = 0 then
    x.(0) <- x.(0) +. 1.0

(* ------------------------------------------------------------------ *)
(* Seeded inputs *)

let rng = Random.State.make [| !seed; 0x5eed |]
let uniform lo hi = lo +. Random.State.float rng (hi -. lo)
let rand_vec n = Array.init n (fun _ -> uniform (-1.0) 1.0)

(* New SPD values on a fixed pattern: D A D with a random positive
   diagonal D keeps A's pattern and definiteness. *)
let rescale (a : Csc.t) =
  let d = Array.init a.Csc.nrows (fun _ -> uniform 0.5 2.0) in
  let values = Array.copy a.Csc.values in
  for j = 0 to a.Csc.ncols - 1 do
    for p = a.Csc.colptr.(j) to a.Csc.colptr.(j + 1) - 1 do
      values.(p) <- values.(p) *. d.(a.Csc.rowind.(p)) *. d.(j)
    done
  done;
  { a with Csc.values }

(* ------------------------------------------------------------------ *)
(* Closed-loop client. [step] serves one request and returns its
   latency in seconds with the outcome; input generation and the check
   run with the clock stopped. The loop stops once the timed window (the
   sum of request latencies) reaches [secs], and returns that sum. *)

let latencies = Samples.create ()

let closed_loop ~secs step =
  let total = ref 0.0 in
  let wall_limit = now () +. (10.0 *. secs) +. 30.0 in
  while !total < secs && now () < wall_limit do
    if Trace.span_count () >= trace_capacity / 2 then Layers.drain ();
    incr request;
    let dt, ok = step () in
    total := !total +. dt;
    incr attempted;
    if not ok then incr failed;
    Samples.add latencies dt
  done;
  !total

let vm_hwm_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0.0
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf
                (String.sub l 6 (String.length l - 6))
                " %f" (fun kb -> kb /. 1024.0)
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ -> 0.0

(* End-to-end runs: the window is served in [parts] parts, with [setups]
   cold set-ups in all: the first made before any request, the others
   spread evenly over the gaps between parts (off the request clock).
   p50, p99 and request rate are each the median of their per-part
   values, and setup_s the median of the set-ups, so a slow spell of the
   shared machine that spans fewer than half of them leaves the figures
   alone. [setup0] is the wall-clock of the set-up already made;
   [setup ~first:false] makes another and returns its wall-clock. *)
let run_e2e ~parts ~setups ~setup0 ~setup step =
  let times = ref [ setup0 ] and p50 = ref [] and p99 = ref [] in
  let rate = ref [] in
  for r = 1 to parts do
    let n0 = latencies.Samples.n and ok0 = !attempted - !failed in
    let secs = closed_loop ~secs:(!seconds /. float_of_int parts) step in
    let part = Samples.since latencies n0 in
    p50 := Samples.median part :: !p50;
    p99 := Samples.quantile part 0.99 :: !p99;
    rate := (float_of_int (!attempted - !failed - ok0) /. secs) :: !rate;
    if r < parts then
      while List.length !times < 1 + (r * (setups - 1) / (parts - 1)) do
        times := setup ~first:false :: !times
      done
  done;
  report "setup_s" (median_of !times);
  report "req_p50_ms" (1e3 *. median_of !p50);
  report "req_p99_ms" (1e3 *. median_of !p99);
  report "req_per_s" (median_of !rate);
  report "ok_frac"
    (float_of_int (!attempted - !failed) /. float_of_int (max 1 !attempted));
  report "peak_rss_mb" (vm_hwm_mb ())

(* Traced runs: half the window untraced, then half traced; the p50
   difference is the tracing overhead. [latencies] keeps the traced half. *)
let traced_windows step =
  ignore (closed_loop ~secs:(!seconds /. 2.0) step : float);
  let p50_plain = Samples.median latencies in
  latencies.Samples.n <- 0;
  Trace.enable ~capacity:trace_capacity ();
  ignore (closed_loop ~secs:(!seconds /. 2.0) step : float);
  Trace.disable ();
  let p50_traced = Samples.median latencies in
  (try Unix.mkdir trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path =
    Filename.concat trace_dir (Printf.sprintf "%s-seed%d.json" !workload !seed)
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Trace.to_chrome_json ()));
  note "trace_file" path;
  note "trace_file_spans" (string_of_int (Trace.span_count ()));
  Layers.drain ();
  note "spans" (string_of_int !Layers.recorded);
  note "spans_dropped" (string_of_int !Layers.dropped);
  report "trace.overhead_ms" (1e3 *. (p50_traced -. p50_plain));
  report "trace.coverage" (Layers.coverage ())

(* Minor-heap words allocated per call of [f], exact: the cost of
   reading the counter itself is measured and taken off. *)
let minor_words f n =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  let probe = w1 -. w0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let a = Gc.minor_words () in
    f i;
    let b = Gc.minor_words () in
    total := !total +. (b -. a -. probe)
  done;
  !total /. float_of_int n

(* Share by which turning Prof and Metrics on slows [batch]: alternating
   off/on batches, ratio of the medians. *)
let enabled_overhead batch =
  let off = ref [] and on = ref [] in
  for _ = 1 to 5 do
    let t0 = now () in
    batch ();
    off := (now () -. t0) :: !off;
    Prof.enable ();
    S.Metrics.enable ();
    let t0 = now () in
    batch ();
    on := (now () -. t0) :: !on;
    Prof.disable ();
    S.Metrics.disable ()
  done;
  (median_of !on /. median_of !off) -. 1.0

let time_median ~reps f =
  median_of
    (List.init reps (fun _ ->
         let t0 = now () in
         f ();
         now () -. t0))

(* ------------------------------------------------------------------ *)
(* Machine ceilings, measured in the traced run: a streaming triad and a
   dense supernode-panel update, each in OCaml and through Native.load. *)

type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let ba n v : ba =
  let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill b v;
  b

let llc_bytes () =
  let best = ref (0, 0) in
  for i = 0 to 7 do
    let dir = Printf.sprintf "/sys/devices/system/cpu/cpu0/cache/index%d/" i in
    try
      let read f = In_channel.with_open_text (dir ^ f) In_channel.input_all in
      let level = int_of_string (String.trim (read "level")) in
      let size =
        Scanf.sscanf (String.trim (read "size")) "%d%s" (fun v u ->
            match u with "K" -> v * 1024 | "M" -> v * 1024 * 1024 | _ -> v)
      in
      if level > fst !best then best := (level, size)
    with _ -> ()
  done;
  snd !best

let triad_c =
  "int sympiler_entry(double *a, double *b, double *c, double *s) {\n\
  \  long n = (long)s[1]; double q = s[0];\n\
  \  for (long i = 0; i < n; i++) a[i] = b[i] + q * c[i];\n\
  \  return -1;\n\
   }\n"

let panel_m = 256
let panel_w = 64

let panel_c =
  Printf.sprintf
    "int sympiler_entry(double *c, double *a, double *u2, double *u3) {\n\
    \  for (int j = 0; j < %d; j++)\n\
    \    for (int k = 0; k < %d; k++) {\n\
    \      double ajk = a[j + k * %d];\n\
    \      for (int i = 0; i < %d; i++) c[i + j * %d] -= a[i + k * %d] * ajk;\n\
    \    }\n\
    \  return -1;\n\
     }\n"
    panel_m panel_w panel_m panel_m panel_m panel_m

let triad_ocaml (a : ba) (b : ba) (c : ba) q =
  for i = 0 to Bigarray.Array1.dim a - 1 do
    Bigarray.Array1.unsafe_set a i
      (Bigarray.Array1.unsafe_get b i +. (q *. Bigarray.Array1.unsafe_get c i))
  done

let panel_ocaml (c : ba) (a : ba) =
  let m = panel_m in
  for j = 0 to m - 1 do
    for k = 0 to panel_w - 1 do
      let ajk = Bigarray.Array1.unsafe_get a (j + (k * m)) in
      for i = 0 to m - 1 do
        let ij = i + (j * m) in
        Bigarray.Array1.unsafe_set c ij
          (Bigarray.Array1.unsafe_get c ij
          -. (Bigarray.Array1.unsafe_get a (i + (k * m)) *. ajk))
      done
    done
  done

(* Best of several passes: a ceiling is the most the machine gave. *)
let best_of reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = now () in
    f ();
    best := Float.min !best (now () -. t0)
  done;
  !best

type ceilings = { triad_gbs : float; panel_gflops : float }

let measure_ceilings () =
  let llc = llc_bytes () in
  (* 4x the last-level cache per array, capped at 128 MiB per array so
     the three arrays stay within a shared machine's memory. *)
  let n = min (4 * llc / 8) (16 * 1024 * 1024) in
  let n = max n (1024 * 1024) in
  note "llc_mib" (Printf.sprintf "%.1f" (float_of_int llc /. 1048576.0));
  note "triad_array_mib" (Printf.sprintf "%.1f" (float_of_int (8 * n) /. 1048576.0));
  let a = ba n 0.0 and b = ba n 1.0 and c = ba n 2.0 in
  let bytes = 24.0 *. float_of_int n in
  let t_ocaml = best_of 5 (fun () -> triad_ocaml a b c 3.0) in
  let m = panel_m in
  let pc = ba (m * m) 0.0 and pa = ba (m * panel_w) 1e-3 in
  let flops = 2.0 *. float_of_int (m * m * panel_w) in
  let p_ocaml = best_of 20 (fun () -> panel_ocaml pc pa) in
  let load src =
    Native.load ~key:(Hashtbl.hash src) ~entry:"sympiler_entry" src
  in
  let t_native, p_native =
    match (load triad_c, load panel_c) with
    | Some kt, Some kp ->
        let s = ba 2 3.0 in
        Bigarray.Array1.set s 1 (float_of_int n);
        ( best_of 5 (fun () -> ignore (Native.call kt a b c s)),
          best_of 20 (fun () ->
              ignore (Native.call kp pc pa Native.dummy Native.dummy)) )
    | _ -> (infinity, infinity)
  in
  report "ceiling.triad_gbs_ocaml" (bytes /. t_ocaml /. 1e9);
  report "ceiling.triad_gbs_native" (bytes /. t_native /. 1e9);
  report "ceiling.panel_gflops_ocaml" (flops /. p_ocaml /. 1e9);
  report "ceiling.panel_gflops_native" (flops /. p_native /. 1e9);
  {
    triad_gbs = bytes /. Float.min t_ocaml t_native /. 1e9;
    panel_gflops = flops /. Float.min p_ocaml p_native /. 1e9;
  }

(* Kernel layers as achieved rates against the ceilings. [bytes] is
   computed from array sizes (8-byte value + 8-byte index per entry
   touched once), not measured. *)
let report_rates ceil ~flops ~bytes ~secs =
  let gflops = if secs > 0.0 then flops /. secs /. 1e9 else 0.0 in
  let gbs = if secs > 0.0 then bytes /. secs /. 1e9 else 0.0 in
  report "kernels.gflops" gflops;
  report "kernels.gflops_frac" (gflops /. ceil.panel_gflops);
  report "kernels.gbs_computed" gbs;
  report "kernels.gbs_frac" (gbs /. ceil.triad_gbs)

let report_native () =
  let st = Native.stats () in
  report "native.compiles" (float_of_int st.Native.compiles);
  report "native.fallbacks" (float_of_int st.Native.fallbacks)

(* ------------------------------------------------------------------ *)
(* Cold set-up: every repetition gets its own empty native object
   directory under the run-private one run.py names, so each one runs the
   C compiler. The first also empties the library's default plan caches;
   later ones, made between requests, leave those to the requests (a
   set-up that caches passes a cache of its own). *)

let setup_rep = ref 0

let native_base =
  lazy
    (match Sys.getenv_opt "SYMPILER_NATIVE_CACHE" with
    | Some d when d <> "" -> d
    | _ ->
        prerr_endline "e2e: SYMPILER_NATIVE_CACHE is not set; run through run.py";
        exit 2)

let cold_start ~first =
  incr setup_rep;
  Unix.putenv "SYMPILER_NATIVE_CACHE"
    (Filename.concat (Lazy.force native_base)
       (Printf.sprintf "setup-%d" !setup_rep));
  Native.clear_memory_cache ();
  Native.reset_stats ();
  if first then begin
    S.Cholesky.cache_clear ();
    S.Ldlt.cache_clear ();
    S.Lu.cache_clear ();
    Pl.cache_clear ()
  end

let analyze_probe (a_lower : Csc.t) =
  let f = Fill.analyze a_lower in
  ignore
    (Supernodes.detect_etree ~counts:f.Fill.counts ~parent:f.Fill.parent ()
      : Supernodes.t);
  f

(* ------------------------------------------------------------------ *)
(* Workload refactor: fixed patterns, new values per request, native
   plans. *)

type rplan = {
  rname : string;
  inputs : Csc.t array;  (** ring of value sets on the plan's input pattern *)
  sym : bool;  (** input is lower(A) of a symmetric A *)
  run : Csc.t -> unit;  (** execute_ip on the native plan *)
  run_ocaml : unit -> Csc.t -> unit;
      (** builds an OCaml plan, returns its execute_ip *)
  solve : float array -> float array;  (** x = A^-1 b from the last factor, own code *)
  kernel : unit -> int;  (** bare Native_engine.call on the plan's buffers *)
  has_native : bool;
  flops : float;
  bytes : float;
  compile_s : float;
  plan_s : float;
  cc_s : float;
  emit : unit -> string;  (** the plan's emitted C *)
  fill_ratio : float;
  pattern : Csc.t;  (** the compiled (ordered) pattern, for the analyze probe *)
}

let nkernel = function
  | Some e -> fun () -> S.Native_engine.call e
  | None -> fun () -> 0

let cc_of = function
  | Some e -> e.S.Native_engine.nk.Native.compile_seconds
  | None -> 0.0

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let chol_plan ~name ~opts (a : Csc.t) inputs =
  let h, compile_s = timed (fun () -> S.Cholesky.compile ~opts a) in
  let pl, plan_s =
    timed (fun () -> S.Cholesky.plan ~engine:`Native h)
  in
  let run i = ignore (S.Cholesky.execute_ip pl i : Csc.t) in
  run inputs.(0);
  let n = a.Csc.ncols in
  let solve b =
    let l = S.Cholesky.plan_factor pl in
    let y =
      match h.S.Cholesky.ord.S.o_perm with
      | Some p -> Array.init n (fun k -> b.(p.(k)))
      | None -> Array.copy b
    in
    lower_solve l y;
    lower_t_solve l y;
    match h.S.Cholesky.ord.S.o_perm with
    | Some p ->
        let x = Array.make n 0.0 in
        Array.iteri (fun k pk -> x.(pk) <- y.(k)) p;
        x
    | None -> y
  in
  {
    rname = name;
    inputs;
    sym = true;
    run;
    run_ocaml =
      (fun () ->
        let po = S.Cholesky.plan ~engine:`Ocaml h in
        fun i -> ignore (S.Cholesky.execute_ip po i : Csc.t));
    solve;
    kernel = nkernel pl.S.Cholesky.native;
    has_native = pl.S.Cholesky.native <> None;
    flops = h.S.Cholesky.flops;
    bytes = 16.0 *. float_of_int (Csc.nnz a + h.S.Cholesky.nnz_l);
    compile_s;
    plan_s;
    cc_s = cc_of pl.S.Cholesky.native;
    emit = (fun () -> S.Cholesky.c_code h);
    fill_ratio = float_of_int h.S.Cholesky.nnz_l /. float_of_int (Csc.nnz a);
    pattern = h.S.Cholesky.pattern;
  }

let ldlt_plan ~name (a : Csc.t) inputs =
  let h, compile_s = timed (fun () -> S.Ldlt.compile a) in
  let pl, plan_s =
    timed (fun () -> S.Ldlt.plan ~engine:`Native h)
  in
  let out = ref (S.Ldlt.execute_ip pl inputs.(0)) in
  let run i = out := S.Ldlt.execute_ip pl i in
  let solve b =
    let f = !out in
    let x = Array.copy b in
    lower_solve f.Sympiler_kernels.Ldlt.l x;
    Array.iteri (fun i d -> x.(i) <- x.(i) /. d) f.Sympiler_kernels.Ldlt.d;
    lower_t_solve f.Sympiler_kernels.Ldlt.l x;
    x
  in
  let nnz_l = Csc.nnz !out.Sympiler_kernels.Ldlt.l in
  {
    rname = name;
    inputs;
    sym = true;
    run;
    run_ocaml =
      (fun () ->
        let po = S.Ldlt.plan ~engine:`Ocaml h in
        fun i -> ignore (S.Ldlt.execute_ip po i : Sympiler_kernels.Ldlt.factors));
    solve;
    kernel = nkernel pl.S.Ldlt.native;
    has_native = pl.S.Ldlt.native <> None;
    flops = Fill.flops (Fill.analyze h.S.Ldlt.pattern);
    bytes = 16.0 *. float_of_int (Csc.nnz a + nnz_l);
    compile_s;
    plan_s;
    cc_s = cc_of pl.S.Ldlt.native;
    emit = (fun () -> S.Ldlt.c_code h);
    fill_ratio = float_of_int nnz_l /. float_of_int (Csc.nnz a);
    pattern = h.S.Ldlt.pattern;
  }

let lu_plan ~name (a : Csc.t) inputs =
  let h, compile_s = timed (fun () -> S.Lu.compile a) in
  let pl, plan_s =
    timed (fun () -> S.Lu.plan ~engine:`Native h)
  in
  let out = ref (S.Lu.execute_ip pl inputs.(0)) in
  let run i = out := S.Lu.execute_ip pl i in
  let solve b =
    let f = !out in
    let x = Array.copy b in
    lower_solve f.Sympiler_kernels.Lu.l x;
    upper_solve f.Sympiler_kernels.Lu.u x;
    x
  in
  let nnz_f =
    Csc.nnz !out.Sympiler_kernels.Lu.l + Csc.nnz !out.Sympiler_kernels.Lu.u
  in
  {
    rname = name;
    inputs;
    sym = false;
    run;
    run_ocaml =
      (fun () ->
        let po = S.Lu.plan ~engine:`Ocaml h in
        fun i -> ignore (S.Lu.execute_ip po i : Sympiler_kernels.Lu.factors));
    solve;
    kernel = nkernel pl.S.Lu.native;
    has_native = pl.S.Lu.native <> None;
    flops = h.S.Lu.flops;
    bytes = 16.0 *. float_of_int (Csc.nnz a + nnz_f);
    compile_s;
    plan_s;
    cc_s = cc_of pl.S.Lu.native;
    emit = (fun () -> S.Lu.c_code h);
    fill_ratio = float_of_int nnz_f /. float_of_int (Csc.nnz a);
    pattern = h.S.Lu.pattern;
  }

let ring = 8

let refactor () =
  let suite id = S.Suite.problem id in
  let grid = Csc.lower (Generators.grid2d 90 90) in
  let sources =
    [
      ( "cholesky:cbuckle",
        (suite 1).S.Suite.a_lower,
        chol_plan ~opts:S.Options.default );
      ( "cholesky:thermomech_dM",
        (suite 7).S.Suite.a_lower,
        chol_plan ~opts:(S.Options.make ~simplicial:true ()) );
      ( "cholesky:grid2d_90_amd",
        grid,
        chol_plan ~opts:(S.Options.make ~ordering:`Amd ()) );
      ("ldlt:msc23052", (suite 6).S.Suite.a_lower, ldlt_plan);
      ("lu:gyro", (suite 3).S.Suite.a_full, lu_plan);
    ]
  in
  let rings =
    List.map
      (fun (name, a, make) -> (name, a, make, Array.init ring (fun _ -> rescale a)))
      sources
  in
  let build () =
    Array.of_list
      (List.map (fun (name, a, make, inputs) -> make ~name a inputs) rings)
  in
  let nplans = List.length sources in
  (* Every set-up must compile each plan's C once and load it; anything
     else (a cache hit, a fallback to OCaml) fails every request. *)
  let setup_ok = ref true in
  let current = ref [||] in
  let compiles = ref [] in
  let setup ~first =
    cold_start ~first;
    let ps, dt = timed build in
    current := ps;
    let st = Native.stats () in
    compiles := string_of_int st.Native.compiles :: !compiles;
    note "native_compiles_per_setup" (String.concat "," (List.rev !compiles));
    if st.Native.compiles <> nplans || st.Native.fallbacks <> 0
       || Array.exists (fun p -> not p.has_native) ps
    then setup_ok := false;
    dt
  in
  let setup0 = setup ~first:true in
  let plans = !current in
  note "native_plans" (string_of_int nplans);
  let b_of n = Array.init n (fun i -> 1.0 +. (0.1 *. float_of_int (i mod 7))) in
  let bs = Array.map (fun p -> b_of p.inputs.(0).Csc.ncols) plans in
  let check p k (inp : Csc.t) =
    let x = p.solve bs.(k) in
    maybe_corrupt x;
    let mv = if p.sym then sym_lower_mv inp else full_mv inp in
    backward_ok ~mv ~anorm:(norm_inf_csc ~sym:p.sym inp) x bs.(k)
  in
  let i = ref 0 in
  let per_plan = Array.map (fun _ -> Samples.create ()) plans in
  let step () =
    let k = !i mod nplans in
    incr i;
    let p = !current.(k) in
    let inp = p.inputs.(Random.State.int rng ring) in
    span "request";
    let t0 = now () in
    span "core.execute_ip";
    p.run inp;
    Trace.end_span ();
    let dt = now () -. t0 in
    Trace.end_span ();
    Samples.add per_plan.(k) dt;
    let ok =
      !setup_ok && check p k inp && (Native.stats ()).Native.fallbacks = 0
    in
    (dt, ok)
  in
  let note_per_plan () =
    Array.iteri
      (fun k p ->
        note ("p50_ms:" ^ p.rname)
          (Printf.sprintf "%.3f" (1e3 *. Samples.median per_plan.(k))))
      plans
  in
  if !traced = 0 then begin
    run_e2e ~parts:5 ~setups:5 ~setup0 ~setup step;
    note_per_plan ()
  end
  else begin
    traced_windows step;
    note_per_plan ();
    let sum f = Array.fold_left (fun s p -> s +. f p) 0.0 plans in
    let exec_s =
      Array.map (fun p -> time_median ~reps:50 (fun () -> p.run p.inputs.(0))) plans
    in
    let kernel_s =
      Array.map
        (fun p -> time_median ~reps:50 (fun () -> ignore (p.kernel () : int)))
        plans
    in
    let ocaml_s =
      Array.map
        (fun p ->
          let r = p.run_ocaml () in
          time_median ~reps:30 (fun () -> r p.inputs.(0)))
        plans
    in
    let emitted = Array.map (fun p -> timed p.emit) plans in
    let amd_s =
      time_median ~reps:5 (fun () ->
          ignore (Ordering.amd (Csc.symmetrize_from_lower grid) : Perm.t))
    in
    let analyze_s =
      sum (fun p ->
          if p.sym then
            time_median ~reps:3 (fun () ->
                ignore (analyze_probe p.pattern : Fill.t))
          else 0.0)
    in
    let avg a = Array.fold_left ( +. ) 0.0 a /. float_of_int nplans in
    report "sparse.amd_ms" (1e3 *. amd_s);
    report "symbolic.analyze_ms" (1e3 *. analyze_s);
    report "symbolic.fill_ratio" plans.(2).fill_ratio;
    report "symbolic.breakeven_reqs"
      (sum (fun p -> p.compile_s +. p.plan_s) /. Array.fold_left ( +. ) 0.0 exec_s);
    report "core.compile_ms" (1e3 *. sum (fun p -> p.compile_s));
    report "core.plan_ms"
      (1e3 *. (sum (fun p -> p.plan_s -. p.cc_s)
              -. Array.fold_left (fun s (_, t) -> s +. t) 0.0 emitted));
    report "core.boundary_us" (1e6 *. (avg exec_s -. avg kernel_s));
    report "core.minor_words_per_req"
      (minor_words
         (fun j ->
           let p = plans.(j mod nplans) in
           p.run p.inputs.(j mod ring))
         200);
    report "ir.emit_ms" (1e3 *. Array.fold_left (fun s (_, t) -> s +. t) 0.0 emitted);
    report "ir.c_kbytes"
      (Array.fold_left (fun s (c, _) -> s +. float_of_int (String.length c)) 0.0 emitted
      /. 1024.0);
    report "native.cc_s" (sum (fun p -> p.cc_s));
    report "native.kernel_us" (1e6 *. avg kernel_s);
    report_native ();
    report "kernels.factor_ms" (1e3 *. avg exec_s);
    report "kernels.factor_ocaml_ms" (1e3 *. avg ocaml_s);
    report "metrics.enabled_overhead_frac"
      (enabled_overhead (fun () ->
           for j = 0 to 49 do
             let p = plans.(j mod nplans) in
             p.run p.inputs.(j mod ring)
           done));
    let ceil = measure_ceilings () in
    report_rates ceil ~flops:(sum (fun p -> p.flops)) ~bytes:(sum (fun p -> p.bytes))
      ~secs:(Array.fold_left ( +. ) 0.0 kernel_s)
  end

(* ------------------------------------------------------------------ *)
(* Workload pcg: IC(0)-preconditioned CG on 5-point grid Poisson problems,
   preconditioner applied by the fused pipeline. The grid side of each
   request is drawn from [pcg_sides]: requests of one size cost the same,
   so a single size would give a latency distribution so narrow that its
   median jumps whole when the machine slows for part of a run; a range of
   sizes keeps the median inside a spread of costs. *)

let pcg_sides = Array.init 13 (fun k -> 28 + (2 * k))
let pcg_tol = 1e-8
let pcg_max_iters = 1000

type pcg_problem = {
  fulls : Csc.t array;  (** ring of value sets, full A (for spmv) *)
  lowers : Csc.t array;  (** the same values, lower(A) (for the factor) *)
  mutable cur : int;  (** value set the factor was last computed from *)
  mutable t : Pl.t;
  mutable plan : Pl.plan;
  x : float array;
  r : float array;
  p : float array;
  ap : float array;
  b : float array;
  mutable iterations : int;  (** CG iterations served, traced run *)
}

let pcg () =
  (* New values scale A and shift its diagonal slightly: CG's iteration
     count stays near that of A, so the seed moves the inputs and not the
     amount of work. *)
  let shift_scale (a : Csc.t) =
    let s = uniform 0.5 2.0 and sigma = uniform 0.0 1e-3 in
    let values = Array.map (fun v -> s *. v) a.Csc.values in
    for j = 0 to a.Csc.ncols - 1 do
      for q = a.Csc.colptr.(j) to a.Csc.colptr.(j + 1) - 1 do
        if a.Csc.rowind.(q) = j then values.(q) <- values.(q) +. (s *. sigma)
      done
    done;
    { a with Csc.values }
  in
  let build (lower : Csc.t) =
    let t = Pl.compile (Pl.factor_solve `Ic0) lower in
    let plan = Pl.plan t in
    Pl.factor_ip plan lower;
    (t, plan)
  in
  let problems =
    Array.map
      (fun side ->
        let a0 = Generators.grid2d ~stencil:`Five ~shift:1e-4 side side in
        let n = a0.Csc.ncols in
        let fulls =
          Array.init ring (fun k -> if k = 0 then a0 else shift_scale a0)
        in
        let lowers = Array.map Csc.lower fulls in
        let t, plan = build lowers.(0) in
        let v () = Array.make n 0.0 in
        {
          fulls;
          lowers;
          cur = 0;
          t;
          plan;
          x = v ();
          r = v ();
          p = v ();
          ap = v ();
          b = v ();
          iterations = 0;
        })
      pcg_sides
  in
  (* A cold set-up compiles, plans and factors every size afresh. *)
  let setup ~first =
    cold_start ~first;
    snd
      (timed (fun () ->
           Array.iter
             (fun q ->
               let t, plan = build q.lowers.(0) in
               q.t <- t;
               q.plan <- plan;
               q.cur <- 0)
             problems))
  in
  let setup0 = setup ~first:true in
  (* One solve of [q.b] from x = 0; returns the iteration count, or -1
     when it did not converge. *)
  let solve q =
    let n = Array.length q.b in
    let a = q.fulls.(q.cur) and x = q.x and r = q.r and p = q.p and ap = q.ap in
    Array.fill x 0 n 0.0;
    Array.blit q.b 0 r 0 n;
    let bnorm = sqrt (Stages.dot q.b q.b) in
    span "kernels.precond";
    let z = Pl.execute_ip q.plan r in
    Trace.end_span ();
    span "kernels.blas1";
    Array.blit z 0 p 0 n;
    let rz = ref (Stages.dot r z) in
    let rr = ref (Stages.dot r r) in
    Trace.end_span ();
    let it = ref 0 in
    while sqrt !rr /. bnorm > pcg_tol && !it < pcg_max_iters do
      span "kernels.spmv";
      Stages.spmv_into a p ap;
      Trace.end_span ();
      span "kernels.blas1";
      let alpha = !rz /. Stages.dot p ap in
      Stages.axpy2_ip ~alpha p ap x r;
      Trace.end_span ();
      span "kernels.precond";
      let z = Pl.execute_ip q.plan r in
      Trace.end_span ();
      span "kernels.blas1";
      let rz' = Stages.dot r z in
      let beta = rz' /. !rz in
      rz := rz';
      for i = 0 to n - 1 do
        p.(i) <- z.(i) +. (beta *. p.(i))
      done;
      rr := Stages.dot r r;
      Trace.end_span ();
      incr it
    done;
    if Trace.enabled () then q.iterations <- q.iterations + !it;
    if sqrt !rr /. bnorm > pcg_tol then -1 else !it
  in
  let iters = Samples.create () in
  let factor_time = Samples.create () in
  let step () =
    let q = problems.(Random.State.int rng (Array.length problems)) in
    let n = Array.length q.b in
    for i = 0 to n - 1 do
      q.b.(i) <- uniform (-1.0) 1.0
    done;
    let refresh = Random.State.int rng 10 = 0 in
    let next = Random.State.int rng ring in
    span "request";
    let t0 = now () in
    if refresh then begin
      q.cur <- next;
      span "kernels.ic0_factor";
      Pl.factor_ip q.plan q.lowers.(next);
      Trace.end_span ()
    end;
    let t1 = now () in
    let it = solve q in
    let dt = now () -. t0 in
    Trace.end_span ();
    if refresh then Samples.add factor_time (t1 -. t0);
    if it >= 0 then Samples.add iters (float_of_int it);
    maybe_corrupt q.x;
    let ax = Array.make n 0.0 in
    full_mv q.fulls.(q.cur) q.x ax;
    let res = ref 0.0 in
    for i = 0 to n - 1 do
      res := !res +. ((q.b.(i) -. ax.(i)) ** 2.0)
    done;
    (dt, it >= 0 && sqrt !res /. sqrt (Stages.dot q.b q.b) <= 10.0 *. pcg_tol)
  in
  if !traced = 0 then run_e2e ~parts:11 ~setups:41 ~setup0 ~setup step
  else begin
    traced_windows step;
    let solve_s = Samples.median latencies in
    let sum f = Array.fold_left (fun acc q -> acc +. f q) 0.0 problems in
    (* The IC(0) pipeline keeps A's pattern: its symbolic work is the
       elimination tree, not a fill analysis. *)
    report "symbolic.analyze_ms"
      (1e3
      *. sum (fun q ->
             time_median ~reps:5 (fun () ->
                 ignore (Sympiler_symbolic.Etree.compute q.lowers.(0) : int array))));
    report "symbolic.fill_ratio" 1.0;
    report "symbolic.breakeven_reqs" (setup0 /. solve_s);
    report "core.compile_ms"
      (1e3
      *. sum (fun q ->
             time_median ~reps:5 (fun () ->
                 ignore (Pl.compile (Pl.factor_solve `Ic0) q.lowers.(0) : Pl.t))));
    report "core.plan_ms"
      (1e3 *. sum (fun q -> time_median ~reps:5 (fun () -> ignore (Pl.plan q.t : Pl.plan))));
    let sample = Array.init 20 (fun k -> problems.(k mod Array.length problems)) in
    report "core.minor_words_per_req"
      (minor_words
         (fun k ->
           let q = sample.(k) in
           Array.fill q.b 0 (Array.length q.b) 1.0;
           ignore (solve q : int))
         (Array.length sample));
    report_native ();
    report "kernels.solve_ms" (1e3 *. solve_s);
    report "kernels.precond_us" (1e6 *. per_span "kernels.precond");
    report "kernels.spmv_us" (1e6 *. per_span "kernels.spmv");
    (* BLAS-1 time per CG iteration (one spmv per iteration). *)
    let blas1_s =
      let s, _ = Layers.time "kernels.blas1" in
      let _, iterations = Layers.time "kernels.spmv" in
      s /. float_of_int (max 1 iterations)
    in
    report "kernels.blas1_us" (1e6 *. blas1_s);
    report "kernels.pcg_iters" (Samples.mean iters);
    report "kernels.ic0_factor_ms" (1e3 *. Samples.median factor_time);
    report "metrics.enabled_overhead_frac"
      (enabled_overhead (fun () -> Array.iter (fun q -> ignore (solve q : int)) sample));
    let ceil = measure_ceilings () in
    (* Per CG iteration: one spmv over full A, two triangular sweeps over
       the IC(0) factor (the pattern of lower(A)), ~10 vector passes. *)
    let work per_it =
      sum (fun q ->
          let n = Array.length q.b in
          float_of_int q.iterations
          *. float_of_int (per_it (Csc.nnz q.fulls.(0)) (Csc.nnz q.lowers.(0)) n))
    in
    let flops = work (fun nnz_a nnz_l n -> (2 * nnz_a) + (4 * nnz_l) + (12 * n)) in
    let bytes = work (fun nnz_a nnz_l n -> (16 * nnz_a) + (32 * nnz_l) + (80 * n)) in
    let secs =
      List.fold_left
        (fun acc name -> acc +. fst (Layers.time name))
        0.0
        [ "kernels.spmv"; "kernels.precond"; "kernels.blas1" ]
    in
    report_rates ceil ~flops ~bytes ~secs
  end

(* ------------------------------------------------------------------ *)
(* Workload churn: a new pattern nearly every request, assembled from
   shuffled triplets, AMD-ordered, compiled through the plan cache and
   solved once. *)

(* A seeded draw from one generator family, as a generator call that
   rebuilds the same matrix on demand (kept instead of the matrix, so
   remembered patterns do not grow the heap the requests' GC walks). *)
let draw_pattern family =
  let s = Random.State.int rng 1_000_000 in
  let ri lo hi = lo + Random.State.int rng (hi - lo + 1) in
  match family with
  | 0 ->
      let stencil = if s mod 2 = 0 then `Five else `Nine in
      let nx = ri 30 45 and ny = ri 30 45 in
      fun () -> Generators.grid2d ~stencil nx ny
  | 1 ->
      let n = ri 1000 2000 and band = ri 15 30 in
      fun () -> Generators.random_banded ~seed:s ~n ~band ~density:0.08 ()
  | 2 ->
      let n = ri 600 1000 and clique = ri 16 24 and overlap = ri 4 8 in
      fun () -> Generators.clique_chain ~seed:s ~n ~clique ~overlap ()
  | _ ->
      let nblocks = ri 30 50 and block = ri 10 16 in
      fun () -> Generators.block_tridiagonal ~seed:s ~nblocks ~block ()

let shuffled_triplets (a : Csc.t) =
  let nz = Csc.nnz a in
  let rows = Array.make nz 0 and cols = Array.make nz 0 and vals = Array.make nz 0.0 in
  for j = 0 to a.Csc.ncols - 1 do
    for p = a.Csc.colptr.(j) to a.Csc.colptr.(j + 1) - 1 do
      rows.(p) <- a.Csc.rowind.(p);
      cols.(p) <- j;
      vals.(p) <- a.Csc.values.(p)
    done
  done;
  for i = nz - 1 downto 1 do
    let k = Random.State.int rng (i + 1) in
    let sw arr = let t = arr.(i) in arr.(i) <- arr.(k); arr.(k) <- t in
    sw rows;
    sw cols;
    let t = vals.(i) in
    vals.(i) <- vals.(k);
    vals.(k) <- t
  done;
  { Triplet.nrows = a.Csc.nrows; ncols = a.Csc.ncols; len = nz; rows; cols; vals }

let triplet_mv (tr : Triplet.t) x y =
  Array.fill y 0 (Array.length y) 0.0;
  for k = 0 to tr.Triplet.len - 1 do
    let i = tr.Triplet.rows.(k) in
    y.(i) <- y.(i) +. (tr.Triplet.vals.(k) *. x.(tr.Triplet.cols.(k)))
  done

let triplet_norm_inf (tr : Triplet.t) =
  let rows = Array.make tr.Triplet.nrows 0.0 in
  for k = 0 to tr.Triplet.len - 1 do
    let i = tr.Triplet.rows.(k) in
    rows.(i) <- rows.(i) +. Float.abs tr.Triplet.vals.(k)
  done;
  Array.fold_left Float.max 0.0 rows

(* Repeats draw from the last [recent_window] distinct patterns; the
   plan cache holds 32, so some repeats hit and some were evicted. *)
let recent_window = 48
let churn_opts = S.Options.make ~ordering:`Amd ~cache:true ()

let churn () =
  let recent = Array.make recent_window None in
  let fresh = ref 0 in
  let next_input () =
    let full =
      if !fresh > 0 && Random.State.int rng 4 = 0 then
        let k = Random.State.int rng (min !fresh recent_window) in
        rescale ((Option.get recent.((!fresh - 1 - k) mod recent_window)) ())
      else begin
        let gen = draw_pattern (Random.State.int rng 4) in
        recent.(!fresh mod recent_window) <- Some gen;
        incr fresh;
        gen ()
      end
    in
    (shuffled_triplets full, rand_vec full.Csc.ncols)
  in
  let hits () = (S.Cholesky.cache_stats ()).S.Plan_cache.hits in
  (* One request: assemble, compile through the cache, solve. Returns
     lower(A), the handle, x, whether the compile hit, and its time. *)
  let serve ?cache (tr : Triplet.t) b =
    span "sparse.assemble";
    let al = Csc.lower (Csc.of_triplet tr) in
    Trace.end_span ();
    let h0 = hits () in
    span "core.compile";
    let t0 = now () in
    let h = S.Cholesky.compile ?cache ~opts:churn_opts al in
    let compile_s = now () -. t0 in
    Trace.end_span ();
    span "kernels.solve";
    let x = S.Cholesky.solve h al b in
    Trace.end_span ();
    (al, h, x, hits () > h0, compile_s)
  in
  let check tr x b =
    maybe_corrupt x;
    backward_ok ~mv:(triplet_mv tr) ~anorm:(triplet_norm_inf tr) x b
  in
  (* Probes of the traced run, on compile misses. *)
  let amd = Samples.create () and analyze = Samples.create () in
  let fill = Samples.create () and factor = Samples.create () in
  let miss_compile = Samples.create () and hit_compile = Samples.create () in
  let breakeven = Samples.create () in
  let flops = ref 0.0 and bytes = ref 0.0 in
  let probe (al : Csc.t) (h : S.Cholesky.t) compile_s solve_s =
    let p, amd_s =
      timed (fun () -> Ordering.amd (Csc.symmetrize_from_lower al))
    in
    Samples.add amd amd_s;
    let pl, _ = Perm.permute_lower p al in
    Samples.add analyze (snd (timed (fun () -> analyze_probe pl)));
    Samples.add fill (float_of_int h.S.Cholesky.nnz_l /. float_of_int (Csc.nnz al));
    let factor_s =
      snd (timed (fun () -> ignore (S.Cholesky.factor h al : Csc.t)))
    in
    Samples.add factor factor_s;
    Samples.add breakeven (compile_s /. solve_s);
    flops := !flops +. h.S.Cholesky.flops;
    bytes := !bytes +. (16.0 *. float_of_int (Csc.nnz al + h.S.Cholesky.nnz_l))
  in
  let step () =
    let tr, b = next_input () in
    span "request";
    let t0 = now () in
    let al, h, x, hit, compile_s = serve tr b in
    let dt = now () -. t0 in
    Trace.end_span ();
    if Trace.enabled () then begin
      if hit then Samples.add hit_compile compile_s
      else begin
        Samples.add miss_compile compile_s;
        if amd.Samples.n < 200 then probe al h compile_s (dt -. compile_s)
      end
    end;
    (dt, check tr x b)
  in
  (* Set-up: one request per generator family (the same four inputs every
     time) through a fresh, empty plan cache of its own; only the first
     set-up clears the default cache, so repetitions during the window
     leave the requests' cache alone, as in the traced run. *)
  let warm =
    Array.init 4 (fun f ->
        let a = draw_pattern f () in
        (shuffled_triplets a, rand_vec a.Csc.ncols))
  in
  let setup ~first =
    cold_start ~first;
    let cache = S.Plan_cache.create () in
    snd (timed (fun () -> Array.iter (fun (tr, b) -> ignore (serve ~cache tr b)) warm))
  in
  let setup0 = setup ~first:true in
  if !traced = 0 then run_e2e ~parts:11 ~setups:41 ~setup0 ~setup step
  else begin
    let c0 = S.Cholesky.cache_stats () in
    traced_windows step;
    let c1 = S.Cholesky.cache_stats () in
    let n_hits = c1.S.Plan_cache.hits - c0.S.Plan_cache.hits in
    let lookups = n_hits + c1.S.Plan_cache.misses - c0.S.Plan_cache.misses in
    let sample = Array.init 10 (fun _ -> next_input ()) in
    let batch () =
      S.Cholesky.cache_clear ();
      Array.iter (fun (tr, b) -> ignore (serve tr b)) sample
    in
    report "sparse.assemble_ms" (1e3 *. per_span "sparse.assemble");
    report "sparse.amd_ms" (1e3 *. Samples.median amd);
    report "symbolic.analyze_ms" (1e3 *. Samples.median analyze);
    report "symbolic.fill_ratio" (Samples.mean fill);
    report "symbolic.breakeven_reqs" (Samples.median breakeven);
    report "core.compile_ms" (1e3 *. Samples.median miss_compile);
    report "core.cache_hit_ratio"
      (float_of_int n_hits /. float_of_int (max 1 lookups));
    report "core.cache_evictions"
      (float_of_int (c1.S.Plan_cache.evictions - c0.S.Plan_cache.evictions));
    report "core.hit_ms" (1e3 *. Samples.median hit_compile);
    report "core.minor_words_per_req"
      (minor_words
         (fun i ->
           let tr, b = sample.(i) in
           ignore (serve tr b))
         (Array.length sample));
    report_native ();
    let factor_s = Samples.median factor in
    report "kernels.factor_ms" (1e3 *. factor_s);
    report "kernels.solve_ms" (1e3 *. Float.max 0.0 (per_span "kernels.solve" -. factor_s));
    report "metrics.enabled_overhead_frac" (enabled_overhead batch);
    let ceil = measure_ceilings () in
    report_rates ceil ~flops:!flops ~bytes:!bytes ~secs:(Samples.sum factor)
  end

(* ------------------------------------------------------------------ *)

let () =
  let run =
    match !workload with
    | "refactor" -> refactor
    | "pcg" -> pcg
    | "churn" -> churn
    | w ->
        prerr_endline ("e2e: unknown workload " ^ w ^ " (refactor | pcg | churn)");
        exit 2
  in
  run ();
  let cc = Native.cc () in
  note "compiler" (match cc with Some c -> Native.compiler_identity c | None -> "none");
  note "nproc" (string_of_int (Domain.recommended_domain_count ()));
  note "ocaml" Sys.ocaml_version;
  note "workload" !workload;
  note "seed" (string_of_int !seed);
  Printf.printf "{\"env\": {%s}}\n"
    (String.concat ", "
       (List.rev_map (fun (k, v) -> Printf.sprintf "%S: %S" k v) !env_notes));
  print_results ()
