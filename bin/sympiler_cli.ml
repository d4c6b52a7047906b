(* Command-line front end: read a matrix (Matrix Market) or pick a suite
   problem, run Sympiler's symbolic analysis, and emit specialized C code or
   an analysis report.

     sympiler_cli analyze  --matrix m.mtx
     sympiler_cli cholesky --matrix m.mtx -o chol.c
     sympiler_cli trisolve --matrix m.mtx --rhs-fill 0.03 -o tri.c
     sympiler_cli analyze  --problem ecology2
     sympiler_cli steady   --problem ecology2 --repeat 100
     sympiler_cli steady   --problem ecology2 --ndomains 4
     sympiler_cli updown   --problem ecology2 --repeat 200 --sigma 0.5
     sympiler_cli explain  --problem ecology2 --json
     sympiler_cli steady   --problem ecology2 --trace trace.json *)

open Cmdliner
open Sympiler_sparse
open Sympiler_symbolic

(* --ordering values; `Given has no CLI spelling. Coerced into
   [Sympiler.ordering] at the compile calls. *)
let ordering_of_flag :
    [ `Natural | `Rcm | `Amd | `Min_degree ] -> Sympiler.ordering =
 fun o -> (o :> Sympiler.ordering)

let ordering_flag_name = function
  | `Natural -> "natural"
  | `Rcm -> "rcm"
  | `Amd -> "amd"
  | `Min_degree -> "min-degree"

(* For the analysis-only path: permute the full matrix up front. *)
let apply_ordering ordering (a : Csc.t) : Csc.t =
  match ordering with
  | `Natural -> a
  | `Rcm -> Perm.symmetric_permute (Ordering.rcm a) a
  | `Amd -> Perm.symmetric_permute (Ordering.amd a) a
  | `Min_degree -> Perm.symmetric_permute (Ordering.min_degree a) a

let load ~matrix ~problem =
  match (matrix, problem) with
  | Some path, _ ->
      let a = Matrix_market.read path in
      if a.Csc.nrows <> a.Csc.ncols then failwith "matrix must be square";
      a
  | None, Some name ->
      (Sympiler.Suite.problem
         (Generators.problem_by_name name).Generators.id)
        .Sympiler.Suite.a_full
  | None, None -> failwith "pass --matrix FILE or --problem NAME"

(* With --profile, run [f] with the metrics switch on and print the
   registry's table to stderr (stdout stays clean for emitted C): the work
   counters, and per histogram the call count and the summed seconds that
   say where the time went. --trace FILE gives the per-pass breakdown. *)
let with_profile profile f =
  if not profile then f ()
  else begin
    let was_on = Sympiler.Metrics.enabled () in
    Sympiler.Metrics.enable ();
    let r = f () in
    if not was_on then Sympiler.Metrics.disable ();
    prerr_string (Sympiler.Metrics.to_table ());
    r
  end

(* With --trace FILE, run [f] with structured tracing on and write the
   Chrome trace-event JSON (Perfetto-loadable) afterwards. Available on
   every subcommand, composing with --profile. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
      Sympiler_trace.Trace.enable ();
      let r = f () in
      Sympiler_trace.Trace.disable ();
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Sympiler_trace.Trace.to_chrome_json ()));
      Printf.eprintf "wrote %s (%d spans%s)\n" path
        (Sympiler_trace.Trace.span_count ())
        (let d = Sympiler_trace.Trace.dropped_spans () in
         if d = 0 then "" else Printf.sprintf ", %d dropped" d);
      r

(* With --metrics FILE, run [f] with the metrics registry collecting and
   write a snapshot afterwards — OpenMetrics text exposition by default,
   the JSON snapshot when FILE ends in .json. Available on every
   subcommand, composing with --profile and --trace. *)
let with_metrics metrics f =
  match metrics with
  | None -> f ()
  | Some path ->
      Sympiler.Metrics.enable ();
      let r = f () in
      let body =
        if Filename.check_suffix path ".json" then
          Sympiler_prof.Prof.Json.to_string (Sympiler.Metrics.to_json ())
        else Sympiler.Metrics.to_openmetrics ()
      in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc body);
      Printf.eprintf "wrote %s (%d bytes)\n" path (String.length body);
      r

let output o s =
  match o with
  | None -> print_string s
  | Some path ->
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc s);
      Printf.eprintf "wrote %s (%d bytes)\n" path (String.length s)

(* ---- analyze ---- *)

let analyze matrix problem ordering profile trace metrics =
  with_metrics metrics @@ fun () ->
  with_trace trace @@ fun () ->
  with_profile profile @@ fun () ->
  let a = load ~matrix ~problem in
  let t0 = Sympiler_prof.Prof.now_seconds () in
  let a = apply_ordering ordering a in
  let al = Csc.lower a in
  let fill = Fill_pattern.analyze al in
  let sn =
    Supernodes.detect_etree ~counts:fill.Fill_pattern.counts
      ~parent:fill.Fill_pattern.parent ()
  in
  let dt = Sympiler_prof.Prof.now_seconds () -. t0 in
  Printf.printf "n                : %d\n" a.Csc.ncols;
  Printf.printf "ordering         : %s\n" (ordering_flag_name ordering);
  Printf.printf "nnz(A)           : %d\n" (Csc.nnz a);
  Printf.printf "nnz(L)           : %d (fill ratio %.2f)\n"
    (Fill_pattern.nnz_l fill)
    (float_of_int (Fill_pattern.nnz_l fill) /. float_of_int (Csc.nnz al));
  Printf.printf "factor flops     : %.3e\n" (Fill_pattern.flops fill);
  Printf.printf "supernodes       : %d (avg width %.2f, max %d)\n"
    (Supernodes.nsuper sn) (Supernodes.avg_width sn)
    (Array.fold_left max 0 (Supernodes.widths sn));
  Printf.printf "etree roots      : %d\n"
    (List.length (Etree.roots fill.Fill_pattern.parent));
  Printf.printf "symbolic time    : %.1f ms\n" (dt *. 1e3);
  0

(* ---- cholesky codegen ---- *)

let cholesky matrix problem ordering out profile trace metrics =
  with_metrics metrics @@ fun () ->
  with_trace trace @@ fun () ->
  with_profile profile @@ fun () ->
  let a = load ~matrix ~problem in
  let al = Csc.lower a in
  let t =
    Sympiler.Cholesky.compile
      ~opts:(Sympiler.Options.make ~ordering:(ordering_of_flag ordering) ())
      al
  in
  Printf.eprintf "C kernel: %s, nnz(L)=%d, symbolic %.1f ms\n"
    Sympiler.Cholesky.(variant_name (variant t))
    t.Sympiler.Cholesky.nnz_l
    (t.Sympiler.Cholesky.symbolic_seconds *. 1e3);
  output out (Sympiler.Cholesky.c_code t);
  0

(* ---- trisolve codegen ---- *)

let trisolve matrix problem rhs_fill out profile trace metrics =
  with_metrics metrics @@ fun () ->
  with_trace trace @@ fun () ->
  with_profile profile @@ fun () ->
  let a = load ~matrix ~problem in
  let l =
    if Csc.is_lower_triangular a then a
    else begin
      Printf.eprintf "input not triangular: factoring and using its L\n";
      let t = Sympiler.Cholesky.compile (Csc.lower a) in
      Sympiler.Cholesky.factor t (Csc.lower a)
    end
  in
  let b = Generators.sparse_rhs ~seed:1 ~n:l.Csc.ncols ~fill:rhs_fill () in
  let t = Sympiler.Trisolve.compile (l, b) in
  Printf.eprintf "reach-set: %d of %d columns, symbolic %.1f ms\n"
    (Array.length t.Sympiler.Trisolve.reach)
    l.Csc.ncols
    (t.Sympiler.Trisolve.symbolic_seconds *. 1e3);
  output out (Sympiler.Trisolve.c_code t);
  0

(* ---- steady-state mode ---- *)

(* Demonstrate the compile-once / execute-many regime on one matrix: one
   cached compile + plan creation (the first call), then [repeat] in-place
   refactorizations into the same plan, reporting steady-state time per
   call, the GC minor-heap words each call allocates (0 = allocation-free),
   and the compilation cache's behaviour on a recompile. *)
let steady matrix problem ordering repeat ndomains engine profile trace metrics
    =
  with_metrics metrics @@ fun () ->
  with_trace trace @@ fun () ->
  with_profile profile @@ fun () ->
  (* Per-call percentiles come from the plan's latency histogram, so the
     registry collects for the duration of the loop even without
     --metrics. *)
  Sympiler.Metrics.enable ();
  let now = Sympiler_prof.Prof.now_seconds in
  let a = load ~matrix ~problem in
  let al = Csc.lower a in
  let ord = ordering_of_flag ordering in
  let t0 = now () in
  let opts = Sympiler.Options.make ~ordering:ord ~cache:true () in
  let h = Sympiler.Cholesky.compile ~opts al in
  let p = Sympiler.Cholesky.plan ?ndomains ~engine h in
  ignore (Sympiler.Cholesky.execute_ip p al);
  let first = now () -. t0 in
  let reps = max 1 repeat in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sympiler.Cholesky.execute_ip p al)
  done;
  let per_call = (now () -. t0) /. float_of_int reps in
  let words =
    int_of_float ((Gc.minor_words () -. w0) /. float_of_int reps)
  in
  let h' = Sympiler.Cholesky.compile ~opts al in
  let stats = Sympiler.Cholesky.cache_stats () in
  Printf.printf "n                : %d\n" a.Csc.ncols;
  Printf.printf "ordering         : %s\n" (ordering_flag_name ordering);
  Printf.printf "nnz(L)           : %d\n" h.Sympiler.Cholesky.nnz_l;
  Printf.printf "variant          : %s (native and ndomains plans)\n"
    Sympiler.Cholesky.(variant_name (variant h));
  Printf.printf "engine           : %s\n"
    (match (engine, p.Sympiler.Cholesky.native) with
    | `Ocaml, _ -> "ocaml"
    | `Native, Some e ->
        Printf.sprintf "native (compiled C, %s in %.1f ms)"
          (match e.Sympiler.Native_engine.nk.Sympiler.Native.origin with
          | Sympiler.Native.Compiled -> "cc+dlopen"
          | Sympiler.Native.Disk_cache -> "dlopen of cached .so"
          | Sympiler.Native.Memory_cache -> "in-process cache hit")
          (e.Sympiler.Native_engine.nk.Sympiler.Native.compile_seconds *. 1e3)
    | `Native, None ->
        "ocaml (native requested, but no C compiler - fell back)");
  Printf.printf "first call       : %.3f ms (compile + plan + factor)\n"
    (first *. 1e3);
  Printf.printf "steady state     : %.3f ms/call over %d calls\n"
    (per_call *. 1e3) reps;
  let lat = Sympiler.Cholesky.plan_latency p in
  Printf.printf "latency p50/p99  : %.3f / %.3f ms (max %.3f ms, %d recorded)\n"
    (lat.Sympiler.Metrics.p50 *. 1e3)
    (lat.Sympiler.Metrics.p99 *. 1e3)
    (lat.Sympiler.Metrics.max *. 1e3)
    lat.Sympiler.Metrics.count;
  Printf.printf "minor words/call : %d%s\n" words
    (if words = 0 then " (allocation-free)" else "");
  Printf.printf "recompile hit    : %b (cache %d hits / %d misses)\n"
    (h' == h) stats.Sympiler.Plan_cache.hits stats.Sympiler.Plan_cache.misses;
  (match ndomains with
  | None -> ()
  | Some nd ->
      Printf.printf "parallel         : ndomains=%d (pool domains spawned: %d)\n"
        nd
        (Sympiler.Runtime.Pool.spawned ()));
  0

(* ---- explain ---- *)

(* Symbolic "explain" report for one compiled handle: fill, etree,
   histograms, level sets, the transformation decision log, and predicted
   vs executed flops (one numeric execution of the explained kernel runs
   with metrics on; its flops are the counter's increase over that run
   alone, so the factorization that yields a trisolve's L is not charged to
   the solve, and the registry keeps the whole run for --metrics). *)
let explain matrix problem kernel ordering rhs_fill json trace metrics =
  with_metrics metrics @@ fun () ->
  with_trace trace @@ fun () ->
  let a = load ~matrix ~problem in
  let was_on = Sympiler.Metrics.enabled () in
  Sympiler.Metrics.enable ();
  let counted run =
    let f0 = Sympiler.Metrics.(counter_value flops) in
    run ();
    Sympiler.Metrics.(counter_value flops) - f0
  in
  let report, executed_flops =
    match kernel with
    | `Cholesky ->
        let al = Csc.lower a in
        let t =
          Sympiler.Cholesky.compile
            ~opts:
              (Sympiler.Options.make ~ordering:(ordering_of_flag ordering) ())
            al
        in
        (* A numeric breakdown (e.g. indefinite values) still leaves the
           symbolic report valid. *)
        let executed =
          counted (fun () ->
              try ignore (Sympiler.Cholesky.factor t al)
              with Sympiler_kernels.Dense_blas.Not_positive_definite _ ->
                Printf.eprintf
                  "note: numeric factorization failed (not PD); executed \
                   flops are partial\n")
        in
        (Sympiler.Explain.cholesky t, executed)
    | `Trisolve ->
        (* A generic fill-reducing ordering would break L's triangularity,
           so for the solve the ordering is applied to A before the factor
           whose L is compiled (the handle itself stays natural). *)
        let a = apply_ordering ordering a in
        let l =
          if Csc.is_lower_triangular a then a
          else begin
            Printf.eprintf "input not triangular: factoring and using its L\n";
            let t = Sympiler.Cholesky.compile (Csc.lower a) in
            Sympiler.Cholesky.factor t (Csc.lower a)
          end
        in
        let b =
          Generators.sparse_rhs ~seed:1 ~n:l.Csc.ncols ~fill:rhs_fill ()
        in
        let t = Sympiler.Trisolve.compile (l, b) in
        let executed =
          counted (fun () -> ignore (Sympiler.Trisolve.solve t b))
        in
        (Sympiler.Explain.trisolve t, executed)
  in
  if not was_on then Sympiler.Metrics.disable ();
  let report = { report with Sympiler.Explain.executed_flops } in
  if json then print_endline (Sympiler.Explain.to_json report)
  else print_string (Sympiler.Explain.to_table report);
  0

(* ---- pipeline ---- *)

(* Compile a whole solver DAG through one symbolic analysis and drive the
   fused plan against the staged baseline: per-call time for both
   executors, allocation per fused apply, and bitwise identity (exit 1
   unless fused == staged). *)

let parse_stages (family : Sympiler.Pipeline.family option) (s : string) :
    Sympiler.Pipeline.stage_spec list =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun t -> t <> "")
  |> List.map (fun t ->
         match (t, family) with
         | "factor", Some f -> Sympiler.Pipeline.Factor f
         | "factor", None ->
             failwith "--stages factor requires --family (not none)"
         | "lower", _ -> Sympiler.Pipeline.Lower_solve
         | "diag", _ -> Sympiler.Pipeline.Diag_solve
         | "upper", _ -> Sympiler.Pipeline.Upper_solve
         | "solve", _ -> Sympiler.Pipeline.Solve
         | "spmv", _ -> Sympiler.Pipeline.Spmv
         | _ ->
             failwith
               (Printf.sprintf
                  "unknown stage %S (factor, lower, diag, upper, solve, spmv)"
                  t))

let pipeline matrix problem family stages ordering repeat profile trace
    metrics =
  with_metrics metrics @@ fun () ->
  with_trace trace @@ fun () ->
  with_profile profile @@ fun () ->
  let module Pl = Sympiler.Pipeline in
  let now = Sympiler_prof.Prof.now_seconds in
  let a = load ~matrix ~problem in
  let square =
    match family with Some (`Lu | `Ilu0) -> true | _ -> false
  in
  let input = if square then a else Csc.lower a in
  let dag = Pl.of_stages (parse_stages family stages) in
  let t =
    Pl.compile
      ~opts:
        (Sympiler.Options.make ~ordering:(ordering_of_flag ordering)
           ~cache:true ())
      dag input
  in
  print_string (Pl.describe t);
  let p = Pl.plan t in
  let has_factor =
    List.exists
      (function Pl.Factor _ -> true | _ -> false)
      (Pl.dag_of t)
  in
  if has_factor then Pl.factor_ip p input;
  let n = input.Csc.ncols in
  let b = Array.init n (fun i -> sin (0.01 *. float_of_int i)) in
  let xf = Array.copy (Pl.execute_ip p b) in
  let bitwise = xf = Pl.staged_execute_ip p b in
  let reps = max 1 repeat in
  let time f =
    let t0 = now () in
    for _ = 1 to reps do
      f ()
    done;
    (now () -. t0) /. float_of_int reps
  in
  let fused_s = time (fun () -> ignore (Pl.execute_ip p b)) in
  let staged_s = time (fun () -> ignore (Pl.staged_execute_ip p b)) in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Pl.execute_ip p b)
  done;
  let words = int_of_float ((Gc.minor_words () -. w0) /. float_of_int reps) in
  Printf.printf "  %-22s %.3f ms/call over %d calls\n" "fused apply"
    (fused_s *. 1e3) reps;
  Printf.printf "  %-22s %.3f ms/call (%.2fx)\n" "staged baseline"
    (staged_s *. 1e3)
    (staged_s /. Float.max fused_s 1e-12);
  Printf.printf "  %-22s %d%s\n" "minor words/apply" words
    (if words = 0 then " (allocation-free)" else "");
  Printf.printf "  %-22s %b\n" "fused == staged" bitwise;
  if bitwise then 0 else 1

(* ---- rank update / downdate ---- *)

(* Demonstrate first-class rank-1 update/downdate on a plan: one compile +
   factor, then [repeat] canceling update/downdate pairs through
   update_ip/downdate_ip, reporting the per-operation time against a full
   refactorization (and the resulting crossover rank), allocation per
   pair, factor drift over the stream, the memoized etree-path counters,
   the rollback contract on a rejected downdate, and one incremental
   column refactorization. *)
let updown matrix problem ordering repeat sigma col profile trace metrics =
  with_metrics metrics @@ fun () ->
  with_trace trace @@ fun () ->
  with_profile profile @@ fun () ->
  let module C = Sympiler.Cholesky in
  let now = Sympiler_prof.Prof.now_seconds in
  let a = load ~matrix ~problem in
  let al = Csc.lower a in
  let n = al.Csc.ncols in
  let ord = ordering_of_flag ordering in
  let h =
    C.compile ~opts:(Sympiler.Options.make ~ordering:ord ~cache:true ()) al
  in
  let p = C.plan h in
  ignore (C.execute_ip p al);
  let l = C.plan_factor p in
  let j = match col with Some j -> j | None -> n / 3 in
  if j < 0 || j >= n then failwith "--col out of range";
  (* update_ip takes w in natural order; build a legal one from factor
     column j (pattern subset holds by construction), mapping its pattern
     back through the ordering when one was applied. *)
  let w =
    let lo = l.Csc.colptr.(j) and hi = l.Csc.colptr.(j + 1) in
    match h.C.ord.Sympiler.o_perm with
    | None -> Sympiler_kernels.Rank_update.vector_like l ~j ~scale:0.2
    | Some perm ->
        let pairs =
          Array.init (hi - lo) (fun k ->
              (perm.(l.Csc.rowind.(lo + k)), 0.2 *. l.Csc.values.(lo + k)))
        in
        Array.sort compare pairs;
        {
          Vector.n;
          indices = Array.map fst pairs;
          values = Array.map snd pairs;
        }
  in
  let reps = max 1 repeat in
  (* Partial applications fix ?sigma once: the option cell is built here,
     not per call, keeping the timed loop allocation-free. *)
  let update = C.update_ip p ~sigma in
  let downdate = C.downdate_ip p ~sigma in
  (* warm the path table, then time the canceling pair stream *)
  update w;
  downdate w;
  let v0 = Array.copy l.Csc.values in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  for _ = 1 to reps do
    update w;
    downdate w
  done;
  let pair_s = (now () -. t0) /. float_of_int reps in
  let words =
    int_of_float ((Gc.minor_words () -. w0) /. float_of_int reps)
  in
  let drift =
    let scale =
      Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1.0 v0
    in
    let d = ref 0.0 in
    Array.iteri
      (fun i v ->
        d := Float.max !d (Float.abs (v -. l.Csc.values.(i)) /. scale))
      v0;
    !d
  in
  let refactor_s =
    let t0 = now () in
    for _ = 1 to reps do
      ignore (C.execute_ip p al)
    done;
    (now () -. t0) /. float_of_int reps
  in
  (* a short counted stream exposes the per-jmin path memoization: the
     path was computed once during warmup, so every counted pair hits *)
  let module M = Sympiler.Metrics in
  let was_on = M.enabled () in
  M.enable ();
  let h0 = M.counter_value M.updown_path_hits
  and m0 = M.counter_value M.updown_path_misses
  and e0 = M.counter_value M.updown_escalations in
  for _ = 1 to 10 do
    update w;
    downdate w
  done;
  let path_hits = M.counter_value M.updown_path_hits - h0
  and path_misses = M.counter_value M.updown_path_misses - m0
  and escalations = M.counter_value M.updown_escalations - e0 in
  if not was_on then M.disable ();
  (* rollback contract: a downdate violent enough to destroy positive
     definiteness must raise and leave the factor bitwise intact *)
  let before = Array.copy l.Csc.values in
  let rollback_ok =
    (try
       C.downdate_ip p ~sigma:1e9 w;
       false
     with Sympiler_kernels.Rank_update.Not_positive_definite _ -> true)
    && before = l.Csc.values
  in
  (* one incremental refactorization: bump a diagonal entry and recompute
     only the rows its etree path reaches *)
  ignore (C.execute_ip p al);
  ignore (C.refactor_cols_ip p al);
  let al2 =
    let values = Array.copy al.Csc.values in
    let c = n / 2 in
    for q = al.Csc.colptr.(c) to al.Csc.colptr.(c + 1) - 1 do
      if al.Csc.rowind.(q) = c then values.(q) <- values.(q) *. 1.5
    done;
    { al with Csc.values }
  in
  let incr_rows = C.refactor_cols_ip p al2 in
  Printf.printf "n                : %d\n" n;
  Printf.printf "ordering         : %s\n" (ordering_flag_name ordering);
  Printf.printf "nnz(L)           : %d\n" h.C.nnz_l;
  Printf.printf "update column    : %d (|w| = %d, sigma = %g)\n" j
    (Array.length w.Vector.indices)
    sigma;
  Printf.printf "update+downdate  : %.3f us/pair over %d pairs\n"
    (pair_s *. 1e6) reps;
  Printf.printf "refactorization  : %.3f us/call\n" (refactor_s *. 1e6);
  Printf.printf "crossover rank   : %.0f updates per refactorization\n"
    (Float.ceil (refactor_s /. Float.max (pair_s /. 2.0) 1e-12));
  Printf.printf "minor words/pair : %d%s\n" words
    (if words = 0 then " (allocation-free)" else "");
  Printf.printf "drift (%d pairs) : %.2e (relative)\n" reps drift;
  Printf.printf
    "path table       : %d hits / %d misses, %d escalations (10 counted \
     pairs)\n"
    path_hits path_misses escalations;
  Printf.printf "rollback intact  : %b (rejected downdate left L bitwise)\n"
    rollback_ok;
  Printf.printf "incremental      : %d of %d rows recomputed for one \
                 diagonal bump\n"
    incr_rows n;
  if rollback_ok then 0 else 1

(* ---- stats ---- *)

(* Run a representative compile-once / execute-many workload (a cached
   Cholesky compile, [repeat] in-place refactorizations, then a triangular
   solve plan driven the same way) with the metrics registry on, and print
   the resulting snapshot: an aligned table by default, the OpenMetrics
   text exposition, or the JSON snapshot. *)
let stats matrix problem ordering repeat ndomains engine format trace =
  with_trace trace @@ fun () ->
  Sympiler.Metrics.enable ();
  let a = load ~matrix ~problem in
  let al = Csc.lower a in
  let ord = ordering_of_flag ordering in
  let reps = max 1 repeat in
  let h =
    Sympiler.Cholesky.compile
      ~opts:(Sympiler.Options.make ~ordering:ord ~cache:true ())
      al
  in
  let p = Sympiler.Cholesky.plan ?ndomains ~engine h in
  for _ = 1 to reps do
    ignore (Sympiler.Cholesky.execute_ip p al)
  done;
  let l = Sympiler.Cholesky.factor h al in
  let b = Generators.sparse_rhs ~seed:1 ~n:l.Csc.ncols ~fill:0.03 () in
  let ts = Sympiler.Trisolve.compile (l, b) in
  let tp = Sympiler.Trisolve.plan ?ndomains ~engine ts in
  for _ = 1 to reps do
    ignore (Sympiler.Trisolve.execute_ip tp b)
  done;
  Sympiler.Metrics.sample_process ();
  (match format with
  | `Table -> print_string (Sympiler.Metrics.to_table ())
  | `Json ->
      print_endline
        (Sympiler_prof.Prof.Json.to_string (Sympiler.Metrics.to_json ()))
  | `Openmetrics -> print_string (Sympiler.Metrics.to_openmetrics ()));
  0

(* ---- cmdliner wiring ---- *)

let matrix_arg =
  Arg.(value & opt (some string) None & info [ "matrix"; "m" ] ~doc:"Matrix Market file")

let problem_arg =
  Arg.(value & opt (some string) None & info [ "problem"; "p" ] ~doc:"Suite problem name (Table 2)")

let out_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file (default stdout)")

let rhs_fill_arg =
  Arg.(value & opt float 0.03 & info [ "rhs-fill" ] ~doc:"RHS fill fraction")

let ordering_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("natural", `Natural);
             ("rcm", `Rcm);
             ("amd", `Amd);
             ("min-degree", `Min_degree);
           ])
        `Natural
    & info [ "ordering" ]
        ~doc:
          "Fill-reducing ordering applied as part of the symbolic stage: \
           $(docv) is one of natural, rcm, amd, min-degree."
        ~docv:"ORD")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Count with metrics on and print the metrics table (work \
           counters, per-histogram call counts and summed seconds) to \
           stderr")

let repeat_arg =
  Arg.(
    value & opt int 100
    & info [ "repeat"; "n" ] ~doc:"Steady-state refactorization count")

let ndomains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "ndomains" ]
        ~doc:
          "Execute through the persistent domain pool with $(docv) domains \
           (default: the sequential plan). Results are bitwise-identical \
           either way."
        ~docv:"N")

let engine_arg =
  Arg.(
    value
    & opt
        (enum [ ("ocaml", `Ocaml); ("native", `Native) ])
        `Ocaml
    & info [ "engine" ]
        ~doc:
          "Numeric executor: $(b,ocaml) (default) or $(b,native) (the \
           emitted C compiled to a shared object and called in place). \
           The native engine falls back to ocaml when no C compiler is \
           found."
        ~docv:"ENGINE")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ]
        ~doc:"Write a Chrome trace-event JSON (Perfetto-loadable) to $(docv)"
        ~docv:"FILE")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ]
        ~doc:
          "Collect runtime metrics during the command and write a snapshot \
           to $(docv): OpenMetrics text exposition, or the JSON snapshot \
           when $(docv) ends in .json"
        ~docv:"FILE")

let format_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("table", `Table);
             ("json", `Json);
             ("openmetrics", `Openmetrics);
           ])
        `Table
    & info [ "format"; "f" ]
        ~doc:
          "Output format: $(b,table) (default), $(b,json), or \
           $(b,openmetrics)"
        ~docv:"FMT")

let sigma_arg =
  Arg.(
    value & opt float 0.5
    & info [ "sigma" ]
        ~doc:"Rank-1 coefficient: each pair applies A +/- $(docv) w w^T"
        ~docv:"S")

let col_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "col" ]
        ~doc:
          "Factor column whose pattern seeds the update vector (default \
           n/3); its pattern subset makes the update legal by \
           construction."
        ~docv:"J")

let kernel_arg =
  Arg.(
    value
    & opt (enum [ ("cholesky", `Cholesky); ("trisolve", `Trisolve) ]) `Cholesky
    & info [ "kernel"; "k" ] ~doc:"Kernel to explain: cholesky or trisolve")

let json_arg =
  Arg.(
    value & flag & info [ "json" ] ~doc:"Emit the report as JSON on stdout")

let family_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("cholesky", Some `Cholesky);
             ("ldlt", Some `Ldlt);
             ("lu", Some `Lu);
             ("ic0", Some `Ic0);
             ("ilu0", Some `Ilu0);
             ("none", None);
           ])
        (Some `Cholesky)
    & info [ "family" ]
        ~doc:
          "Factorization family resolving the DAG's factor and solve \
           stages: cholesky (default), ldlt, lu, ic0, ilu0, or none (a \
           factorless chain running on the triangular input itself)."
        ~docv:"FAM")

let stages_arg =
  Arg.(
    value
    & opt string "factor,solve"
    & info [ "stages" ]
        ~doc:
          "Comma-separated pipeline stages, execution order: factor, \
           lower, diag, upper, solve, spmv (default factor,solve)."
        ~docv:"STAGES")

let analyze_cmd =
  Cmd.v (Cmd.info "analyze" ~doc:"Report symbolic analysis of a matrix")
    Term.(
      const analyze $ matrix_arg $ problem_arg $ ordering_arg $ profile_arg
      $ trace_arg $ metrics_arg)

let steady_cmd =
  Cmd.v
    (Cmd.info "steady"
       ~doc:
         "Measure steady-state Cholesky refactorization through a reusable \
          plan (compile once, execute many)")
    Term.(
      const steady $ matrix_arg $ problem_arg $ ordering_arg $ repeat_arg
      $ ndomains_arg $ engine_arg $ profile_arg $ trace_arg $ metrics_arg)

let cholesky_cmd =
  Cmd.v (Cmd.info "cholesky" ~doc:"Emit specialized Cholesky C code")
    Term.(
      const cholesky $ matrix_arg $ problem_arg $ ordering_arg $ out_arg
      $ profile_arg $ trace_arg $ metrics_arg)

let trisolve_cmd =
  Cmd.v (Cmd.info "trisolve" ~doc:"Emit specialized triangular-solve C code")
    Term.(
      const trisolve $ matrix_arg $ problem_arg $ rhs_fill_arg $ out_arg
      $ profile_arg $ trace_arg $ metrics_arg)

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain a compilation: fill, etree, histograms, level sets, the \
          transformation decision log, predicted vs executed flops")
    Term.(
      const explain $ matrix_arg $ problem_arg $ kernel_arg $ ordering_arg
      $ rhs_fill_arg $ json_arg $ trace_arg $ metrics_arg)

let updown_cmd =
  Cmd.v
    (Cmd.info "updown"
       ~doc:
         "Drive rank-1 update/downdate through a reusable plan: canceling \
          update/downdate pairs against a full refactorization, the \
          crossover rank, allocation, drift, path-table counters, and the \
          rollback contract")
    Term.(
      const updown $ matrix_arg $ problem_arg $ ordering_arg $ repeat_arg
      $ sigma_arg $ col_arg $ profile_arg $ trace_arg $ metrics_arg)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a representative compile-once / execute-many workload with \
          metrics collection on and print the registry snapshot (table, \
          JSON, or OpenMetrics)")
    Term.(
      const stats $ matrix_arg $ problem_arg $ ordering_arg $ repeat_arg
      $ ndomains_arg $ engine_arg $ format_arg $ trace_arg)

let pipeline_cmd =
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:
         "Compile a whole solver DAG through one symbolic analysis and race \
          the fused plan against the staged baseline (exit 1 unless their \
          results agree bit for bit)")
    Term.(
      const pipeline $ matrix_arg $ problem_arg $ family_arg $ stages_arg
      $ ordering_arg $ repeat_arg $ profile_arg $ trace_arg $ metrics_arg)

let () =
  let doc = "Sympiler: sparsity-specific code generation for sparse kernels" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "sympiler_cli" ~doc)
          [
            analyze_cmd;
            cholesky_cmd;
            trisolve_cmd;
            steady_cmd;
            updown_cmd;
            explain_cmd;
            stats_cmd;
            pipeline_cmd;
          ]))
