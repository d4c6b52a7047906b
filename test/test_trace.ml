open Sympiler_sparse
open Sympiler_trace
open Helpers

(* Tests for the structured-tracing layer: span nesting and ordering,
   attribute escaping in the Chrome exporter, ring-buffer wraparound,
   zero allocation when disabled, the cache-hit attribute, the
   transformation decision log, one symbolic analysis per ordered compile,
   and the explain reports (including the ordering's decision and the 0x0
   edge case). *)

let with_trace ?capacity f =
  Trace.enable ?capacity ();
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    f

let is_infix needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let span_named name = List.find (fun s -> s.Trace.name = name) (Trace.spans ())

let empty_csc () =
  Csc.create ~nrows:0 ~ncols:0 ~colptr:[| 0 |] ~rowind:[||] ~values:[||]

(* ---- span recording ---- *)

let test_nesting_and_ordering () =
  with_trace @@ fun () ->
  Trace.with_span "outer" (fun () ->
      Trace.with_span "inner" (fun () -> ignore (Sys.opaque_identity 1)));
  Alcotest.(check int) "two spans" 2 (Trace.span_count ());
  (* Spans land at completion: children before parents in ring order. *)
  (match Trace.spans () with
  | [ a; b ] ->
      Alcotest.(check string) "child recorded first" "inner" a.Trace.name;
      Alcotest.(check string) "parent recorded second" "outer" b.Trace.name
  | _ -> Alcotest.fail "expected exactly two spans");
  let outer = span_named "outer" and inner = span_named "inner" in
  Alcotest.(check int) "outer depth" 0 outer.Trace.depth;
  Alcotest.(check int) "inner depth" 1 inner.Trace.depth;
  Alcotest.(check bool) "inner starts after outer" true
    (inner.Trace.start_ns >= outer.Trace.start_ns);
  Alcotest.(check bool) "inner contained in outer" true
    (inner.Trace.start_ns + inner.Trace.dur_ns
    <= outer.Trace.start_ns + outer.Trace.dur_ns);
  Alcotest.(check bool) "durations non-negative" true
    (inner.Trace.dur_ns >= 0 && outer.Trace.dur_ns >= inner.Trace.dur_ns)

let test_exception_safety () =
  with_trace @@ fun () ->
  (try Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "span closed on raise" 1 (Trace.span_count ());
  (* Depth must be back at the root: a new span records at depth 0. *)
  Trace.with_span "after" ignore;
  Alcotest.(check int) "root depth after raise" 0
    (span_named "after").Trace.depth

let test_attrs () =
  with_trace @@ fun () ->
  Trace.with_span "s" (fun () ->
      Trace.set_attr "k" (Trace.Int 7);
      Trace.set_attr "f" (Trace.Bool true));
  let s = span_named "s" in
  Alcotest.(check bool) "attr k" true
    (List.mem_assoc "k" s.Trace.attrs && List.mem_assoc "f" s.Trace.attrs)

(* ---- Chrome exporter ---- *)

let test_chrome_escaping () =
  with_trace @@ fun () ->
  Trace.with_span "na\"me\nwith" (fun () ->
      Trace.set_attr "at\"tr" (Trace.Str "va\"l\nue"));
  Trace.instant "marker";
  let j = Trace.to_chrome_json () in
  Alcotest.(check bool) "has traceEvents" true (is_infix "\"traceEvents\"" j);
  Alcotest.(check bool) "span name escaped" true
    (is_infix {|na\"me\nwith|} j);
  Alcotest.(check bool) "attr key escaped" true (is_infix {|at\"tr|} j);
  Alcotest.(check bool) "attr value escaped" true (is_infix {|va\"l\nue|} j);
  Alcotest.(check bool) "no raw newline" true (not (String.contains j '\n'));
  Alcotest.(check bool) "instant phase" true (is_infix {|"ph":"i"|} j);
  Alcotest.(check bool) "complete phase" true (is_infix {|"ph":"X"|} j)

(* Every exported ts and dur matches the recorded nanoseconds to within
   half a microsecond. Counted from the monotonic clock's origin (boot),
   ts printed with 9 significant digits loses whole microseconds once the
   host has been up about 17 minutes. *)
let test_chrome_timestamps () =
  with_trace @@ fun () ->
  for _ = 1 to 3 do
    Trace.with_span "outer" (fun () ->
        Trace.with_span "inner" (fun () ->
            Trace.with_span "leaf" (fun () -> ignore (Sys.opaque_identity 1))))
  done;
  let recorded = Trace.spans () in
  let events =
    match Sympiler_prof.Prof.Json.of_string (Trace.to_chrome_json ()) with
    | Ok (Sympiler_prof.Prof.Json.Obj fs) -> (
        match List.assoc "traceEvents" fs with
        | Sympiler_prof.Prof.Json.List es -> es
        | _ -> Alcotest.fail "traceEvents is not a list")
    | _ -> Alcotest.fail "chrome JSON does not parse"
  in
  let num k = function
    | Sympiler_prof.Prof.Json.Obj fs -> (
        match List.assoc k fs with
        | Sympiler_prof.Prof.Json.Float f -> f
        | Sympiler_prof.Prof.Json.Int i -> float_of_int i
        | _ -> Alcotest.failf "%s is not a number" k)
    | _ -> Alcotest.fail "event is not an object"
  in
  Alcotest.(check int) "one event per span" (List.length recorded)
    (List.length events);
  let s0 = List.hd recorded and e0 = List.hd events in
  List.iter2
    (fun s e ->
      let want_ts = float_of_int (s.Trace.start_ns - s0.Trace.start_ns) /. 1e3 in
      let got_ts = num "ts" e -. num "ts" e0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s ts %.3f vs %.3f us" s.Trace.name got_ts want_ts)
        true
        (Float.abs (got_ts -. want_ts) <= 0.5);
      let want_dur = float_of_int s.Trace.dur_ns /. 1e3 in
      Alcotest.(check bool)
        (Printf.sprintf "%s dur %.3f vs %.3f us" s.Trace.name (num "dur" e)
           want_dur)
        true
        (Float.abs (num "dur" e -. want_dur) <= 0.5))
    recorded events

(* ---- ring buffer ---- *)

let test_wraparound () =
  with_trace ~capacity:4 @@ fun () ->
  for i = 0 to 5 do
    Trace.with_span (Printf.sprintf "s%d" i) ignore
  done;
  Alcotest.(check int) "count capped at capacity" 4 (Trace.span_count ());
  Alcotest.(check int) "two dropped" 2 (Trace.dropped_spans ());
  (* Oldest dropped first: s0 and s1 gone, s2..s5 remain in order. *)
  Alcotest.(check (list string)) "oldest-first order"
    [ "s2"; "s3"; "s4"; "s5" ]
    (List.map (fun s -> s.Trace.name) (Trace.spans ()))

let test_reset_and_capacity_change () =
  with_trace ~capacity:4 @@ fun () ->
  Trace.with_span "a" ignore;
  Trace.reset ();
  Alcotest.(check int) "reset clears" 0 (Trace.span_count ());
  (* Re-enabling with a different capacity reallocates and clears. *)
  Trace.enable ~capacity:8 ();
  Trace.with_span "b" ignore;
  Alcotest.(check int) "fresh ring" 1 (Trace.span_count ());
  Alcotest.(check int) "no drops" 0 (Trace.dropped_spans ())

(* ---- disabled mode ---- *)

let test_disabled_zero_alloc () =
  Trace.disable ();
  let pairs = 1000 in
  let loop () =
    for _ = 1 to pairs do
      Trace.begin_span "hot";
      Trace.set_attr "k" (Trace.Int 1);
      Trace.end_span ()
    done
  in
  loop ();
  (* warm-up *)
  let w0 = Gc.minor_words () in
  loop ();
  let w1 = Gc.minor_words () in
  (* Amortized per-pair allocation must be exactly zero; the sampling
     calls themselves may box a couple of floats, hence the division. *)
  Alcotest.(check int) "minor words per disabled pair" 0
    (int_of_float ((w1 -. w0) /. float_of_int pairs));
  Alcotest.(check int) "nothing recorded" 0 (Trace.span_count ())

(* ---- pipeline integration ---- *)

let small_spd () = Generators.grid2d ~stencil:`Five 8 8

let test_cache_hit_attr () =
  with_trace @@ fun () ->
  let al = Csc.lower (small_spd ()) in
  let cache = Sympiler.Plan_cache.create () in
  let h = Sympiler.Cholesky.compile ~cache al in
  let h' = Sympiler.Cholesky.compile ~cache al in
  Alcotest.(check bool) "physically equal handles" true (h == h');
  let lookups =
    List.filter
      (fun s -> s.Trace.name = "compile_cached.cholesky")
      (Trace.spans ())
  in
  let cache_attr s = List.assoc "cache" s.Trace.attrs in
  (match lookups with
  | [ first; second ] ->
      Alcotest.(check bool) "first is miss" true
        (cache_attr first = Trace.Str "miss");
      Alcotest.(check bool) "second is hit" true
        (cache_attr second = Trace.Str "hit")
  | l -> Alcotest.fail (Printf.sprintf "expected 2 lookups, got %d" (List.length l)));
  (* The miss compiled: symbolic stage spans must be nested inside it. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) ("recorded " ^ name) true
        (List.exists (fun s -> s.Trace.name = name) (Trace.spans ())))
    [ "compile.cholesky"; "symbolic.fill"; "symbolic.etree";
      "symbolic.col_counts"; "symbolic.supernode_detection" ]

let test_decision_log () =
  let al = Csc.lower (small_spd ()) in
  with_trace @@ fun () ->
  let h = Sympiler.Cholesky.compile al in
  let passes =
    List.map (fun d -> d.Trace.pass) h.Sympiler.Cholesky.decisions
  in
  Alcotest.(check bool) "cholesky decisions cover both passes" true
    (List.mem "vi-prune" passes && List.mem "vs-block" passes);
  List.iter
    (fun d ->
      if d.Trace.pass = "vi-prune" then begin
        Alcotest.(check bool) "vi-prune fired" true d.Trace.fired;
        Alcotest.(check bool) "ratio in [0,1]" true
          (d.Trace.value >= 0.0 && d.Trace.value <= 1.0)
      end)
    h.Sympiler.Cholesky.decisions;
  (* Decisions are also emitted as instants into the trace. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) ("instant " ^ name) true
        (List.exists
           (fun s -> s.Trace.name = name && s.Trace.kind = Trace.Instant)
           (Trace.spans ())))
    [ "decision.vi-prune"; "decision.vs-block" ];
  (* Trisolve decisions ride on the handle too. *)
  let b = { Vector.n = 10; indices = figure1_beta; values = [| 1.0; 1.0 |] } in
  let t = Sympiler.Trisolve.compile (figure1_l, b) in
  Alcotest.(check int) "trisolve has two decisions" 2
    (List.length t.Sympiler.Trisolve.decisions)

(* An ordered compile runs one elimination tree and one column-count pass:
   the natural-order baseline is Explain's business, not the compile's. *)
let test_ordered_compile_one_analysis () =
  let al = Csc.lower (Generators.grid2d 30 30) in
  with_trace @@ fun () ->
  ignore
    (Sympiler.Cholesky.compile
       ~opts:(Sympiler.Options.make ~ordering:`Amd ())
       al
      : Sympiler.Cholesky.t);
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " spans") 1
        (List.length
           (List.filter (fun s -> s.Trace.name = name) (Trace.spans ()))))
    [ "symbolic.etree"; "symbolic.col_counts" ]

let test_explain_ordering_decision () =
  let al = Csc.lower (Generators.grid2d 12 12) in
  let h =
    Sympiler.Cholesky.compile ~opts:(Sympiler.Options.make ~ordering:`Amd ()) al
  in
  Alcotest.(check bool) "the handle logs no ordering decision" false
    (List.exists
       (fun d -> d.Trace.pass = "ordering")
       h.Sympiler.Cholesky.decisions);
  let r = Sympiler.explain h in
  match r.Sympiler.Explain.decisions with
  | d :: rest ->
      Alcotest.(check string) "explain leads with the ordering" "ordering"
        d.Trace.pass;
      Alcotest.(check bool) "fired" true d.Trace.fired;
      Alcotest.(check (float 0.0)) "value = nnz_l / nnz_l_natural"
        (float_of_int r.Sympiler.Explain.nnz_l
        /. float_of_int r.Sympiler.Explain.nnz_l_natural)
        d.Trace.value;
      Alcotest.(check bool) "then the handle's decisions" true
        (rest = h.Sympiler.Cholesky.decisions)
  | [] -> Alcotest.fail "no decisions"

(* On a small grid and on suite problems 2 and 6; both exporters render
   the steady calls' spans. *)
let test_steady_spans () =
  List.iter
    (fun (name, al) ->
      let h = Sympiler.Cholesky.compile al in
      let p = Sympiler.Cholesky.plan h in
      ignore (Sympiler.Cholesky.execute_ip p al);
      with_trace @@ fun () ->
      ignore (Sympiler.Cholesky.execute_ip p al);
      ignore (Sympiler.Cholesky.execute_ip p al);
      let factor_spans =
        List.filter
          (fun s -> is_infix "factor_ip." s.Trace.name)
          (Trace.spans ())
      in
      Alcotest.(check int) (name ^ ": one span per refactor call") 2
        (List.length factor_spans);
      let chrome = Trace.to_chrome_json () in
      Alcotest.(check bool) (name ^ ": chrome JSON") true
        (chrome.[0] = '{' && is_infix "traceEvents" chrome
        && is_infix "factor_ip." chrome);
      Alcotest.(check bool) (name ^ ": folded") true
        (is_infix "factor_ip." (Trace.to_folded ())))
    (("grid 8x8", Csc.lower (small_spd ()))
    :: List.map
         (fun id ->
           let sp = Sympiler.Suite.problem id in
           (sp.Sympiler.Suite.name, sp.Sympiler.Suite.a_lower))
         [ 2; 6 ])

(* ---- folded exporter ---- *)

let test_folded () =
  with_trace @@ fun () ->
  Trace.with_span "root" (fun () ->
      Trace.with_span "leaf" (fun () ->
          ignore (Sys.opaque_identity (Array.make 100 0))));
  let f = Trace.to_folded () in
  Alcotest.(check bool) "has root;leaf path" true (is_infix "root;leaf " f);
  (* Every line is "path count" with a positive count. *)
  String.split_on_char '\n' f
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
         match String.rindex_opt line ' ' with
         | None -> Alcotest.fail ("malformed folded line: " ^ line)
         | Some i ->
             let v =
               int_of_string
                 (String.sub line (i + 1) (String.length line - i - 1))
             in
             Alcotest.(check bool) "positive self time" true (v > 0))

(* ---- explain reports ---- *)

let test_explain_cholesky () =
  let a = small_spd () in
  let al = Csc.lower a in
  let h = Sympiler.Cholesky.compile al in
  let r = Sympiler.explain h in
  Alcotest.(check string) "kernel" "cholesky" r.Sympiler.Explain.kernel;
  Alcotest.(check int) "n" 64 r.Sympiler.Explain.n;
  Alcotest.(check bool) "fill ratio >= 1" true
    (r.Sympiler.Explain.fill_ratio >= 1.0);
  Alcotest.(check bool) "etree height positive" true
    (r.Sympiler.Explain.etree_height > 0);
  Alcotest.(check bool) "col hist nonempty" true
    (r.Sympiler.Explain.col_count_hist <> []);
  Alcotest.(check bool) "hist counts cover all columns" true
    (List.fold_left (fun acc (_, c) -> acc + c) 0
       r.Sympiler.Explain.col_count_hist
    = 64);
  Alcotest.(check int) "two decisions" 2
    (List.length r.Sympiler.Explain.decisions);
  Alcotest.(check bool) "level depth positive" true
    (r.Sympiler.Explain.level_depth > 0);
  Alcotest.(check bool) "predicted flops positive" true
    (r.Sympiler.Explain.predicted_flops > 0.0);
  let j = Sympiler.Explain.to_json r in
  List.iter
    (fun k ->
      Alcotest.(check bool) ("json has " ^ k) true (is_infix ("\"" ^ k ^ "\"") j))
    [ "kernel"; "fill_ratio"; "etree_height"; "col_count_hist";
      "supernode_width_hist"; "decisions"; "predicted_flops";
      "executed_flops"; "level_depth" ];
  let t = Sympiler.Explain.to_table r in
  Alcotest.(check bool) "table has fill ratio" true (is_infix "fill ratio" t);
  Alcotest.(check bool) "table has decisions" true
    (is_infix "decision[vi-prune]" t)

let test_explain_trisolve () =
  let b = { Vector.n = 10; indices = figure1_beta; values = [| 1.0; 1.0 |] } in
  let h = Sympiler.Trisolve.compile (figure1_l, b) in
  let r = Sympiler.Explain.trisolve h in
  Alcotest.(check string) "kernel" "trisolve" r.Sympiler.Explain.kernel;
  Alcotest.(check int) "n" 10 r.Sympiler.Explain.n;
  Alcotest.(check bool) "level depth positive" true
    (r.Sympiler.Explain.level_depth > 0);
  Alcotest.(check int) "two decisions" 2
    (List.length r.Sympiler.Explain.decisions)

let test_explain_empty () =
  (* 0x0 input: every ratio must be well-formed (no division by zero). *)
  let e = empty_csc () in
  let h = Sympiler.Cholesky.compile e in
  let r = Sympiler.explain h in
  Alcotest.(check int) "n" 0 r.Sympiler.Explain.n;
  Alcotest.(check (float 0.0)) "fill ratio" 0.0 r.Sympiler.Explain.fill_ratio;
  Alcotest.(check int) "etree height" 0 r.Sympiler.Explain.etree_height;
  Alcotest.(check int) "level depth" 0 r.Sympiler.Explain.level_depth;
  Alcotest.(check bool) "histograms empty" true
    (r.Sympiler.Explain.col_count_hist = []
    && r.Sympiler.Explain.supernode_width_hist = []);
  List.iter
    (fun (d : Trace.decision) ->
      Alcotest.(check bool) "decision values finite or nan, not inf" true
        (Float.is_nan d.Trace.value || Float.is_finite d.Trace.value))
    r.Sympiler.Explain.decisions;
  (* The emitters must not raise, and JSON must stay parseable (nan
     renders as null). *)
  let j = Sympiler.Explain.to_json r in
  Alcotest.(check bool) "json emitted" true (is_infix "\"kernel\"" j);
  Alcotest.(check bool) "no bare nan in json" true (not (is_infix "nan" j));
  ignore (Sympiler.Explain.to_table r);
  (* Same for trisolve on the empty pattern. *)
  let b0 = { Vector.n = 0; indices = [||]; values = [||] } in
  let th = Sympiler.Trisolve.compile (e, b0) in
  let tr = Sympiler.Explain.trisolve th in
  Alcotest.(check (float 0.0)) "trisolve fill ratio" 0.0
    tr.Sympiler.Explain.fill_ratio;
  Alcotest.(check int) "trisolve level depth" 0
    tr.Sympiler.Explain.level_depth;
  ignore (Sympiler.Explain.to_json tr)

(* Explain reads level statistics from the level order and builds no
   level-set schedule, so the schedule series stay where they were. *)
let test_explain_counts_no_schedule () =
  with_metrics @@ fun () ->
  let h = Sympiler.Cholesky.compile (Csc.lower (small_spd ())) in
  let b = { Vector.n = 10; indices = figure1_beta; values = [| 1.0; 1.0 |] } in
  let th = Sympiler.Trisolve.compile (figure1_l, b) in
  Metrics.set Metrics.max_level_width (-1.0);
  let levels =
    counted Metrics.levels (fun () ->
        ignore (Sympiler.Explain.cholesky h : Sympiler.Explain.report);
        ignore (Sympiler.Explain.trisolve th : Sympiler.Explain.report))
  in
  Alcotest.(check int) "sympiler_levels unchanged" 0 levels;
  Alcotest.(check (float 0.0))
    "sympiler_max_level_width unchanged" (-1.0)
    (Metrics.gauge_value Metrics.max_level_width)

(* Depth and widest level of the global levelization. *)
let level_oracle (l : Csc.t) =
  let level_ptr, _ = Helpers.levelize l in
  let depth = Array.length level_ptr - 1 in
  let width lv = level_ptr.(lv + 1) - level_ptr.(lv) in
  (depth, Array.fold_left max 0 (Array.init depth width))

(* On every suite problem the explain reports' level depth and widest
   level are the global levelization's, for the factor's pattern
   (cholesky) and for the solved factor (trisolve). *)
let test_explain_levels_suite () =
  List.iter
    (fun (p : Sympiler.Suite.prepared) ->
      let al = p.Sympiler.Suite.a_lower in
      let h = Sympiler.Cholesky.compile al in
      let check what (r : Sympiler.Explain.report) l =
        let depth, width = level_oracle l in
        Alcotest.(check (pair int int))
          (Printf.sprintf "%s %s: level depth, max width" p.Sympiler.Suite.name
             what)
          (depth, width)
          (r.Sympiler.Explain.level_depth, r.Sympiler.Explain.max_level_width)
      in
      let fill = Sympiler_symbolic.Fill_pattern.analyze al in
      check "cholesky" (Sympiler.Explain.cholesky h)
        (Sympiler_symbolic.Fill_pattern.l_view fill);
      let l = Sympiler.Cholesky.factor h al in
      let th = Sympiler.Trisolve.compile (l, Sympiler.Suite.rhs_for p) in
      check "trisolve" (Sympiler.Explain.trisolve th) l)
    (Sympiler.Suite.all ())

(* Tracing the empty-pattern compile must also be well-formed. *)
let test_trace_empty () =
  with_trace @@ fun () ->
  let e = empty_csc () in
  ignore (Sympiler.Cholesky.compile e);
  let j = Trace.to_chrome_json () in
  Alcotest.(check bool) "compile span present" true
    (is_infix "compile.cholesky" j);
  Alcotest.(check bool) "no bare nan in chrome json" true
    (not (is_infix "nan" j))

let suite =
  [
    ("span nesting and ordering", `Quick, test_nesting_and_ordering);
    ("span exception safety", `Quick, test_exception_safety);
    ("chrome ts and dur keep microseconds", `Quick, test_chrome_timestamps);
    ("span attributes", `Quick, test_attrs);
    ("chrome JSON escaping", `Quick, test_chrome_escaping);
    ("ring wraparound drops oldest", `Quick, test_wraparound);
    ("reset and capacity change", `Quick, test_reset_and_capacity_change);
    ("disabled mode allocates nothing", `Quick, test_disabled_zero_alloc);
    ("cache hit/miss attribute", `Quick, test_cache_hit_attr);
    ("transformation decision log", `Quick, test_decision_log);
    ("ordered compile: one analysis", `Quick, test_ordered_compile_one_analysis);
    ("explain: ordering decision", `Quick, test_explain_ordering_decision);
    ("steady-state factor spans", `Quick, test_steady_spans);
    ("folded exporter", `Quick, test_folded);
    ("explain cholesky", `Quick, test_explain_cholesky);
    ("explain trisolve", `Quick, test_explain_trisolve);
    ("explain empty matrix", `Quick, test_explain_empty);
    ("explain counts no level schedule", `Quick, test_explain_counts_no_schedule);
    ("explain level stats on the suite", `Quick, test_explain_levels_suite);
    ("trace empty matrix", `Quick, test_trace_empty);
  ]
