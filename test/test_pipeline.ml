open Sympiler_sparse
open Sympiler_kernels
module Pl = Sympiler.Pipeline

(* Pipelines: whole solver DAGs compiled through one shared symbolic
   analysis into one fused plan. The fused executor must be
   bitwise-identical to the staged baseline (fusion removes copies and
   dispatch, never reorders arithmetic), allocate nothing in steady state,
   share each analysis artifact across stages (ledger <= 1), and survive
   the degenerate DAGs (single stage, factor-only, 0x0, repeated stages). *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let raises_invalid msg f =
  Alcotest.(check bool)
    msg true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

let spd () = Generators.clique_chain ~seed:3 ~n:120 ~clique:10 ~overlap:3 ()
let spd_lower () = Csc.lower (spd ())
let rhs n = Array.init n (fun i -> sin (float_of_int (i + 1)))

(* Per-call minor-heap delta over repeated calls after two warmups. *)
let minor_words_per_call f =
  f ();
  f ();
  let k = 50 in
  let w0 = Gc.minor_words () in
  for _ = 1 to k do
    f ()
  done;
  int_of_float ((Gc.minor_words () -. w0) /. float_of_int k)

let residual_ok ?(eps = 1e-6) name (a : Csc.t) (x : float array)
    (b : float array) =
  let y = Array.make (Array.length b) 0.0 in
  Stages.spmv_into a x y;
  Helpers.check_close ~eps name b y

(* ---- correctness: factor+solve across the SPD zoo ---- *)

let test_cholesky_zoo () =
  List.iter
    (fun (name, a) ->
      let al = Csc.lower a in
      let t = Pl.compile (Pl.factor_solve `Cholesky) al in
      let p = Pl.plan t in
      let b = rhs a.Csc.ncols in
      let x = Pl.execute_ip p ~a:al b in
      residual_ok ("cholesky pipeline solves " ^ name) a x b)
    (Helpers.spd_zoo ())

let test_matches_facade () =
  let a = spd () in
  let al = Csc.lower a in
  let b = rhs a.Csc.ncols in
  let t = Pl.compile (Pl.factor_solve `Cholesky) al in
  let x = Pl.execute_ip (Pl.plan t) ~a:al b in
  let h = Sympiler.Cholesky.compile al in
  let x' = Sympiler.Cholesky.solve h al b in
  Helpers.check_close ~eps:1e-8 "pipeline == facade solve" x' x

(* ---- fused vs staged: bitwise identity across every family ---- *)

let family_cases () =
  let a = spd () in
  let al = Csc.lower a in
  [
    ("cholesky", Pl.of_stages [ Pl.Spmv; Pl.Factor `Cholesky; Pl.Solve ], al);
    ("ldlt", Pl.factor_solve `Ldlt, al);
    ("ic0", Pl.factor_solve `Ic0, al);
    ("lu", Pl.of_stages [ Pl.Factor `Lu; Pl.Solve; Pl.Spmv ], a);
    ("ilu0", Pl.factor_solve `Ilu0, a);
  ]

let test_fused_staged_bitwise () =
  List.iter
    (fun (name, dag, m) ->
      let t = Pl.compile dag m in
      let p = Pl.plan t in
      let b = rhs m.Csc.ncols in
      let xf = Array.copy (Pl.execute_ip p ~a:m b) in
      let xs = Pl.staged_execute_ip p ~a:m b in
      Helpers.bitwise (name ^ ": fused == staged") xf xs;
      (* apply-only path (no refactorization) agrees too *)
      let xf' = Array.copy (Pl.execute_ip p b) in
      Helpers.bitwise (name ^ ": apply-only fused == staged") xf'
        (Pl.staged_execute_ip p b))
    (family_cases ())

(* ---- factorless chains ---- *)

let test_factorless_chain () =
  let l = Generators.random_lower ~seed:21 ~n:90 ~density:0.1 () in
  let t = Pl.compile (Pl.of_stages [ Pl.Lower_solve; Pl.Upper_solve ]) l in
  Alcotest.(check int) "L then L^T fuses into one pass" 1 (Pl.fused_boundaries t);
  let p = Pl.plan t in
  let b = rhs 90 in
  let x = Pl.execute_ip p b in
  let y = Array.copy b in
  Stages.lower_ip l y;
  Stages.ltrans_ip l y;
  Helpers.bitwise "factorless L/L^T == stage oracle" y x;
  Helpers.bitwise "factorless fused == staged" (Array.copy x)
    (Pl.staged_execute_ip p b)

let test_repeated_stages () =
  let l = Generators.random_lower ~seed:22 ~n:60 ~density:0.15 () in
  let t = Pl.compile (Pl.of_stages [ Pl.Solve; Pl.Solve; Pl.Solve ]) l in
  Alcotest.(check int) "three solves, three fused pairs" 3
    (Pl.fused_boundaries t);
  let p = Pl.plan t in
  let b = rhs 60 in
  let x = Array.copy (Pl.execute_ip p b) in
  let y = Array.copy b in
  for _ = 1 to 3 do
    Stages.lower_ip l y;
    Stages.ltrans_ip l y
  done;
  Helpers.bitwise "repeated solves == oracle" y x;
  Helpers.bitwise "repeated solves fused == staged" x (Pl.staged_execute_ip p b)

(* ---- degenerate DAGs ---- *)

let test_single_stage () =
  let l = Helpers.figure1_l in
  let t = Pl.compile (Pl.stage Pl.Lower_solve) l in
  let b = rhs 10 in
  let x = Pl.execute_ip (Pl.plan t) b in
  let y = Array.copy b in
  Stages.lower_ip l y;
  Helpers.bitwise "single Lower_solve == oracle" y x;
  let ts = Pl.compile (Pl.stage Pl.Spmv) l in
  let xs = Pl.execute_ip (Pl.plan ts) b in
  let ys = Array.make 10 0.0 in
  Stages.spmv_into l b ys;
  Helpers.bitwise "single Spmv == oracle" ys xs

let test_factor_only () =
  let al = spd_lower () in
  let t = Pl.compile (Pl.stage (Pl.Factor `Cholesky)) al in
  let p = Pl.plan t in
  let b = rhs al.Csc.ncols in
  Helpers.bitwise "factor-only DAG passes b through"
    b (Pl.execute_ip p ~a:al b);
  raises_invalid "factor-only DAG has no fused C" (fun () -> Pl.c_code t)

let empty_csc () =
  Csc.create ~nrows:0 ~ncols:0 ~colptr:[| 0 |] ~rowind:[||] ~values:[||]

let test_empty () =
  let e = empty_csc () in
  let t = Pl.compile (Pl.factor_solve `Cholesky) e in
  let p = Pl.plan t in
  Alcotest.(check int) "0x0 factor+solve" 0
    (Array.length (Pl.execute_ip p ~a:e [||]));
  let tf = Pl.compile (Pl.stage Pl.Lower_solve) e in
  Alcotest.(check int) "0x0 factorless" 0
    (Array.length (Pl.execute_ip (Pl.plan tf) [||]))

(* ---- validation ---- *)

let test_validation () =
  let a = spd () in
  let al = Csc.lower a in
  raises_invalid "empty DAG" (fun () -> Pl.compile (Pl.of_stages []) al);
  raises_invalid "two factor stages" (fun () ->
      Pl.compile
        (Pl.of_stages [ Pl.Factor `Cholesky; Pl.Factor `Ldlt ])
        al);
  raises_invalid "Diag_solve without LDL^T" (fun () ->
      Pl.compile (Pl.of_stages [ Pl.Factor `Cholesky; Pl.Diag_solve ]) al);
  raises_invalid "factorless chains are `Natural only" (fun () ->
      Pl.compile
        ~opts:(Sympiler.Options.make ~ordering:`Amd ())
        (Pl.stage Pl.Lower_solve) al);
  raises_invalid "symmetric families take lower(A)" (fun () ->
      Pl.compile (Pl.factor_solve `Cholesky) a);
  raises_invalid "pair needs the factor on the left" (fun () ->
      Pl.pair (Pl.stage Pl.Solve) (Pl.stage Pl.Solve));
  raises_invalid "pair rejects a factor on the right" (fun () ->
      Pl.pair
        (Pl.stage (Pl.Factor `Cholesky))
        (Pl.stage (Pl.Factor `Cholesky)));
  let p = Pl.plan (Pl.compile (Pl.factor_solve `Cholesky) al) in
  raises_invalid "wrong b length" (fun () -> Pl.execute_ip p (rhs 3));
  raises_invalid "LU chains have no fused C" (fun () ->
      Pl.c_code (Pl.compile (Pl.factor_solve `Lu) a))

(* A call rejected for its [b] must leave the plan as it was: the next
   apply-only call equals a fresh plan's, bit for bit. [~a] carries new
   values, which must not reach the SpMV operand or a factorless chain's
   L before [b] is checked. *)
let test_rejected_call_leaves_plan () =
  let al = spd_lower () in
  let l = Generators.random_lower ~seed:21 ~n:90 ~density:0.1 () in
  let scaled (m : Csc.t) =
    { m with Csc.values = Array.map (fun v -> 2.0 *. v) m.Csc.values }
  in
  List.iter
    (fun (name, dag, m) ->
      let t = Pl.compile (Pl.of_stages dag) m in
      let b = rhs m.Csc.ncols in
      let p = Pl.plan t in
      ignore (Pl.execute_ip p ~a:m b);
      raises_invalid (name ^ ": short b rejected") (fun () ->
          Pl.execute_ip p ~a:(scaled m) (rhs 3));
      let fresh = Pl.plan t in
      ignore (Pl.execute_ip fresh ~a:m b);
      Helpers.bitwise
        (name ^ ": next apply == fresh plan")
        (Array.copy (Pl.execute_ip fresh b))
        (Pl.execute_ip p b))
    [
      ("spmv+cholesky", [ Pl.Spmv; Pl.Factor `Cholesky; Pl.Solve ], al);
      ("factorless", [ Pl.Lower_solve; Pl.Upper_solve ], l);
    ]

(* ---- zero allocation in the fused steady state ---- *)

(* Cholesky keeps the column sweeps; IC(0) on a natural grid runs the
   level-ordered ones; the staged baseline times each of its three stages.
   Every row runs with the metrics switch off and on. *)
let test_zero_alloc () =
  let row name apply =
    Helpers.switch_off_and_on @@ fun switch ->
    Alcotest.(check int)
      (Printf.sprintf "%s, %s: minor words/call" name switch)
      0
      (minor_words_per_call apply)
  in
  List.iter
    (fun (name, family, al) ->
      let t = Pl.compile (Pl.factor_solve family) al in
      let p = Pl.plan t in
      let b = rhs al.Csc.ncols in
      Pl.factor_ip p al;
      row (name ^ " fused apply") (fun () -> ignore (Pl.execute_ip p b)))
    [
      ("cholesky", `Cholesky, spd_lower ());
      ( "ic0, natural grid",
        `Ic0,
        Csc.lower (Generators.grid2d ~stencil:`Five 40 40) );
    ];
  (* AMD-ordered, so its stage series are not the natural-order ones the
     latency test counts. *)
  let al = spd_lower () in
  let p =
    Pl.plan
      (Pl.compile
         ~opts:(Sympiler.Options.make ~ordering:`Amd ())
         (Pl.of_stages [ Pl.Factor `Cholesky; Pl.Lower_solve; Pl.Upper_solve ])
         al)
  in
  let b = rhs al.Csc.ncols in
  Pl.factor_ip p al;
  row "cholesky staged apply" (fun () -> ignore (Pl.staged_execute_ip p b))

(* ---- shared analysis and metadata ---- *)

let test_analysis_shared () =
  let al = spd_lower () in
  let dag = Pl.of_stages [ Pl.Spmv; Pl.Factor `Cholesky; Pl.Solve; Pl.Spmv ] in
  let t = Pl.compile dag al in
  (* The plan forces the remaining artifacts (the SpMV operand needs the
     symmetrized full pattern); run it so the ledger is complete. *)
  let p = Pl.plan t in
  ignore (Pl.execute_ip p ~a:al (rhs al.Csc.ncols));
  List.iter
    (fun (k, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "analysis artifact %s ran <= once (%d)" k v)
        true (v <= 1))
    (Pl.analysis_runs t);
  Alcotest.(check bool) "fill ran once" true
    (List.assoc "fill" (Pl.analysis_runs t) = 1);
  Alcotest.(check bool) "full ran once (SpMV operand)" true
    (List.assoc "full" (Pl.analysis_runs t) = 1);
  Alcotest.(check bool) "symbolic time recorded" true
    (Pl.symbolic_seconds t >= 0.0);
  Alcotest.(check bool) "dag round-trips" true (Pl.dag_of t = Pl.to_stages dag);
  Alcotest.(check bool) "input pattern is the caller's" true
    (Pl.input_pattern t == al);
  let passes =
    List.map (fun d -> d.Sympiler.Trace.pass) (Pl.decisions t)
  in
  Alcotest.(check bool) "vs-block decision recorded" true
    (List.mem "vs-block" passes);
  Alcotest.(check bool) "pipeline-fuse decision recorded" true
    (List.mem "pipeline-fuse" passes);
  let d = Pl.describe t in
  Alcotest.(check bool) "describe mentions the stages" true
    (contains_sub d "factor:cholesky"
    && contains_sub d "pipeline")

(* ---- ordering ---- *)

let test_ordering_amd () =
  let a = Helpers.scrambled_multigrid () in
  let al = Csc.lower a in
  let b = rhs a.Csc.ncols in
  let x_nat = Pl.execute_ip (Pl.plan (Pl.compile (Pl.factor_solve `Cholesky) al)) ~a:al b in
  let t =
    Pl.compile
      ~opts:(Sympiler.Options.make ~ordering:`Amd ())
      (Pl.factor_solve `Cholesky) al
  in
  let x_amd = Pl.execute_ip (Pl.plan t) ~a:al b in
  Helpers.check_close ~eps:1e-8 "AMD pipeline == natural" x_nat x_amd;
  residual_ok "AMD pipeline solves" a x_amd b

(* ---- compilation cache ---- *)

let test_cache () =
  let cache = Sympiler.Plan_cache.create () in
  let al = spd_lower () in
  let dag = Pl.factor_solve `Cholesky in
  let t1 = Pl.compile ~cache dag al in
  let t2 = Pl.compile ~cache dag al in
  Alcotest.(check bool) "same DAG + pattern hits" true (t1 == t2);
  let t3 = Pl.compile ~cache (Pl.factor_solve `Ldlt) al in
  Alcotest.(check bool) "different stage sequence misses" true (t3 != t1);
  let t4 =
    Pl.compile ~cache ~opts:(Sympiler.Options.make ~simplicial:true ()) dag al
  in
  Alcotest.(check bool) "different options miss" true (t4 != t1);
  let st = Sympiler.Plan_cache.stats cache in
  Alcotest.(check int) "hits" 1 st.Sympiler.Plan_cache.hits;
  Alcotest.(check int) "misses" 3 st.Sympiler.Plan_cache.misses;
  (* opts.cache = true routes through the module default cache *)
  Pl.cache_clear ();
  let c1 = Pl.compile ~opts:Sympiler.Options.cached dag al in
  let c2 = Pl.compile ~opts:Sympiler.Options.cached dag al in
  Alcotest.(check bool) "opts.cache hits the default cache" true (c1 == c2);
  Alcotest.(check bool) "default cache populated" true
    ((Pl.cache_stats ()).Sympiler.Plan_cache.length >= 1);
  Pl.cache_clear ()

(* ---- fused C emission ---- *)

let test_c_code () =
  let al = spd_lower () in
  let dag = Pl.of_stages [ Pl.Factor `Cholesky; Pl.Solve; Pl.Spmv ] in
  let c = Pl.c_code (Pl.compile dag al) in
  Alcotest.(check bool) "one fused kernel" true
    (contains_sub c "pipeline_apply");
  Helpers.require_cmd "cc";
  Helpers.with_temp_dir (fun dir ->
      let path = Filename.concat dir "pipeline.c" in
      let oc = open_out path in
      output_string oc c;
      close_out oc;
      Alcotest.(check int) "fused C parses" 0
        (Sys.command
           (Printf.sprintf "cc -fsyntax-only -Wall -Werror %s"
              (Filename.quote path))))

(* ---- latency plumbing ---- *)

let test_latency_histograms () =
  let al = spd_lower () in
  let t = Pl.compile (Pl.factor_solve `Cholesky) al in
  let p = Pl.plan t in
  let b = rhs al.Csc.ncols in
  Sympiler.Metrics.enable ();
  ignore (Pl.execute_ip p ~a:al b);
  ignore (Pl.staged_execute_ip p b);
  Sympiler.Metrics.disable ();
  Alcotest.(check bool) "fused latency observed" true
    ((Pl.plan_latency p).Sympiler.Metrics.count >= 1);
  let stages = Pl.stage_latencies p in
  Alcotest.(check int) "one histogram per staged step" 3 (Array.length stages);
  Alcotest.(check string) "factor stage labeled" "stage0:factor"
    (fst stages.(0));
  Array.iter
    (fun (name, s) ->
      Alcotest.(check bool)
        (name ^ " observed once") true
        (s.Sympiler.Metrics.count = 1))
    stages

(* ---- qcheck laws ---- *)

(* Stage-order law: with the factor pre-run (apply-only execution), the
   factor stage's position in the DAG is irrelevant — every permutation
   that keeps the vector stages in order returns bitwise-identical
   results. *)
let qcheck_factor_position =
  Helpers.qtest ~count:25 "factor position is irrelevant when applying"
    Helpers.arb_spd (fun a ->
      let al = Csc.lower a in
      let b = rhs a.Csc.ncols in
      let vec = [ Pl.Solve; Pl.Spmv; Pl.Solve ] in
      let insert i =
        List.filteri (fun j _ -> j < i) vec
        @ (Pl.Factor `Cholesky :: List.filteri (fun j _ -> j >= i) vec)
      in
      let run i =
        let p = Pl.plan (Pl.compile (Pl.of_stages (insert i)) al) in
        Pl.factor_ip p al;
        Array.copy (Pl.execute_ip p b)
      in
      let x0 = run 0 in
      List.for_all (fun i -> Helpers.same_bits (run i) x0) [ 1; 2; 3 ])

let qcheck_fused_is_staged =
  Helpers.qtest ~count:40 "fused == staged (bitwise) on random SPD"
    Helpers.arb_spd (fun a ->
      let al = Csc.lower a in
      let b = rhs a.Csc.ncols in
      let p =
        Pl.plan
          (Pl.compile
             (Pl.of_stages [ Pl.Spmv; Pl.Factor `Cholesky; Pl.Solve ])
             al)
      in
      let xf = Array.copy (Pl.execute_ip p ~a:al b) in
      Helpers.same_bits xf (Pl.staged_execute_ip p ~a:al b))

let suite =
  [
    Alcotest.test_case "cholesky factor+solve across the zoo" `Quick
      test_cholesky_zoo;
    Alcotest.test_case "pipeline matches the facade solve" `Quick
      test_matches_facade;
    Alcotest.test_case "fused == staged across families" `Quick
      test_fused_staged_bitwise;
    Alcotest.test_case "factorless chain" `Quick test_factorless_chain;
    Alcotest.test_case "repeated stages" `Quick test_repeated_stages;
    Alcotest.test_case "single-stage DAGs" `Quick test_single_stage;
    Alcotest.test_case "factor-only DAG" `Quick test_factor_only;
    Alcotest.test_case "0x0 pipelines" `Quick test_empty;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "rejected call leaves the plan unchanged" `Quick
      test_rejected_call_leaves_plan;
    Alcotest.test_case "zero alloc: fused apply" `Quick test_zero_alloc;
    Alcotest.test_case "one shared analysis" `Quick test_analysis_shared;
    Alcotest.test_case "AMD-ordered pipeline" `Quick test_ordering_amd;
    Alcotest.test_case "compilation cache" `Quick test_cache;
    Alcotest.test_case "fused C emission" `Quick test_c_code;
    Alcotest.test_case "latency histograms" `Quick test_latency_histograms;
    qcheck_factor_position;
    qcheck_fused_is_staged;
  ]
