open Sympiler_sparse
open Sympiler_kernels
module Pl = Sympiler.Pipeline

(* Pipelines: whole solver DAGs compiled through one symbolic analysis
   into one fused plan. The factor stage must be the facade family's, bit
   for bit; the fused executor must be bitwise-identical to the staged
   baseline (fusion removes copies and dispatch, never reorders
   arithmetic), allocate nothing in steady state, run one fill analysis
   for every stage, and survive the degenerate DAGs (single stage,
   factor-only, 0x0, repeated stages). *)

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

(* Every family, natural and AMD-ordered: a factor+solve pipeline equals
   the facade plan's factor followed by the family's Stages sweeps on the
   compiled-order vector, bit for bit (Cholesky: the facade's own solve). *)
let test_matches_facade () =
  let module S = Sympiler in
  let a = spd () in
  let al = Csc.lower a in
  let n = a.Csc.ncols in
  let b = rhs n in
  let swept (ord : S.applied_ordering) sweeps =
    match ord.S.o_perm with
    | None ->
        let x = Array.copy b in
        sweeps x;
        x
    | Some p ->
        let x = Array.init n (fun k -> b.(p.(k))) in
        sweeps x;
        let out = Array.make n 0.0 in
        Array.iteri (fun k v -> out.(p.(k)) <- v) x;
        out
  in
  let facade opts = function
    | `Cholesky -> S.Cholesky.solve (S.Cholesky.compile ~opts al) al b
    | `Ldlt ->
        let h = S.Ldlt.compile ~opts al in
        let f = S.Ldlt.execute_ip (S.Ldlt.plan h) al in
        swept h.S.Ldlt.ord (fun x ->
            Stages.lower_ip f.Ldlt.l x;
            Stages.diag_ip f.Ldlt.d x;
            Stages.ltrans_ip f.Ldlt.l x)
    | `Lu ->
        let h = S.Lu.compile ~opts a in
        let f = S.Lu.execute_ip (S.Lu.plan h) a in
        swept h.S.Lu.ord (fun x ->
            Stages.lower_ip f.Lu.l x;
            Stages.upper_ip f.Lu.u x)
    | `Ic0 ->
        let h = S.Ic0.compile ~opts al in
        let l = S.Ic0.execute_ip (S.Ic0.plan h) al in
        swept h.S.Ic0.ord (fun x ->
            Stages.lower_ip l x;
            Stages.ltrans_ip l x)
    | `Ilu0 ->
        let h = S.Ilu0.compile ~opts a in
        let f = S.Ilu0.execute_ip (S.Ilu0.plan h) a in
        let { Ilu0.rowptr; colind; diag; _ } = f.Ilu0.c in
        swept h.S.Ilu0.ord (fun x ->
            Stages.csr_lower_unit_ip ~rowptr ~colind ~diag f.Ilu0.values x;
            Stages.csr_upper_ip ~rowptr ~colind ~diag f.Ilu0.values x)
  in
  List.iter
    (fun ordering ->
      let opts = S.Options.make ~ordering () in
      List.iter
        (fun (name, family) ->
          let m = match family with `Lu | `Ilu0 -> a | _ -> al in
          let t = Pl.compile ~opts (Pl.factor_solve family) m in
          Helpers.bitwise
            (Printf.sprintf "%s, %s: pipeline == facade" name
               (S.Options.ordering_name ordering))
            (facade opts family)
            (Pl.execute_ip (Pl.plan t) ~a:m b))
        [
          ("cholesky", `Cholesky);
          ("ldlt", `Ldlt);
          ("lu", `Lu);
          ("ic0", `Ic0);
          ("ilu0", `Ilu0);
        ])
    [ `Natural; `Amd ]

(* The factor+solve DAGs the fusion laws also run on: Cholesky on suite
   problems 1, 2 and 5 (column sweeps) and IC(0) on natural 5-point grids
   of side 40 and 100 (level-ordered sweeps). *)
let factor_solve_cases () =
  List.map
    (fun id ->
      let sp = Sympiler.Suite.problem id in
      (sp.Sympiler.Suite.name, `Cholesky, sp.Sympiler.Suite.a_lower))
    [ 1; 2; 5 ]
  @ List.map
      (fun side ->
        ( Printf.sprintf "ic0 grid %dx%d" side side,
          `Ic0,
          Csc.lower (Generators.grid2d ~stencil:`Five side side) ))
      [ 40; 100 ]

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
    (family_cases ()
    @ List.map
        (fun (name, family, al) -> (name, Pl.factor_solve family, al))
        (factor_solve_cases ()))

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
    b (Pl.execute_ip p ~a:al b)

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
  raises_invalid "wrong b length" (fun () -> Pl.execute_ip p (rhs 3))

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
    (("cholesky", `Cholesky, spd_lower ()) :: factor_solve_cases ());
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

(* ---- one analysis and metadata ---- *)

(* The fill analyses ("symbolic.fill" spans) that compiling, planning and
   running [f] records. *)
let fill_runs f =
  let module Trace = Sympiler.Trace in
  Trace.reset ();
  Trace.enable ();
  let r = f () in
  Trace.disable ();
  let runs =
    List.length
      (List.filter (fun s -> s.Trace.name = "symbolic.fill") (Trace.spans ()))
  in
  Trace.reset ();
  (r, runs)

let test_analysis_shared () =
  let al = spd_lower () in
  let dag = Pl.of_stages [ Pl.Spmv; Pl.Factor `Cholesky; Pl.Solve; Pl.Spmv ] in
  let t, fills =
    fill_runs (fun () ->
        let t = Pl.compile dag al in
        ignore (Pl.execute_ip (Pl.plan t) ~a:al (rhs al.Csc.ncols));
        t)
  in
  Alcotest.(check int) "one fill analysis serves every stage" 1 fills;
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
    && contains_sub d "pipeline");
  List.iter
    (fun (name, family, al) ->
      let _, fills =
        fill_runs (fun () ->
            let p = Pl.plan (Pl.compile (Pl.factor_solve family) al) in
            ignore (Pl.execute_ip p ~a:al (rhs al.Csc.ncols)))
      in
      Alcotest.(check int)
        (name ^ ": fill analyses (IC(0) keeps A's pattern)")
        (if family = `Ic0 then 0 else 1)
        fills)
    (factor_solve_cases ())

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
    Alcotest.test_case "factor stage == facade, bit for bit" `Quick
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
    Alcotest.test_case "latency histograms" `Quick test_latency_histograms;
    qcheck_factor_position;
    qcheck_fused_is_staged;
  ]
