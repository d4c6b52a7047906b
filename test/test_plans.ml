open Sympiler_sparse
open Sympiler_kernels
module Metrics = Sympiler_metrics.Metrics
module Trace = Sympiler_trace.Trace

(* Plans (reusable numeric workspaces) and the pattern-keyed compilation
   cache: repeated in-place execution must be bitwise-identical to the
   one-shot allocating entry points, steady state must allocate nothing
   (Gc.minor_words delta of 0 per call), and the cache must return
   physically-equal handles on hits, skip the symbolic phase, and evict in
   LRU order. *)

(* A mid-sized SPD fixture whose factor has both wide and narrow
   supernodes. *)
let spd () = Generators.clique_chain ~seed:3 ~n:120 ~clique:10 ~overlap:3 ()
let spd_lower () = Csc.lower (spd ())

(* Per-call minor-heap delta over repeated calls after two warmups; an
   allocation-free steady state yields exactly 0. *)
let minor_words_per_call f =
  f ();
  f ();
  let k = 50 in
  let w0 = Gc.minor_words () in
  for _ = 1 to k do
    f ()
  done;
  int_of_float ((Gc.minor_words () -. w0) /. float_of_int k)

(* ---- bitwise identity: plan reuse vs fresh factorization ---- *)

let test_supernodal_plan_bitwise () =
  let al = spd_lower () in
  let c = Cholesky_supernodal.Sympiler.compile al in
  let fresh = Cholesky_supernodal.Sympiler.factor c al in
  let p = Cholesky_supernodal.Sympiler.make_plan c in
  for i = 1 to 3 do
    Cholesky_supernodal.Sympiler.factor_ip p al;
    Helpers.bitwise
      (Printf.sprintf "supernodal factor_ip #%d == fresh factor" i)
      fresh.Csc.values p.Cholesky_supernodal.Sympiler.l.Csc.values
  done

let test_simplicial_plan_bitwise () =
  let al = spd_lower () in
  let c = Cholesky_ref.Decoupled.compile al in
  let fresh = Cholesky_ref.Decoupled.factor c al in
  let p = Cholesky_ref.Decoupled.make_plan c in
  for i = 1 to 3 do
    Cholesky_ref.Decoupled.factor_ip p al;
    Helpers.bitwise
      (Printf.sprintf "simplicial factor_ip #%d == fresh factor" i)
      fresh.Csc.values p.Cholesky_ref.Decoupled.l.Csc.values
  done

let test_ldlt_plan_bitwise () =
  let al = spd_lower () in
  let c = Ldlt.compile al in
  let fresh = Ldlt.factor c al in
  let p = Ldlt.make_plan c in
  for _ = 1 to 2 do
    Ldlt.factor_ip p al
  done;
  Helpers.bitwise "ldlt L values"
    fresh.Ldlt.l.Csc.values p.Ldlt.f.Ldlt.l.Csc.values;
  Helpers.bitwise "ldlt D values" fresh.Ldlt.d p.Ldlt.f.Ldlt.d

let test_lu_plan_bitwise () =
  let a = spd () in
  let c = Lu.Sympiler.compile a in
  let fresh = Lu.Sympiler.factor c a in
  let p = Lu.Sympiler.make_plan c in
  for _ = 1 to 2 do
    Lu.Sympiler.factor_ip p a
  done;
  Helpers.bitwise "lu L values"
    fresh.Lu.l.Csc.values p.Lu.Sympiler.f.Lu.l.Csc.values;
  Helpers.bitwise "lu U values"
    fresh.Lu.u.Csc.values p.Lu.Sympiler.f.Lu.u.Csc.values

let test_ic0_plan_bitwise () =
  let al = spd_lower () in
  let c = Ic0.compile al in
  let fresh = Ic0.factor c al in
  let p = Ic0.make_plan c in
  for _ = 1 to 2 do
    Ic0.factor_ip p al
  done;
  Helpers.bitwise "ic0 values" fresh.Csc.values p.Ic0.l.Csc.values

let test_ilu0_plan_bitwise () =
  let a = spd () in
  let c = Ilu0.compile a in
  let fresh = Ilu0.factor c a in
  let p = Ilu0.make_plan c in
  for _ = 1 to 2 do
    Ilu0.factor_ip p a
  done;
  Helpers.bitwise "ilu0 values" fresh.Ilu0.values p.Ilu0.f.Ilu0.values

let test_trisolve_plan_bitwise () =
  let l = Generators.random_lower ~seed:21 ~n:90 ~density:0.1 () in
  let b = Generators.sparse_rhs ~seed:22 ~n:90 ~fill:0.08 () in
  let c = Trisolve_sympiler.compile l b in
  let fresh = Trisolve_sympiler.solve_full c b in
  let p = Trisolve_sympiler.make_plan c in
  for i = 1 to 3 do
    let x = Trisolve_sympiler.solve_ip p b in
    Helpers.bitwise (Printf.sprintf "trisolve solve_ip #%d == solve_full" i)
      fresh x
  done

let test_trisolve_parallel_plan_bitwise () =
  let l = Generators.random_lower ~seed:23 ~n:90 ~density:0.1 () in
  let c = Trisolve_parallel.compile l in
  let b = Array.init 90 (fun i -> sin (float_of_int i)) in
  let fresh = Trisolve_parallel.solve c b in
  let seq = Trisolve_parallel.make_plan ~ndomains:1 c in
  Helpers.bitwise "parallel-trisolve sequential plan" fresh
    (Trisolve_parallel.solve_ip seq b);
  let par = Trisolve_parallel.make_plan ~ndomains:3 c in
  for i = 1 to 2 do
    Helpers.bitwise
      (Printf.sprintf "parallel-trisolve 3-domain plan #%d" i)
      fresh
      (Trisolve_parallel.solve_ip par b)
  done

let test_cholesky_parallel_plan_bitwise () =
  let al = spd_lower () in
  let c = Cholesky_parallel.compile al in
  let fresh = Cholesky_parallel.factor c al in
  let p = Cholesky_parallel.make_plan ~ndomains:3 c in
  for i = 1 to 2 do
    Cholesky_parallel.factor_ip p al;
    Helpers.bitwise
      (Printf.sprintf "parallel-cholesky factor_ip #%d" i)
      fresh.Csc.values p.Cholesky_parallel.l.Csc.values
  done

(* Facade plans: execute_ip refreshes the plan's factor view in place and
   matches the one-shot facade factor. *)
let test_facade_plan_bitwise () =
  let al = spd_lower () in
  let h = Sympiler.Cholesky.compile al in
  let fresh = Sympiler.Cholesky.factor h al in
  let p = Sympiler.Cholesky.plan h in
  let view = Sympiler.Cholesky.plan_factor p in
  ignore (Sympiler.Cholesky.execute_ip p al);
  Helpers.bitwise "facade execute_ip == factor"
    fresh.Csc.values view.Csc.values;
  Alcotest.(check bool)
    "plan_factor view is stable" true
    (view == Sympiler.Cholesky.plan_factor p)

(* A plan stays usable after a failed factorization. *)
let test_plan_reusable_after_failure () =
  let al = spd_lower () in
  let c = Cholesky_ref.Decoupled.compile al in
  let fresh = Cholesky_ref.Decoupled.factor c al in
  let p = Cholesky_ref.Decoupled.make_plan c in
  let bad = Csc.map_values al (fun v -> -.v) in
  (try Cholesky_ref.Decoupled.factor_ip p bad
   with Cholesky_ref.Not_positive_definite _ -> ());
  Cholesky_ref.Decoupled.factor_ip p al;
  Helpers.bitwise "simplicial plan recovers after Not_positive_definite"
    fresh.Csc.values p.Cholesky_ref.Decoupled.l.Csc.values

(* ---- zero allocation in steady state ---- *)

let test_zero_alloc_supernodal () =
  let al = spd_lower () in
  let c = Cholesky_supernodal.Sympiler.compile al in
  let p = Cholesky_supernodal.Sympiler.make_plan c in
  Alcotest.(check int)
    "supernodal factor_ip minor words/call" 0
    (minor_words_per_call (fun () ->
         Cholesky_supernodal.Sympiler.factor_ip p al))

let test_zero_alloc_simplicial () =
  let al = spd_lower () in
  let c = Cholesky_ref.Decoupled.compile al in
  let p = Cholesky_ref.Decoupled.make_plan c in
  Alcotest.(check int)
    "simplicial factor_ip minor words/call" 0
    (minor_words_per_call (fun () -> Cholesky_ref.Decoupled.factor_ip p al))

let test_zero_alloc_trisolve () =
  let l = Generators.random_lower ~seed:25 ~n:90 ~density:0.1 () in
  let b = Generators.sparse_rhs ~seed:26 ~n:90 ~fill:0.08 () in
  let c = Trisolve_sympiler.compile l b in
  let p = Trisolve_sympiler.make_plan c in
  Alcotest.(check int)
    "trisolve solve_ip minor words/call" 0
    (minor_words_per_call (fun () -> ignore (Trisolve_sympiler.solve_ip p b)))

(* On the fixture and on all eleven suite problems: the Cholesky plan,
   and on the suite also the Trisolve plan against the factor and the
   paper's sparse RHS, with the switch off and on. *)
let test_zero_alloc_facade () =
  let check name f =
    Helpers.switch_off_and_on @@ fun switch ->
    Alcotest.(check int)
      (Printf.sprintf "%s execute_ip minor words/call, %s" name switch)
      0 (minor_words_per_call f)
  in
  let cholesky name al =
    let h = Sympiler.Cholesky.compile al in
    let p = Sympiler.Cholesky.plan h in
    check (name ^ " cholesky") (fun () ->
        ignore (Sympiler.Cholesky.execute_ip p al));
    h
  in
  ignore (cholesky "fixture" (spd_lower ()) : Sympiler.Cholesky.t);
  List.iter
    (fun (sp : Sympiler.Suite.prepared) ->
      let name = sp.Sympiler.Suite.name and al = sp.Sympiler.Suite.a_lower in
      let h = cholesky name al in
      let b = Sympiler.Suite.rhs_for sp in
      let tp =
        Sympiler.Trisolve.plan
          (Sympiler.Trisolve.compile (Sympiler.Cholesky.factor h al, b))
      in
      check (name ^ " trisolve") (fun () ->
          ignore (Sympiler.Trisolve.execute_ip tp b : float array)))
    (Sympiler.Suite.all ())

(* ---- compilation cache ---- *)

let test_cache_hit_physical_equality () =
  let cache = Sympiler.Plan_cache.create () in
  let al = spd_lower () in
  let h1 = Sympiler.Cholesky.compile ~cache al in
  (* Same structure, different values: still a hit. *)
  let al2 = Csc.map_values al (fun v -> v *. 2.0) in
  let h2 = Sympiler.Cholesky.compile ~cache al2 in
  Alcotest.(check bool) "hit returns the same handle" true (h1 == h2);
  (* Different options: a distinct entry. *)
  let h3 =
    Sympiler.Cholesky.compile ~cache
      ~opts:(Sympiler.Options.make ~simplicial:true ())
      al
  in
  Alcotest.(check bool) "different options miss" true (h3 != h1);
  let st = Sympiler.Plan_cache.stats cache in
  Alcotest.(check int) "hits" 1 st.Sympiler.Plan_cache.hits;
  Alcotest.(check int) "misses" 2 st.Sympiler.Plan_cache.misses;
  Alcotest.(check int) "length" 2 st.Sympiler.Plan_cache.length;
  (* Every suite problem: recompiling the same structure returns the same
     Cholesky handle, and the same Trisolve handle for the same (L, b). *)
  let chol_cache = Sympiler.Plan_cache.create () in
  let tri_cache = Sympiler.Plan_cache.create () in
  List.iter
    (fun (sp : Sympiler.Suite.prepared) ->
      let name = sp.Sympiler.Suite.name and al = sp.Sympiler.Suite.a_lower in
      let h = Sympiler.Cholesky.compile ~cache:chol_cache al in
      Alcotest.(check bool) (name ^ ": cholesky hit is the same handle") true
        (h == Sympiler.Cholesky.compile ~cache:chol_cache al);
      let lb = (Sympiler.Cholesky.factor h al, Sympiler.Suite.rhs_for sp) in
      let th = Sympiler.Trisolve.compile ~cache:tri_cache lb in
      Alcotest.(check bool) (name ^ ": trisolve hit is the same handle") true
        (th == Sympiler.Trisolve.compile ~cache:tri_cache lb))
    (Sympiler.Suite.all ())

(* The symbolic phase of a Cholesky compile runs inside its
   "compile.cholesky" span: a miss records one, a hit none. *)
let test_cache_hit_skips_symbolic () =
  let cache = Sympiler.Plan_cache.create () in
  let al = spd_lower () in
  let compile_spans () =
    List.length
      (List.filter
         (fun s -> s.Trace.name = "compile.cholesky")
         (Trace.spans ()))
  in
  let hits = Metrics.counter "sympiler_plan_cache_hits" in
  Trace.reset ();
  Trace.enable ();
  Helpers.with_metrics @@ fun () ->
  let h1 = Sympiler.Cholesky.compile ~cache al in
  let spans_after_miss = compile_spans () in
  let hit_count =
    Helpers.counted hits (fun () ->
        Alcotest.(check bool) "same handle" true
          (h1 == Sympiler.Cholesky.compile ~cache al))
  in
  let spans_after_hit = compile_spans () in
  Trace.disable ();
  Trace.reset ();
  Alcotest.(check int) "miss ran the symbolic phase once" 1 spans_after_miss;
  Alcotest.(check int) "hit ran no symbolic phase" spans_after_miss
    spans_after_hit;
  Alcotest.(check int) "hit counted once" 1 hit_count

let test_cache_lru_eviction () =
  let cache = Sympiler.Plan_cache.create ~capacity:2 () in
  let pat seed = Generators.random_lower ~seed ~n:30 ~density:0.2 () in
  let a = pat 31 and b = pat 32 and c = pat 33 in
  let compile_count = ref 0 in
  let get p =
    Sympiler.Plan_cache.find_or_compile cache ~pattern:p (fun () ->
        incr compile_count;
        !compile_count)
  in
  let va = get a in
  let vb = get b in
  (* Touch [a] so [b] becomes least recently used, then overflow. *)
  Alcotest.(check int) "touching a hits" va (get a);
  let _vc = get c in
  Alcotest.(check int) "a survived (recently used)" va (get a);
  Alcotest.(check bool) "b was evicted (LRU) and recompiles" true
    (get b <> vb);
  Alcotest.(check int) "capacity respected" 2
    (Sympiler.Plan_cache.length cache);
  Sympiler.Plan_cache.clear cache;
  Alcotest.(check int) "clear empties" 0 (Sympiler.Plan_cache.length cache)

let test_trisolve_cache_keyed_on_rhs () =
  let cache = Sympiler.Plan_cache.create () in
  let l = Generators.random_lower ~seed:41 ~n:60 ~density:0.15 () in
  let b1 = Generators.sparse_rhs ~seed:42 ~n:60 ~fill:0.1 () in
  let b2 = Generators.sparse_rhs ~seed:43 ~n:60 ~fill:0.1 () in
  let h1 = Sympiler.Trisolve.compile ~cache (l, b1) in
  let h1' = Sympiler.Trisolve.compile ~cache (l, b1) in
  let h2 = Sympiler.Trisolve.compile ~cache (l, b2) in
  Alcotest.(check bool) "same L + same RHS pattern hits" true (h1 == h1');
  Alcotest.(check bool) "same L + different RHS pattern misses" true
    (h2 != h1)

(* A hit on another matrix of the pattern computes with the caller's
   values: a trisolve, a factorless chain and an SpMV stage read them from
   the handle. Each result equals its uncached twin, bit for bit; the
   ordered rows gather the values through the ordering. *)
let test_cache_hit_caller_values () =
  let module Pl = Sympiler.Pipeline in
  let l1 = Generators.random_lower ~seed:51 ~n:60 ~density:0.15 () in
  let al1 = spd_lower () in
  let other (m : Csc.t) = Csc.map_values m (fun v -> (2.0 *. v) +. 0.5) in
  let b = Generators.sparse_rhs ~seed:52 ~n:60 ~fill:0.1 () in
  let x n = Array.init n (fun i -> cos (float_of_int i)) in
  let cached (o : Sympiler.Options.t) = { o with Sympiler.Options.cache = true } in
  let given = Sympiler.Options.make ~ordering:(`Given (Array.init 60 Fun.id)) () in
  let amd = Sympiler.Options.make ~ordering:`Amd () in
  let tri opts l =
    Sympiler.Trisolve.solve (Sympiler.Trisolve.compile ~opts (l, b)) b
  in
  let pl opts stages (m : Csc.t) =
    Array.copy
      (Pl.execute_ip
         (Pl.plan (Pl.compile ~opts (Pl.of_stages stages) m))
         (x m.Csc.ncols))
  in
  Sympiler.Trisolve.cache_clear ();
  Pl.cache_clear ();
  let natural = Sympiler.Options.default in
  List.iter
    (fun (name, run, m1, opts) ->
      ignore (run (cached opts) m1 : float array);
      let m2 = other m1 in
      Helpers.bitwise
        (Printf.sprintf "%s, %s: hit == uncached" name
           (Sympiler.Options.ordering_name opts.Sympiler.Options.ordering))
        (run opts m2) (run (cached opts) m2))
    [
      ("trisolve", tri, l1, natural);
      ("trisolve", tri, l1, given);
      ("lower_solve pipeline", (fun o -> pl o [ Pl.Lower_solve ]), l1, natural);
      ("spmv pipeline", (fun o -> pl o [ Pl.Spmv ]), l1, natural);
      ( "spmv+cholesky pipeline",
        (fun o -> pl o [ Pl.Spmv; Pl.Factor `Cholesky ]),
        al1,
        amd );
    ];
  Sympiler.Trisolve.cache_clear ();
  Pl.cache_clear ()

(* ---- degenerate inputs through plans ---- *)

let empty_csc () =
  Csc.create ~nrows:0 ~ncols:0 ~colptr:[| 0 |] ~rowind:[||] ~values:[||]

let test_empty_inputs_through_plans () =
  let e = empty_csc () in
  let sp =
    Cholesky_supernodal.Sympiler.make_plan
      (Cholesky_supernodal.Sympiler.compile e)
  in
  Cholesky_supernodal.Sympiler.factor_ip sp e;
  let dp = Cholesky_ref.Decoupled.make_plan (Cholesky_ref.Decoupled.compile e) in
  Cholesky_ref.Decoupled.factor_ip dp e;
  let h = Sympiler.Cholesky.compile e in
  let fp = Sympiler.Cholesky.plan h in
  ignore (Sympiler.Cholesky.execute_ip fp e);
  Alcotest.(check int) "0x0 factor view" 0
    (Sympiler.Cholesky.plan_factor fp).Csc.ncols;
  (* n > 0 with a structurally empty RHS: the reach-set is empty and the
     plan solve returns all zeros without raising. *)
  let l = Generators.random_lower ~seed:51 ~n:20 ~density:0.2 () in
  let b0 = { Vector.n = 20; indices = [||]; values = [||] } in
  let tp = Trisolve_sympiler.make_plan (Trisolve_sympiler.compile l b0) in
  let x = Trisolve_sympiler.solve_ip tp b0 in
  Alcotest.(check bool) "empty RHS solves to zero" true
    (Array.for_all (fun v -> v = 0.0) x)

let suite =
  [
    Alcotest.test_case "supernodal plan bitwise" `Quick
      test_supernodal_plan_bitwise;
    Alcotest.test_case "simplicial plan bitwise" `Quick
      test_simplicial_plan_bitwise;
    Alcotest.test_case "ldlt plan bitwise" `Quick test_ldlt_plan_bitwise;
    Alcotest.test_case "lu plan bitwise" `Quick test_lu_plan_bitwise;
    Alcotest.test_case "ic0 plan bitwise" `Quick test_ic0_plan_bitwise;
    Alcotest.test_case "ilu0 plan bitwise" `Quick test_ilu0_plan_bitwise;
    Alcotest.test_case "trisolve plan bitwise" `Quick
      test_trisolve_plan_bitwise;
    Alcotest.test_case "parallel trisolve plan bitwise" `Quick
      test_trisolve_parallel_plan_bitwise;
    Alcotest.test_case "parallel cholesky plan bitwise" `Quick
      test_cholesky_parallel_plan_bitwise;
    Alcotest.test_case "facade plan bitwise" `Quick test_facade_plan_bitwise;
    Alcotest.test_case "plan reusable after failure" `Quick
      test_plan_reusable_after_failure;
    Alcotest.test_case "zero alloc: supernodal" `Quick
      test_zero_alloc_supernodal;
    Alcotest.test_case "zero alloc: simplicial" `Quick
      test_zero_alloc_simplicial;
    Alcotest.test_case "zero alloc: trisolve" `Quick test_zero_alloc_trisolve;
    Alcotest.test_case "zero alloc: facade execute_ip" `Quick
      test_zero_alloc_facade;
    Alcotest.test_case "cache hit is physically equal" `Quick
      test_cache_hit_physical_equality;
    Alcotest.test_case "cache hit skips symbolic" `Quick
      test_cache_hit_skips_symbolic;
    Alcotest.test_case "cache evicts in LRU order" `Quick
      test_cache_lru_eviction;
    Alcotest.test_case "trisolve cache keyed on RHS pattern" `Quick
      test_trisolve_cache_keyed_on_rhs;
    Alcotest.test_case "cache hit computes with the caller's values" `Quick
      test_cache_hit_caller_values;
    Alcotest.test_case "degenerate inputs through plans" `Quick
      test_empty_inputs_through_plans;
  ]
