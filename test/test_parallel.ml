open Sympiler_sparse
open Sympiler_kernels
open Sympiler_runtime
module Metrics = Sympiler_metrics.Metrics

(* The persistent domain-pool runtime and the unified kernel facade:
   bitwise determinism across domain counts and repeated pool reuse,
   allocation-free parallel steady state, pool fault tolerance, the
   cost-balanced partitioner, and the KERNEL conformance of all six
   facade families. *)

(* Compile-time assertions: every facade family implements KERNEL. A
   family drifting from the uniform signature fails the build here. *)
module Check_trisolve : Sympiler.KERNEL = Sympiler.Trisolve
module Check_cholesky : Sympiler.KERNEL = Sympiler.Cholesky
module Check_ldlt : Sympiler.KERNEL = Sympiler.Ldlt
module Check_lu : Sympiler.KERNEL = Sympiler.Lu
module Check_ic0 : Sympiler.KERNEL = Sympiler.Ic0
module Check_ilu0 : Sympiler.KERNEL = Sympiler.Ilu0

let _ = Check_trisolve.cache_stats
let _ = Check_cholesky.cache_stats
let _ = Check_ldlt.cache_stats
let _ = Check_lu.cache_stats
let _ = Check_ic0.cache_stats
let _ = Check_ilu0.cache_stats

(* Per-call minor-heap delta over repeated calls after two warmups (the
   warmups also absorb the lazy pool spawn). *)
let minor_words_per_call f =
  f ();
  f ();
  let k = 50 in
  let w0 = Gc.minor_words () in
  for _ = 1 to k do
    f ()
  done;
  int_of_float ((Gc.minor_words () -. w0) /. float_of_int k)

(* Suite matrix 1 (cbuckle stand-in) with its exact factor, shared across
   the determinism tests; the expensive part runs once. *)
let fixture =
  lazy
    (let al = (Sympiler.Suite.problem 1).Sympiler.Suite.a_lower in
     let c = Cholesky_parallel.compile al in
     let l = Cholesky_supernodal.Sympiler.factor c.Cholesky_parallel.sym al in
     (al, c, l))

(* Suite problems 2, 6 and 9 the same way: the larger inputs the
   determinism and allocation laws also run on. *)
let suite_fixtures =
  lazy
    (List.map
       (fun id ->
         let sp = Sympiler.Suite.problem id in
         let al = sp.Sympiler.Suite.a_lower in
         let c = Cholesky_parallel.compile al in
         let l = Cholesky_supernodal.Sympiler.factor c.Cholesky_parallel.sym al in
         (sp.Sympiler.Suite.name, al, c, l))
       [ 2; 6; 9 ])

(* Problem 1's fixture, then problems 2, 6 and 9, as (name, al, c, l). *)
let all_fixtures () =
  let al, c, l = Lazy.force fixture in
  ("cbuckle", al, c, l) :: Lazy.force suite_fixtures

(* A two-level lower pattern whose levels are both wide enough (128 >= 64)
   to exercise the pool's dispatch with real gather work: columns
   [0, n/2) carry the diagonal plus one subdiagonal entry at row j + n/2. *)
let wide_lower n =
  let half = n / 2 in
  let colptr = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    colptr.(j + 1) <- (colptr.(j) + if j < half then 2 else 1)
  done;
  let nnz = colptr.(n) in
  let rowind = Array.make nnz 0 and values = Array.make nnz 0.0 in
  for j = 0 to n - 1 do
    let p = colptr.(j) in
    rowind.(p) <- j;
    values.(p) <- 2.0;
    if j < half then begin
      rowind.(p + 1) <- j + half;
      values.(p + 1) <- 0.5
    end
  done;
  Csc.create ~nrows:n ~ncols:n ~colptr ~rowind ~values

(* ---- the partitioner ---- *)

let test_partition_balanced () =
  (* Ten expensive tasks up front, a cheap tail: boundaries must follow
     the cost mass, not the task count. *)
  let cost t = if t < 10 then 100.0 else 1.0 in
  let b = Partition.balanced ~ntasks:100 ~nparts:4 ~cost in
  Alcotest.(check int) "nparts+1 boundaries" 5 (Array.length b);
  Alcotest.(check int) "starts at 0" 0 b.(0);
  Alcotest.(check int) "ends at ntasks" 100 b.(4);
  for p = 0 to 3 do
    Alcotest.(check bool) "nondecreasing" true (b.(p) <= b.(p + 1))
  done;
  let total = Partition.chunk_cost ~cost ~lo:0 ~hi:100 in
  let ideal = total /. 4.0 in
  for p = 0 to 3 do
    let c = Partition.chunk_cost ~cost ~lo:b.(p) ~hi:b.(p + 1) in
    Alcotest.(check bool)
      (Printf.sprintf "part %d within one task of ideal" p)
      true
      (c <= ideal +. 100.0)
  done;
  (* All-zero cost degrades to equal counts. *)
  let eq = Partition.balanced ~ntasks:8 ~nparts:4 ~cost:(fun _ -> 0.0) in
  Alcotest.(check (array int)) "zero cost -> equal counts" [| 0; 2; 4; 6; 8 |] eq;
  (* Fewer tasks than parts: trailing parts are empty, range still covered. *)
  let small = Partition.balanced ~ntasks:2 ~nparts:4 ~cost:(fun _ -> 1.0) in
  Alcotest.(check int) "small range covered" 2 small.(4)

(* ---- pool basics ---- *)

let test_parse_ndomains () =
  let check_opt msg exp got = Alcotest.(check (option int)) msg exp got in
  check_opt "absent" None (Pool.parse_ndomains None);
  check_opt "empty" None (Pool.parse_ndomains (Some ""));
  check_opt "garbage" None (Pool.parse_ndomains (Some "four"));
  check_opt "zero" None (Pool.parse_ndomains (Some "0"));
  check_opt "negative" None (Pool.parse_ndomains (Some "-2"));
  check_opt "plain" (Some 4) (Pool.parse_ndomains (Some "4"));
  check_opt "whitespace" (Some 4) (Pool.parse_ndomains (Some " 4 "));
  check_opt "clamped to max_domains" (Some Pool.max_domains)
    (Pool.parse_ndomains (Some "100000"));
  Alcotest.(check bool) "default_size >= 1" true (Pool.default_size () >= 1)

let test_pool_run_basic () =
  let a = Array.make 8 0 in
  Pool.run ~nworkers:4 (fun w -> a.(w) <- w + 1);
  Alcotest.(check (array int)) "each worker ran its slot"
    [| 1; 2; 3; 4; 0; 0; 0; 0 |] a

exception Boom

let test_pool_survives_exception () =
  let propagated =
    try
      Pool.run ~nworkers:2 (fun w -> if w = 1 then raise Boom);
      false
    with Boom -> true
  in
  Alcotest.(check bool) "worker exception reaches the caller" true propagated;
  let a = Array.make 4 0 in
  Pool.run ~nworkers:4 (fun w -> a.(w) <- 1);
  Alcotest.(check int) "pool usable after the exception" 4
    (Array.fold_left ( + ) 0 a)

(* Dispatches of alternating width leave some workers idle every other
   epoch; an idle worker that wakes late must neither run the next task
   early nor release the barrier before every active worker is done. *)
let test_pool_alternating_widths () =
  let counts = Array.make 4 0 in
  let bad = ref 0 in
  for it = 1 to 20_000 do
    let nw = if it land 1 = 0 then 2 else 4 in
    Array.fill counts 0 4 0;
    Pool.run ~nworkers:nw (fun w -> counts.(w) <- counts.(w) + 1);
    Array.iteri
      (fun w c -> if c <> (if w < nw then 1 else 0) then incr bad)
      counts
  done;
  Alcotest.(check int) "workers that ran other than exactly once" 0 !bad

let test_pool_nworkers1_inline () =
  let s0 = Pool.spawned () in
  let r = ref 0 in
  Pool.run ~nworkers:1 (fun w -> r := w + 10);
  Alcotest.(check int) "task 0 ran on the caller" 10 !r;
  Alcotest.(check int) "no workers spawned for nworkers=1" s0 (Pool.spawned ())

let test_make_plan_defaults_agree () =
  (* Both kernels must default to the library's single sizing decision. *)
  let l = Csc.identity 10 in
  let tp = Trisolve_parallel.make_plan (Trisolve_parallel.compile l) in
  let cp = Cholesky_parallel.make_plan (Cholesky_parallel.compile l) in
  Alcotest.(check int) "trisolve default = Pool.default_size"
    (Pool.default_size ()) tp.Trisolve_parallel.ndomains;
  Alcotest.(check int) "cholesky default = Pool.default_size"
    (Pool.default_size ()) cp.Cholesky_parallel.ndomains

(* ---- determinism across domain counts and pool reuse ---- *)

let test_cholesky_determinism_suite () =
  List.iter
    (fun (name, al, c, l) ->
      List.iter
        (fun nd ->
          let p = Cholesky_parallel.make_plan ~ndomains:nd c in
          for i = 1 to 2 do
            Cholesky_parallel.factor_ip p al;
            Helpers.bitwise
              (Printf.sprintf "%s cholesky ndomains=%d call=%d" name nd i)
              l.Csc.values p.Cholesky_parallel.l.Csc.values
          done)
        [ 1; 2; 4 ])
    (all_fixtures ())

let test_trisolve_determinism_suite () =
  List.iter
    (fun (name, _, _, l) ->
      let c = Trisolve_parallel.compile l in
      Alcotest.(check bool) (name ^ ": level sets = global levelization") true
        ((c.Trisolve_parallel.level_ptr, c.Trisolve_parallel.level_cols)
        = Helpers.levelize l);
      let n = l.Csc.ncols in
      let b = Array.init n (fun i -> cos (float_of_int i)) in
      let reference = Array.copy b in
      Stages.lower_ip l reference;
      List.iter
        (fun nd ->
          let p = Trisolve_parallel.make_plan ~ndomains:nd c in
          for i = 1 to 2 do
            Helpers.bitwise
              (Printf.sprintf "%s trisolve ndomains=%d call=%d" name nd i)
              reference
              (Trisolve_parallel.solve_ip p b)
          done)
        [ 1; 2; 4 ])
    (all_fixtures ())

let test_determinism_wide_level () =
  (* Two wide levels: the pool's dispatch path actually runs. *)
  let l = wide_lower 256 in
  let c = Trisolve_parallel.compile l in
  let b = Array.init 256 (fun i -> float_of_int ((i mod 7) - 3)) in
  let reference = Array.copy b in
  Stages.lower_ip l reference;
  List.iter
    (fun nd ->
      let p = Trisolve_parallel.make_plan ~ndomains:nd c in
      Helpers.bitwise
        (Printf.sprintf "wide-level trisolve ndomains=%d" nd)
        reference
        (Trisolve_parallel.solve_ip p b))
    [ 1; 2; 4 ]

let test_determinism_degenerate () =
  (* 0x0 *)
  let e = Csc.zero ~nrows:0 ~ncols:0 in
  let tc = Trisolve_parallel.compile e in
  Alcotest.(check (array int)) "0x0: one empty level" [| 0; 0 |]
    tc.Trisolve_parallel.level_ptr;
  let tp = Trisolve_parallel.make_plan ~ndomains:4 tc in
  Alcotest.(check int) "0x0 solve" 0
    (Array.length (Trisolve_parallel.solve_ip tp [||]));
  let cc = Cholesky_parallel.compile e in
  let cp = Cholesky_parallel.make_plan ~ndomains:4 cc in
  Cholesky_parallel.factor_ip cp e;
  Alcotest.(check int) "0x0 factor" 0 cp.Cholesky_parallel.l.Csc.ncols;
  (* Diagonal-only pattern, one level of 100 independent columns with
     empty row lists (wider than the trisolve inline threshold, so the
     pool dispatches). *)
  let d = Csc.map_values (Csc.identity 100) (fun _ -> 4.0) in
  let dc = Trisolve_parallel.compile d in
  let b = Array.make 100 2.0 in
  let reference = Array.copy b in
  Stages.lower_ip d reference;
  List.iter
    (fun nd ->
      let p = Trisolve_parallel.make_plan ~ndomains:nd dc in
      Helpers.bitwise
        (Printf.sprintf "diagonal trisolve ndomains=%d" nd)
        reference
        (Trisolve_parallel.solve_ip p b))
    [ 1; 4 ];
  let dcc = Cholesky_parallel.compile d in
  let seq = Cholesky_parallel.factor dcc d in
  let dp = Cholesky_parallel.make_plan ~ndomains:4 dcc in
  Cholesky_parallel.factor_ip dp d;
  Helpers.bitwise "diagonal cholesky"
    seq.Csc.values dp.Cholesky_parallel.l.Csc.values

(* ---- pool lifecycle: allocation and counters ---- *)

(* On a wide two-level pattern, then on the factors of suite problems 2,
   6 and 9. *)
let test_zero_alloc_parallel_trisolve () =
  let check name l =
    let n = l.Csc.ncols in
    let p = Trisolve_parallel.make_plan ~ndomains:4 (Trisolve_parallel.compile l) in
    let b = Array.init n (fun i -> float_of_int i) in
    Alcotest.(check int) (name ^ ": parallel solve_ip minor words/call") 0
      (minor_words_per_call (fun () -> ignore (Trisolve_parallel.solve_ip p b)))
  in
  check "wide" (wide_lower 256);
  List.iter (fun (name, _, _, l) -> check name l) (Lazy.force suite_fixtures)

let test_zero_alloc_parallel_cholesky () =
  (* Threshold 0 forces the supernodal path on the grid, whose etree has
     many leaves: levels wider than the inline cutoff, so the pool runs. *)
  let check name al c =
    let p = Cholesky_parallel.make_plan ~ndomains:4 c in
    Alcotest.(check int) (name ^ ": parallel factor_ip minor words/call") 0
      (minor_words_per_call (fun () -> Cholesky_parallel.factor_ip p al))
  in
  let al = Csc.lower (Generators.grid2d ~stencil:`Five 12 12) in
  check "grid" al (Cholesky_parallel.compile al);
  List.iter (fun (name, al, c, _) -> check name al c) (Lazy.force suite_fixtures)

(* The pool's series, registered by Pool at module init; looking a series
   up by name returns the same handle. *)
let pool_runs = Metrics.counter "sympiler_pool_runs"
let pool_tasks = Metrics.counter "sympiler_pool_tasks"
let pool_max_workers = Metrics.gauge "sympiler_pool_max_workers"
let pool_imbalance = Metrics.gauge "sympiler_pool_imbalance_pct"

let test_pool_metrics_counters () =
  let d = Csc.map_values (Csc.identity 100) (fun _ -> 2.0) in
  let p = Trisolve_parallel.make_plan ~ndomains:2 (Trisolve_parallel.compile d) in
  let b = Array.make 100 1.0 in
  Helpers.with_metrics @@ fun () ->
  let t0 = Metrics.counter_value pool_tasks in
  let runs =
    Helpers.counted pool_runs (fun () ->
        ignore (Trisolve_parallel.solve_ip p b))
  in
  Alcotest.(check bool) "pool_runs >= 1" true (runs >= 1);
  Alcotest.(check bool) "pool_tasks >= pool_runs" true
    (Metrics.counter_value pool_tasks - t0 >= runs);
  Alcotest.(check (float 0.0)) "pool_max_workers" 2.0
    (Metrics.gauge_value pool_max_workers);
  Alcotest.(check bool) "imbalance recorded" true
    (Metrics.gauge_value pool_imbalance >= 100.0)

(* The imbalance gauge needs only the metrics switch: a two-domain
   facade solve with nothing else turned on sets it. *)
let test_imbalance_with_metrics_only () =
  let l = Csc.map_values (Csc.identity 100) (fun _ -> 2.0) in
  let b = Generators.sparse_rhs ~seed:4 ~n:100 ~fill:0.5 () in
  let p =
    Sympiler.Trisolve.plan ~ndomains:2 (Sympiler.Trisolve.compile (l, b))
  in
  Helpers.with_metrics @@ fun () ->
  Metrics.set pool_imbalance 0.0;
  ignore (Sympiler.Trisolve.execute_ip p b);
  Alcotest.(check bool) "imbalance gauge >= 100" true
    (Metrics.gauge_value pool_imbalance >= 100.0)

(* ---- the unified facade ---- *)

(* Where VS-Block fires, [?ndomains] plans run the level-parallel
   supernodal executor: bitwise the sequential supernodal executor over
   the analysis of the handle's L for every domain count, and the native
   supernodal kernel. *)
let test_facade_cholesky_ndomains () =
  let al =
    Csc.lower (Generators.block_tridiagonal ~seed:4 ~nblocks:10 ~block:20 ())
  in
  let h = Sympiler.Cholesky.compile al in
  Alcotest.(check bool) "VS-Block fired" true
    (Sympiler.Cholesky.variant h = Sympiler.Cholesky.Supernodal);
  let l = Sympiler.Cholesky.factor h al in
  let fseq =
    Cholesky_supernodal.Sympiler.factor
      (Cholesky_supernodal.Sympiler.of_analysis
         (Cholesky_supernodal.of_pattern ~l_colptr:l.Csc.colptr
            ~l_rowind:l.Csc.rowind))
      al
  in
  let p1 = Sympiler.Cholesky.plan ~ndomains:1 h in
  let p4 = Sympiler.Cholesky.plan ~ndomains:4 h in
  let f1 = Sympiler.Cholesky.execute_ip p1 al in
  let f4 = Sympiler.Cholesky.execute_ip p4 al in
  Helpers.bitwise "supernodal executor == facade ndomains:1"
    fseq.Csc.values f1.Csc.values;
  Helpers.bitwise "facade ndomains:1 == ndomains:4" f1.Csc.values f4.Csc.values;
  let f4' = Sympiler.Cholesky.execute_ip p4 al in
  Helpers.bitwise "facade parallel plan reuse" fseq.Csc.values f4'.Csc.values;
  (* the emitted C forms each update's buffer in the executors' order *)
  if Sympiler.Native.available () then
    Helpers.bitwise "facade ndomains:4 == native"
      f4'.Csc.values
      (Sympiler.Cholesky.execute_ip (Sympiler.Cholesky.plan ~engine:`Native h) al)
        .Csc.values;
  Alcotest.(check bool) "plan_factor view is the executed factor" true
    (Sympiler.Cholesky.plan_factor p4 == f4')

(* Below the rule, or pinned simplicial, the column code has no level
   schedule: [?ndomains] is ignored. *)
let test_facade_simplicial_ignores_ndomains () =
  let al = Csc.lower (Generators.grid2d ~stencil:`Five 8 8) in
  List.iter
    (fun (name, opts) ->
      let h = Sympiler.Cholesky.compile ~opts al in
      let p = Sympiler.Cholesky.plan ~ndomains:4 h in
      let f = Sympiler.Cholesky.execute_ip p al in
      let fresh = Sympiler.Cholesky.factor h al in
      Helpers.bitwise (name ^ ": plan ignores ndomains") fresh.Csc.values
        f.Csc.values)
    [
      ("below the rule", Sympiler.Options.default);
      ("simplicial", Sympiler.Options.make ~simplicial:true ());
    ]

let test_facade_trisolve_ndomains () =
  let l = Generators.random_lower ~seed:51 ~n:300 ~density:0.03 () in
  let b = Generators.sparse_rhs ~seed:52 ~n:300 ~fill:0.05 () in
  let t = Sympiler.Trisolve.compile (l, b) in
  let p1 = Sympiler.Trisolve.plan ~ndomains:1 t in
  let p4 = Sympiler.Trisolve.plan ~ndomains:4 t in
  let x1 = Array.copy (Sympiler.Trisolve.execute_ip p1 b) in
  let x4 = Sympiler.Trisolve.execute_ip p4 b in
  Helpers.bitwise "facade trisolve ndomains:1 == ndomains:4" x1 x4;
  let column_sweep = Vector.sparse_to_dense b in
  Stages.lower_ip l column_sweep;
  Helpers.bitwise "facade level-set solve == Stages.lower_ip" column_sweep x1;
  let x4' = Sympiler.Trisolve.execute_ip p4 b in
  Helpers.bitwise "facade trisolve pool reuse" x1 x4';
  let oracle = Helpers.oracle_lower_solve l (Vector.sparse_to_dense b) in
  Helpers.check_close "level-set facade solve is correct" oracle x4

(* A trisolve plan owns every array a solve writes: two plans of one
   VS-Block handle over suite problem 1's factor solve different
   right-hand sides 2,000 times each on two domains, then two domains run
   the one-shot [solve] on the handle, and every result equals the
   sequential one bit for bit. *)
let test_trisolve_plans_on_two_domains () =
  let _, _, l = Lazy.force fixture in
  let b1 = Sympiler.Suite.rhs_for (Sympiler.Suite.problem 1) in
  let b2 =
    {
      b1 with
      Vector.values =
        Array.mapi (fun k v -> (-2.5 *. v) +. float_of_int k) b1.Vector.values;
    }
  in
  let t = Sympiler.Trisolve.compile (l, b1) in
  Alcotest.(check bool) "the handle took VS-Block" true
    (List.exists
       (fun (d : Sympiler.Trace.decision) ->
         d.Sympiler.Trace.pass = "vs-block" && d.Sympiler.Trace.fired)
       t.Sympiler.Trisolve.decisions);
  let sequential b =
    Array.copy (Sympiler.Trisolve.execute_ip (Sympiler.Trisolve.plan t) b)
  in
  let e1 = sequential b1 and e2 = sequential b2 in
  let wrong solve expected =
    let bad = ref 0 in
    for _ = 1 to 2000 do
      let x = solve () in
      if
        not
          (Array.for_all2
             (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v)
             x expected)
      then incr bad
    done;
    !bad
  in
  let on_two_domains s1 s2 =
    let d = Domain.spawn (fun () -> wrong s2 e2) in
    let bad1 = wrong s1 e1 in
    (bad1, Domain.join d)
  in
  let p1 = Sympiler.Trisolve.plan t and p2 = Sympiler.Trisolve.plan t in
  Alcotest.(check (pair int int))
    "wrong solves of two plans (b1, b2)" (0, 0)
    (on_two_domains
       (fun () -> Sympiler.Trisolve.execute_ip p1 b1)
       (fun () -> Sympiler.Trisolve.execute_ip p2 b2));
  Alcotest.(check (pair int int))
    "wrong one-shot solves (b1, b2)" (0, 0)
    (on_two_domains
       (fun () -> Sympiler.Trisolve.solve t b1)
       (fun () -> Sympiler.Trisolve.solve t b2))

let test_facade_ldlt () =
  let al =
    Csc.lower (Generators.clique_chain ~seed:3 ~n:80 ~clique:8 ~overlap:2 ())
  in
  let h = Sympiler.Ldlt.compile al in
  let fresh = Sympiler.Ldlt.factor h al in
  let p = Sympiler.Ldlt.plan ~ndomains:4 h in
  let f = Sympiler.Ldlt.execute_ip p al in
  Helpers.bitwise "ldlt facade L" fresh.Ldlt.l.Csc.values f.Ldlt.l.Csc.values;
  Helpers.bitwise "ldlt facade D" fresh.Ldlt.d f.Ldlt.d;
  Alcotest.(check bool) "ldlt c_code" true
    (String.length (Sympiler.Ldlt.c_code h) > 200);
  let cache = Sympiler.Plan_cache.create () in
  let h1 = Sympiler.Ldlt.compile ~cache al in
  let h2 = Sympiler.Ldlt.compile ~cache al in
  Alcotest.(check bool) "ldlt cache hit is physical" true (h1 == h2)

let test_facade_lu () =
  let a = Generators.clique_chain ~seed:3 ~n:80 ~clique:8 ~overlap:2 () in
  let h = Sympiler.Lu.compile a in
  let fresh = Sympiler.Lu.factor h a in
  let p = Sympiler.Lu.plan h in
  let f = Sympiler.Lu.execute_ip p a in
  Helpers.bitwise "lu facade L" fresh.Lu.l.Csc.values f.Lu.l.Csc.values;
  Helpers.bitwise "lu facade U" fresh.Lu.u.Csc.values f.Lu.u.Csc.values;
  Alcotest.(check bool) "lu flops recorded" true (h.Sympiler.Lu.flops > 0.0);
  Alcotest.(check bool) "lu c_code" true
    (String.length (Sympiler.Lu.c_code h) > 200);
  let cache = Sympiler.Plan_cache.create () in
  Alcotest.(check bool) "lu cache hit is physical" true
    (Sympiler.Lu.compile ~cache a == Sympiler.Lu.compile ~cache a)

let test_facade_ic0 () =
  let al =
    Csc.lower (Generators.clique_chain ~seed:3 ~n:80 ~clique:8 ~overlap:2 ())
  in
  let h = Sympiler.Ic0.compile al in
  let fresh = Sympiler.Ic0.factor h al in
  let p = Sympiler.Ic0.plan h in
  let f = Sympiler.Ic0.execute_ip p al in
  Helpers.bitwise "ic0 facade values" fresh.Csc.values f.Csc.values;
  Alcotest.(check bool) "ic0 c_code" true
    (String.length (Sympiler.Ic0.c_code h) > 200);
  Alcotest.(check bool) "ic0 rejects non-lower" true
    (try
       ignore
         (Sympiler.Ic0.compile (Generators.clique_chain ~seed:3 ~n:10 ~clique:4 ~overlap:1 ()));
       false
     with Invalid_argument _ -> true)

let test_facade_ilu0 () =
  let a = Generators.clique_chain ~seed:3 ~n:80 ~clique:8 ~overlap:2 () in
  let h = Sympiler.Ilu0.compile a in
  let fresh = Sympiler.Ilu0.factor h a in
  let p = Sympiler.Ilu0.plan h in
  let f = Sympiler.Ilu0.execute_ip p a in
  Helpers.bitwise "ilu0 facade values" fresh.Ilu0.values f.Ilu0.values;
  Alcotest.(check bool) "ilu0 c_code" true
    (String.length (Sympiler.Ilu0.c_code h) > 200)

(* The four new emitters produce compilable C (syntax check only; the
   numeric roundtrip of the shared emission style is covered by the
   supernodal gcc test). *)
let test_static_c_compiles () =
  if Sys.command "which gcc > /dev/null 2>&1" <> 0 then ()
  else begin
    let a = Generators.clique_chain ~seed:3 ~n:40 ~clique:6 ~overlap:2 () in
    let al = Csc.lower a in
    [
      ("ldlt", Sympiler.Ldlt.c_code (Sympiler.Ldlt.compile al));
      ("lu", Sympiler.Lu.c_code (Sympiler.Lu.compile a));
      ("ic0", Sympiler.Ic0.c_code (Sympiler.Ic0.compile al));
      ("ilu0", Sympiler.Ilu0.c_code (Sympiler.Ilu0.compile a));
    ]
    |> List.iter (fun (name, code) ->
           let f = Filename.temp_file ("sympiler_" ^ name) ".c" in
           let oc = open_out f in
           output_string oc code;
           close_out oc;
           let rc =
             Sys.command
               (Printf.sprintf "gcc -fsyntax-only %s" (Filename.quote f))
           in
           Sys.remove f;
           Alcotest.(check int) (name ^ " C syntax") 0 rc)
  end

let suite =
  [
    Alcotest.test_case "partition: cost-balanced boundaries" `Quick
      test_partition_balanced;
    Alcotest.test_case "pool: SYMPILER_NDOMAINS parsing" `Quick
      test_parse_ndomains;
    Alcotest.test_case "pool: basic dispatch" `Quick test_pool_run_basic;
    Alcotest.test_case "pool: survives worker exception" `Quick
      test_pool_survives_exception;
    Alcotest.test_case "pool: nworkers=1 stays inline" `Quick
      test_pool_nworkers1_inline;
    Alcotest.test_case "pool: alternating widths run each worker once"
      `Quick test_pool_alternating_widths;
    Alcotest.test_case "plan defaults agree with Pool.default_size" `Quick
      test_make_plan_defaults_agree;
    Alcotest.test_case "cholesky: bitwise across ndomains (suite)" `Quick
      test_cholesky_determinism_suite;
    Alcotest.test_case "trisolve: bitwise across ndomains (suite)" `Quick
      test_trisolve_determinism_suite;
    Alcotest.test_case "trisolve: bitwise on a wide level" `Quick
      test_determinism_wide_level;
    Alcotest.test_case "degenerates: 0x0 and diagonal-only" `Quick
      test_determinism_degenerate;
    Alcotest.test_case "zero allocation: parallel trisolve" `Quick
      test_zero_alloc_parallel_trisolve;
    Alcotest.test_case "zero allocation: parallel cholesky" `Quick
      test_zero_alloc_parallel_cholesky;
    Alcotest.test_case "pool counters in Metrics" `Quick
      test_pool_metrics_counters;
    Alcotest.test_case "imbalance, metrics only" `Quick
      test_imbalance_with_metrics_only;
    Alcotest.test_case "facade: cholesky ?ndomains" `Quick
      test_facade_cholesky_ndomains;
    Alcotest.test_case "facade: simplicial ignores ?ndomains" `Quick
      test_facade_simplicial_ignores_ndomains;
    Alcotest.test_case "facade: trisolve ?ndomains" `Quick
      test_facade_trisolve_ndomains;
    Alcotest.test_case "facade: trisolve plans on two domains" `Quick
      test_trisolve_plans_on_two_domains;
    Alcotest.test_case "facade: ldlt" `Quick test_facade_ldlt;
    Alcotest.test_case "facade: lu" `Quick test_facade_lu;
    Alcotest.test_case "facade: ic0" `Quick test_facade_ic0;
    Alcotest.test_case "facade: ilu0" `Quick test_facade_ilu0;
    Alcotest.test_case "generated C for the new families" `Quick
      test_static_c_compiles;
  ]
