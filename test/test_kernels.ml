open Sympiler_sparse
open Sympiler_symbolic
open Sympiler_kernels

(* Numeric executors: the four Figure 1 triangular solves, the Sympiler
   supernodal trisolve, all five Cholesky implementations, LU, IC(0). *)

(* ---- triangular solve ---- *)

let trisolve_variants l (b : Vector.sparse) =
  let bd = Vector.sparse_to_dense b in
  let c = Trisolve_sympiler.compile l b in
  [
    ("naive (1b)", Trisolve_ref.naive l bd);
    ("library (1c)", Trisolve_ref.library l bd);
    ("decoupled (1d)", Trisolve_ref.decoupled l b);
    ("sympiler vs-block", Trisolve_sympiler.solve_vs_block c b);
    ("sympiler vs+vi", Trisolve_sympiler.solve_vs_vi c b);
    ("sympiler full (1e)", Trisolve_sympiler.solve_full c b);
  ]

let test_trisolve_figure1 () =
  let l = Helpers.figure1_l in
  let b =
    { Vector.n = 10; indices = Helpers.figure1_beta; values = [| 3.0; 5.0 |] }
  in
  let oracle = Helpers.oracle_lower_solve l (Vector.sparse_to_dense b) in
  List.iter
    (fun (name, x) -> Helpers.check_close name oracle x)
    (trisolve_variants l b)

let prop_trisolve_all_variants_agree =
  Helpers.qtest "all trisolve variants match the dense oracle"
    Helpers.arb_lower_with_rhs (fun (l, b) ->
      let oracle = Helpers.oracle_lower_solve l (Vector.sparse_to_dense b) in
      List.for_all (fun (_, x) -> Helpers.close oracle x) (trisolve_variants l b))

let test_trisolve_dense_rhs () =
  let l = Generators.random_lower ~seed:8 ~n:100 ~density:0.1 () in
  let b = Array.init 100 (fun i -> float_of_int (i mod 7) -. 3.0) in
  Helpers.check_close "naive dense rhs" (Helpers.oracle_lower_solve l b)
    (Trisolve_ref.naive l b)

let test_transpose_solve () =
  let l = Generators.random_lower ~seed:9 ~n:60 ~density:0.15 () in
  let b = Array.init 60 (fun i -> cos (float_of_int i)) in
  let x = Trisolve_ref.transpose_solve l b in
  (* check L^T x = b by dense multiply *)
  let lt = Dense.transpose (Dense.of_csc l) in
  let r = ref 0.0 in
  for i = 0 to 59 do
    let s = ref 0.0 in
    for j = 0 to 59 do
      s := !s +. (Dense.get lt i j *. x.(j))
    done;
    r := Float.max !r (Float.abs (!s -. b.(i)))
  done;
  Alcotest.(check bool) "residual" true (!r < 1e-9)

let test_trisolve_values_change_pattern_fixed () =
  (* Compile once, solve with different numeric values of L and b. *)
  let l = Generators.random_lower ~seed:10 ~n:80 ~density:0.1 () in
  let b = Generators.sparse_rhs ~seed:11 ~n:80 ~fill:0.05 () in
  let c = Trisolve_sympiler.compile l b in
  let l2 = Csc.map_values l (fun v -> v *. 1.5) in
  let c2 = { c with Trisolve_sympiler.l = l2 } in
  let b2 = { b with Vector.values = Array.map (fun v -> v +. 1.0) b.Vector.values } in
  let oracle = Helpers.oracle_lower_solve l2 (Vector.sparse_to_dense b2) in
  Helpers.check_close "new values, same compiled structure" oracle
    (Trisolve_sympiler.solve_full c2 b2)

let test_trisolve_flops_counts () =
  let l = Helpers.figure1_l in
  let r = Dep_graph.reach l Helpers.figure1_beta in
  (* columns 0,5,6,7,8,9 have nnz 2,4,2,3,2,1 -> flops = sum (2nnz-1) = 3+7+3+5+3+1 = 22 *)
  Alcotest.(check (float 0.0)) "useful flops" 22.0 (Trisolve_ref.flops l r)

(* A random pattern's reached supernodes average under the width
   threshold: VS-Block declines, every supernode is a single column and
   the solve writes only the reach-set. *)
let test_trisolve_threshold_disables_blocks () =
  let l = Generators.random_lower ~seed:12 ~n:60 ~density:0.08 () in
  let b = Generators.sparse_rhs ~seed:13 ~n:60 ~fill:0.1 () in
  let c = Trisolve_sympiler.compile l b in
  let vs =
    List.find
      (fun d -> d.Sympiler_trace.Trace.pass = "vs-block")
      c.Trisolve_sympiler.decisions
  in
  Alcotest.(check bool) "below the width threshold" true
    (vs.Sympiler_trace.Trace.value < Trisolve_sympiler.vs_block_width);
  Alcotest.(check bool) "declined" true c.Trisolve_sympiler.columnwise;
  Alcotest.(check int) "degenerate blocks" l.Csc.ncols
    (Supernodes.nsuper c.Trisolve_sympiler.sn);
  Alcotest.(check (array int)) "writes the reach-set" c.Trisolve_sympiler.reach
    c.Trisolve_sympiler.written

(* ---- Cholesky ---- *)

let cholesky_variants al =
  let an_e = Cholesky_ref.Eigen.analyze al in
  let cd = Cholesky_ref.Decoupled.compile al in
  let an_c = Cholesky_supernodal.Cholmod.analyze al in
  let cs = Cholesky_supernodal.Sympiler.compile al in
  let cg = Cholesky_supernodal.Sympiler.compile ~specialized:false al in
  [
    ("eigen", Cholesky_ref.Eigen.factor an_e al);
    ("decoupled", Cholesky_ref.Decoupled.factor cd al);
    ("cholmod", Cholesky_supernodal.Cholmod.factor an_c al);
    ("sympiler-sn", Cholesky_supernodal.Sympiler.factor cs al);
    ("sympiler-sn-generic", Cholesky_supernodal.Sympiler.factor cg al);
  ]

let test_cholesky_zoo () =
  List.iter
    (fun (name, a) ->
      let al = Csc.lower a in
      let oracle = Helpers.oracle_cholesky a in
      List.iter
        (fun (vname, l) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s" name vname)
            true
            (Dense.max_abs_diff oracle (Dense.of_csc l) < 1e-7))
        (cholesky_variants al))
    (Helpers.spd_zoo ())

let prop_cholesky_all_variants =
  Helpers.qtest ~count:40 "all Cholesky variants match the dense oracle"
    Helpers.arb_spd (fun a ->
      let al = Csc.lower a in
      let oracle = Helpers.oracle_cholesky a in
      List.for_all
        (fun (_, l) -> Dense.max_abs_diff oracle (Dense.of_csc l) < 1e-7)
        (cholesky_variants al))

let prop_cholesky_solve_residual =
  Helpers.qtest ~count:40 "factor+solve residual small" Helpers.arb_spd
    (fun a ->
      let al = Csc.lower a in
      let n = a.Csc.ncols in
      let b = Array.init n (fun i -> sin (float_of_int i)) in
      let l = Cholesky_ref.factor_simple al in
      let x = Cholesky_ref.solve_with_factor l b in
      let r = Vector.sub (Csc.spmv a x) b in
      Vector.norm_inf r /. Float.max 1.0 (Vector.norm_inf b) < 1e-7)

let test_cholesky_not_pd_raises () =
  let a = Csc.of_dense [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  let al = Csc.lower a in
  Alcotest.(check bool) "eigen raises" true
    (try
       ignore (Cholesky_ref.factor_simple al);
       false
     with Cholesky_ref.Not_positive_definite _ -> true);
  Alcotest.(check bool) "supernodal raises" true
    (try
       let c = Cholesky_supernodal.Sympiler.compile al in
       ignore (Cholesky_supernodal.Sympiler.factor c al);
       false
     with Dense_blas.Not_positive_definite _ -> true)

let test_cholesky_refactor_new_values () =
  (* The paper's core use case: same pattern, changing values. *)
  let a = Generators.grid2d ~stencil:`Nine 6 6 in
  let al = Csc.lower a in
  let c = Cholesky_supernodal.Sympiler.compile al in
  let al2 =
    Csc.map_values al (fun v -> if v < 0.0 then v *. 0.7 else v *. 1.3)
  in
  let a2 = Csc.symmetrize_from_lower al2 in
  let oracle = Helpers.oracle_cholesky a2 in
  let l = Cholesky_supernodal.Sympiler.factor c al2 in
  Alcotest.(check bool) "refactor without re-analysis" true
    (Dense.max_abs_diff oracle (Dense.of_csc l) < 1e-7)

let test_cholesky_max_width_variants () =
  let a = Generators.block_tridiagonal ~seed:4 ~nblocks:5 ~block:6 () in
  let al = Csc.lower a in
  let oracle = Helpers.oracle_cholesky a in
  List.iter
    (fun mw ->
      let c = Cholesky_supernodal.Sympiler.compile ~max_width:mw al in
      let l = Cholesky_supernodal.Sympiler.factor c al in
      Alcotest.(check bool)
        (Printf.sprintf "max_width=%d" mw)
        true
        (Dense.max_abs_diff oracle (Dense.of_csc l) < 1e-7))
    [ 1; 2; 3; 7; 100 ]

let test_supernodal_schedule_covers_updates () =
  (* Every below-diagonal row of every descendant must appear in exactly one
     update of the schedule. *)
  let a = Generators.grid2d ~stencil:`Five 6 6 in
  let al = Csc.lower a in
  let c = Cholesky_supernodal.Sympiler.compile al in
  let an = c.Cholesky_supernodal.Sympiler.an in
  let total_rows =
    Array.fold_left ( + ) 0 an.Cholesky_supernodal.nb
  in
  let scheduled =
    Array.fold_left
      (fun acc ups ->
        Array.fold_left (fun acc (u : Cholesky_supernodal.update) -> acc + u.Cholesky_supernodal.t) acc ups)
      0 c.Cholesky_supernodal.Sympiler.schedule
  in
  Alcotest.(check int) "schedule covers every below row" total_rows scheduled

(* ---- LU ---- *)

let prop_lu_correct =
  Helpers.qtest ~count:40 "LU: L*U = A and variants agree" Helpers.arb_spd
    (fun a ->
      (* SPD implies no pivoting needed. *)
      let c = Lu.Sympiler.compile a in
      let f1 = Lu.Sympiler.factor c a in
      let f2 = Lu.Ref.factor a in
      let prod = Dense.matmul (Dense.of_csc f1.Lu.l) (Dense.of_csc f1.Lu.u) in
      Dense.max_abs_diff prod (Dense.of_csc a) < 1e-7
      && Csc.equal ~eps:1e-9 f1.Lu.l f2.Lu.l
      && Csc.equal ~eps:1e-9 f1.Lu.u f2.Lu.u)

let prop_lu_solve =
  Helpers.qtest ~count:40 "LU solve residual" Helpers.arb_spd (fun a ->
      let n = a.Csc.ncols in
      let b = Array.init n (fun i -> float_of_int ((i mod 5) - 2)) in
      let f = Lu.Ref.factor a in
      let x = Lu.solve f b in
      let r = Vector.sub (Csc.spmv a x) b in
      Vector.norm_inf r /. Float.max 1.0 (Vector.norm_inf b) < 1e-7)

let test_lu_nonsymmetric () =
  (* Unsymmetric diagonally dominant matrix. *)
  let tr = Triplet.create ~nrows:6 ~ncols:6 () in
  for i = 0 to 5 do
    Triplet.add tr i i 4.0;
    if i + 1 < 6 then Triplet.add tr i (i + 1) (-1.0);
    if i >= 2 then Triplet.add tr i (i - 2) (-0.5)
  done;
  let a = Csc.of_triplet tr in
  let f = Lu.Ref.factor a in
  let prod = Dense.matmul (Dense.of_csc f.Lu.l) (Dense.of_csc f.Lu.u) in
  Alcotest.(check bool) "unsymmetric LU" true
    (Dense.max_abs_diff prod (Dense.of_csc a) < 1e-10)

let test_lu_zero_pivot () =
  let a = Csc.of_dense [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  Alcotest.(check bool) "zero pivot raises" true
    (try
       ignore (Lu.Ref.factor a);
       false
     with Lu.Zero_pivot 0 -> true)

let test_lu_pattern_matches_cholesky () =
  (* On SPD input the LU factor L has the Cholesky fill pattern. *)
  let a = Generators.grid2d ~stencil:`Five 5 5 in
  let c = Lu.Sympiler.compile a in
  let fill = Fill_pattern.analyze (Csc.lower a) in
  Alcotest.(check (array int)) "L colptr matches symbolic Cholesky"
    fill.Fill_pattern.l_colptr c.Lu.Sympiler.l_colptr

(* ---- IC(0) ---- *)

let test_ic0_nofill_exact () =
  let a = Generators.banded ~seed:22 ~n:50 ~band:1 () in
  let al = Csc.lower a in
  Alcotest.(check bool) "tridiagonal IC0 = exact" true
    (Csc.equal ~eps:1e-10 (Ic0.factorize al) (Cholesky_ref.factor_simple al))

let prop_ic0_matches_a_on_pattern =
  Helpers.qtest ~count:40 "IC0: (L L^T) = A on A's pattern" Helpers.arb_spd
    (fun a ->
      let al = Csc.lower a in
      let l = Ic0.factorize al in
      let ld = Dense.of_csc l in
      let prod = Dense.matmul ld (Dense.transpose ld) in
      let ok = ref true in
      Csc.iter a (fun i j v ->
          if Float.abs (Dense.get prod i j -. v) > 1e-6 then ok := false);
      !ok)

let test_ic0_preconditioner_quality () =
  (* On a diagonally dominant matrix, one application of the IC0
     preconditioner must shrink the residual. *)
  let a = Generators.random_banded ~seed:30 ~n:64 ~band:8 ~density:0.2 () in
  let al = Csc.lower a in
  let l = Ic0.factorize al in
  let n = a.Csc.ncols in
  let b = Array.make n 1.0 in
  (* x ~ A^{-1} b approximated by M^{-1} b with M = L L^T *)
  let x = Cholesky_ref.solve_with_factor l b in
  let r = Vector.sub b (Csc.spmv a x) in
  Alcotest.(check bool) "preconditioner reduces residual" true
    (Vector.norm2 r < Vector.norm2 b)

let suite =
  [
    ("trisolve figure 1", `Quick, test_trisolve_figure1);
    prop_trisolve_all_variants_agree;
    ("trisolve dense rhs", `Quick, test_trisolve_dense_rhs);
    ("transpose solve", `Quick, test_transpose_solve);
    ("trisolve values change", `Quick, test_trisolve_values_change_pattern_fixed);
    ("trisolve useful flops", `Quick, test_trisolve_flops_counts);
    ("trisolve threshold", `Quick, test_trisolve_threshold_disables_blocks);
    ("cholesky zoo", `Quick, test_cholesky_zoo);
    prop_cholesky_all_variants;
    prop_cholesky_solve_residual;
    ("cholesky not PD raises", `Quick, test_cholesky_not_pd_raises);
    ("cholesky refactor new values", `Quick, test_cholesky_refactor_new_values);
    ("cholesky max_width variants", `Quick, test_cholesky_max_width_variants);
    ("supernodal schedule coverage", `Quick, test_supernodal_schedule_covers_updates);
    prop_lu_correct;
    prop_lu_solve;
    ("lu nonsymmetric", `Quick, test_lu_nonsymmetric);
    ("lu zero pivot", `Quick, test_lu_zero_pivot);
    ("lu pattern = cholesky pattern", `Quick, test_lu_pattern_matches_cholesky);
    ("ic0 exact on tridiagonal", `Quick, test_ic0_nofill_exact);
    prop_ic0_matches_a_on_pattern;
    ("ic0 preconditioner", `Quick, test_ic0_preconditioner_quality);
  ]
