open Sympiler_sparse
open Sympiler_kernels

(* §3.3 extension methods: LDL^T, ILU(0), level-set parallel trisolve. *)

(* ---- LDL^T ---- *)

let prop_ldlt_reconstructs =
  Helpers.qtest ~count:40 "LDLt: L D L^T = A" Helpers.arb_spd (fun a ->
      let al = Csc.lower a in
      let f = Ldlt.factorize al in
      let n = a.Csc.ncols in
      let ld = Dense.of_csc f.Ldlt.l in
      let dd = Dense.create n n in
      Array.iteri (fun i v -> Dense.set dd i i v) f.Ldlt.d;
      let prod = Dense.matmul (Dense.matmul ld dd) (Dense.transpose ld) in
      Dense.max_abs_diff prod (Dense.of_csc a) < 1e-7)

let prop_ldlt_solve =
  Helpers.qtest ~count:40 "LDLt solve residual" Helpers.arb_spd (fun a ->
      let al = Csc.lower a in
      let f = Ldlt.factorize al in
      let n = a.Csc.ncols in
      let b = Array.init n (fun i -> cos (float_of_int i)) in
      let x = Ldlt.solve f b in
      let r = Vector.sub (Csc.spmv a x) b in
      Vector.norm_inf r /. Float.max 1.0 (Vector.norm_inf b) < 1e-7)

let test_ldlt_indefinite () =
  (* An indefinite but strongly regular matrix: Cholesky fails, LDLt works. *)
  let a = Csc.of_dense [| [| -4.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let al = Csc.lower a in
  Alcotest.(check bool) "cholesky rejects" true
    (try
       ignore (Cholesky_ref.factor_simple al);
       false
     with Cholesky_ref.Not_positive_definite _ -> true);
  let f = Ldlt.factorize al in
  Alcotest.(check bool) "negative pivot kept" true (f.Ldlt.d.(0) < 0.0);
  let b = [| 1.0; 2.0 |] in
  let x = Ldlt.solve f b in
  let r = Vector.sub (Csc.spmv a x) b in
  Alcotest.(check bool) "indefinite solve" true (Vector.norm_inf r < 1e-10)

let test_ldlt_agrees_with_cholesky () =
  (* On SPD input: L_ldl * sqrt(D) = L_chol. *)
  let a = Generators.grid2d ~stencil:`Five 5 5 in
  let al = Csc.lower a in
  let f = Ldlt.factorize al in
  let lc = Cholesky_ref.factor_simple al in
  let scaled =
    Csc.create ~nrows:25 ~ncols:25 ~colptr:f.Ldlt.l.Csc.colptr
      ~rowind:f.Ldlt.l.Csc.rowind
      ~values:
        (Array.mapi
           (fun p v ->
             (* column of entry p *)
             let rec col j = if f.Ldlt.l.Csc.colptr.(j + 1) > p then j else col (j + 1) in
             let j = col 0 in
             v *. sqrt f.Ldlt.d.(j))
           f.Ldlt.l.Csc.values)
  in
  Alcotest.(check bool) "L_ldl sqrt(D) = L_chol" true (Csc.equal ~eps:1e-8 scaled lc)

(* ---- ILU(0) ---- *)

let test_ilu0_exact_when_no_fill () =
  (* Tridiagonal: LU has no fill, so ILU(0) must solve exactly. *)
  let a = Generators.banded ~seed:5 ~n:60 ~band:1 () in
  let f = Ilu0.factorize a in
  let b = Array.init 60 (fun i -> sin (float_of_int i)) in
  let x = Ilu0.solve f b in
  let r = Vector.sub (Csc.spmv a x) b in
  Alcotest.(check bool) "exact solve" true (Vector.norm_inf r < 1e-9)

let prop_ilu0_preconditioner_contracts =
  Helpers.qtest ~count:30 "ILU0: one M^-1 application shrinks the residual"
    Helpers.arb_spd (fun a ->
      let f = Ilu0.factorize a in
      let n = a.Csc.ncols in
      let b = Array.init n (fun i -> float_of_int ((i mod 3) - 1)) in
      let x = Ilu0.solve f b in
      let r = Vector.sub b (Csc.spmv a x) in
      Vector.norm2 r <= Vector.norm2 b +. 1e-9)

let test_ilu0_matches_lu_on_pattern () =
  (* The L and U values of ILU(0) coincide with full LU wherever A has an
     entry, when LU produces no fill outside... use a no-fill matrix. *)
  let a = Generators.banded ~seed:6 ~n:30 ~band:1 () in
  let f = Ilu0.factorize a in
  let full = Lu.Ref.factor a in
  let ok = ref true in
  for i = 0 to 29 do
    for p = f.Ilu0.c.Ilu0.rowptr.(i) to f.Ilu0.c.Ilu0.rowptr.(i + 1) - 1 do
      let j = f.Ilu0.c.Ilu0.colind.(p) in
      let v = f.Ilu0.values.(p) in
      let expect =
        if j < i then Csc.get full.Lu.l i j else Csc.get full.Lu.u i j
      in
      if not (Utils.feq ~eps:1e-9 v expect) then ok := false
    done
  done;
  Alcotest.(check bool) "values match full LU" true !ok

(* ---- level-set parallel trisolve ---- *)

(* The level schedule respects every dependence and is exactly the global
   levelization. *)
let prop_levels_valid =
  Helpers.qtest ~count:200 "level schedule respects all dependences"
    Helpers.arb_lower (fun l ->
      let c = Trisolve_parallel.compile l in
      Trisolve_parallel.valid_schedule c
      && (c.Trisolve_parallel.level_ptr, c.Trisolve_parallel.level_cols)
         = Helpers.levelize l)

let prop_parallel_matches_sequential =
  Helpers.qtest ~count:30 "parallel trisolve = sequential" Helpers.arb_lower
    (fun l ->
      let n = l.Csc.ncols in
      let b = Array.init n (fun i -> sin (float_of_int i)) in
      let c = Trisolve_parallel.compile l in
      let seq = Trisolve_parallel.solve ~ndomains:1 c b in
      let par = Trisolve_parallel.solve ~ndomains:3 c b in
      let oracle = Helpers.oracle_lower_solve l b in
      Helpers.close seq oracle && Helpers.close par oracle)

let test_levels_diagonal_matrix () =
  (* Diagonal matrix: one level containing everything. *)
  let c = Trisolve_parallel.compile (Csc.identity 40) in
  Alcotest.(check int) "one level" 1 c.Trisolve_parallel.nlevels

let test_levels_chain () =
  (* Bidiagonal chain: n levels of one column each. *)
  let n = 12 in
  let tr = Triplet.create ~nrows:n ~ncols:n () in
  for j = 0 to n - 1 do
    Triplet.add tr j j 2.0;
    if j + 1 < n then Triplet.add tr (j + 1) j (-1.0)
  done;
  let c = Trisolve_parallel.compile (Csc.of_triplet tr) in
  Alcotest.(check int) "n levels" n c.Trisolve_parallel.nlevels

let test_parallel_wide_levels () =
  (* Block-diagonal-ish matrix with wide levels to actually hit the
     parallel path (width >= 64). *)
  let n = 400 in
  let tr = Triplet.create ~nrows:n ~ncols:n () in
  for j = 0 to n - 1 do
    Triplet.add tr j j 2.0
  done;
  (* edges only from first half to second half: 2 wide levels *)
  for j = 0 to (n / 2) - 1 do
    Triplet.add tr (j + (n / 2)) j (-0.5)
  done;
  let l = Csc.of_triplet tr in
  let c = Trisolve_parallel.compile l in
  Alcotest.(check int) "two levels" 2 c.Trisolve_parallel.nlevels;
  let b = Array.init n (fun i -> float_of_int (i mod 5)) in
  let par = Trisolve_parallel.solve ~ndomains:4 c b in
  Helpers.check_close "parallel on wide levels" (Helpers.oracle_lower_solve l b) par

let suite =
  [
    prop_ldlt_reconstructs;
    prop_ldlt_solve;
    ("ldlt indefinite", `Quick, test_ldlt_indefinite);
    ("ldlt vs cholesky", `Quick, test_ldlt_agrees_with_cholesky);
    ("ilu0 exact no-fill", `Quick, test_ilu0_exact_when_no_fill);
    prop_ilu0_preconditioner_contracts;
    ("ilu0 matches LU on pattern", `Quick, test_ilu0_matches_lu_on_pattern);
    prop_levels_valid;
    prop_parallel_matches_sequential;
    ("levels: diagonal", `Quick, test_levels_diagonal_matrix);
    ("levels: chain", `Quick, test_levels_chain);
    ("parallel wide levels", `Quick, test_parallel_wide_levels);
  ]

(* ---- left-looking Cholesky (Figure 4 executor) ---- *)

let prop_leftlooking_matches_oracle =
  Helpers.qtest ~count:40 "left-looking Cholesky = dense oracle"
    Helpers.arb_spd (fun a ->
      let al = Csc.lower a in
      let l = Cholesky_leftlooking.factorize al in
      Dense.max_abs_diff (Helpers.oracle_cholesky a) (Dense.of_csc l) < 1e-7)

let test_leftlooking_equals_uplooking () =
  let a = Generators.grid2d ~stencil:`Nine 6 6 in
  let al = Csc.lower a in
  let l1 = Cholesky_leftlooking.factorize al in
  let l2 = Cholesky_ref.factor_simple al in
  Alcotest.(check bool) "identical factors" true (Csc.equal ~eps:1e-10 l1 l2)

let test_leftlooking_not_pd () =
  let a = Csc.of_dense [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Cholesky_leftlooking.factorize (Csc.lower a));
       false
     with Cholesky_leftlooking.Not_positive_definite _ -> true)

(* ---- rank-1 update / downdate ---- *)

let rank_update_roundtrip a =
  let al = Csc.lower a in
  let fill = Sympiler_symbolic.Fill_pattern.analyze al in
  let parent = fill.Sympiler_symbolic.Fill_pattern.parent in
  let l = Cholesky_ref.factor_simple al in
  (* w with the pattern of an existing column of L: always legal *)
  let j = a.Csc.ncols / 3 in
  let w = Rank_update.vector_like l ~j ~scale:0.5 in
  (* expected: refactor A + w w^T from scratch *)
  let wd = Vector.sparse_to_dense w in
  let awwt =
    let d = Csc.to_dense a in
    Array.iteri
      (fun i row -> Array.iteri (fun k _ -> row.(k) <- row.(k) +. (wd.(i) *. wd.(k))) row)
      d;
    Csc.of_dense d
  in
  let expected = Helpers.oracle_cholesky awwt in
  Rank_update.update ~parent l w;
  let ok_up = Dense.max_abs_diff expected (Dense.of_csc l) < 1e-7 in
  (* downdate back to the original *)
  Rank_update.update ~sigma:(-1.0) ~parent l w;
  let expected0 = Helpers.oracle_cholesky a in
  let ok_down = Dense.max_abs_diff expected0 (Dense.of_csc l) < 1e-6 in
  ok_up && ok_down

let prop_rank_update_roundtrip =
  Helpers.qtest ~count:30 "rank-1 update then downdate restores the factor"
    Helpers.arb_spd rank_update_roundtrip

let test_rank_update_pattern_violation () =
  let a = Generators.grid2d ~stencil:`Five 4 4 in
  let al = Csc.lower a in
  let fill = Sympiler_symbolic.Fill_pattern.analyze al in
  let l = Cholesky_ref.factor_simple al in
  (* w touching rows 0 and 15: row 15 is not in column 0's pattern *)
  let w = { Vector.n = 16; indices = [| 0; 15 |]; values = [| 1.0; 1.0 |] } in
  Alcotest.(check bool) "pattern violation detected" true
    (try
       Rank_update.update ~parent:fill.Sympiler_symbolic.Fill_pattern.parent l w;
       false
     with Rank_update.Pattern_violation _ -> true)

let test_rank_update_empty_w () =
  let a = Generators.grid2d ~stencil:`Five 3 3 in
  let al = Csc.lower a in
  let fill = Sympiler_symbolic.Fill_pattern.analyze al in
  let l = Cholesky_ref.factor_simple al in
  let before = Array.copy l.Csc.values in
  Rank_update.update ~parent:fill.Sympiler_symbolic.Fill_pattern.parent l
    { Vector.n = 9; indices = [||]; values = [||] };
  Alcotest.(check bool) "no-op" true (before = l.Csc.values)

let test_rank_update_path_is_etree_path () =
  let a = Generators.grid2d ~stencil:`Five 4 4 in
  let al = Csc.lower a in
  let fill = Sympiler_symbolic.Fill_pattern.analyze al in
  let parent = fill.Sympiler_symbolic.Fill_pattern.parent in
  let w = { Vector.n = 16; indices = [| 5 |]; values = [| 1.0 |] } in
  let c = Rank_update.compile ~parent w in
  Alcotest.(check int) "path starts at jmin" 5 c.Rank_update.path.(0);
  Array.iteri
    (fun k j ->
      if k > 0 then
        Alcotest.(check int) "follows parents" j
          parent.(c.Rank_update.path.(k - 1)))
    c.Rank_update.path

let suite =
  suite
  @ [
      prop_leftlooking_matches_oracle;
      ("left-looking = up-looking", `Quick, test_leftlooking_equals_uplooking);
      ("left-looking not PD", `Quick, test_leftlooking_not_pd);
      prop_rank_update_roundtrip;
      ("rank update pattern violation", `Quick, test_rank_update_pattern_violation);
      ("rank update empty w", `Quick, test_rank_update_empty_w);
      ("rank update path", `Quick, test_rank_update_path_is_etree_path);
    ]

(* ---- parallel supernodal Cholesky (ParSy-style) ---- *)

let prop_parallel_cholesky_matches =
  Helpers.qtest ~count:25 "parallel supernodal Cholesky = oracle"
    Helpers.arb_spd (fun a ->
      let al = Csc.lower a in
      let c = Cholesky_parallel.compile al in
      Cholesky_parallel.valid_schedule c
      &&
      let l1 = Cholesky_parallel.factor ~ndomains:1 c al in
      let l3 = Cholesky_parallel.factor ~ndomains:3 c al in
      let oracle = Helpers.oracle_cholesky a in
      Dense.max_abs_diff oracle (Dense.of_csc l1) < 1e-7
      && Dense.max_abs_diff oracle (Dense.of_csc l3) < 1e-7)

let test_parallel_cholesky_wide_dag () =
  (* Block-diagonal: every supernode at level 0 -> maximal parallelism. *)
  let nblocks = 40 and block = 6 in
  let n = nblocks * block in
  let tr = Triplet.create ~nrows:n ~ncols:n () in
  let rng = Utils.Rng.create 31 in
  for b = 0 to nblocks - 1 do
    let base = b * block in
    for i = 0 to block - 1 do
      for j = 0 to i - 1 do
        let v = -.Utils.Rng.float_range rng 0.1 0.5 in
        Triplet.add tr (base + i) (base + j) v;
        Triplet.add tr (base + j) (base + i) v
      done;
      Triplet.add tr (base + i) (base + i) 6.0
    done
  done;
  let a = Csc.of_triplet tr in
  let al = Csc.lower a in
  let c = Cholesky_parallel.compile al in
  Alcotest.(check int) "single level" 1 c.Cholesky_parallel.nlevels;
  let l = Cholesky_parallel.factor ~ndomains:4 c al in
  Alcotest.(check bool) "parallel block-diagonal" true
    (Dense.max_abs_diff (Helpers.oracle_cholesky a) (Dense.of_csc l) < 1e-8)

(* ---- sparse GEMM as a sparse verification path ---- *)

let prop_llt_equals_a_sparsely =
  Helpers.qtest ~count:30 "sparse GEMM verifies L L^T = A without densifying"
    Helpers.arb_spd (fun a ->
      let al = Csc.lower a in
      let l = Cholesky_ref.factor_simple al in
      let prod = Csc.multiply l (Csc.transpose l) in
      (* compare on A's pattern and check no large spurious entries *)
      let ok = ref true in
      Csc.iter a (fun i j v ->
          if Float.abs (Csc.get prod i j -. v) > 1e-7 then ok := false);
      Csc.iter prod (fun i j v ->
          if (not (Csc.mem a i j)) && Float.abs v > 1e-7 then ok := false);
      !ok)

let test_sparse_multiply_identity () =
  let a = Generators.random_lower ~seed:8 ~n:30 ~density:0.2 () in
  Alcotest.(check bool) "A * I = A" true
    (Csc.equal (Csc.multiply a (Csc.identity 30)) a);
  Alcotest.(check bool) "I * A = A" true
    (Csc.equal (Csc.multiply (Csc.identity 30) a) a)

let test_sparse_multiply_matches_dense () =
  let a = Generators.random_lower ~seed:9 ~n:25 ~density:0.3 () in
  let b = Generators.random_lower ~seed:10 ~n:25 ~density:0.3 () in
  let sp = Csc.multiply a b in
  let dn = Dense.matmul (Dense.of_csc a) (Dense.of_csc b) in
  Alcotest.(check bool) "matches dense product" true
    (Dense.max_abs_diff (Dense.of_csc sp) dn < 1e-12)

let suite =
  suite
  @ [
      prop_parallel_cholesky_matches;
      ("parallel cholesky wide DAG", `Quick, test_parallel_cholesky_wide_dag);
      prop_llt_equals_a_sparsely;
      ("sparse multiply identity", `Quick, test_sparse_multiply_identity);
      ("sparse multiply vs dense", `Quick, test_sparse_multiply_matches_dense);
    ]

(* ---- sparse QR (George-Heath Givens) ---- *)

let qr_checks a =
  let n = a.Csc.ncols in
  let c = Qr.compile a in
  let b = Array.init a.Csc.nrows (fun i -> sin (float_of_int i +. 0.5)) in
  let f = Qr.factor_with_rhs c a b in
  let r = Qr.r_matrix f in
  (* R^T R = A^T A *)
  let rtr = Csc.multiply (Csc.transpose r) r in
  let ata = Csc.multiply (Csc.transpose a) a in
  let ok_rtr =
    Dense.max_abs_diff (Dense.of_csc rtr) (Dense.of_csc ata)
    < 1e-7 *. (1.0 +. Vector.norm_inf ata.Csc.values)
  in
  (* normal equations: A^T (A x - b) = 0 *)
  let x = Qr.solve_r f in
  let res = Vector.sub (Csc.spmv a x) b in
  let normal = Csc.spmv (Csc.transpose a) res in
  let ok_normal = Vector.norm_inf normal < 1e-7 *. (1.0 +. Vector.norm_inf b) in
  (* residual norm reported by the factorization matches the actual one *)
  let ok_resid = Float.abs (Vector.norm2 res -. f.Qr.residual_norm) < 1e-7 in
  ignore n;
  ok_rtr && ok_normal && ok_resid

let prop_qr_square =
  Helpers.qtest ~count:30 "QR on square SPD-patterned matrices"
    Helpers.arb_spd qr_checks

let test_qr_rectangular_least_squares () =
  (* Overdetermined m > n system. *)
  let rng = Utils.Rng.create 17 in
  let m = 60 and n = 25 in
  let tr = Triplet.create ~nrows:m ~ncols:n () in
  for i = 0 to m - 1 do
    (* ensure full column rank: a strong diagonal band *)
    if i < n then Triplet.add tr i i (2.0 +. Utils.Rng.float rng);
    for _ = 1 to 3 do
      let j = Utils.Rng.int rng n in
      Triplet.add tr i j (Utils.Rng.float_range rng (-1.0) 1.0)
    done
  done;
  let a = Csc.of_triplet tr in
  Alcotest.(check bool) "least squares checks" true (qr_checks a)

let test_qr_solves_square_system () =
  let a = Generators.random_banded ~seed:23 ~n:80 ~band:8 ~density:0.3 () in
  let n = a.Csc.ncols in
  let xs = Array.init n (fun i -> float_of_int ((i mod 7) - 3)) in
  let b = Csc.spmv a xs in
  let c = Qr.compile a in
  let x = Qr.lstsq c a b in
  Helpers.check_close ~eps:1e-7 "square QR solve recovers x" xs x

let test_qr_rejects_underdetermined () =
  let a = Csc.zero ~nrows:2 ~ncols:3 in
  Alcotest.(check bool) "m < n rejected" true
    (try
       ignore (Qr.compile a);
       false
     with Invalid_argument _ -> true)

let test_qr_rank_deficient () =
  (* A column of zeros: structural rank deficiency. *)
  let tr = Triplet.create ~nrows:3 ~ncols:3 () in
  Triplet.add tr 0 0 1.0;
  Triplet.add tr 1 2 1.0;
  Triplet.add tr 2 2 1.0;
  let a = Csc.of_triplet tr in
  Alcotest.(check bool) "rank deficiency detected" true
    (try
       ignore (Qr.factor_with_rhs (Qr.compile a) a [| 1.0; 1.0; 1.0 |]);
       false
     with Qr.Rank_deficient _ -> true)

let test_qr_value_change () =
  let a = Generators.random_banded ~seed:29 ~n:50 ~band:6 ~density:0.3 () in
  let c = Qr.compile a in
  let a' = Csc.map_values a (fun v -> 2.0 *. v) in
  let n = a.Csc.ncols in
  let xs = Array.init n (fun i -> cos (float_of_int i)) in
  let b = Csc.spmv a' xs in
  let x = Qr.lstsq c a' b in
  Helpers.check_close ~eps:1e-7 "same pattern, new values" xs x

let suite =
  suite
  @ [
      prop_qr_square;
      ("qr rectangular least squares", `Quick, test_qr_rectangular_least_squares);
      ("qr square solve", `Quick, test_qr_solves_square_system);
      ("qr rejects m<n", `Quick, test_qr_rejects_underdetermined);
      ("qr rank deficient", `Quick, test_qr_rank_deficient);
      ("qr value change", `Quick, test_qr_value_change);
    ]
