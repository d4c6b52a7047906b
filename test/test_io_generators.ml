open Sympiler_sparse

(* Matrix Market I/O, synthetic generators, and fill-reducing orderings. *)

let test_mm_roundtrip_general () =
  let m = Generators.random_lower ~seed:1 ~n:20 ~density:0.2 () in
  let s = Matrix_market.to_string m in
  let m' = Matrix_market.of_string s in
  Alcotest.(check bool) "roundtrip" true (Csc.equal m m')

let test_mm_roundtrip_symmetric () =
  let a = Generators.grid2d ~stencil:`Five 4 4 in
  let s = Matrix_market.to_string ~symmetric:true a in
  let a' = Matrix_market.of_string s in
  Alcotest.(check bool) "symmetric roundtrip" true (Csc.equal a a')

let test_mm_pattern_and_comments () =
  let s =
    "%%MatrixMarket matrix coordinate pattern symmetric\n\
     % a comment line\n\
     3 3 2\n\
     2 1\n\
     3 3\n"
  in
  let m = Matrix_market.of_string s in
  Alcotest.(check int) "expanded nnz" 3 (Csc.nnz m);
  Alcotest.(check (float 0.0)) "pattern value" 1.0 (Csc.get m 1 0);
  Alcotest.(check (float 0.0)) "mirrored" 1.0 (Csc.get m 0 1)

let test_mm_rejects_garbage () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Matrix_market.of_string "not a header\n1 1 0\n");
       false
     with Matrix_market.Parse_error _ -> true)

let test_mm_file_roundtrip () =
  let a = Generators.grid2d ~stencil:`Nine 3 3 in
  let path = Filename.temp_file "sympiler" ".mtx" in
  Matrix_market.write ~symmetric:true path a;
  let a' = Matrix_market.read path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true (Csc.equal a a')

(* Every generator must produce a symmetric positive definite matrix: check
   symmetry structurally and PD via the dense oracle. *)
let test_generators_spd () =
  List.iter
    (fun (name, a) ->
      Alcotest.(check bool)
        (name ^ " square") true
        (a.Csc.nrows = a.Csc.ncols);
      Alcotest.(check bool)
        (name ^ " symmetric") true
        (Csc.equal a (Csc.transpose a));
      if a.Csc.ncols <= 100 then
        Alcotest.(check bool)
          (name ^ " positive definite") true
          (try
             ignore (Helpers.oracle_cholesky a);
             true
           with Failure _ -> false))
    (Helpers.spd_zoo ())

let test_generators_deterministic () =
  let a = Generators.random_banded ~seed:5 ~n:50 ~band:6 ~density:0.3 () in
  let b = Generators.random_banded ~seed:5 ~n:50 ~band:6 ~density:0.3 () in
  Alcotest.(check bool) "same seed, same matrix" true (Csc.equal a b);
  let c = Generators.random_banded ~seed:6 ~n:50 ~band:6 ~density:0.3 () in
  Alcotest.(check bool) "different seed differs" false (Csc.equal a c)

let test_grid_sizes () =
  let a = Generators.grid2d ~stencil:`Five 5 7 in
  Alcotest.(check int) "n = nx*ny" 35 a.Csc.ncols;
  let b = Generators.grid3d 3 4 5 in
  Alcotest.(check int) "n = nx*ny*nz" 60 b.Csc.ncols

let test_grid_stencil_counts () =
  (* interior node of a 5-point grid has 4 neighbors *)
  let a = Generators.grid2d ~stencil:`Five 5 5 in
  let center = (2 * 5) + 2 in
  Alcotest.(check int) "5pt interior degree" 5 (Csc.col_nnz a center);
  let b = Generators.grid2d ~stencil:`Nine 5 5 in
  Alcotest.(check int) "9pt interior degree" 9 (Csc.col_nnz b center)

let test_sparse_rhs_fill () =
  let b = Generators.sparse_rhs ~seed:3 ~n:1000 ~fill:0.05 () in
  Alcotest.(check int) "requested fill" 50 (Vector.sparse_nnz b);
  Alcotest.(check bool) "sorted indices" true
    (Utils.array_is_sorted_strict b.Vector.indices 0 (Vector.sparse_nnz b))

let test_random_lower_is_lower () =
  let l = Generators.random_lower ~seed:2 ~n:40 ~density:0.2 () in
  Alcotest.(check bool) "lower triangular" true (Csc.is_lower_triangular l);
  (* diagonal present and >= 1 *)
  let ok = ref true in
  for j = 0 to 39 do
    if Csc.get l j j < 1.0 then ok := false
  done;
  Alcotest.(check bool) "unit-ish diagonal" true !ok

let test_suite_table2 () =
  Alcotest.(check int) "11 problems" 11 (List.length Generators.suite);
  List.iteri
    (fun i p ->
      Alcotest.(check int) "ids sequential" (i + 1) p.Generators.id)
    Generators.suite;
  let p = Generators.problem_by_name "cbuckle" in
  Alcotest.(check int) "lookup by name" 1 p.Generators.id

let test_rcm_reduces_bandwidth () =
  (* A randomly permuted grid has large bandwidth; RCM should shrink it. *)
  let a = Generators.grid2d ~stencil:`Five 10 10 in
  let rng = Utils.Rng.create 11 in
  let scrambled = Perm.symmetric_permute (Perm.random rng a.Csc.ncols) a in
  let before = Ordering.bandwidth scrambled in
  let p = Ordering.rcm scrambled in
  Alcotest.(check bool) "rcm perm valid" true (Perm.is_valid p);
  let after = Ordering.bandwidth (Perm.symmetric_permute p scrambled) in
  Alcotest.(check bool)
    (Printf.sprintf "bandwidth %d -> %d" before after)
    true (after < before / 2)

let test_min_degree_reduces_fill () =
  let a = Generators.grid2d ~stencil:`Five 12 12 in
  let p = Ordering.min_degree a in
  Alcotest.(check bool) "md perm valid" true (Perm.is_valid p);
  let fill_of m =
    Sympiler_symbolic.Fill_pattern.(nnz_l (analyze (Csc.lower m)))
  in
  let before = fill_of a in
  let after = fill_of (Perm.symmetric_permute p a) in
  Alcotest.(check bool)
    (Printf.sprintf "fill %d -> %d" before after)
    true
    (after < before)

let test_ordering_preserves_solution () =
  (* Solve A x = b directly and via P A P^T. *)
  let a = Generators.grid2d ~stencil:`Five 6 6 in
  let n = a.Csc.ncols in
  let b = Array.init n (fun i -> sin (float_of_int i)) in
  let x_direct =
    let l = Helpers.oracle_cholesky a in
    Dense.upper_solve_transposed l (Dense.lower_solve l b)
  in
  let p = Ordering.min_degree a in
  let ap = Perm.symmetric_permute p a in
  let bp = Perm.apply_vec p b in
  let xp =
    let l = Helpers.oracle_cholesky ap in
    Dense.upper_solve_transposed l (Dense.lower_solve l bp)
  in
  let x_back = Perm.apply_inv_vec p xp in
  Helpers.check_close "permuted solve agrees" x_direct x_back

let suite =
  [
    ("mm roundtrip general", `Quick, test_mm_roundtrip_general);
    ("mm roundtrip symmetric", `Quick, test_mm_roundtrip_symmetric);
    ("mm pattern + comments", `Quick, test_mm_pattern_and_comments);
    ("mm rejects garbage", `Quick, test_mm_rejects_garbage);
    ("mm file roundtrip", `Quick, test_mm_file_roundtrip);
    ("generators produce SPD", `Quick, test_generators_spd);
    ("generators deterministic", `Quick, test_generators_deterministic);
    ("grid sizes", `Quick, test_grid_sizes);
    ("grid stencil degrees", `Quick, test_grid_stencil_counts);
    ("sparse rhs fill", `Quick, test_sparse_rhs_fill);
    ("random lower is lower", `Quick, test_random_lower_is_lower);
    ("table 2 suite", `Quick, test_suite_table2);
    ("rcm reduces bandwidth", `Quick, test_rcm_reduces_bandwidth);
    ("min degree reduces fill", `Quick, test_min_degree_reduces_fill);
    ("ordering preserves solution", `Quick, test_ordering_preserves_solution);
  ]

let prop_rcm_valid_on_random_graphs =
  Helpers.qtest ~count:50 "rcm produces a valid permutation" Helpers.arb_spd
    (fun a -> Perm.is_valid (Ordering.rcm a))

let prop_min_degree_valid =
  Helpers.qtest ~count:30 "min_degree produces a valid permutation"
    Helpers.arb_spd (fun a -> Perm.is_valid (Ordering.min_degree a))

let test_adjacency_no_self_loops () =
  let a = Generators.grid2d ~stencil:`Five 4 4 in
  let adj = Ordering.adjacency a in
  Array.iteri
    (fun v ns ->
      Alcotest.(check bool) "no self loop" false (List.mem v ns))
    adj

let test_rcm_disconnected () =
  (* Two disjoint chains: RCM must cover both components. *)
  let tr = Triplet.create ~nrows:8 ~ncols:8 () in
  List.iter
    (fun (i, j) ->
      Triplet.add tr i j (-1.0);
      Triplet.add tr j i (-1.0))
    [ (0, 1); (1, 2); (4, 5); (5, 6); (6, 7) ];
  for i = 0 to 7 do
    Triplet.add tr i i 4.0
  done;
  let a = Csc.of_triplet tr in
  Alcotest.(check bool) "valid on disconnected graph" true
    (Perm.is_valid (Ordering.rcm a))

let suite =
  suite
  @ [
      prop_rcm_valid_on_random_graphs;
      prop_min_degree_valid;
      ("adjacency no self loops", `Quick, test_adjacency_no_self_loops);
      ("rcm disconnected", `Quick, test_rcm_disconnected);
    ]
