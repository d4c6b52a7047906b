open Sympiler_sparse

(* Unit + property tests for the sparse substrate: Utils, Triplet, Csc,
   Dense, Vector, Perm. *)

let test_cumsum () =
  let a = [| 3; 1; 0; 2; 0 |] in
  let total = Utils.cumsum a in
  Alcotest.(check int) "total" 6 total;
  Alcotest.(check (array int)) "offsets" [| 0; 3; 4; 4; 6 |] (Array.sub a 0 5)

let test_rng_deterministic () =
  let r1 = Utils.Rng.create 42 and r2 = Utils.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Utils.Rng.int r1 1000) (Utils.Rng.int r2 1000)
  done

let test_rng_range () =
  let r = Utils.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Utils.Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0);
    let i = Utils.Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (i >= 0 && i < 17)
  done

let test_shuffle_is_permutation () =
  let r = Utils.Rng.create 3 in
  let a = Array.init 50 (fun i -> i) in
  Utils.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_triplet_duplicates_summed () =
  let tr = Triplet.create ~nrows:3 ~ncols:3 () in
  Triplet.add tr 1 1 2.0;
  Triplet.add tr 1 1 3.0;
  Triplet.add tr 0 1 1.0;
  Triplet.add tr 2 0 4.0;
  let m = Csc.of_triplet tr in
  Alcotest.(check int) "nnz after dedup" 3 (Csc.nnz m);
  Alcotest.(check (float 1e-12)) "summed" 5.0 (Csc.get m 1 1);
  Alcotest.(check (float 1e-12)) "other" 4.0 (Csc.get m 2 0)

let test_triplet_bounds () =
  let tr = Triplet.create ~nrows:2 ~ncols:2 () in
  Alcotest.check_raises "row out of range"
    (Invalid_argument "Triplet.add: entry (2,0) out of 2x2") (fun () ->
      Triplet.add tr 2 0 1.0)

let test_csc_of_to_dense () =
  let d = [| [| 1.0; 0.0 |]; [| 0.0; 2.0 |]; [| 3.0; 0.0 |] |] in
  let m = Csc.of_dense d in
  Alcotest.(check int) "nnz" 3 (Csc.nnz m);
  Alcotest.(check bool) "roundtrip" true (Csc.to_dense m = d)

let test_csc_get_mem () =
  let m = Csc.of_dense [| [| 1.0; 0.0 |]; [| 0.0; 2.0 |] |] in
  Alcotest.(check (float 0.0)) "get hit" 2.0 (Csc.get m 1 1);
  Alcotest.(check (float 0.0)) "get miss" 0.0 (Csc.get m 1 0);
  Alcotest.(check bool) "mem" true (Csc.mem m 0 0);
  Alcotest.(check bool) "not mem" false (Csc.mem m 0 1)

let test_csc_identity_spmv () =
  let i5 = Csc.identity 5 in
  let x = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (array (float 0.0))) "I x = x" x (Csc.spmv i5 x)

let test_csc_validate_rejects () =
  Alcotest.check_raises "unsorted rows"
    (Invalid_argument "Csc.validate: unsorted or duplicate rows in a column")
    (fun () ->
      ignore
        (Csc.create ~nrows:2 ~ncols:1 ~colptr:[| 0; 2 |] ~rowind:[| 1; 0 |]
           ~values:[| 1.0; 2.0 |]))

let test_lower_upper_split () =
  let a = Generators.grid2d ~stencil:`Five 4 4 in
  let l = Csc.lower a and u = Csc.upper a in
  Alcotest.(check int) "nnz split" (Csc.nnz a + a.Csc.ncols) (Csc.nnz l + Csc.nnz u);
  Alcotest.(check bool) "lower is lower" true (Csc.is_lower_triangular l);
  Alcotest.(check bool) "symmetrize recovers A" true
    (Csc.equal (Csc.symmetrize_from_lower l) a)

(* A full symmetric input stores each off-diagonal entry twice; mirroring
   it would sum the twins (2.0 for both 1.0 entries below), so
   symmetrize_from_lower rejects it like Perm.permute_lower. *)
let test_symmetrize_rejects_full () =
  let full = Csc.of_dense [| [| 4.; 1. |]; [| 1.; 3. |] |] in
  Alcotest.check_raises "full symmetric input"
    (Invalid_argument "Csc.symmetrize_from_lower: input is not lower triangular")
    (fun () -> ignore (Csc.symmetrize_from_lower full : Csc.t));
  let a = Generators.grid2d ~stencil:`Nine 5 4 in
  (match Csc.symmetrize_from_lower a with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "grid2d full pattern accepted");
  Alcotest.(check bool) "lower part round-trips" true
    (Csc.equal (Csc.symmetrize_from_lower (Csc.lower full)) full)

let prop_transpose_involution =
  Helpers.qtest "transpose (transpose A) = A" Helpers.arb_lower (fun l ->
      Csc.equal (Csc.transpose (Csc.transpose l)) l)

let prop_spmv_matches_dense =
  Helpers.qtest "spmv matches dense mat-vec" Helpers.arb_lower (fun l ->
      let n = l.Csc.ncols in
      let x = Array.init n (fun i -> cos (float_of_int i)) in
      let y = Csc.spmv l x in
      let d = Csc.to_dense l in
      let yd =
        Array.init n (fun i ->
            let s = ref 0.0 in
            for j = 0 to n - 1 do
              s := !s +. (d.(i).(j) *. x.(j))
            done;
            !s)
      in
      Helpers.close y yd)

let prop_transpose_map_consistent =
  Helpers.qtest "transpose_map gathers the transpose" Helpers.arb_lower
    (fun l ->
      let colptr, rowind, map = Csc.transpose_map l in
      let t = Csc.transpose l in
      colptr = t.Csc.colptr && rowind = t.Csc.rowind
      && Array.for_all2
           (fun v p -> v = l.Csc.values.(p))
           t.Csc.values map)

let prop_add_commutes =
  Helpers.qtest ~count:50 "A + A = 2A" Helpers.arb_lower (fun l ->
      Csc.equal (Csc.add l l) (Csc.scale l 2.0))

let test_dense_cholesky_known () =
  (* [[4,2],[2,5]] = [[2,0],[1,2]] [[2,1],[0,2]] *)
  let a = Dense.of_rows [| [| 4.0; 2.0 |]; [| 2.0; 5.0 |] |] in
  let l = Dense.cholesky a in
  Alcotest.(check (float 1e-12)) "l00" 2.0 (Dense.get l 0 0);
  Alcotest.(check (float 1e-12)) "l10" 1.0 (Dense.get l 1 0);
  Alcotest.(check (float 1e-12)) "l11" 2.0 (Dense.get l 1 1);
  Alcotest.(check (float 1e-12)) "u zeroed" 0.0 (Dense.get l 0 1)

let test_dense_cholesky_rejects_indefinite () =
  let a = Dense.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.check_raises "not PD" (Failure "Dense.cholesky: not positive definite")
    (fun () -> ignore (Dense.cholesky a))

let test_dense_solves () =
  let a = Generators.random_spd_dense ~seed:9 12 in
  let ad = Dense.of_csc a in
  let l = Dense.cholesky ad in
  let b = Array.init 12 (fun i -> float_of_int (i + 1)) in
  let y = Dense.lower_solve l b in
  let x = Dense.upper_solve_transposed l y in
  let r = Vector.sub (Csc.spmv a x) b in
  Alcotest.(check bool) "residual small" true (Vector.norm_inf r < 1e-9)

let test_vector_ops () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 4.0; 5.0; 6.0 |] in
  Alcotest.(check (float 1e-12)) "dot" 32.0 (Vector.dot a b);
  Alcotest.(check (float 1e-12)) "norm_inf" 3.0 (Vector.norm_inf a);
  let y = Array.copy b in
  Vector.axpy 2.0 a y;
  Alcotest.(check (array (float 1e-12))) "axpy" [| 6.0; 9.0; 12.0 |] y

let test_sparse_vector_roundtrip () =
  let x = [| 0.0; 1.5; 0.0; 0.0; -2.0; 0.0 |] in
  let s = Vector.sparse_of_dense x in
  Alcotest.(check int) "nnz" 2 (Vector.sparse_nnz s);
  Alcotest.(check (array int)) "indices" [| 1; 4 |] s.Vector.indices;
  Alcotest.(check (array (float 0.0))) "roundtrip" x (Vector.sparse_to_dense s)

let prop_perm_inverse =
  Helpers.qtest "inverse (inverse p) = p"
    (QCheck.make
       QCheck.Gen.(
         let* n = int_range 1 50 in
         let* seed = int_range 0 1000 in
         return (Perm.random (Utils.Rng.create seed) n)))
    (fun p ->
      Perm.is_valid p && Perm.inverse (Perm.inverse p) = p
      &&
      let x = Array.init (Array.length p) float_of_int in
      Perm.apply_inv_vec p (Perm.apply_vec p x) = x)

let test_symmetric_permute_preserves_spd_values () =
  let a = Generators.grid2d ~stencil:`Five 4 4 in
  let rng = Utils.Rng.create 5 in
  let p = Perm.random rng a.Csc.ncols in
  let b = Perm.symmetric_permute p a in
  Alcotest.(check int) "same nnz" (Csc.nnz a) (Csc.nnz b);
  (* B(knew, jnew) = A(p knew, p jnew) *)
  let ok = ref true in
  for k = 0 to a.Csc.ncols - 1 do
    for j = 0 to a.Csc.ncols - 1 do
      if Csc.get b k j <> Csc.get a p.(k) p.(j) then ok := false
    done
  done;
  Alcotest.(check bool) "entries permuted" true !ok

let test_perm_compose () =
  let p = [| 2; 0; 1 |] and q = [| 1; 2; 0 |] in
  (* (compose p q).(k) = q.(p.(k)) *)
  Alcotest.(check (array int)) "compose" [| 0; 1; 2 |] (Perm.compose p q)

(* Every public entry of lib/sparse that runs an unchecked loop checks its
   input first and names itself when it rejects it. *)
let test_unchecked_entries_check_input () =
  let open Helpers in
  let a = Generators.grid2d ~stencil:`Five 4 4 in
  let l = Csc.lower a in
  let tr = Triplet.create ~nrows:3 ~ncols:3 () in
  Triplet.add tr 0 0 1.0;
  Triplet.add tr 2 1 2.0;
  let past_len = { tr with Triplet.len = Array.length tr.Triplet.rows + 1 } in
  let row_oor =
    let rows = Array.copy tr.Triplet.rows in
    rows.(1) <- 3;
    { tr with Triplet.rows }
  in
  let col_oor =
    let cols = Array.copy tr.Triplet.cols in
    cols.(0) <- -1;
    { tr with Triplet.cols }
  in
  List.iter
    (fun bad ->
      expect_named "Triplet.to_csc_arrays" (fun () -> Triplet.to_csc_arrays bad);
      expect_named "Csc.of_triplet" (fun () -> Csc.of_triplet bad))
    [ past_len; row_oor; col_oor ];
  expect_named "Csc.validate" (fun () -> Csc.validate (row_out_of_range a));
  expect_named "Csc.validate" (fun () -> Csc.validate (values_short a));
  expect_named "Csc.transpose" (fun () -> Csc.transpose (values_short a));
  expect_named "Csc.transpose_map" (fun () -> Csc.transpose_map (row_out_of_range a));
  expect_named "Csc.transpose_map" (fun () -> Csc.transpose_map (rows_unsorted a));
  expect_named "Csc.symmetrize_from_lower" (fun () ->
      Csc.symmetrize_from_lower (rows_unsorted l));
  expect_named "Csc.symmetrize_from_lower" (fun () ->
      Csc.symmetrize_from_lower (values_short l));
  expect_named "Ordering.amd" (fun () -> Ordering.amd (row_out_of_range a));
  expect_named "Ordering.amd" (fun () -> Ordering.amd (Csc.zero ~nrows:3 ~ncols:2));
  expect_named "Ordering.adjacency_csr" (fun () ->
      Ordering.adjacency_csr (rows_unsorted a));
  let p = Perm.identity a.Csc.ncols in
  expect_named "Perm.permute_lower" (fun () -> Perm.permute_lower p (row_out_of_range l));
  expect_named "Perm.permute_lower" (fun () -> Perm.permute_lower p a);
  expect_named "Perm.permute_lower" (fun () ->
      Perm.permute_lower (Array.make a.Csc.ncols 0) l);
  expect_named "Perm.permute_pattern" (fun () ->
      Perm.permute_pattern p (rows_unsorted a));
  expect_named "Perm.permute_pattern" (fun () ->
      Perm.permute_pattern (Array.sub p 1 (a.Csc.ncols - 1)) a);
  let checked = Csc.Unsafe.check_lower ~who:"test" l in
  expect_named "Csc.Unsafe.permute_lower" (fun () ->
      Csc.Unsafe.permute_lower ~who:"Csc.Unsafe.permute_lower"
        ~pinv:(Array.map (fun i -> i + 1) p) checked);
  expect_named "Csc.Unsafe.check_lower" (fun () ->
      Csc.Unsafe.check_lower ~who:"Csc.Unsafe.check_lower" a)

(* The one-pass permutation and its by-row bucket: the same matrix and
   map as sorting the permuted entries, and a bucket that is the result's
   upper triangle with its map into the result. The transpose of a
   checked lower(A) builds its map when forced: the map of
   [Csc.transpose_map]. *)
let test_permute_lower_bucket () =
  let a = Generators.grid2d ~stencil:`Nine 7 6 in
  let l = Csc.lower a in
  let p = Perm.random (Utils.Rng.create 11) a.Csc.ncols in
  let pl, map = Perm.permute_lower p l in
  let full = Csc.lower (Perm.symmetric_permute p a) in
  Alcotest.(check bool) "lower(P A P^T)" true (Csc.equal ~eps:0.0 pl full);
  Array.iteri
    (fun k q ->
      Alcotest.(check (float 0.0)) "map gathers" pl.Csc.values.(k) l.Csc.values.(q))
    map;
  let checked = Csc.Unsafe.check_lower ~who:"test" l in
  let b, map', u =
    Csc.Unsafe.permute_lower ~who:"test" ~pinv:(Perm.inverse p) checked
  in
  let b = (b :> Csc.t) and um = Lazy.force u.Csc.Unsafe.up_map in
  Alcotest.(check bool) "same pattern" true (Csc.pattern_equal b pl);
  Alcotest.(check (array int)) "same map" map map';
  let tc, tr, tm = Csc.transpose_map b in
  Alcotest.(check (array int)) "bucket pointers" tc u.Csc.Unsafe.up_colptr;
  for k = 0 to b.Csc.ncols - 1 do
    let sorted lo hi a = List.sort compare (Array.to_list (Array.sub a lo (hi - lo))) in
    let lo = tc.(k) and hi = tc.(k + 1) in
    Alcotest.(check (list int)) "bucket rows" (sorted lo hi tr)
      (sorted lo hi u.Csc.Unsafe.up_rowind);
    (* Entry q of column k of the upper triangle is B's entry (k, c). *)
    for q = lo to hi - 1 do
      let c = u.Csc.Unsafe.up_rowind.(q) and m = um.(q) in
      Alcotest.(check int) "bucket map row" k b.Csc.rowind.(m);
      Alcotest.(check bool) "bucket map column" true
        (m >= b.Csc.colptr.(c) && m < b.Csc.colptr.(c + 1))
    done
  done;
  Alcotest.(check int) "map covers B" (Array.length tm) (Array.length um);
  let tc, tr, tm = Csc.transpose_map l in
  let u = Csc.Unsafe.upper_pattern checked in
  Alcotest.(check (array int)) "upper pointers" tc u.Csc.Unsafe.up_colptr;
  Alcotest.(check (array int)) "upper rows" tr u.Csc.Unsafe.up_rowind;
  Alcotest.(check (array int)) "upper map" tm (Lazy.force u.Csc.Unsafe.up_map)

let suite =
  [
    ("cumsum", `Quick, test_cumsum);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng ranges", `Quick, test_rng_range);
    ("shuffle is permutation", `Quick, test_shuffle_is_permutation);
    ("triplet duplicates summed", `Quick, test_triplet_duplicates_summed);
    ("triplet bounds checked", `Quick, test_triplet_bounds);
    ("csc of/to dense", `Quick, test_csc_of_to_dense);
    ("csc get/mem", `Quick, test_csc_get_mem);
    ("csc identity spmv", `Quick, test_csc_identity_spmv);
    ("csc validate rejects unsorted", `Quick, test_csc_validate_rejects);
    ("lower/upper split", `Quick, test_lower_upper_split);
    ("symmetrize rejects full input", `Quick, test_symmetrize_rejects_full);
    prop_transpose_involution;
    prop_spmv_matches_dense;
    prop_transpose_map_consistent;
    prop_add_commutes;
    ("dense cholesky 2x2", `Quick, test_dense_cholesky_known);
    ("dense cholesky rejects indefinite", `Quick, test_dense_cholesky_rejects_indefinite);
    ("dense solve roundtrip", `Quick, test_dense_solves);
    ("vector ops", `Quick, test_vector_ops);
    ("sparse vector roundtrip", `Quick, test_sparse_vector_roundtrip);
    prop_perm_inverse;
    ("symmetric permute", `Quick, test_symmetric_permute_preserves_spd_values);
    ("perm compose", `Quick, test_perm_compose);
    ("unchecked entries check their input", `Quick, test_unchecked_entries_check_input);
    ("permute_lower and its bucket", `Quick, test_permute_lower_bucket);
  ]

let test_multiply_dims_checked () =
  let a = Csc.zero ~nrows:2 ~ncols:3 in
  let b = Csc.zero ~nrows:2 ~ncols:2 in
  Alcotest.check_raises "dimension mismatch" (Invalid_argument "Csc.multiply: dims")
    (fun () -> ignore (Csc.multiply a b))

let test_strict_lower () =
  let a = Generators.grid2d ~stencil:`Five 3 3 in
  let sl = Csc.strict_lower a in
  Alcotest.(check bool) "no diagonal" true
    (let ok = ref true in
     Csc.iter sl (fun i j _ -> if i <= j then ok := false);
     !ok);
  Alcotest.(check int) "lower = strict lower + diagonal"
    (Csc.nnz (Csc.lower a))
    (Csc.nnz sl + a.Csc.ncols)

let test_filter_predicate () =
  let a = Generators.random_lower ~seed:4 ~n:20 ~density:0.3 () in
  let big = Csc.filter a (fun _ _ v -> Float.abs v > 0.5) in
  let ok = ref true in
  Csc.iter big (fun _ _ v -> if Float.abs v <= 0.5 then ok := false);
  Alcotest.(check bool) "filtered values" true !ok

let prop_multiply_associates_with_identity =
  Helpers.qtest ~count:40 "(A I) I = A" Helpers.arb_lower (fun a ->
      let i = Csc.identity a.Csc.ncols in
      Csc.equal (Csc.multiply (Csc.multiply a i) i) a)

let suite =
  suite
  @ [
      ("multiply dims checked", `Quick, test_multiply_dims_checked);
      ("strict lower", `Quick, test_strict_lower);
      ("filter predicate", `Quick, test_filter_predicate);
      prop_multiply_associates_with_identity;
    ]
