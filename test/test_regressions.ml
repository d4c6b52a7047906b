open Sympiler_sparse
open Sympiler_kernels
open Helpers

(* Regression tests for this round of parser/codegen bugfixes: Matrix
   Market whitespace tolerance and entry-count validation, deterministic
   code generation, modulo-bias-free Rng.int, and the parallel trisolve
   against the reference kernel. *)

let parse_fails msg lines =
  match Matrix_market.of_lines lines with
  | exception Matrix_market.Parse_error _ -> ()
  | _ -> Alcotest.failf "%s: expected Parse_error" msg

(* ---- Matrix Market whitespace tolerance ---- *)

let test_mm_tabs_and_spaces () =
  (* Header, size line and entries separated by tabs and runs of spaces,
     with comments and blank lines interleaved — all legal in files found
     in the wild. *)
  let lines =
    [
      "%%MatrixMarket\tmatrix   coordinate\treal  general";
      "% comment with\ttabs";
      "";
      "  3\t3   4";
      "1\t1\t2.0";
      "2   2\t3.0";
      "  3\t 3  4.0";
      "3 1\t-1.5";
      "   ";
    ]
  in
  let a = Matrix_market.of_lines lines in
  Alcotest.(check int) "nrows" 3 a.Csc.nrows;
  Alcotest.(check int) "nnz" 4 (Csc.nnz a);
  let d = Dense.of_csc a in
  Alcotest.(check (float 0.0)) "a(0,0)" 2.0 (Dense.get d 0 0);
  Alcotest.(check (float 0.0)) "a(2,0)" (-1.5) (Dense.get d 2 0);
  Alcotest.(check (float 0.0)) "a(2,2)" 4.0 (Dense.get d 2 2)

let test_mm_roundtrip () =
  List.iter
    (fun (name, a) ->
      let a' = Matrix_market.of_string (Matrix_market.to_string a) in
      Alcotest.(check bool)
        (name ^ " pattern")
        true
        (Utils.int_array_equal a.Csc.colptr a'.Csc.colptr
        && Utils.int_array_equal a.Csc.rowind a'.Csc.rowind);
      check_close (name ^ " values") a.Csc.values a'.Csc.values;
      let s = Matrix_market.to_string ~symmetric:true a in
      let a'' = Matrix_market.of_string s in
      Alcotest.(check bool)
        (name ^ " symmetric pattern")
        true
        (Utils.int_array_equal a.Csc.colptr a''.Csc.colptr
        && Utils.int_array_equal a.Csc.rowind a''.Csc.rowind);
      check_close (name ^ " symmetric values") a.Csc.values a''.Csc.values)
    (spd_zoo ())

let test_mm_skew_symmetric_rejected () =
  parse_fails "skew-symmetric"
    [
      "%%MatrixMarket matrix coordinate real skew-symmetric";
      "2 2 1";
      "2 1 3.0";
    ]

let test_mm_symmetric_strict_upper_rejected () =
  (* The symmetric format stores the lower triangle only; a strict-upper
     entry is malformed. The broken reader silently mirrored it, which
     double-counted entries whose transpose was also present. *)
  parse_fails "symmetric with strict-upper entry"
    [
      "%%MatrixMarket matrix coordinate real symmetric";
      "3 3 3";
      "1 1 4.0";
      "1 3 1.0";
      "3 3 4.0";
    ]

let test_mm_symmetric_writer_validates () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  (* Pattern-asymmetric: (0,1) stored, (1,0) missing. *)
  let pat = Csc.of_dense [| [| 4.0; 1.0 |]; [| 0.0; 4.0 |] |] in
  expect_invalid "pattern-asymmetric to_string" (fun () ->
      Matrix_market.to_string ~symmetric:true pat);
  expect_invalid "pattern-asymmetric to_buffer" (fun () ->
      Matrix_market.to_buffer ~symmetric:true (Buffer.create 64) pat);
  (* Value-asymmetric: both triangles stored but a(0,1) <> a(1,0). *)
  let vals = Csc.of_dense [| [| 4.0; 1.0 |]; [| 2.0; 4.0 |] |] in
  expect_invalid "value-asymmetric to_string" (fun () ->
      Matrix_market.to_string ~symmetric:true vals);
  (* Non-square. *)
  let rect = Csc.of_dense [| [| 1.0; 0.0; 2.0 |]; [| 0.0; 3.0; 0.0 |] |] in
  expect_invalid "non-square to_string" (fun () ->
      Matrix_market.to_string ~symmetric:true rect);
  (* A genuinely symmetric matrix still round-trips. *)
  let ok = Csc.of_dense [| [| 4.0; 1.0 |]; [| 1.0; 4.0 |] |] in
  let a' = Matrix_market.of_string (Matrix_market.to_string ~symmetric:true ok) in
  (* Reader expands to both triangles. *)
  Alcotest.(check int) "symmetric round-trip nnz" 4 (Csc.nnz a')

(* ---- RCM on disconnected graphs (George-Liu refinements) ---- *)

let test_rcm_disconnected_bandwidth () =
  (* Three scrambled disconnected grids. Seeding the pseudo-peripheral
     search from a minimum-degree vertex per component and breaking
     farthest-level ties by degree brought the permuted bandwidth to 14;
     this pins it so a regression (or a seed-sensitive heuristic change)
     shows up. *)
  let a = scrambled_multigrid () in
  let p = Ordering.rcm a in
  Alcotest.(check bool) "valid permutation" true (Perm.is_valid p);
  let bw = Ordering.bandwidth (Perm.symmetric_permute p a) in
  Alcotest.(check bool)
    (Printf.sprintf "multigrid rcm bandwidth %d <= 14" bw)
    true (bw <= 14)

(* ---- Matrix Market entry-count validation ---- *)

let test_mm_symmetric_underdeclared_rejected () =
  (* Two file entries, three declared. The broken validation counted the
     symmetrically expanded triplets (here 3 >= 3) and accepted the file. *)
  parse_fails "symmetric under-declared"
    [
      "%%MatrixMarket matrix coordinate real symmetric";
      "2 2 3";
      "1 1 4.0";
      "2 1 1.0";
    ]

let test_mm_surplus_rejected () =
  parse_fails "surplus entries"
    [
      "%%MatrixMarket matrix coordinate real general";
      "2 2 1";
      "1 1 4.0";
      "2 2 5.0";
    ]

let test_mm_exact_count_accepted () =
  let a =
    Matrix_market.of_lines
      [
        "%%MatrixMarket matrix coordinate real symmetric";
        "2 2 2";
        "1 1 4.0";
        "2 1 1.0";
      ]
  in
  (* Off-diagonal expanded to both triangles. *)
  Alcotest.(check int) "expanded nnz" 3 (Csc.nnz a)

(* ---- Deterministic code generation ---- *)

let test_codegen_deterministic () =
  let l = figure1_l in
  let b =
    {
      Vector.n = 10;
      indices = figure1_beta;
      values = [| 1.0; 1.0 |];
    }
  in
  let tri () = (Sympiler_ir.Pipeline.trisolve l b).Sympiler_ir.Pipeline.c_code in
  let chol a =
    (Sympiler_ir.Pipeline.cholesky (Csc.lower a)).Sympiler_ir.Pipeline.c_code
  in
  let a = Sympiler_sparse.Generators.grid2d ~stencil:`Five 5 5 in
  let c1 = tri () in
  (* Interleave other compilations: with the old global name counters the
     second trisolve compile emitted different variable names. *)
  let k1 = chol a in
  let c2 = tri () in
  let k2 = chol a in
  Alcotest.(check string) "trisolve C identical" c1 c2;
  Alcotest.(check string) "cholesky C identical" k1 k2

(* ---- Rng.int: range, determinism, no modulo starvation ---- *)

let test_rng_int () =
  let r1 = Utils.Rng.create 42 and r2 = Utils.Rng.create 42 in
  for _ = 1 to 1000 do
    let b = 1 + Utils.Rng.int r1 1000 in
    let v = Utils.Rng.int r1 b in
    Alcotest.(check bool) "in range" true (v >= 0 && v < b);
    (* Same seed, same draws. *)
    let _ = Utils.Rng.int r2 1000 in
    Alcotest.(check int) "deterministic" v (Utils.Rng.int r2 b)
  done;
  (* Every residue of a small non-power-of-two bound shows up. *)
  let r = Utils.Rng.create 7 in
  let counts = Array.make 7 0 in
  for _ = 1 to 7000 do
    let v = Utils.Rng.int r 7 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "residue %d seen" i) true (c > 500))
    counts

(* ---- Parallel trisolve vs reference ---- *)

let test_parallel_matches_reference () =
  let check_l name (l : Csc.t) =
    let n = l.Csc.ncols in
    let rng = Utils.Rng.create 11 in
    let b = Array.init n (fun _ -> Utils.Rng.float_range rng (-1.0) 1.0) in
    let expect = Trisolve_ref.naive l b in
    let c = Trisolve_parallel.compile l in
    Alcotest.(check bool) (name ^ " schedule") true
      (Trisolve_parallel.valid_schedule c);
    List.iter
      (fun nd ->
        let got = Trisolve_parallel.solve ~ndomains:nd c b in
        check_close (Printf.sprintf "%s ndomains=%d" name nd) expect got)
      [ 1; 2; 4 ]
  in
  check_l "figure1" figure1_l;
  List.iter
    (fun (name, a) ->
      let t = Sympiler.Cholesky.compile (Csc.lower a) in
      check_l name (Sympiler.Cholesky.factor t (Csc.lower a)))
    [ List.nth (spd_zoo ()) 0; List.nth (spd_zoo ()) 3 ]

(* ---- kernel solves reject a wrong-length right-hand side ---- *)

(* The kernels build without bounds checks, so a short b must raise, not be
   read and written past, and a long one must not be truncated: each solve
   names the sweep that rejected it in every build profile. *)
let test_kernel_solves_reject_wrong_length () =
  let a = Generators.grid2d ~stencil:`Five 12 12 in
  let al = Csc.lower a and n = a.Csc.ncols in
  let ldlt = Ldlt.factorize al in
  let lu = Lu.Sympiler.factor (Lu.Sympiler.compile a) a in
  let ilu = Ilu0.factorize a in
  let tp = Trisolve_parallel.compile ldlt.Ldlt.l in
  let named msg =
    List.exists
      (fun prefix -> String.starts_with ~prefix msg)
      [ "Stages."; "Trisolve_parallel." ]
  in
  List.iter
    (fun (name, solve) ->
      List.iter
        (fun len ->
          match solve (Array.make len 1.0) with
          | _ ->
              Alcotest.failf "%s accepted a length-%d right-hand side (n = %d)"
                name len n
          | exception Invalid_argument msg when named msg -> ())
        [ 1; n + 1 ])
    [
      ("Ldlt.solve", Ldlt.solve ldlt);
      ("Lu.solve", Lu.solve lu);
      ("Ilu0.solve", Ilu0.solve ilu);
      ("Trisolve_parallel.solve", Trisolve_parallel.solve tp);
    ]

(* ---- Scaling bugfix regressions (10^6-row readiness round) ---- *)

(* [Csc.of_triplet] against an independent list oracle, bit for bit:
   stable sort of the soup by (col, row), then each run of equal (row, col)
   summed left to right from 0.0 in insertion order. Soups are square or
   rectangular, sometimes empty, sometimes every entry on one cell, and
   their values mix magnitudes (and -0.0) so any reordering of a duplicate
   sum shows in the bits. *)
let oracle_of_triplet ~ncols entries =
  let sorted =
    List.stable_sort
      (fun (i1, j1, _) (i2, j2, _) -> compare (j1, i1) (j2, i2))
      entries
  in
  let rec group acc = function
    | [] -> List.rev acc
    | (i, j, v) :: rest -> (
        match acc with
        | (i', j', s) :: acc' when i' = i && j' = j ->
            group ((i, j, s +. v) :: acc') rest
        | _ -> group ((i, j, 0.0 +. v) :: acc) rest)
  in
  let merged = group [] sorted in
  let colptr = Array.make (ncols + 1) 0 in
  List.iter (fun (_, j, _) -> colptr.(j + 1) <- colptr.(j + 1) + 1) merged;
  for j = 0 to ncols - 1 do
    colptr.(j + 1) <- colptr.(j + 1) + colptr.(j)
  done;
  ( colptr,
    Array.of_list (List.map (fun (i, _, _) -> i) merged),
    Array.of_list (List.map (fun (_, _, v) -> v) merged) )

let gen_triplet_soup =
  QCheck.Gen.(
    let* nrows = int_range 0 20 in
    let* ncols =
      frequency [ (2, return nrows); (1, int_range 0 20) ]
    in
    let* shape = int_range 0 3 in
    let* k =
      if nrows = 0 || ncols = 0 || shape = 0 then return 0 else int_range 1 200
    in
    let value =
      frequency
        [
          (3, float_range (-10.0) 10.0);
          (2, oneofl [ 1e16; -1e16; 1.0; -1.0; 0.1; 0.3; -0.0; 0.0 ]);
        ]
    in
    let* entries =
      if shape = 1 then
        (* Every entry on one cell. *)
        let* i = int_range 0 (max 0 (nrows - 1)) in
        let* j = int_range 0 (max 0 (ncols - 1)) in
        list_size (return k) (map (fun v -> (i, j, v)) value)
      else
        (* Entries crowded onto few cells when [shape] is 2, spread out
           otherwise. *)
        let rows = if shape = 2 then min nrows 3 else nrows in
        let cols = if shape = 2 then min ncols 3 else ncols in
        list_size (return k)
          (let* i = int_range 0 (max 0 (rows - 1)) in
           let* j = int_range 0 (max 0 (cols - 1)) in
           map (fun v -> (i, j, v)) value)
    in
    return (nrows, ncols, entries))

let prop_of_triplet_matches_oracle =
  Helpers.qtest ~count:300 "of_triplet matches list oracle bitwise"
    (QCheck.make
       ~print:(fun (nrows, ncols, entries) ->
         Printf.sprintf "%dx%d entries=%d" nrows ncols (List.length entries))
       gen_triplet_soup)
    (fun (nrows, ncols, entries) ->
      let tr = Triplet.create ~nrows ~ncols () in
      List.iter (fun (i, j, v) -> Triplet.add tr i j v) entries;
      let a = Csc.of_triplet tr in
      let colptr, rowind, values = oracle_of_triplet ~ncols entries in
      a.Csc.nrows = nrows && a.Csc.ncols = ncols
      && Utils.int_array_equal a.Csc.colptr colptr
      && Utils.int_array_equal a.Csc.rowind rowind
      && Array.length a.Csc.values = Array.length values
      && Array.for_all2
           (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
           a.Csc.values values)

(* Satellite 4: dense materialization guards fail fast with
   [Invalid_argument] instead of letting the allocator die. *)
let test_dense_guards () =
  let a = Generators.grid2d ~stencil:`Five 3 3 in
  (match Csc.to_dense ~max_elements:8 a with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "to_dense: expected Invalid_argument past the bound");
  (match Generators.random_spd_dense (Generators.max_spd_dense_n + 1) with
  | exception Invalid_argument _ -> ()
  | _ ->
      Alcotest.fail "random_spd_dense: expected Invalid_argument past the bound");
  (* Within bounds both still work. *)
  Alcotest.(check int) "to_dense rows" 9 (Array.length (Csc.to_dense a));
  Alcotest.(check int)
    "spd_dense n" 8
    (Generators.random_spd_dense 8).Csc.ncols

(* [Etree.depths] was a recursive climb; a 10^6-node path tree (the etree
   of a tridiagonal matrix) overflowed the stack. Now iterative. *)
let test_etree_depths_deep_path () =
  let n = 1_000_000 in
  let parent = Array.init n (fun i -> if i = n - 1 then -1 else i + 1) in
  let depth = Sympiler_symbolic.Etree.depths parent in
  Alcotest.(check int) "leaf depth" (n - 1) depth.(0);
  Alcotest.(check int) "root depth" 0 depth.(n - 1)

let suite =
  [
    ("MM tabs and space runs", `Quick, test_mm_tabs_and_spaces);
    ("MM round-trip (zoo, general+symmetric)", `Quick, test_mm_roundtrip);
    ("MM skew-symmetric rejected", `Quick, test_mm_skew_symmetric_rejected);
    ( "MM symmetric strict-upper entry rejected",
      `Quick,
      test_mm_symmetric_strict_upper_rejected );
    ( "MM symmetric writer validates symmetry",
      `Quick,
      test_mm_symmetric_writer_validates );
    ( "RCM disconnected multigrid bandwidth",
      `Quick,
      test_rcm_disconnected_bandwidth );
    ( "MM symmetric under-declared nz rejected",
      `Quick,
      test_mm_symmetric_underdeclared_rejected );
    ("MM surplus entries rejected", `Quick, test_mm_surplus_rejected);
    ("MM exact count accepted", `Quick, test_mm_exact_count_accepted);
    ("codegen byte-identical across compiles", `Quick, test_codegen_deterministic);
    ("Rng.int range/determinism/coverage", `Quick, test_rng_int);
    ( "parallel trisolve matches reference",
      `Quick,
      test_parallel_matches_reference );
    ( "kernel solves reject a wrong-length rhs",
      `Quick,
      test_kernel_solves_reject_wrong_length );
    prop_of_triplet_matches_oracle;
    ("dense materialization guards", `Quick, test_dense_guards);
    ("etree depths on 10^6 path tree", `Quick, test_etree_depths_deep_path);
  ]
