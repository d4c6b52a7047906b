open Sympiler_sparse
open Sympiler_symbolic
open Sympiler_kernels

(* Boundary conditions and error paths across the whole stack: empty and
   1x1 matrices, diagonal/identity inputs, degenerate RHS, non-generated
   AST shapes, malformed inputs. *)

(* ---- degenerate matrix sizes ---- *)

let test_csc_empty () =
  let z = Csc.zero ~nrows:0 ~ncols:0 in
  Csc.validate z;
  Alcotest.(check int) "nnz" 0 (Csc.nnz z);
  let t = Csc.transpose z in
  Alcotest.(check int) "transpose dims" 0 t.Csc.ncols

let test_csc_zero_matrix_ops () =
  let z = Csc.zero ~nrows:3 ~ncols:3 in
  Alcotest.(check (array (float 0.0))) "spmv zero" [| 0.0; 0.0; 0.0 |]
    (Csc.spmv z [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check bool) "lower of zero" true (Csc.nnz (Csc.lower z) = 0);
  Alcotest.(check bool) "zero is lower triangular" true
    (Csc.is_lower_triangular z)

let test_one_by_one_everything () =
  let a = Csc.of_dense [| [| 9.0 |] |] in
  let al = Csc.lower a in
  (* Cholesky, all variants *)
  let l = Cholesky_ref.factor_simple al in
  Alcotest.(check (float 1e-12)) "sqrt 9" 3.0 (Csc.get l 0 0);
  let cs = Cholesky_supernodal.Sympiler.compile al in
  let l2 = Cholesky_supernodal.Sympiler.factor cs al in
  Alcotest.(check (float 1e-12)) "supernodal 1x1" 3.0 (Csc.get l2 0 0);
  let l3 = Cholesky_leftlooking.factorize al in
  Alcotest.(check (float 1e-12)) "left-looking 1x1" 3.0 (Csc.get l3 0 0);
  (* trisolve *)
  let b = { Vector.n = 1; indices = [| 0 |]; values = [| 6.0 |] } in
  let t = Sympiler.Trisolve.compile (l, b) in
  Alcotest.(check (array (float 1e-12))) "solve 1x1" [| 2.0 |]
    (Sympiler.Trisolve.solve t b);
  (* LU *)
  let f = Lu.Ref.factor a in
  Alcotest.(check (float 1e-12)) "u diagonal" 9.0 (Csc.get f.Lu.u 0 0);
  (* LDLt *)
  let fd = Ldlt.factorize al in
  Alcotest.(check (float 1e-12)) "d" 9.0 fd.Ldlt.d.(0)

let test_identity_cholesky () =
  let i5 = Csc.identity 5 in
  let l = Cholesky_ref.factor_simple i5 in
  Alcotest.(check bool) "L = I" true (Csc.equal l i5);
  let cs = Cholesky_supernodal.Sympiler.compile i5 in
  let an = cs.Cholesky_supernodal.Sympiler.an in
  Alcotest.(check int) "identity: no below rows" 0
    (Array.fold_left ( + ) 0 an.Cholesky_supernodal.nb);
  let l2 = Cholesky_supernodal.Sympiler.factor cs i5 in
  Alcotest.(check bool) "supernodal L = I" true (Csc.equal l2 i5)

let test_diagonal_matrix_trisolve () =
  let tr = Triplet.create ~nrows:4 ~ncols:4 () in
  for j = 0 to 3 do
    Triplet.add tr j j (float_of_int (j + 1))
  done;
  let l = Csc.of_triplet tr in
  let b = { Vector.n = 4; indices = [| 1; 3 |]; values = [| 4.0; 8.0 |] } in
  let reach = Dep_graph.reach l b.Vector.indices in
  Alcotest.(check (array int)) "reach = beta for diagonal" [| 1; 3 |]
    (let r = Array.copy reach in
     Array.sort compare r;
     r);
  let x = Trisolve_ref.decoupled l b in
  Alcotest.(check (array (float 1e-12))) "diagonal solve"
    [| 0.0; 2.0; 0.0; 2.0 |] x

let test_empty_rhs_trisolve () =
  let l = Generators.random_lower ~seed:1 ~n:10 ~density:0.3 () in
  let b = { Vector.n = 10; indices = [||]; values = [||] } in
  let t = Sympiler.Trisolve.compile (l, b) in
  Alcotest.(check int) "empty reach" 0 (Array.length t.Sympiler.Trisolve.reach);
  Alcotest.(check (array (float 0.0))) "zero solution" (Array.make 10 0.0)
    (Sympiler.Trisolve.solve t b)

(* ---- etree / symbolic edges ---- *)

let test_etree_forest () =
  (* Block-diagonal matrix: one root per block. *)
  let tr = Triplet.create ~nrows:6 ~ncols:6 () in
  List.iter
    (fun (i, j, v) ->
      Triplet.add tr i j v;
      if i <> j then Triplet.add tr j i v)
    [ (0, 0, 4.0); (1, 1, 4.0); (1, 0, -1.0); (2, 2, 4.0); (3, 3, 4.0);
      (3, 2, -1.0); (4, 4, 4.0); (5, 5, 4.0); (5, 4, -1.0) ];
  let a = Csc.of_triplet tr in
  let parent = Etree.compute (Csc.lower a) in
  Alcotest.(check int) "three roots" 3 (List.length (Etree.roots parent));
  let post = Postorder.compute parent in
  Alcotest.(check bool) "forest postorder valid" true
    (Postorder.is_valid parent post)

let test_supernodes_identity () =
  let sn = Supernodes.detect_exact (Csc.identity 6) in
  Alcotest.(check int) "identity: 6 singleton supernodes" 6
    (Supernodes.nsuper sn)

let test_supernodes_empty () =
  let sn = Supernodes.detect_exact (Csc.zero ~nrows:0 ~ncols:0) in
  Alcotest.(check int) "empty: 0 supernodes" 0 (Supernodes.nsuper sn)

let test_fill_pattern_diagonal () =
  let f = Fill_pattern.analyze (Csc.identity 4) in
  Alcotest.(check int) "no fill" 4 (Fill_pattern.nnz_l f);
  Alcotest.(check (array int)) "no parents" [| -1; -1; -1; -1 |]
    f.Fill_pattern.parent;
  Alcotest.(check (array int)) "empty rows" [| 0; 0; 0; 0; 0 |]
    f.Fill_pattern.row_ptr;
  Alcotest.(check int) "no row entries" 0 (Array.length f.Fill_pattern.row_ind)

let test_reach_duplicate_beta () =
  let l = Helpers.figure1_l in
  let r1 = Dep_graph.reach l [| 0; 5 |] in
  let r2 = Dep_graph.reach l [| 0; 5; 0; 5 |] in
  let s a =
    let c = Array.copy a in
    Array.sort compare c;
    c
  in
  Alcotest.(check (array int)) "duplicates ignored" (s r1) (s r2)

(* ---- interpreter / AST shapes the pipeline never generates ---- *)

let test_interp_nested_if () =
  let open Sympiler_ir in
  let out = Array.make 1 0.0 in
  Interp.run_kernel
    {
      Ast.kname = "t";
      params = [];
      consts = [];
      body =
        [
          Ast.If
            ( Ast.Int_lit 1,
              [
                Ast.If
                  ( Ast.Int_lit 0,
                    [ Ast.Assign (Ast.Arr ("out", Ast.Int_lit 0), Ast.Float_lit 1.0) ],
                    [ Ast.Assign (Ast.Arr ("out", Ast.Int_lit 0), Ast.Float_lit 2.0) ] );
              ],
              [] );
        ];
    }
    [ ("out", Interp.VFloatArr out) ];
  Alcotest.(check (float 0.0)) "else of inner if" 2.0 out.(0)

let test_interp_let_shadowing_is_flat () =
  (* The AST has flat scoping: a Let inside a loop leaks after it —
     documented behaviour relied on by codegen's top-level declarations. *)
  let open Sympiler_ir in
  let out = Array.make 1 0.0 in
  Interp.run_kernel
    {
      Ast.kname = "t";
      params = [];
      consts = [];
      body =
        [
          Ast.Let ("v", Ast.Int_lit 1);
          Ast.For
            {
              Ast.index = "i";
              lo = Ast.Int_lit 0;
              hi = Ast.Int_lit 3;
              annots = [];
              body = [ Ast.Let ("v", Ast.Var "i") ];
            };
          Ast.Assign (Ast.Arr ("out", Ast.Int_lit 0), Ast.Var "v");
        ];
    }
    [ ("out", Interp.VFloatArr out) ];
  Alcotest.(check (float 0.0)) "flat scope: last loop value" 2.0 out.(0)

let test_pretty_c_if_emission () =
  let open Sympiler_ir in
  let k =
    {
      Ast.kname = "cond";
      params = [ ("x", Ast.Float_array) ];
      consts = [];
      body =
        [
          Ast.If
            ( Ast.Load ("x", Ast.Int_lit 0),
              [ Ast.Assign (Ast.Arr ("x", Ast.Int_lit 0), Ast.Float_lit 1.0) ],
              [ Ast.Assign (Ast.Arr ("x", Ast.Int_lit 0), Ast.Float_lit 2.0) ] );
        ];
    }
  in
  let c = Pretty_c.kernel_to_c k in
  let has sub =
    let n = String.length c and m = String.length sub in
    let rec go i = i + m <= n && (String.sub c i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "if branch" true (has "if (x[0]) {");
  Alcotest.(check bool) "else branch" true (has "} else {")

let test_unroll_ignores_nonconstant () =
  let open Sympiler_ir in
  let loop =
    Ast.For
      {
        Ast.index = "i";
        lo = Ast.Int_lit 0;
        hi = Ast.Var "n";
        annots = [ Ast.Unroll 8 ];
        body = [ Ast.Comment "body" ];
      }
  in
  match Lowlevel.unroll_stmt [] loop with
  | [ Ast.For _ ] -> ()
  | _ -> Alcotest.fail "non-constant bounds must not unroll"

let test_peel_out_of_range_positions () =
  let open Sympiler_ir in
  let loop =
    Ast.For
      {
        Ast.index = "i";
        lo = Ast.Int_lit 0;
        hi = Ast.Int_lit 3;
        annots = [ Ast.Peel [ -1; 5; 1 ] ];
        body = [ Ast.Update (Ast.Arr ("x", Ast.Var "i"), Ast.Add, Ast.Float_lit 1.0) ];
      }
  in
  let out = List.concat_map (Lowlevel.peel_stmt []) [ loop ] in
  (* only position 1 peels; semantics preserved *)
  let x = Array.make 3 0.0 in
  Interp.run_kernel
    { Ast.kname = "t"; params = []; consts = []; body = out }
    [ ("x", Interp.VFloatArr x) ];
  Alcotest.(check (array (float 0.0))) "all incremented once"
    (Array.make 3 1.0) x

(* ---- IO error paths ---- *)

let test_mm_truncated () =
  Alcotest.(check bool) "declared more entries than given" true
    (try
       ignore
         (Matrix_market.of_string
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n");
       false
     with Matrix_market.Parse_error _ -> true)

let test_mm_scientific_notation () =
  let m =
    Matrix_market.of_string
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5e-3\n2 2 -2E+4\n"
  in
  Alcotest.(check (float 1e-12)) "exponent" 1.5e-3 (Csc.get m 0 0);
  Alcotest.(check (float 1e-12)) "negative exponent" (-2e4) (Csc.get m 1 1)

(* ---- parallel trisolve degenerate domain counts ---- *)

let test_parallel_more_domains_than_columns () =
  let l = Generators.random_lower ~seed:3 ~n:5 ~density:0.4 () in
  let b = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let c = Trisolve_parallel.compile l in
  Helpers.check_close "8 domains on 5 columns"
    (Helpers.oracle_lower_solve l b)
    (Trisolve_parallel.solve ~ndomains:8 c b)

(* ---- value-change workflows on every decoupled method ---- *)

let test_all_decoupled_methods_survive_value_changes () =
  let a = Generators.random_banded ~seed:9 ~n:120 ~band:10 ~density:0.3 () in
  let al = Csc.lower a in
  let scale = 1.7 in
  let al' = Csc.map_values al (fun v -> v *. scale) in
  let a' = Csc.symmetrize_from_lower al' in
  let oracle = Helpers.oracle_cholesky a' in
  (* Cholesky supernodal *)
  let cs = Cholesky_supernodal.Sympiler.compile al in
  Alcotest.(check bool) "supernodal" true
    (Dense.max_abs_diff oracle (Dense.of_csc (Cholesky_supernodal.Sympiler.factor cs al')) < 1e-7);
  (* up-looking decoupled *)
  let cd = Cholesky_ref.Decoupled.compile al in
  Alcotest.(check bool) "decoupled" true
    (Dense.max_abs_diff oracle (Dense.of_csc (Cholesky_ref.Decoupled.factor cd al')) < 1e-7);
  (* left-looking *)
  let cl = Cholesky_leftlooking.compile al in
  Alcotest.(check bool) "left-looking" true
    (Dense.max_abs_diff oracle (Dense.of_csc (Cholesky_leftlooking.factor cl al')) < 1e-7);
  (* LDLt *)
  let cldl = Ldlt.compile al in
  let f = Ldlt.factor cldl al' in
  let b = Array.init 120 (fun i -> sin (float_of_int i)) in
  let x = Ldlt.solve f b in
  Alcotest.(check bool) "ldlt" true
    (Vector.norm_inf (Vector.sub (Csc.spmv a' x) b) < 1e-7);
  (* LU *)
  let clu = Lu.Sympiler.compile a in
  let flu = Lu.Sympiler.factor clu a' in
  let xlu = Lu.solve flu b in
  Alcotest.(check bool) "lu" true
    (Vector.norm_inf (Vector.sub (Csc.spmv a' xlu) b) < 1e-7);
  (* IC0 *)
  let cic = Ic0.compile al in
  ignore (Ic0.factor cic al');
  (* ILU0 *)
  let cilu = Ilu0.compile a in
  ignore (Ilu0.factor cilu a')

let suite =
  [
    ("csc empty", `Quick, test_csc_empty);
    ("csc zero matrix ops", `Quick, test_csc_zero_matrix_ops);
    ("1x1 everything", `Quick, test_one_by_one_everything);
    ("identity cholesky", `Quick, test_identity_cholesky);
    ("diagonal trisolve", `Quick, test_diagonal_matrix_trisolve);
    ("empty rhs", `Quick, test_empty_rhs_trisolve);
    ("etree forest", `Quick, test_etree_forest);
    ("supernodes of identity", `Quick, test_supernodes_identity);
    ("supernodes of empty", `Quick, test_supernodes_empty);
    ("fill pattern of diagonal", `Quick, test_fill_pattern_diagonal);
    ("reach with duplicate beta", `Quick, test_reach_duplicate_beta);
    ("interp nested if", `Quick, test_interp_nested_if);
    ("interp flat let scope", `Quick, test_interp_let_shadowing_is_flat);
    ("pretty_c if emission", `Quick, test_pretty_c_if_emission);
    ("unroll non-constant", `Quick, test_unroll_ignores_nonconstant);
    ("peel out-of-range", `Quick, test_peel_out_of_range_positions);
    ("mm truncated", `Quick, test_mm_truncated);
    ("mm scientific notation", `Quick, test_mm_scientific_notation);
    ("parallel excess domains", `Quick, test_parallel_more_domains_than_columns);
    ("value changes across all methods", `Quick, test_all_decoupled_methods_survive_value_changes);
  ]
