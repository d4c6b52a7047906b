open Sympiler_sparse
open Sympiler_ir
open Ast

(* The compiler: AST utilities, interpreter, lowering, inspector-guided and
   low-level transformation passes, C emission, and a gcc round-trip. *)

(* ---- expression/AST utilities ---- *)

let test_subst_and_fold () =
  let e = Binop (Add, Var "i", Binop (Mul, Int_lit 2, Var "i")) in
  let e' = subst_expr "i" (Int_lit 5) e in
  Alcotest.(check bool) "folds to 15" true
    (fold_expr [] e' = Int_lit 15)

let test_fold_const_array () =
  let e = Idx ("Lp", Int_lit 2) in
  Alcotest.(check bool) "Lp[2] = 7" true
    (fold_expr [ ("Lp", [| 1; 3; 7 |]) ] e = Int_lit 7);
  (* out-of-range index is left symbolic, not an error *)
  Alcotest.(check bool) "oob stays symbolic" true
    (fold_expr [ ("Lp", [| 1 |]) ] (Idx ("Lp", Int_lit 5)) = Idx ("Lp", Int_lit 5))

let test_subst_respects_shadowing () =
  let inner = For { index = "i"; lo = Int_lit 0; hi = Var "i"; body = []; annots = [] } in
  match subst_stmt "i" (Int_lit 9) inner with
  | For l ->
      Alcotest.(check bool) "hi substituted" true (l.hi = Int_lit 9);
      Alcotest.(check string) "index kept" "i" l.index
  | _ -> Alcotest.fail "expected For"

let test_written_read_arrays () =
  let s =
    For
      {
        index = "i";
        lo = Int_lit 0;
        hi = Int_lit 3;
        annots = [];
        body =
          [
            Update (Arr ("x", Var "i"), Sub, Load ("y", Var "i"));
            Assign (Arr ("z", Var "i"), Load ("x", Var "i"));
          ];
      }
  in
  let w = written_arrays s in
  Alcotest.(check bool) "writes x and z" true (List.mem "x" w && List.mem "z" w);
  let r = read_arrays s in
  Alcotest.(check bool) "reads y and x" true (List.mem "y" r && List.mem "x" r)

(* ---- interpreter ---- *)

let run_body ?(consts = []) body args =
  Interp.run_kernel { kname = "t"; params = []; consts; body } args

let test_interp_loop_sum () =
  let acc = Array.make 1 0.0 in
  run_body
    [
      for_ "i" (int_ 0) (int_ 10)
        [ Update (Arr ("acc", int_ 0), Add, Var "i") ];
    ]
    [ ("acc", Interp.VFloatArr acc) ];
  Alcotest.(check (float 0.0)) "sum 0..9" 45.0 acc.(0)

let test_interp_if_and_sqrt () =
  let out = Array.make 2 0.0 in
  run_body
    [
      If
        ( Binop (Sub, int_ 2, int_ 1),
          [ Assign (Arr ("out", int_ 0), Sqrt (Float_lit 16.0)) ],
          [ Assign (Arr ("out", int_ 0), Float_lit 0.0) ] );
      Assign (Arr ("out", int_ 1), Binop (Div, Float_lit 1.0, Float_lit 4.0));
    ]
    [ ("out", Interp.VFloatArr out) ];
  Alcotest.(check (float 0.0)) "sqrt branch" 4.0 out.(0);
  Alcotest.(check (float 0.0)) "float div" 0.25 out.(1)

let test_interp_const_arrays () =
  let out = Array.make 1 0.0 in
  run_body
    ~consts:[ ("idx", [| 3; 1; 2 |]) ]
    [
      Let ("k", Idx ("idx", int_ 0));
      Assign (Arr ("out", int_ 0), Var "k");
    ]
    [ ("out", Interp.VFloatArr out) ];
  Alcotest.(check (float 0.0)) "const array read" 3.0 out.(0)

let test_interp_errors () =
  Alcotest.(check bool) "unbound var" true
    (try
       run_body [ Let ("x", Var "nope") ] [];
       false
     with Interp.Runtime_error _ -> true);
  Alcotest.(check bool) "out of bounds" true
    (try
       run_body [ Let ("x", Load ("a", int_ 5)) ]
         [ ("a", Interp.VFloatArr [| 1.0 |]) ];
       false
     with Interp.Runtime_error _ -> true)

(* ---- pipeline semantics: every transformed variant equals the oracle ---- *)

let prop_pipeline_preserves_semantics =
  Helpers.qtest ~count:30 "pipeline variants preserve trisolve semantics"
    Helpers.arb_lower_with_rhs (fun (l, b) ->
      let oracle = Helpers.oracle_lower_solve l (Vector.sparse_to_dense b) in
      List.for_all
        (fun (vs, vi, ll) ->
          let r = Pipeline.trisolve ~vs_block:vs ~vi_prune:vi ~low_level:ll l b in
          Helpers.close oracle (Pipeline.run_trisolve r l b))
        [
          (false, false, false);
          (false, true, false);
          (false, true, true);
          (true, false, false);
          (true, true, false);
          (true, true, true);
        ])

(* Both kernel shapes through the interpreter, bound by the builder the
   facade uses: the ordered kernel reads its input through [amap], here a
   reversal of the value positions. *)
let test_cholesky_pipeline_matches_oracle () =
  let module F = Sympiler_symbolic.Fill_pattern in
  let a = Generators.grid2d ~stencil:`Nine 5 5 in
  let al = Csc.lower a in
  let fill = F.analyze al in
  let oracle = Helpers.oracle_cholesky a in
  let nnz = Csc.nnz al in
  let amap = Array.init nnz (fun p -> nnz - 1 - p) in
  let natural = Array.make nnz 0.0 in
  Array.iteri (fun p q -> natural.(q) <- al.Csc.values.(p)) amap;
  List.iter
    (fun (ll, ordered) ->
      let k = Pipeline.cholesky_kernel ~low_level:ll ~ordered () in
      let s =
        Pipeline.cholesky_shaped k
          ?amap:(if ordered then Some amap else None)
          al ~lp:fill.F.l_colptr ~li:fill.F.l_rowind ~row_ptr:fill.F.row_ptr
          ~row_set:fill.F.row_ind
      in
      let lx =
        Pipeline.run_cholesky k s (if ordered then natural else al.Csc.values)
      in
      let l =
        Csc.create ~nrows:al.Csc.ncols ~ncols:al.Csc.ncols
          ~colptr:fill.F.l_colptr ~rowind:fill.F.l_rowind ~values:lx
      in
      Alcotest.(check bool)
        (Printf.sprintf "cholesky AST low_level=%b ordered=%b" ll ordered)
        true
        (Dense.max_abs_diff oracle (Dense.of_csc l) < 1e-7))
    [ (false, false); (true, false); (false, true); (true, true) ]

(* ---- individual passes ---- *)

let test_vi_prune_shape () =
  let l = Helpers.figure1_l in
  let k = Build.lower_trisolve l in
  let set = [| 0; 5; 6 |] in
  let k' = Vi_prune.apply set k in
  (* the transformed kernel holds the prune set as a constant *)
  Alcotest.(check bool) "pruneSet const added" true
    (List.mem_assoc "pruneSet" k'.consts);
  (* and its outer loop runs over the set size with a Pruned annotation *)
  match k'.body with
  | [ For lp ] ->
      Alcotest.(check bool) "bounds = set size" true
        (lp.lo = Int_lit 0 && lp.hi = Int_lit 3);
      Alcotest.(check bool) "marked pruned" true (List.mem Pruned lp.annots)
  | _ -> Alcotest.fail "expected single loop"

let test_peel_positions_threshold () =
  let l = Helpers.figure1_l in
  let reach = Sympiler_symbolic.Dep_graph.reach l Helpers.figure1_beta in
  let peel =
    Vi_prune.peel_positions ~col_nnz:(Csc.col_nnz l) ~threshold:2 reach
  in
  (* columns with nnz > 2: col 5 (nnz 4) and col 7 (nnz 3) *)
  let peeled_cols = List.map (fun pos -> reach.(pos)) peel in
  Alcotest.(check (list int)) "peeled columns" [ 5; 7 ]
    (List.sort compare peeled_cols)

let test_peel_pass_splits_loop () =
  let body =
    [
      For
        {
          index = "i";
          lo = Int_lit 0;
          hi = Int_lit 5;
          annots = [ Peel [ 2 ] ];
          body = [ Update (Arr ("x", Var "i"), Add, Float_lit 1.0) ];
        };
    ]
  in
  let out = List.concat_map (Lowlevel.peel_stmt []) body in
  (* expect: loop [0,2), inlined stmt(s), loop [3,5) *)
  let loops =
    List.filter_map (function For l -> Some (l.lo, l.hi) | _ -> None) out
  in
  Alcotest.(check bool) "two residual loops" true
    (loops = [ (Int_lit 0, Int_lit 2); (Int_lit 3, Int_lit 5) ]);
  (* semantics preserved *)
  let x = Array.make 5 0.0 in
  Interp.run_kernel { kname = "t"; params = []; consts = []; body = out }
    [ ("x", Interp.VFloatArr x) ];
  Alcotest.(check (array (float 0.0))) "all incremented" (Array.make 5 1.0) x

let test_unroll_pass () =
  let body =
    [
      For
        {
          index = "i";
          lo = Int_lit 0;
          hi = Int_lit 3;
          annots = [ Unroll 4 ];
          body = [ Update (Arr ("x", Var "i"), Add, Var "i") ];
        };
    ]
  in
  let out = List.concat_map (Lowlevel.unroll_stmt []) body in
  Alcotest.(check bool) "no loops remain" true
    (List.for_all (function For _ -> false | _ -> true) out);
  Alcotest.(check int) "three copies" 3 (List.length out)

let test_scalar_replacement_hoists () =
  let body =
    [
      For
        {
          index = "i";
          lo = Int_lit 0;
          hi = Int_lit 4;
          annots = [];
          body =
            [
              Update (Arr ("x", Var "i"), Add, Load ("c", Int_lit 0));
            ];
        };
    ]
  in
  let out = List.concat_map Lowlevel.scalar_replace_stmt body in
  (match out with
  | Let (_, Load ("c", Int_lit 0)) :: For _ :: [] -> ()
  | _ -> Alcotest.fail "expected hoisted load");
  let x = Array.make 4 0.0 and c = [| 2.5 |] in
  Interp.run_kernel { kname = "t"; params = []; consts = []; body = out }
    [ ("x", Interp.VFloatArr x); ("c", Interp.VFloatArr c) ];
  Alcotest.(check (array (float 0.0))) "semantics" (Array.make 4 2.5) x

let test_scalar_replacement_skips_written () =
  let body =
    [
      For
        {
          index = "i";
          lo = Int_lit 0;
          hi = Int_lit 4;
          annots = [];
          body =
            [
              Update (Arr ("x", Int_lit 0), Add, Load ("x", Int_lit 1));
            ];
        };
    ]
  in
  match List.concat_map Lowlevel.scalar_replace_stmt body with
  | [ For _ ] -> ()
  | _ -> Alcotest.fail "must not hoist a load from a written array"

let test_distribute_pass () =
  let mk arr =
    For
      {
        index = "i";
        lo = Int_lit 0;
        hi = Int_lit 4;
        annots = [ Distribute ];
        body =
          [
            Update (Arr (arr, Var "i"), Add, Float_lit 1.0);
            Update (Arr ("other", Var "i"), Add, Float_lit 2.0);
          ];
      }
  in
  (match Lowlevel.distribute_stmt (mk "x") with
  | [ For _; For _ ] -> ()
  | _ -> Alcotest.fail "disjoint arrays: expected two loops");
  (* same array in both statements: must not distribute *)
  match Lowlevel.distribute_stmt (mk "other") with
  | [ For _ ] -> ()
  | _ -> Alcotest.fail "shared array: must stay fused"

let test_const_propagation_specializes () =
  let body =
    [
      Let ("j", Idx ("set", Int_lit 1));
      Update (Arr ("x", Var "j"), Add, Float_lit 1.0);
    ]
  in
  match Lowlevel.propagate_stmts [ ("set", [| 4; 7 |]) ] [] body with
  | [ Update (Arr ("x", Int_lit 7), Add, Float_lit 1.0) ] -> ()
  | _ -> Alcotest.fail "expected fully specialized update"

let test_dead_loop_elimination () =
  let body =
    [
      For { index = "i"; lo = Int_lit 3; hi = Int_lit 3; annots = []; body = [] };
      Comment "keep";
    ]
  in
  match Lowlevel.propagate_stmts [] [] body with
  | [ Comment "keep" ] -> ()
  | _ -> Alcotest.fail "zero-trip loop should vanish"

(* ---- C emission ---- *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_c_emission_structure () =
  let l = Helpers.figure1_l in
  let b = { Vector.n = 10; indices = Helpers.figure1_beta; values = [| 1.0; 1.0 |] } in
  let r = Pipeline.trisolve l b in
  let c = r.Pipeline.c_code in
  List.iter
    (fun marker ->
      Alcotest.(check bool) ("contains " ^ marker) true (contains_sub c marker))
    [
      "#include <math.h>";
      "static const int pruneSet";
      "static const int blockSet";
      "static const int Lp";
      "void trisolve(double *restrict Lx, double *restrict x";
      "#pragma GCC ivdep";
    ]

let test_c_emission_cholesky () =
  let al = Csc.lower (Generators.grid2d ~stencil:`Five 4 4) in
  let r = Pipeline.cholesky al in
  let c = r.Pipeline.c_code in
  List.iter
    (fun marker ->
      Alcotest.(check bool) ("contains " ^ marker) true (contains_sub c marker))
    [
      "void cholesky(double *restrict Ax, double *restrict Lx, double *restrict \
       f)";
      "rowPos";
      "sqrt(";
    ]

(* gcc round-trip: compile the generated trisolve and compare outputs. *)
let test_gcc_roundtrip () =
  Helpers.require_cmd "gcc";
  begin
    let l = Generators.random_lower ~seed:31 ~n:40 ~density:0.15 () in
    let b = Generators.sparse_rhs ~seed:32 ~n:40 ~fill:0.1 () in
    let r = Pipeline.trisolve l b in
    let expected = Pipeline.run_trisolve r l b in
    let buf = Buffer.create 8192 in
    Buffer.add_string buf r.Pipeline.c_code;
    Buffer.add_string buf "#include <stdio.h>\nint main(void) {\n";
    let emit_arr name (a : float array) =
      Buffer.add_string buf (Printf.sprintf "  static double %s[%d] = {" name (Array.length a));
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ",";
          Buffer.add_string buf (Printf.sprintf "%.17g" v))
        a;
      Buffer.add_string buf "};\n"
    in
    emit_arr "Lxv" l.Csc.values;
    emit_arr "xv" (Vector.sparse_to_dense b);
    Buffer.add_string buf
      (Printf.sprintf "  static double tmpv[%d];\n" (max 1 r.Pipeline.tmp_size));
    Buffer.add_string buf
      "  trisolve(Lxv, xv, tmpv);\n\
      \  for (int i = 0; i < 40; i++) printf(\"%.17g\\n\", xv[i]);\n\
      \  return 0;\n\
       }\n";
    Helpers.with_temp_dir (fun dir ->
        let cfile = Filename.concat dir "t.c" in
        let exe = Filename.concat dir "t" in
        Out_channel.with_open_text cfile (fun oc ->
            Out_channel.output_string oc (Buffer.contents buf));
        let rc =
          Sys.command
            (Printf.sprintf "gcc -O2 -o %s %s -lm 2>/dev/null" exe cfile)
        in
        Alcotest.(check int) "gcc compiles generated code" 0 rc;
        let ic = Unix.open_process_in exe in
        let got = Array.init 40 (fun _ -> float_of_string (input_line ic)) in
        ignore (Unix.close_process_in ic);
        Helpers.check_close ~eps:1e-12 "gcc output matches interpreter" expected
          got)
  end

(* Same round-trip but on a supernode-rich factor, so the emitted C
   exercises the VS-Block loops (dense diagonal solve + buffered GEMV). *)
let test_gcc_roundtrip_blocked () =
  Helpers.require_cmd "gcc";
  begin
    let a = Generators.clique_chain ~seed:51 ~n:48 ~clique:8 ~overlap:2 () in
    let al = Csc.lower a in
    let l = Sympiler_kernels.Cholesky_ref.factor_simple al in
    let n = l.Csc.ncols in
    (* RHS = pattern of an early column: reaches several supernodes *)
    let lo = al.Csc.colptr.(2) and hi = al.Csc.colptr.(3) in
    let b =
      {
        Vector.n;
        indices = Array.sub al.Csc.rowind lo (hi - lo);
        values = Array.init (hi - lo) (fun t -> 1.0 +. float_of_int t);
      }
    in
    let r = Pipeline.trisolve l b in
    let expected = Pipeline.run_trisolve r l b in
    let buf = Buffer.create 8192 in
    Buffer.add_string buf r.Pipeline.c_code;
    Buffer.add_string buf "#include <stdio.h>
int main(void) {
";
    let emit_arr name (arr : float array) =
      Buffer.add_string buf
        (Printf.sprintf "  static double %s[%d] = {" name (Array.length arr));
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ",";
          Buffer.add_string buf (Printf.sprintf "%.17g" v))
        arr;
      Buffer.add_string buf "};
"
    in
    emit_arr "Lxv" l.Csc.values;
    emit_arr "xv" (Vector.sparse_to_dense b);
    Buffer.add_string buf
      (Printf.sprintf "  static double tmpv[%d];\n" (max 1 r.Pipeline.tmp_size));
    Buffer.add_string buf (Printf.sprintf "  trisolve(Lxv, xv, tmpv);\n");
    Buffer.add_string buf
      (Printf.sprintf
         "  for (int i = 0; i < %d; i++) printf(\"%%.17g\\n\", xv[i]);\n  return 0;\n}\n" n);
    Helpers.with_temp_dir (fun dir ->
        let cfile = Filename.concat dir "tb.c" in
        let exe = Filename.concat dir "tb" in
        Out_channel.with_open_text cfile (fun oc ->
            Out_channel.output_string oc (Buffer.contents buf));
        let rc =
          Sys.command
            (Printf.sprintf "gcc -O2 -o %s %s -lm 2>/dev/null" exe cfile)
        in
        Alcotest.(check int) "gcc compiles blocked code" 0 rc;
        let ic = Unix.open_process_in exe in
        let got = Array.init n (fun _ -> float_of_string (input_line ic)) in
        ignore (Unix.close_process_in ic);
        Helpers.check_close ~eps:1e-12 "blocked C matches interpreter" expected
          got)
  end

let suite =
  [
    ("subst + fold", `Quick, test_subst_and_fold);
    ("fold const arrays", `Quick, test_fold_const_array);
    ("subst shadowing", `Quick, test_subst_respects_shadowing);
    ("written/read arrays", `Quick, test_written_read_arrays);
    ("interp loop sum", `Quick, test_interp_loop_sum);
    ("interp if + sqrt", `Quick, test_interp_if_and_sqrt);
    ("interp const arrays", `Quick, test_interp_const_arrays);
    ("interp errors", `Quick, test_interp_errors);
    prop_pipeline_preserves_semantics;
    ("cholesky AST pipeline", `Quick, test_cholesky_pipeline_matches_oracle);
    ("vi-prune shape", `Quick, test_vi_prune_shape);
    ("peel positions (fig 1e)", `Quick, test_peel_positions_threshold);
    ("peel pass splits loop", `Quick, test_peel_pass_splits_loop);
    ("unroll pass", `Quick, test_unroll_pass);
    ("scalar replacement hoists", `Quick, test_scalar_replacement_hoists);
    ("scalar replacement safety", `Quick, test_scalar_replacement_skips_written);
    ("distribute pass", `Quick, test_distribute_pass);
    ("const propagation", `Quick, test_const_propagation_specializes);
    ("dead loop elimination", `Quick, test_dead_loop_elimination);
    ("C emission trisolve", `Quick, test_c_emission_structure);
    ("C emission cholesky", `Quick, test_c_emission_cholesky);
    ("gcc roundtrip", `Slow, test_gcc_roundtrip);
    ("gcc roundtrip blocked", `Slow, test_gcc_roundtrip_blocked);
  ]
