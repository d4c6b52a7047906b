open Sympiler_sparse
open Sympiler_kernels

(* The public facade (Sympiler.Trisolve / Sympiler.Cholesky) and the
   prepared benchmark suite. *)

let test_trisolve_api () =
  let l = Generators.random_lower ~seed:41 ~n:120 ~density:0.08 () in
  let b = Generators.sparse_rhs ~seed:42 ~n:120 ~fill:0.05 () in
  let t = Sympiler.Trisolve.compile (l, b) in
  let oracle = Helpers.oracle_lower_solve l (Vector.sparse_to_dense b) in
  Helpers.check_close "solve" oracle (Sympiler.Trisolve.solve t b);
  let x = Vector.sparse_to_dense b in
  Sympiler.Trisolve.solve_ip t x;
  Helpers.check_close "solve_ip" oracle x;
  Alcotest.(check bool) "symbolic time recorded" true
    (t.Sympiler.Trisolve.symbolic_seconds >= 0.0);
  Alcotest.(check bool) "flops positive" true (t.Sympiler.Trisolve.flops > 0.0);
  Alcotest.(check bool) "reach nonempty" true
    (Array.length t.Sympiler.Trisolve.reach > 0)

let test_trisolve_api_rejects_nonlower () =
  let a = Generators.grid2d ~stencil:`Five 3 3 in
  let b = Generators.sparse_rhs ~seed:1 ~n:9 ~fill:0.2 () in
  Alcotest.(check bool) "rejects non-lower" true
    (try
       ignore (Sympiler.Trisolve.compile (a, b));
       false
     with Invalid_argument _ -> true)

let test_trisolve_c_code () =
  let l = Generators.random_lower ~seed:43 ~n:30 ~density:0.15 () in
  let b = Generators.sparse_rhs ~seed:44 ~n:30 ~fill:0.1 () in
  let t = Sympiler.Trisolve.compile (l, b) in
  let c = Sympiler.Trisolve.c_code t in
  Alcotest.(check bool) "has kernel" true
    (String.length c > 100)

let test_cholesky_api_variants () =
  let a = Generators.block_tridiagonal ~seed:4 ~nblocks:5 ~block:6 () in
  let al = Csc.lower a in
  let oracle = Helpers.oracle_cholesky a in
  List.iter
    (fun variant ->
      let t =
        Sympiler.Cholesky.compile
          ~opts:
            (Sympiler.Options.make
               ~simplicial:(variant = Sympiler.Cholesky.Simplicial)
               ())
          al
      in
      let l = Sympiler.Cholesky.factor t al in
      Alcotest.(check bool) "factor correct" true
        (Dense.max_abs_diff oracle (Dense.of_csc l) < 1e-7))
    [ Sympiler.Cholesky.Supernodal; Sympiler.Cholesky.Simplicial ];
  (* solve *)
  let n = a.Csc.ncols in
  let b = Array.init n (fun i -> float_of_int (i mod 3)) in
  let t = Sympiler.Cholesky.compile al in
  let x = Sympiler.Cholesky.solve t al b in
  let r = Vector.sub (Csc.spmv a x) b in
  Alcotest.(check bool) "solve residual" true (Vector.norm_inf r < 1e-8)

(* The VS-Block rule: a grid of narrow supernodes and little work falls
   back to the simplicial kernel, as the paper skips VS-Block for matrices
   3,4,5,7; wide supernodes carrying enough flops take the supernodal one;
   [simplicial] pins the simplicial kernel without measuring. *)
let test_cholesky_threshold_fallback () =
  let vs (t : Sympiler.Cholesky.t) =
    List.find
      (fun d -> d.Sympiler.Trace.pass = "vs-block")
      t.Sympiler.Cholesky.decisions
  in
  let narrow =
    Sympiler.Cholesky.compile
      (Csc.lower (Generators.grid2d ~stencil:`Five 6 6))
  in
  Alcotest.(check bool) "fell back to simplicial" true
    (Sympiler.Cholesky.variant narrow = Sympiler.Cholesky.Simplicial);
  Alcotest.(check bool) "declined" false (vs narrow).Sympiler.Trace.fired;
  let al =
    Csc.lower (Generators.block_tridiagonal ~seed:4 ~nblocks:10 ~block:20 ())
  in
  let wide = Sympiler.Cholesky.compile al in
  Alcotest.(check bool) "supernodal on wide supernodes" true
    (Sympiler.Cholesky.variant wide = Sympiler.Cholesky.Supernodal);
  Alcotest.(check bool) "fired at the width threshold" true
    ((vs wide).Sympiler.Trace.fired
    && (vs wide).Sympiler.Trace.value >= (vs wide).Sympiler.Trace.threshold);
  let pinned =
    Sympiler.Cholesky.compile
      ~opts:(Sympiler.Options.make ~simplicial:true ())
      al
  in
  Alcotest.(check bool) "pinned simplicial" true
    (Sympiler.Cholesky.variant pinned = Sympiler.Cholesky.Simplicial);
  Alcotest.(check bool) "pinned: never measured" true
    (Float.is_nan (vs pinned).Sympiler.Trace.value)

let test_cholesky_c_code_supernodal () =
  let al =
    Csc.lower (Generators.block_tridiagonal ~seed:4 ~nblocks:10 ~block:20 ())
  in
  let c = Sympiler.Cholesky.c_code (Sympiler.Cholesky.compile al) in
  Alcotest.(check bool) "supernodal C generated" true
    (String.length c > 500
    &&
    let key = "cholesky_supernodal" in
    let m = String.length key in
    let rec go i =
      i + m <= String.length c && (String.sub c i m = key || go (i + 1))
    in
    go 0)

(* Compile the emitted supernodal C with gcc and compare factors. *)
let test_supernodal_c_gcc_roundtrip () =
  Helpers.require_cmd "gcc";
  begin
    let a = Generators.clique_chain ~seed:3 ~n:40 ~clique:6 ~overlap:2 () in
    let al = Csc.lower a in
    let c = Cholesky_supernodal.Sympiler.compile al in
    let expected = Cholesky_supernodal.Sympiler.factor c al in
    let code = Sympiler.Codegen_supernodal.to_c c al in
    let nnz_l = c.Cholesky_supernodal.Sympiler.an.Cholesky_supernodal.nnz_l in
    let buf = Buffer.create 8192 in
    Buffer.add_string buf code;
    Buffer.add_string buf "#include <stdio.h>\nint main(void) {\n";
    Buffer.add_string buf
      (Printf.sprintf "  static double Axv[%d] = {" (Csc.nnz al));
    Array.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ",";
        Buffer.add_string buf (Printf.sprintf "%.17g" v))
      al.Csc.values;
    Buffer.add_string buf "};\n";
    Buffer.add_string buf (Printf.sprintf "  static double Lxv[%d];\n" nnz_l);
    Buffer.add_string buf
      (Printf.sprintf
         "  cholesky_supernodal(Axv, Lxv);\n\
         \  for (int i = 0; i < %d; i++) printf(\"%%.17g\\n\", Lxv[i]);\n\
         \  return 0;\n\
          }\n"
         nnz_l);
    Helpers.with_temp_dir (fun dir ->
        let cfile = Filename.concat dir "chol.c" in
        let exe = Filename.concat dir "chol" in
        Out_channel.with_open_text cfile (fun oc ->
            Out_channel.output_string oc (Buffer.contents buf));
        let rc =
          Sys.command
            (Printf.sprintf "gcc -O2 -o %s %s -lm 2>/dev/null" exe cfile)
        in
        Alcotest.(check int) "gcc compiles supernodal C" 0 rc;
        let ic = Unix.open_process_in exe in
        let got = Array.init nnz_l (fun _ -> float_of_string (input_line ic)) in
        ignore (Unix.close_process_in ic);
        Helpers.check_close ~eps:1e-12 "C factor matches OCaml executor"
          expected.Csc.values got)
  end

let test_suite_prepared_small () =
  (* Avoid the expensive reordered problems here; check a natural one. *)
  let p = Sympiler.Suite.problem 1 in
  Alcotest.(check string) "name" "cbuckle" p.Sympiler.Suite.name;
  Alcotest.(check string) "ordering" "natural" p.Sympiler.Suite.ordering;
  Alcotest.(check bool) "lower is lower" true
    (Csc.is_lower_triangular p.Sympiler.Suite.a_lower);
  Alcotest.(check bool) "symmetric full" true
    (Csc.equal p.Sympiler.Suite.a_full (Csc.transpose p.Sympiler.Suite.a_full));
  (* cached *)
  let p2 = Sympiler.Suite.problem 1 in
  Alcotest.(check bool) "cache returns same" true (p == p2);
  let rhs = Sympiler.Suite.rhs_for p in
  Alcotest.(check bool) "rhs under 5%" true
    (Vector.sparse_nnz rhs <= p.Sympiler.Suite.a_full.Csc.ncols / 20)

let test_min_degree_postorder_perm () =
  let a = Generators.grid2d ~stencil:`Five 8 8 in
  let p = Sympiler.Suite.min_degree_postorder a in
  Alcotest.(check bool) "valid permutation" true (Perm.is_valid p)

let suite =
  [
    ("trisolve api", `Quick, test_trisolve_api);
    ("trisolve api rejects non-lower", `Quick, test_trisolve_api_rejects_nonlower);
    ("trisolve c_code", `Quick, test_trisolve_c_code);
    ("cholesky api variants", `Quick, test_cholesky_api_variants);
    ("cholesky threshold fallback", `Quick, test_cholesky_threshold_fallback);
    ("cholesky supernodal c_code", `Quick, test_cholesky_c_code_supernodal);
    ("supernodal C gcc roundtrip", `Slow, test_supernodal_c_gcc_roundtrip);
    ("suite prepared problem", `Quick, test_suite_prepared_small);
    ("min degree postorder perm", `Quick, test_min_degree_postorder_perm);
  ]
