(* Quickstart: compile a sparse triangular solve and a sparse Cholesky for a
   fixed sparsity structure, run the numeric phases, and look at the
   generated C.

   Run with: dune exec examples/quickstart.exe *)

open Sympiler_sparse

let () =
  print_endline "== Sympiler quickstart ==\n";

  (* 1. A small SPD system: 2D Poisson grid. *)
  let a = Generators.grid2d ~stencil:`Five 6 6 in
  let a_lower = Csc.lower a in
  Printf.printf "Matrix A: %dx%d, %d nonzeros\n" a.Csc.nrows a.Csc.ncols
    (Csc.nnz a);

  (* 2. Compile Cholesky for A's pattern (symbolic analysis happens here,
     once). *)
  let chol = Sympiler.Cholesky.compile a_lower in
  Printf.printf "Cholesky compiled: %d nnz in L, %.0f flops, C kernel %s\n"
    chol.Sympiler.Cholesky.nnz_l chol.Sympiler.Cholesky.flops
    Sympiler.Cholesky.(variant_name (variant chol));

  (* 3. Numeric factorization + solve — no symbolic work in here. *)
  let b = Array.init a.Csc.ncols (fun i -> 1.0 +. (0.1 *. float_of_int i)) in
  let x = Sympiler.Cholesky.solve chol a_lower b in
  let r = Vector.norm_inf (Vector.sub (Csc.spmv a x) b) in
  Printf.printf "Solved A x = b: residual %.2e\n" r;

  (* 4. Values change, pattern does not: refactor without re-analysis. *)
  let a_lower' = Csc.map_values a_lower (fun v -> 1.1 *. v) in
  let x' = Sympiler.Cholesky.solve chol a_lower' b in
  let r' =
    Vector.norm_inf
      (Vector.sub (Csc.spmv (Csc.symmetrize_from_lower a_lower') x') b)
  in
  Printf.printf "Re-solved with new values (same pattern): residual %.2e\n" r';

  (* 5. Sparse triangular solve with a sparse right-hand side. *)
  let l = Sympiler.Cholesky.factor chol a_lower in
  let rhs = Generators.sparse_rhs ~seed:7 ~n:a.Csc.ncols ~fill:0.05 () in
  let tri = Sympiler.Trisolve.compile (l, rhs) in
  Printf.printf "\nTrisolve compiled: reach-set %d of %d columns (%.0f flops)\n"
    (Array.length tri.Sympiler.Trisolve.reach)
    a.Csc.ncols tri.Sympiler.Trisolve.flops;
  let y = Sympiler.Trisolve.solve tri rhs in
  let res =
    Vector.norm_inf (Vector.sub (Csc.spmv l y) (Vector.sparse_to_dense rhs))
  in
  Printf.printf "Solved L y = b: residual %.2e\n" res;

  (* 6. The generated C code for this exact structure. *)
  let c = Sympiler.Trisolve.c_code tri in
  print_endline "\nFirst lines of the generated triangular-solve C code:";
  String.split_on_char '\n' c
  |> List.filteri (fun i _ -> i < 12)
  |> List.iter print_endline;
  Printf.printf "... (%d bytes total)\n" (String.length c);

  (* The three solves must be accurate: exit non-zero otherwise. *)
  let worst = List.fold_left Float.max 0.0 [ r; r'; res ] in
  if worst > 1e-9 then begin
    Printf.printf "UNEXPECTED: a residual of %.2e exceeds 1e-9\n" worst;
    exit 1
  end
