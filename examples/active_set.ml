(* Rank-update scenario (§3.3: "rank update and rank increase methods"):
   an active-set-style loop, the pattern behind the authors' follow-on
   NASOQ solver. A KKT-like SPD system keeps its factorization across
   iterations: adding/removing a constraint perturbs A by ± w w^T, and the
   factor is repaired with a sparse rank-1 update/downdate along an
   elimination-tree path instead of refactorizing — the symbolic path is
   one of Sympiler's inspection strategies (single-node up-traversal).

   Run with: dune exec examples/active_set.exe *)

open Sympiler_sparse
open Sympiler_symbolic
open Sympiler_kernels

let () =
  print_endline "== Active-set loop with rank-1 factor updates ==";
  let a = Generators.clique_chain ~seed:5 ~n:1200 ~clique:24 ~overlap:6 () in
  let al = Csc.lower a in
  let fill = Fill_pattern.analyze al in
  let parent = fill.Fill_pattern.parent in

  let chol = Sympiler.Cholesky.compile al in
  let l = Sympiler.Cholesky.factor chol al in
  Printf.printf "initial factorization: n=%d nnz(L)=%d\n" a.Csc.ncols
    chol.Sympiler.Cholesky.nnz_l;

  (* Simulated active-set iterations: each activates a "constraint" w_k
     (built on an existing column pattern so the factor's structure is
     preserved), later deactivates it. *)
  let steps = 200 in
  let rng = Utils.Rng.create 99 in
  let picks =
    Array.init steps (fun _ -> Utils.Rng.int rng (a.Csc.ncols - 1))
  in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun j ->
      let w = Rank_update.vector_like l ~j ~scale:0.25 in
      Rank_update.update ~parent l w;
      (* ... solve with the updated factor, decide the next move ... *)
      Rank_update.update ~sigma:(-1.0) ~parent l w)
    picks;
  let t_updates = Unix.gettimeofday () -. t0 in

  let t0 = Unix.gettimeofday () in
  for _ = 1 to 10 do
    ignore (Sympiler.Cholesky.factor chol al)
  done;
  let t_refactor = (Unix.gettimeofday () -. t0) /. 10.0 in

  Printf.printf "%d update/downdate pairs: %.1f ms (%.3f ms per rank-1 op)\n"
    steps (t_updates *. 1e3)
    (t_updates *. 1e3 /. float_of_int (2 * steps));
  Printf.printf "one full refactorization: %.2f ms\n" (t_refactor *. 1e3);
  Printf.printf "rank-1 op is %.0fx cheaper than refactorizing\n"
    (t_refactor /. (t_updates /. float_of_int (2 * steps)));

  (* Verify the factor survived 400 in-place modifications. *)
  let fresh = Sympiler.Cholesky.factor chol al in
  let drift = Utils.max_rel_diff fresh.Csc.values l.Csc.values in
  Printf.printf "factor drift after %d ops: %.2e %s\n" (2 * steps) drift
    (if drift < 1e-6 then "(OK)" else "(UNEXPECTED)");
  if not (drift < 1e-6) then exit 1
