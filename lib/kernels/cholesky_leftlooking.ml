open Sympiler_sparse
open Sympiler_symbolic
module Metrics = Sympiler_metrics.Metrics

(* Left-looking column Cholesky — the paper's Figure 4 pseudo-code as a
   native decoupled executor. Column j is built by gathering A(:,j) into a
   dense accumulator f, subtracting the contributions of every column r in
   the prune-set (the row pattern of L, VI-Prune's inspection set), then
   dividing by the square root of the diagonal.

   All symbolic quantities are baked in at compile time, including
   [row_pos]: the storage position of entry L(j, r) inside column r — what
   lets the update loop start exactly at the diagonal-row element with no
   searching. This is the same kernel [Build.lower_cholesky] lowers to the
   AST; here it runs at native speed and serves as an independent executor
   cross-checked against the AST interpreter and the up-looking variant. *)

exception Not_positive_definite = Dense_blas.Not_positive_definite

type compiled = {
  n : int;
  l_colptr : int array;
  l_rowind : int array;
  row_ptr : int array; (* the analysis' row lists: the prune-sets *)
  row_set : int array; (* columns r in the prune-set of each j *)
  row_pos : int array; (* position of L(j, r) within column r *)
  flops : float;
}

(* The analysis' arrays are read in place; only [row_pos] is built here. *)
let compile ?fill (a_lower : Csc.t) : compiled =
  let fill =
    match fill with Some f -> f | None -> Fill_pattern.analyze a_lower
  in
  let n = fill.Fill_pattern.n in
  let lp = fill.Fill_pattern.l_colptr in
  let row_ptr = fill.Fill_pattern.row_ptr
  and row_set = fill.Fill_pattern.row_ind in
  let row_pos = Array.make (Array.length row_set) 0 in
  let fillcount = Array.make n 0 in
  for j = 0 to n - 1 do
    for q = row_ptr.(j) to row_ptr.(j + 1) - 1 do
      let r = row_set.(q) in
      fillcount.(r) <- fillcount.(r) + 1;
      row_pos.(q) <- lp.(r) + fillcount.(r)
    done
  done;
  {
    n;
    l_colptr = lp;
    l_rowind = fill.Fill_pattern.l_rowind;
    row_ptr;
    row_set;
    row_pos;
    flops = Fill_pattern.flops fill;
  }

let factor (c : compiled) (a_lower : Csc.t) : Csc.t =
  let n = c.n in
  let lp = c.l_colptr and li = c.l_rowind in
  let lx = Array.make lp.(n) 0.0 in
  let f = Array.make n 0.0 in
  for j = 0 to n - 1 do
    (* f = A(:, j), lower part *)
    for p = a_lower.Csc.colptr.(j) to a_lower.Csc.colptr.(j + 1) - 1 do
      f.(a_lower.Csc.rowind.(p)) <- a_lower.Csc.values.(p)
    done;
    (* update phase over the prune-set: f -= L(j:n, r) * L(j, r) *)
    for q = c.row_ptr.(j) to c.row_ptr.(j + 1) - 1 do
      let start = c.row_pos.(q) in
      let ljr = lx.(start) in
      let r = c.row_set.(q) in
      for p = start to lp.(r + 1) - 1 do
        f.(li.(p)) <- f.(li.(p)) -. (lx.(p) *. ljr)
      done
    done;
    (* column factorization: diagonal then off-diagonals *)
    let d = f.(j) in
    if d <= 0.0 then raise (Not_positive_definite j);
    let djj = sqrt d in
    lx.(lp.(j)) <- djj;
    f.(j) <- 0.0;
    for p = lp.(j) + 1 to lp.(j + 1) - 1 do
      let i = li.(p) in
      lx.(p) <- f.(i) /. djj;
      f.(i) <- 0.0
    done
  done;
  Metrics.inc Metrics.flops (int_of_float c.flops);
  Metrics.inc Metrics.nnz_touched lp.(n);
  Csc.create ~nrows:n ~ncols:n ~colptr:lp ~rowind:li ~values:lx

let factorize (a_lower : Csc.t) : Csc.t = factor (compile a_lower) a_lower
