open Sympiler_sparse
module Metrics = Sympiler_metrics.Metrics

(* The four sparse triangular solve variants of the paper's Figure 1, for
   L x = b with L lower-triangular in CSC form. All in-place versions take
   [x] already holding b and overwrite it with the solution; the functional
   wrappers copy.

   Counter recording happens after the solve loops (closed-form counts) or
   in a dedicated counted loop, always behind [Metrics.enabled], so the
   hot paths are untouched when metrics are off. *)

(* Figure 1b: naive forward substitution — visits every column. *)
let naive_ip (l : Csc.t) (x : float array) =
  let n = l.Csc.ncols in
  let lp = l.Csc.colptr and li = l.Csc.rowind and lx = l.Csc.values in
  for j = 0 to n - 1 do
    let xj = x.(j) /. lx.(lp.(j)) in
    x.(j) <- xj;
    for p = lp.(j) + 1 to lp.(j + 1) - 1 do
      x.(li.(p)) <- x.(li.(p)) -. (lx.(p) *. xj)
    done
  done;
  Metrics.inc Metrics.flops ((2 * lp.(n)) - n);
  Metrics.inc Metrics.nnz_touched lp.(n)

(* Figure 1c: library implementation (Eigen's sparse triangular solve) —
   skips columns whose solution entry is zero, but still scans all n
   columns and tests each. The exact work depends on runtime values, so the
   variant run while metrics are on is a separate counted loop. *)
let library_ip_counted (l : Csc.t) (x : float array) =
  let n = l.Csc.ncols in
  let lp = l.Csc.colptr and li = l.Csc.rowind and lx = l.Csc.values in
  let flops = ref 0 and nnz = ref 0 in
  for j = 0 to n - 1 do
    if x.(j) <> 0.0 then begin
      let xj = x.(j) /. lx.(lp.(j)) in
      x.(j) <- xj;
      for p = lp.(j) + 1 to lp.(j + 1) - 1 do
        x.(li.(p)) <- x.(li.(p)) -. (lx.(p) *. xj)
      done;
      let cn = lp.(j + 1) - lp.(j) in
      flops := !flops + (2 * cn) - 1;
      nnz := !nnz + cn
    end
  done;
  Metrics.inc Metrics.flops !flops;
  Metrics.inc Metrics.nnz_touched !nnz

let library_ip (l : Csc.t) (x : float array) =
  if Metrics.enabled () then library_ip_counted l x
  else begin
    let n = l.Csc.ncols in
    let lp = l.Csc.colptr and li = l.Csc.rowind and lx = l.Csc.values in
    for j = 0 to n - 1 do
      if x.(j) <> 0.0 then begin
        let xj = x.(j) /. lx.(lp.(j)) in
        x.(j) <- xj;
        for p = lp.(j) + 1 to lp.(j + 1) - 1 do
          x.(li.(p)) <- x.(li.(p)) -. (lx.(p) *. xj)
        done
      end
    done
  end

(* Figure 1d: decoupled code — iterates only over the precomputed reach-set
   (in topological order), with no zero tests: O(|b| + f). *)
let decoupled_ip (l : Csc.t) (reach : int array) (x : float array) =
  let lp = l.Csc.colptr and li = l.Csc.rowind and lx = l.Csc.values in
  for px = 0 to Array.length reach - 1 do
    let j = reach.(px) in
    let xj = x.(j) /. lx.(lp.(j)) in
    x.(j) <- xj;
    for p = lp.(j) + 1 to lp.(j + 1) - 1 do
      x.(li.(p)) <- x.(li.(p)) -. (lx.(p) *. xj)
    done
  done;
  if Metrics.enabled () then begin
    let nnz = ref 0 in
    Array.iter (fun j -> nnz := !nnz + (lp.(j + 1) - lp.(j))) reach;
    Metrics.inc Metrics.flops ((2 * !nnz) - Array.length reach);
    Metrics.inc Metrics.nnz_touched !nnz
  end

(* Solve L^T x = b using the CSC storage of L (columns of L are rows of
   L^T): backward substitution. Used to complete A = L L^T solves. *)
let transpose_ip (l : Csc.t) (x : float array) =
  let n = l.Csc.ncols in
  let lp = l.Csc.colptr and li = l.Csc.rowind and lx = l.Csc.values in
  for j = n - 1 downto 0 do
    let s = ref x.(j) in
    for p = lp.(j) + 1 to lp.(j + 1) - 1 do
      s := !s -. (lx.(p) *. x.(li.(p)))
    done;
    x.(j) <- !s /. lx.(lp.(j))
  done

let run ip l b =
  let x = Array.copy b in
  ip l x;
  x

let naive l b = run naive_ip l b
let library l b = run library_ip l b

let decoupled l (b : Vector.sparse) =
  let reach = Sympiler_symbolic.Dep_graph.reach l b.Vector.indices in
  let x = Vector.sparse_to_dense b in
  decoupled_ip l reach x;
  x

let transpose_solve l b = run transpose_ip l b

(* Useful floating point operations of the solve: 2*nnz(col)-1 per column
   that participates (the f of the paper's complexity discussion). The same
   count is used as the numerator for every variant's FLOP/s. *)
let flops (l : Csc.t) (reach : int array) =
  Array.fold_left
    (fun acc j -> acc +. float_of_int ((2 * Csc.col_nnz l j) - 1))
    0.0 reach
