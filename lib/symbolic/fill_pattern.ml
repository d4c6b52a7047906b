open Sympiler_sparse

(* Symbolic Cholesky factorization: the full nonzero pattern of L (fill-ins
   included) computed before any numeric work, so that storage for L can be
   allocated once and no dynamic index arrays remain in the numeric phase —
   the property Sympiler's code generation relies on. *)

(* Result of symbolic analysis for A = L L^T: L's structure as the plain
   int arrays its kernels read in place, built once. The row lists are the
   per-column prune-sets of the Cholesky VI-Prune transformation; the
   column pattern sizes and indexes L's storage. No float array: the
   pattern-only consumers that take a [Csc.t] get the values-free view of
   [l_view]. *)
type t = {
  n : int;
  parent : int array; (* elimination tree *)
  counts : int array; (* counts.(j) = nnz(L(:,j)) including the diagonal *)
  l_colptr : int array; (* column pattern of L, length n+1 *)
  l_rowind : int array; (* rows ascending per column, diagonal first *)
  row_ptr : int array; (* row k's list is row_ind.(row_ptr.(k) .. ) *)
  row_ind : int array;
      (* columns j < k with L(k,j) <> 0, ascending: the strictly-lower
         rows of L (the transpose of the column pattern without its
         diagonal) *)
}

(* The walk [analyze] and [col_counts] share: one transpose of lower(A)
   feeds both the etree and the per-row ereach, which counts every entry
   of L into its column and hands each row's pattern, in row order
   (unsorted, in the workspace stack), to [row k stack len]. *)
let walk (a_lower : Csc.t) ~row : int array * int array =
  let n = a_lower.Csc.ncols in
  let upper = Csc.transpose a_lower in
  let parent = Etree.of_upper upper in
  let work = Ereach.make_workspace n in
  let counts = Array.make n 1 in
  Sympiler_trace.Trace.begin_span "symbolic.col_counts";
  for k = 0 to n - 1 do
    let stack, len = Ereach.row_reach_ip ~upper ~parent ~work k in
    for q = 0 to len - 1 do
      let j = stack.(q) in
      counts.(j) <- counts.(j) + 1
    done;
    row k stack len
  done;
  Sympiler_trace.Trace.end_span ();
  (parent, counts)

(* Etree and column counts alone: no row lists, no pattern of L. The
   cheap baseline for decisions that only need nnz(L) or the flop model
   (the ordering stage's natural-order comparison, [Explain]). *)
let col_counts (a_lower : Csc.t) : int array * int array =
  walk a_lower ~row:(fun _ _ _ -> ())

(* O(|L|) analysis from the lower-triangular part of A via [Ereach],
   timed by its "symbolic.fill" span. *)
let analyze (a_lower : Csc.t) : t =
  Sympiler_trace.Trace.with_span "symbolic.fill" @@ fun () ->
  let n = a_lower.Csc.ncols in
  (* First pass: each row's pattern, sorted, appended to a buffer that
     grows by doubling (nnz(L) is known only once the walk ends), and the
     column counts. The buffer packs an entry in 4 bytes (a column index
     is below n < 2^31) and is decoded once into the exact-size row
     lists, after which it is garbage: packing halves that garbage and
     the walk's memory traffic. *)
  let buf = ref (Bytes.create (4 * max 16 (4 * Csc.nnz a_lower))) in
  let row_ptr = Array.make (n + 1) 0 in
  let parent, counts =
    walk a_lower ~row:(fun k stack len ->
        Utils.sort_int_range stack 0 len;
        let top = row_ptr.(k) in
        let cap = Bytes.length !buf in
        if 4 * (top + len) > cap then begin
          let grown = Bytes.create (max (4 * (top + len)) (2 * cap)) in
          Bytes.blit !buf 0 grown 0 (4 * top);
          buf := grown
        end;
        let b = !buf in
        for i = 0 to len - 1 do
          Bytes.set_int32_ne b (4 * (top + i)) (Int32.of_int stack.(i))
        done;
        row_ptr.(k + 1) <- top + len)
  in
  let b = !buf in
  let row_ind = Array.make row_ptr.(n) 0 in
  for q = 0 to row_ptr.(n) - 1 do
    row_ind.(q) <- Int32.to_int (Bytes.get_int32_ne b (4 * q))
  done;
  (* Second pass: scatter into column-major storage. Column j receives
     its diagonal at row j and then rows k > j in increasing k, hence
     sorted with the diagonal first. *)
  let l_colptr = Array.make (n + 1) 0 in
  Array.blit counts 0 l_colptr 0 n;
  let nnz = Utils.cumsum l_colptr in
  let l_rowind = Array.make nnz 0 in
  let next = Array.sub l_colptr 0 n in
  for k = 0 to n - 1 do
    l_rowind.(next.(k)) <- k;
    next.(k) <- next.(k) + 1;
    for q = row_ptr.(k) to row_ptr.(k + 1) - 1 do
      let j = row_ind.(q) in
      l_rowind.(next.(j)) <- k;
      next.(j) <- next.(j) + 1
    done
  done;
  if Sympiler_trace.Trace.enabled () then begin
    Sympiler_trace.Trace.set_attr "n" (Sympiler_trace.Trace.Int n);
    Sympiler_trace.Trace.set_attr "nnz_l" (Sympiler_trace.Trace.Int nnz)
  end;
  { n; parent; counts; l_colptr; l_rowind; row_ptr; row_ind }

(* The column pattern as a [Csc.t] for the pattern-only consumers
   ([Dep_graph], [Stages.schedule], [Supernodes]): it shares the two
   arrays and carries no values ([values = [||]], so it is no input to
   anything that reads them). *)
let l_view (t : t) : Csc.t =
  {
    Csc.nrows = t.n;
    ncols = t.n;
    colptr = t.l_colptr;
    rowind = t.l_rowind;
    values = [||];
  }

(* Independent oracle implementing the paper's equation (1):
   Lj = Aj ∪ {j} ∪ (∪_{j = T(s)} Ls \ {s}). Exponentially simpler and
   asymptotically worse; used in tests to cross-check [analyze]. The child
   lists come precomputed from the etree — the previous version rediscovered
   them by scanning every prior column for each j, which made the "simple"
   oracle O(n^2) even on a diagonal matrix and unusable as a cross-check
   beyond a few thousand rows. *)
let pattern_by_children (a_lower : Csc.t) : Csc.t =
  let n = a_lower.Csc.ncols in
  let parent = Etree.compute a_lower in
  let children = Etree.children parent in
  let module S = Set.Make (Int) in
  let cols = Array.make n S.empty in
  for j = 0 to n - 1 do
    (* Aj (lower part) ∪ {j}. *)
    Csc.iter_col a_lower j (fun i _ -> if i >= j then cols.(j) <- S.add i cols.(j));
    cols.(j) <- S.add j cols.(j);
    (* Union of children patterns minus their diagonals. *)
    List.iter
      (fun s -> cols.(j) <- S.union cols.(j) (S.remove s cols.(s)))
      children.(j)
  done;
  let tr = Triplet.create ~nrows:n ~ncols:n () in
  Array.iteri (fun j set -> S.iter (fun i -> Triplet.add tr i j 1.0) set) cols;
  Csc.of_triplet tr

let nnz_l t = t.l_colptr.(t.n)

(* Number of floating point operations of the numeric factorization:
   sum over columns of c*(c+2) with c = below-diagonal count (sqrt counted
   once, division c times, update c*(c+1)). Standard flop model
   sum (counts_j)^2 is used for GFLOP/s reporting, matching common practice. *)
let flops_of_counts (counts : int array) =
  Array.fold_left (fun acc c -> acc +. (float_of_int c ** 2.0)) 0.0 counts

let flops t = flops_of_counts t.counts

(* Per-column summand of [flops]: the symbolic cost estimate the parallel
   runtime's cost-balanced partitions are built from (columns and
   supernodes of a level set are far from equal-cost, so equal-count
   chunking leaves workers idle). *)
let col_flops (counts : int array) : float array =
  Array.map (fun c -> let f = float_of_int c in f *. f) counts
