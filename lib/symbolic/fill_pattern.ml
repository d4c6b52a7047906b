open Sympiler_sparse

(* Symbolic Cholesky factorization: the full nonzero pattern of L (fill-ins
   included) computed before any numeric work, so that storage for L can be
   allocated once and no dynamic index arrays remain in the numeric phase —
   the property Sympiler's code generation relies on. *)

(* Result of symbolic analysis for A = L L^T. The per-row prune-sets live
   packed in an int32 [Bigstore] rather than a boxed [int array array]:
   at 10^6 rows a jagged representation roughly doubles the memory of the
   symbolic result (8-byte entries plus a header and pointer per row).
   Kernels that need allocation-free numeric reads flatten the store into
   plain int arrays at compile time (Bigstore.ptr / Bigstore.flatten). *)
type t = {
  n : int;
  parent : int array; (* elimination tree *)
  l_pattern : Csc.t; (* pattern of L, unit values; rows sorted ascending *)
  counts : int array; (* counts.(j) = nnz(L(:,j)) including the diagonal *)
  row_store : Bigstore.t;
      (* segment k = columns j < k with L(k,j) <> 0, ascending — the
         per-column prune-sets of the Cholesky VI-Prune transformation *)
}

let row_ptr t = Bigstore.ptr t.row_store
let row_pattern t k = Bigstore.segment t.row_store k
let iter_row_pattern t k f = Bigstore.iter_segment t.row_store k f
let row_patterns t = Bigstore.to_arrays t.row_store
let row_store t = t.row_store

(* The walk [analyze] and [col_counts] share: one transpose of lower(A)
   feeds both the etree and the per-row ereach, which counts every entry
   of L into its column and hands each row's pattern, in row order
   (unsorted, in the workspace stack), to [row stack len]. *)
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
    row stack len
  done;
  Sympiler_trace.Trace.end_span ();
  (parent, counts)

(* Etree and column counts alone: no row store, no pattern of L. The
   cheap baseline for decisions that only need nnz(L) or the flop model
   (the ordering stage's natural-order comparison, [Explain]). *)
let col_counts (a_lower : Csc.t) : int array * int array =
  walk a_lower ~row:(fun _ _ -> ())

(* O(|L|) analysis from the lower-triangular part of A via [Ereach],
   timed by its "symbolic.fill" span. *)
let analyze (a_lower : Csc.t) : t =
  Sympiler_trace.Trace.with_span "symbolic.fill" @@ fun () ->
  let n = a_lower.Csc.ncols in
  let builder =
    Bigstore.Builder.create ~segments_hint:n
      ~capacity:(max 16 (4 * Csc.nnz a_lower))
      ()
  in
  (* First pass: row patterns, sorted and packed as they are produced (the
     builder copies the workspace stack out as int32), and column counts. *)
  let parent, counts =
    walk a_lower ~row:(fun stack len ->
        Utils.sort_int_range stack 0 len;
        Bigstore.Builder.append_segment builder stack len)
  in
  let row_store = Bigstore.Builder.finish builder in
  (* Second pass: scatter into column-major storage. Row indices within a
     column arrive in increasing k, hence sorted. *)
  let colptr = Array.make (n + 1) 0 in
  Array.blit counts 0 colptr 0 n;
  let nnz = Utils.cumsum colptr in
  let rowind = Array.make nnz 0 in
  let next = Array.sub colptr 0 n in
  let row = ref 0 in
  let put j =
    rowind.(next.(j)) <- !row;
    next.(j) <- next.(j) + 1
  in
  for k = 0 to n - 1 do
    row := k;
    (* Diagonal of column k. *)
    put k;
    Bigstore.iter_segment row_store k put
  done;
  let l_pattern =
    Csc.create ~nrows:n ~ncols:n ~colptr ~rowind
      ~values:(Array.make nnz 1.0)
  in
  if Sympiler_trace.Trace.enabled () then begin
    Sympiler_trace.Trace.set_attr "n" (Sympiler_trace.Trace.Int n);
    Sympiler_trace.Trace.set_attr "nnz_l" (Sympiler_trace.Trace.Int nnz)
  end;
  { n; parent; l_pattern; counts; row_store }

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

let nnz_l t = Csc.nnz t.l_pattern

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
