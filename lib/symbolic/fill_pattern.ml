open Ix (* this library's own copy: lib/sparse's is private *)
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

(* Etree and column counts alone: no row lists, no pattern of L. The
   cheap baseline for decisions that only need nnz(L) or the flop model
   (the ordering stage's natural-order comparison, [Explain]). *)
let col_counts (a_lower : Csc.t) : int array * int array =
  let u =
    Csc.Unsafe.(
      upper_pattern (check_lower ~who:"Fill_pattern.col_counts" a_lower))
  in
  Walk.walk a_lower.Csc.ncols u.Csc.Unsafe.up_colptr u.Csc.Unsafe.up_rowind
    ~row:(fun _ _ _ -> ())

(* The walk's row buffer: nnz(L) is known only once the walk ends, so
   the rows go to a list of fixed-size chunks, each entry packed in 4
   bytes (a column index is below n < 2^31). A chunk holds [chunk >= n]
   entries, so a row (fewer than n entries) is never split: a row that
   does not fit the current chunk opens the next one, and the decoder
   replays that rule to find each row's chunk. The buffer is garbage once
   decoded; the chunks keep it within one chunk of its payload, with no
   copy as it grows. *)
type row_buffer = {
  chunk : int;
  mutable chunks : Bytes.t array;
  mutable nchunks : int;
  mutable base : int;  (** index of the current chunk's first entry *)
}

(* Whether a row of [len] entries from index [top] opens a new chunk. *)
let opens (b : row_buffer) ~base top len = top - base + len > b.chunk

let new_chunk (b : row_buffer) top =
  if b.nchunks = Array.length b.chunks then begin
    let grown = Array.make (2 * b.nchunks) Bytes.empty in
    Array.blit b.chunks 0 grown 0 b.nchunks;
    b.chunks <- grown
  end;
  b.chunks.(b.nchunks) <- Bytes.create (4 * b.chunk);
  b.nchunks <- b.nchunks + 1;
  b.base <- top

(* O(|L|) analysis from the upper triangle of lower(A) (column k lists
   the rows i <= k of row k of lower(A), in any order), timed by its
   "symbolic.fill" span. The walk yields each row's pattern unsorted and
   appends it to the row buffer. No row is sorted by comparison: the
   buffer is scattered into the column pattern in row order, which sorts
   every column by construction, and the row lists are the transpose of
   that pattern without its diagonal, sorted by construction too. The
   loops run unchecked. They stay in bounds on any row array once the
   column pointers are valid: the walk climbs the etree only from rows
   i < k of column k, so it visits fewer than n distinct nodes per row,
   and the scatters place exactly what the walk counted. *)
let analyze_upper n (uc : int array) (ur : int array) : t =
  Sympiler_trace.Trace.with_span "symbolic.fill" @@ fun () ->
  let buf =
    {
      chunk = max n 4096;
      chunks = Array.make 16 Bytes.empty;
      nchunks = 0;
      base = 0;
    }
  in
  new_chunk buf 0;
  let row_ptr = Array.make (n + 1) 0 in
  let parent, counts =
    Walk.walk n uc ur ~row:(fun k stack len ->
        let top = row_ptr.!(k) in
        if opens buf ~base:buf.base top len then new_chunk buf top;
        let b = buf.chunks.(buf.nchunks - 1) and off = top - buf.base in
        for i = 0 to len - 1 do
          set_int32 b (4 * (off + i)) (Int32.of_int stack.!(i))
        done;
        row_ptr.!(k + 1) <- top + len)
  in
  let nrow = row_ptr.!(n) in
  let l_colptr = Array.make (n + 1) 0 in
  Array.blit counts 0 l_colptr 0 n;
  let nnz = Utils.cumsum l_colptr in
  (* Column j starts with its diagonal, then receives the rows k > j in
     increasing k: sorted, diagonal first. Row k's entries are
     [get_int32 b (4 * (q - !base))] for q in [row_ptr.(k),
     row_ptr.(k+1)), b the chunk found by replaying the walk's rule to
     advance [c] and [base]. *)
  let l_rowind = Array.make nnz 0 and next = Array.make n 0 in
  for j = 0 to n - 1 do
    let p = l_colptr.!(j) in
    l_rowind.!(p) <- j;
    next.!(j) <- p + 1
  done;
  let c = ref 0 and base = ref 0 in
  for k = 0 to n - 1 do
    let lo = row_ptr.!(k) and hi = row_ptr.!(k + 1) in
    if opens buf ~base:!base lo (hi - lo) then begin
      incr c;
      base := lo
    end;
    let b = buf.chunks.(!c) and off = !base in
    for q = lo to hi - 1 do
      let j = Int32.to_int (get_int32 b (4 * (q - off))) in
      let p = next.!(j) in
      l_rowind.!(p) <- k;
      next.!(j) <- p + 1
    done
  done;
  (* The row lists, allocated once the buffer is decoded, so the peak
     holds the buffer beside one |L|-sized array only. *)
  let row_ind = Array.make nrow 0 in
  Array.blit row_ptr 0 next 0 n;
  for j = 0 to n - 1 do
    for p = l_colptr.!(j) + 1 to l_colptr.!(j + 1) - 1 do
      let k = l_rowind.!(p) in
      let q = next.!(k) in
      row_ind.!(q) <- j;
      next.!(k) <- q + 1
    done
  done;
  if Sympiler_trace.Trace.enabled () then begin
    Sympiler_trace.Trace.set_attr "n" (Sympiler_trace.Trace.Int n);
    Sympiler_trace.Trace.set_attr "nnz_l" (Sympiler_trace.Trace.Int nnz)
  end;
  { n; parent; counts; l_colptr; l_rowind; row_ptr; row_ind }

(* The column pointers are all [analyze_upper] needs checked: O(n). *)
let of_upper (u : Csc.Unsafe.upper_pattern) : t =
  let uc = u.Csc.Unsafe.up_colptr and ur = u.Csc.Unsafe.up_rowind in
  let n = Array.length uc - 1 in
  let malformed () =
    invalid_arg "Fill_pattern.of_upper: malformed column pointers"
  in
  if n < 0 || uc.(0) <> 0 || uc.(n) <> Array.length ur then malformed ();
  for k = 0 to n - 1 do
    if uc.!(k) > uc.!(k + 1) then malformed ()
  done;
  analyze_upper n uc ur

let analyze (a_lower : Csc.t) : t =
  let u =
    Csc.Unsafe.(upper_pattern (check_lower ~who:"Fill_pattern.analyze" a_lower))
  in
  analyze_upper a_lower.Csc.ncols u.Csc.Unsafe.up_colptr u.Csc.Unsafe.up_rowind

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
