open Sympiler_sparse

(* Supernode detection. A supernode is a range of consecutive columns of L
   with identical below-diagonal structure (and a dense diagonal block) that
   the VS-Block transformation turns into dense sub-kernels.

   Two detectors are provided, matching the paper's Table 1:
   - [detect_exact]: node equivalence on the dependence graph — columns are
     merged when their outgoing edge sets (below-diagonal patterns) coincide.
     Works on any lower-triangular pattern, used for triangular solve.
   - [detect_etree]: the Cholesky rule of §3.2 — merge columns j-1 and j when
     nnz(L(:,j-1)) = nnz(L(:,j)) + 1 and j-1 is the only child of j in the
     elimination tree. Needs only counts + etree, not the full pattern. *)

type t = {
  sn_ptr : int array; (* length nsuper+1; supernode s = cols [sn_ptr.(s), sn_ptr.(s+1)) *)
  col_to_sn : int array; (* inverse map *)
}

let nsuper t = Array.length t.sn_ptr - 1
let width t s = t.sn_ptr.(s + 1) - t.sn_ptr.(s)

let of_boundaries ~n starts =
  (* [starts] lists the first column of each supernode, ascending, head 0. *)
  let sn_ptr = Array.of_list (starts @ [ n ]) in
  let col_to_sn = Array.make n 0 in
  for s = 0 to Array.length sn_ptr - 2 do
    for j = sn_ptr.(s) to sn_ptr.(s + 1) - 1 do
      col_to_sn.(j) <- s
    done
  done;
  { sn_ptr; col_to_sn }

(* Columns j-1 and j of [l] are structurally mergeable when the pattern of
   column j equals the pattern of column j-1 with its leading (diagonal)
   entry removed. *)
let mergeable_exact (l : Csc.t) j =
  let lo0 = l.Csc.colptr.(j - 1) and hi0 = l.Csc.colptr.(j) in
  let lo1 = hi0 and hi1 = l.Csc.colptr.(j + 1) in
  hi0 - lo0 = hi1 - lo1 + 1
  &&
  let rec eq p q = q >= hi1 || (l.Csc.rowind.(p) = l.Csc.rowind.(q) && eq (p + 1) (q + 1)) in
  eq (lo0 + 1) lo1

let detect ?(max_width = max_int) ~mergeable n =
  Sympiler_trace.Trace.begin_span "symbolic.supernode_detection";
  let starts = ref [ 0 ] and cur_start = ref 0 in
  for j = 1 to n - 1 do
    let w = j - !cur_start in
    if w < max_width && mergeable j then ()
    else begin
      starts := j :: !starts;
      cur_start := j
    end
  done;
  let t = of_boundaries ~n (List.rev !starts) in
  (* VS-Block statistics: one block-set detection's supernode count and
     covered columns (avg width = cols / supernodes in the aggregate). *)
  Sympiler_metrics.Metrics.(inc supernodes (nsuper t));
  Sympiler_metrics.Metrics.(inc supernode_cols n);
  if Sympiler_trace.Trace.enabled () then begin
    Sympiler_trace.Trace.set_attr "supernodes"
      (Sympiler_trace.Trace.Int (nsuper t));
    Sympiler_trace.Trace.set_attr "avg_width"
      (Sympiler_trace.Trace.Float
         (if nsuper t = 0 then 0.0
          else float_of_int n /. float_of_int (nsuper t)))
  end;
  Sympiler_trace.Trace.end_span ();
  t

let detect_exact ?max_width (l : Csc.t) : t =
  if l.Csc.ncols = 0 then { sn_ptr = [| 0 |]; col_to_sn = [||] }
  else detect ?max_width ~mergeable:(mergeable_exact l) l.Csc.ncols

let detect_etree ?max_width ~(counts : int array) ~(parent : int array) () : t =
  let n = Array.length counts in
  if n = 0 then { sn_ptr = [| 0 |]; col_to_sn = [||] }
  else begin
    let nchild = Etree.n_children parent in
    let mergeable j =
      counts.(j - 1) = counts.(j) + 1 && parent.(j - 1) = j && nchild.(j) = 1
    in
    detect ?max_width ~mergeable n
  end

let widths t = Array.init (nsuper t) (width t)

let avg_width t =
  let n = t.sn_ptr.(nsuper t) in
  if nsuper t = 0 then 0.0 else float_of_int n /. float_of_int (nsuper t)

(* Structural check used by tests: partition is contiguous, covers [0, n),
   and every supernode's columns share their below-block pattern. *)
let validate_against (l : Csc.t) t =
  let n = l.Csc.ncols in
  if t.sn_ptr.(0) <> 0 || t.sn_ptr.(nsuper t) <> n then false
  else begin
    let ok = ref true in
    for s = 0 to nsuper t - 1 do
      for j = t.sn_ptr.(s) + 1 to t.sn_ptr.(s + 1) - 1 do
        if not (mergeable_exact l j) then ok := false
      done
    done;
    !ok
  end
