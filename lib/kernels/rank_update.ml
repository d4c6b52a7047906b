open Sympiler_sparse
open Sympiler_symbolic

(* Sparse rank-1 update/downdate of a Cholesky factorization:
   given L with A = L L^T, compute the factor of A + sigma w w^T in place,
   touching only the columns on the elimination-tree path from w's minimum
   index to the root — the rank-update method of §3.3 (Davis & Hager;
   CSparse's cs_updown), whose required symbolic analysis is a single-node
   etree up-traversal, i.e. exactly one of Sympiler's inspection
   strategies.

   Requirement (as in CSparse): the pattern of w must be a subset of the
   pattern of L's column jmin, where jmin is w's minimum index — then the
   factor's pattern does not change and the numeric phase is decoupled.
   This is not merely CSparse's convention: an update is representable in
   L's existing pattern IF AND ONLY IF the precondition holds (by the
   fill-clique lemma, two rows in one column of L imply the corresponding
   L entry exists), so a violation always means structural growth and the
   caller must recompile — see the facade's escalation path.

   Plans ([make_plan]/[update_raw]) own every workspace, so steady-state
   updates allocate nothing; the per-jmin etree path is memoized in an
   {!Etree.path_table}, so a repeated update's symbolic phase is a table
   read. A failed downdate rolls the path's values back before re-raising,
   so the plan stays reusable like the other families' pivot-failure
   paths. *)

module Metrics = Sympiler_metrics.Metrics

exception Not_positive_definite = Dense_blas.Not_positive_definite
exception Pattern_violation of int

(* ------------------------------ validation ------------------------------ *)

(* A malformed w (unsorted, duplicated, or out-of-range indices) used to
   corrupt L silently: the minimum index was read off [indices.(0)] and the
   scatter overwrote duplicates. Validate up front — O(|w|). *)
let validate ~who ~n (wi : int array) (len : int) : unit =
  for k = 0 to len - 1 do
    let i = wi.(k) in
    if i < 0 || i >= n then
      invalid_arg (who ^ ": w index out of range");
    if k > 0 && wi.(k - 1) >= i then
      invalid_arg (who ^ ": w indices must be sorted and unique")
  done

(* Precondition check against column jmin of L. Both index sets are
   sorted, so a single merge scan does it in O(|L(:,jmin)|). *)
let check_subset (l : Csc.t) (wi : int array) (len : int) (jmin : int) : unit =
  let li = l.Csc.rowind in
  let hi = l.Csc.colptr.(jmin + 1) in
  let lo = ref l.Csc.colptr.(jmin) in
  for k = 0 to len - 1 do
    let i = wi.(k) in
    while !lo < hi && li.(!lo) < i do
      incr lo
    done;
    if !lo >= hi || li.(!lo) <> i then raise (Pattern_violation i)
  done

(* --------------------------- numeric core ------------------------------- *)

(* In-place Davis–Hager update along [path]. [wx] holds the scattered
   update vector scaled by sqrt|sigma| (the rank-1 magnitude folds into
   the vector); [pos] selects update (true) vs downdate. A bool rather
   than a sign float so hot callers never box a freshly computed float to
   cross the call boundary (the zero-alloc contract). Raises
   [Not_positive_definite] when a downdate destroys positive definiteness;
   the caller owns rollback and scatter cleanup. *)
let apply_along_path (l : Csc.t) (wx : float array) (path : int array)
    (pos : bool) : unit =
  let lp = l.Csc.colptr and li = l.Csc.rowind and lx = l.Csc.values in
  let sgn = if pos then 1.0 else -1.0 in
  let beta = ref 1.0 in
  for t = 0 to Array.length path - 1 do
    let j = path.(t) in
    let p0 = lp.(j) in
    let alpha = wx.(j) /. lx.(p0) in
    let beta2_sq = (!beta *. !beta) +. (sgn *. alpha *. alpha) in
    if beta2_sq <= 0.0 then raise (Not_positive_definite j);
    let beta2 = sqrt beta2_sq in
    let delta = if sgn > 0.0 then !beta /. beta2 else beta2 /. !beta in
    let gamma = sgn *. alpha /. (beta2 *. !beta) in
    lx.(p0) <-
      (delta *. lx.(p0)) +. (if sgn > 0.0 then gamma *. wx.(j) else 0.0);
    beta := beta2;
    for p = p0 + 1 to lp.(j + 1) - 1 do
      let i = li.(p) in
      let w1 = wx.(i) in
      let w2 = w1 -. (alpha *. lx.(p)) in
      wx.(i) <- w2;
      lx.(p) <- (delta *. lx.(p)) +. (gamma *. (if sgn > 0.0 then w1 else w2))
    done
  done

(* --------------------------- legacy one-shots --------------------------- *)

type compiled = {
  path : int array; (* etree path from jmin to the root *)
}

(* Symbolic phase: the update path. *)
let compile ~(parent : int array) (w : Vector.sparse) : compiled =
  let len = Array.length w.Vector.indices in
  if len = 0 then { path = [||] }
  else begin
    validate ~who:"Rank_update.compile" ~n:(Array.length parent)
      w.Vector.indices len;
    { path = Etree.path_to_root parent w.Vector.indices.(0) }
  end

(* Check the CSparse precondition; raises [Pattern_violation] otherwise. *)
let check_pattern (l : Csc.t) (w : Vector.sparse) : unit =
  let len = Array.length w.Vector.indices in
  if len > 0 then begin
    validate ~who:"Rank_update.check_pattern" ~n:l.Csc.ncols w.Vector.indices
      len;
    check_subset l w.Vector.indices len w.Vector.indices.(0)
  end

(* Numeric phase: in-place update of [l]'s values along the path.
   One-shot spelling — it allocates its scatter (and, for a downdate, a
   rollback snapshot of the path columns); plans make both plan-owned. *)
let apply ?(sigma = 1.0) (c : compiled) (l : Csc.t) (w : Vector.sparse) : unit
    =
  if Array.length c.path > 0 && sigma <> 0.0 then begin
    let len = Array.length w.Vector.indices in
    validate ~who:"Rank_update.apply" ~n:l.Csc.ncols w.Vector.indices len;
    let wx = Array.make l.Csc.ncols 0.0 in
    let s = sqrt (Float.abs sigma) in
    for k = 0 to len - 1 do
      wx.(w.Vector.indices.(k)) <- s *. w.Vector.values.(k)
    done;
    let pos = sigma > 0.0 in
    if not pos then begin
      (* Snapshot the path columns so a rejected downdate is
         non-destructive even through this one-shot entry point. *)
      let lp = l.Csc.colptr and lx = l.Csc.values in
      let total = ref 0 in
      Array.iter (fun j -> total := !total + lp.(j + 1) - lp.(j)) c.path;
      let snap = Array.make (max 1 !total) 0.0 in
      let off = ref 0 in
      Array.iter
        (fun j ->
          let w = lp.(j + 1) - lp.(j) in
          Array.blit lx lp.(j) snap !off w;
          off := !off + w)
        c.path;
      try apply_along_path l wx c.path pos
      with Not_positive_definite _ as e ->
        let off = ref 0 in
        Array.iter
          (fun j ->
            let w = lp.(j + 1) - lp.(j) in
            Array.blit snap !off lx lp.(j) w;
            off := !off + w)
          c.path;
        raise e
    end
    else apply_along_path l wx c.path pos
  end

(* Convenience: symbolic + numeric in one call, with the pattern check. *)
let update ?(sigma = 1.0) ~(parent : int array) (l : Csc.t)
    (w : Vector.sparse) : unit =
  check_pattern l w;
  apply ~sigma (compile ~parent w) l w

(* A sparse vector with the pattern of column [j] of [l] (below and
   including the diagonal), scaled by [scale] — always a legal update
   vector for [l]. Handy for tests and for the rank-update use cases the
   paper cites (column additions/removals in optimization solvers). *)
let vector_like (l : Csc.t) ~(j : int) ~(scale : float) : Vector.sparse =
  let lo = l.Csc.colptr.(j) and hi = l.Csc.colptr.(j + 1) in
  {
    Vector.n = l.Csc.ncols;
    indices = Array.sub l.Csc.rowind lo (hi - lo);
    values = Array.init (hi - lo) (fun t -> scale *. l.Csc.values.(lo + t));
  }

(* ------------------------------- plans ---------------------------------- *)

(* The etree of the factor, read straight off its (sorted, diagonal-first)
   pattern: parent j = first off-diagonal row index of column j. *)
let parent_of_factor (l : Csc.t) : int array =
  let n = l.Csc.ncols in
  let parent = Array.make n (-1) in
  for j = 0 to n - 1 do
    if l.Csc.colptr.(j + 1) - l.Csc.colptr.(j) > 1 then
      parent.(j) <- l.Csc.rowind.(l.Csc.colptr.(j) + 1)
  done;
  parent

type plan = {
  l : Csc.t; (* borrowed factor view; values mutated in place *)
  n : int;
  parent : int array; (* etree, derived from the factor pattern *)
  tbl : Etree.path_table; (* memoized jmin -> path *)
  wx : float array; (* scatter workspace, all-zero between calls *)
  snap : float array; (* downdate rollback buffer (nnz L worst case) *)
  (* incremental refactorization: position-driven up-looking re-run *)
  a_colptr : int array; (* input pattern (compiled order), aliased *)
  up_colptr : int array; (* transpose of the input pattern + gather map *)
  up_rowind : int array;
  up_map : int array;
  rt_ptr : int array; (* transpose of L's pattern: row patterns ... *)
  rt_ind : int array;
  rt_pos : int array; (* ... with write positions into l.values *)
  prev : float array; (* input values at the last recorded refactor *)
  mutable prev_valid : bool;
  mark : int array; (* column-closure stamps *)
  rmark : int array; (* affected-row stamps *)
  mutable stamp : int;
  cols : int array; (* changed-column closure C (path union) *)
  rows : int array; (* affected-row set R (column-pattern union) *)
}

let make_plan ~(a_pattern : Csc.t) (l : Csc.t) : plan =
  let n = l.Csc.ncols in
  if a_pattern.Csc.ncols <> n then
    invalid_arg "Rank_update.make_plan: input pattern does not match factor";
  let parent = parent_of_factor l in
  let up_colptr, up_rowind, up_map = Csc.transpose_map a_pattern in
  let rt_ptr, rt_ind, rt_pos = Csc.transpose_map l in
  {
    l;
    n;
    parent;
    tbl = Etree.make_path_table parent;
    wx = Array.make n 0.0;
    snap = Array.make (max 1 (Csc.nnz l)) 0.0;
    a_colptr = a_pattern.Csc.colptr;
    up_colptr;
    up_rowind;
    up_map;
    rt_ptr;
    rt_ind;
    rt_pos;
    prev = Array.make (max 1 (Csc.nnz a_pattern)) 0.0;
    prev_valid = false;
    mark = Array.make n (-1);
    rmark = Array.make n (-1);
    stamp = 0;
    cols = Array.make (max 1 n) 0;
    rows = Array.make (max 1 n) 0;
  }

(* Memoized path lookup, feeding the path counters (a hit is the steady
   state: the whole symbolic phase of the update collapsed into one array
   read). *)
let plan_path (tbl : Etree.path_table) (jmin : int) : int array =
  let m0 = tbl.Etree.pt_misses in
  let path = Etree.path tbl jmin in
  Metrics.inc
    (if tbl.Etree.pt_misses > m0 then Metrics.updown_path_misses
     else Metrics.updown_path_hits)
    1;
  path

let snapshot_path (pl : plan) (path : int array) : unit =
  let lp = pl.l.Csc.colptr and lx = pl.l.Csc.values in
  let off = ref 0 in
  for t = 0 to Array.length path - 1 do
    let j = path.(t) in
    let w = lp.(j + 1) - lp.(j) in
    Array.blit lx lp.(j) pl.snap !off w;
    off := !off + w
  done

let restore_path (pl : plan) (path : int array) : unit =
  let lp = pl.l.Csc.colptr and lx = pl.l.Csc.values in
  let off = ref 0 in
  for t = 0 to Array.length path - 1 do
    let j = path.(t) in
    let w = lp.(j + 1) - lp.(j) in
    Array.blit pl.snap !off lx lp.(j) w;
    off := !off + w
  done

(* Every index the numeric loop touches in [wx] lies on the path (any row
   of a path column is an etree ancestor, hence itself on the path), so
   zeroing along the path restores the all-zero invariant. *)
let clear_path (wx : float array) (path : int array) : unit =
  for t = 0 to Array.length path - 1 do
    wx.(path.(t)) <- 0.0
  done

(* The plans' update entry point, over raw index/value arrays the caller
   has validated and sorted (the facade's update gather) — no vector is
   built. [neg] logically negates [sigma] (a downdate request): the magnitude
   only feeds sqrt|sigma| and the direction is a bool, so the sign flip
   never materializes a fresh boxed float on the zero-alloc path. *)
let update_raw (pl : plan) ~(neg : bool) ~(sigma : float) (wi : int array)
    (wv : float array) (len : int) : unit =
  let jmin = wi.(0) in
  check_subset pl.l wi len jmin;
  let path = plan_path pl.tbl jmin in
  let s = sqrt (Float.abs sigma) in
  for k = 0 to len - 1 do
    pl.wx.(wi.(k)) <- s *. wv.(k)
  done;
  let pos = sigma > 0.0 <> neg in
  if not pos then snapshot_path pl path;
  (try apply_along_path pl.l pl.wx path pos
   with Not_positive_definite _ as e ->
     if not pos then restore_path pl path;
     clear_path pl.wx path;
     raise e);
  clear_path pl.wx path;
  (* The factor no longer matches the last recorded input values. *)
  pl.prev_valid <- false

(* --------------------- incremental refactorization ---------------------- *)

(* Record the input values (compiled order) the factor was computed from;
   [refactor_cols_ip] diffs against them. *)
let note_refactor (pl : plan) (av : float array) : unit =
  let nnz = pl.a_colptr.(pl.n) in
  if Array.length av <> nnz then
    invalid_arg "Rank_update.note_refactor: input nnz mismatch";
  Array.blit av 0 pl.prev 0 nnz;
  pl.prev_valid <- true

let prev_valid (pl : plan) : bool = pl.prev_valid

(* In-place heapsort of [a.(0..len)], ascending. Zero allocation. *)
let heapsort (a : int array) (len : int) : unit =
  let sift root last =
    let r = ref root in
    let continue = ref true in
    while !continue do
      let child = (2 * !r) + 1 in
      if child > last then continue := false
      else begin
        let child =
          if child + 1 <= last && a.(child + 1) > a.(child) then child + 1
          else child
        in
        if a.(!r) >= a.(child) then continue := false
        else begin
          let t = a.(!r) in
          a.(!r) <- a.(child);
          a.(child) <- t;
          r := child
        end
      end
    done
  in
  for root = (len - 2) / 2 downto 0 do
    sift root (len - 1)
  done;
  for last = len - 1 downto 1 do
    let t = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- t;
    sift 0 (last - 1)
  done

(* Recompute row [k] of L with the up-looking kernel, writes driven by the
   precomputed transpose positions instead of fill cursors — this is what
   makes recomputing an arbitrary subset of rows possible. Arithmetic is
   identical (same operands, same order) to a full up-looking
   factorization, so recomputed rows are bitwise what a from-scratch
   simplicial refactor would produce. *)
let recompute_row (pl : plan) (av : float array) (k : int) : unit =
  let lp = pl.l.Csc.colptr
  and li = pl.l.Csc.rowind
  and lx = pl.l.Csc.values in
  let x = pl.wx in
  let d = ref 0.0 in
  for p = pl.up_colptr.(k) to pl.up_colptr.(k + 1) - 1 do
    let i = pl.up_rowind.(p) in
    if i = k then d := av.(pl.up_map.(p))
    else if i < k then x.(i) <- av.(pl.up_map.(p))
  done;
  for q = pl.rt_ptr.(k) to pl.rt_ptr.(k + 1) - 1 do
    let j = pl.rt_ind.(q) in
    if j < k then begin
      let lkj = x.(j) /. lx.(lp.(j)) in
      x.(j) <- 0.0;
      let hi = lp.(j + 1) in
      let p = ref (lp.(j) + 1) in
      while !p < hi && li.(!p) < k do
        x.(li.(!p)) <- x.(li.(!p)) -. (lx.(!p) *. lkj);
        incr p
      done;
      d := !d -. (lkj *. lkj);
      lx.(pl.rt_pos.(q)) <- lkj
    end
  done;
  if !d <= 0.0 then raise (Not_positive_definite k);
  lx.(lp.(k)) <- sqrt !d

(* Incremental refactorization: diff the new input values against the
   recorded baseline, close the changed columns over their etree paths
   (the §3.3 single-path inspector, batched), take the union of those
   columns' L patterns as the affected rows, and recompute exactly those
   rows in ascending order. Returns the number of rows recomputed.
   Requires a recorded baseline ([note_refactor]); rank updates invalidate
   it (the factor then belongs to a different matrix), and the facade
   falls back to a full refactor in that case. *)
let refactor_cols_ip (pl : plan) (av : float array) : int =
  if not pl.prev_valid then
    invalid_arg
      "Rank_update.refactor_cols_ip: no recorded baseline (full refactor \
       required first)";
  let nnz = pl.a_colptr.(pl.n) in
  if Array.length av <> nnz then
    invalid_arg "Rank_update.refactor_cols_ip: input nnz mismatch";
  pl.stamp <- pl.stamp + 1;
  let stamp = pl.stamp in
  (* Changed columns, closed over their paths to the root. The mark array
     short-circuits shared path suffixes, so the closure is O(|C|). *)
  let ncols = ref 0 in
  for c = 0 to pl.n - 1 do
    let changed = ref false in
    for p = pl.a_colptr.(c) to pl.a_colptr.(c + 1) - 1 do
      if av.(p) <> pl.prev.(p) then changed := true
    done;
    if !changed then begin
      let j = ref c in
      while !j >= 0 && pl.mark.(!j) <> stamp do
        pl.mark.(!j) <- stamp;
        pl.cols.(!ncols) <- !j;
        incr ncols;
        j := pl.parent.(!j)
      done
    end
  done;
  (* Affected rows: every row with an entry in a changed column. Rows that
     only read changed values are themselves in this union (a row of a
     column is an entry of that column), so the set is closed. *)
  let lp = pl.l.Csc.colptr and li = pl.l.Csc.rowind in
  let nrows = ref 0 in
  for t = 0 to !ncols - 1 do
    let c = pl.cols.(t) in
    for p = lp.(c) to lp.(c + 1) - 1 do
      let i = li.(p) in
      if pl.rmark.(i) <> stamp then begin
        pl.rmark.(i) <- stamp;
        pl.rows.(!nrows) <- i;
        incr nrows
      end
    done
  done;
  heapsort pl.rows !nrows;
  (try
     for t = 0 to !nrows - 1 do
       recompute_row pl av pl.rows.(t)
     done
   with e ->
     (* A failed recompute leaves partial rows and a dirty scatter: make
        the workspace clean again and force the facade's full-refactor
        fallback before the plan is trusted again. *)
     Array.fill pl.wx 0 pl.n 0.0;
     pl.prev_valid <- false;
     raise e);
  note_refactor pl av;
  !nrows

(* ----------------------- matrix recovery (escalation) ------------------- *)

(* lower(L L^T) over L's own pattern — the matrix the current factor
   represents, after any sequence of updates. The facade's escalation path
   rebuilds its input from this: the true matrix's pattern is a subset of
   pattern(L) (fill-clique lemma), so restricting to L's pattern loses
   nothing. For each output column j we scatter row j of L (the rt arrays
   give row patterns plus value positions) and dot it against the k <= j
   prefix of each row i in column j's pattern:
     M(i,j) = sum_{k <= j} L(i,k) L(j,k).
   Allocates the result (escalation is the rare path). *)
let current_matrix (pl : plan) : Csc.t =
  let l = pl.l in
  let lx = l.Csc.values in
  let wx = pl.wx in
  let nnz = Csc.nnz l in
  let values = Array.make nnz 0.0 in
  for j = 0 to pl.n - 1 do
    (* Scatter row j of L: wx.(k) = L(j,k) for k <= j. *)
    for q = pl.rt_ptr.(j) to pl.rt_ptr.(j + 1) - 1 do
      wx.(pl.rt_ind.(q)) <- lx.(pl.rt_pos.(q))
    done;
    for p = l.Csc.colptr.(j) to l.Csc.colptr.(j + 1) - 1 do
      let i = l.Csc.rowind.(p) in
      (* Dot row i's k <= j prefix against the scattered row j. Row
         entries come out of [transpose_map] column-sorted, so the prefix
         is a contiguous scan. *)
      let acc = ref 0.0 in
      let q = ref pl.rt_ptr.(i) in
      let hi = pl.rt_ptr.(i + 1) in
      while !q < hi && pl.rt_ind.(!q) <= j do
        acc := !acc +. (lx.(pl.rt_pos.(!q)) *. wx.(pl.rt_ind.(!q)));
        incr q
      done;
      values.(p) <- !acc
    done;
    for q = pl.rt_ptr.(j) to pl.rt_ptr.(j + 1) - 1 do
      wx.(pl.rt_ind.(q)) <- 0.0
    done
  done;
  Csc.create ~nrows:l.Csc.nrows ~ncols:pl.n
    ~colptr:(Array.copy l.Csc.colptr)
    ~rowind:(Array.copy l.Csc.rowind)
    ~values

(* ------------------------------ LDL^T ----------------------------------- *)

(* Rank-1 update of an LDL^T factorization (unit-diagonal L, diagonal D):
   the Gill–Golub–Murray–Saunders C1 recurrence. Unlike the Cholesky form
   it needs no square roots and carries sigma through the alpha recurrence
   directly, so update and downdate are one code path — and since LDL^T
   admits indefinite matrices, the only failure is an exactly-zero pivot
   ([Ldlt.Zero_pivot], matching the factor kernel). Both update and
   downdate snapshot the path for rollback: with an indefinite base either
   direction can hit a zero pivot. *)

type ldlt_plan = {
  lu : Csc.t; (* borrowed unit-lower factor view *)
  ld : float array; (* borrowed diagonal of D *)
  ln : int;
  lparent : int array;
  ltbl : Etree.path_table;
  lwx : float array; (* scatter workspace, all-zero between calls *)
  lsnap : float array; (* L-values rollback buffer *)
  ldsnap : float array; (* D rollback buffer (per path node) *)
}

let make_ldlt_plan (l : Csc.t) (d : float array) : ldlt_plan =
  let n = l.Csc.ncols in
  if Array.length d <> n then
    invalid_arg "Rank_update.make_ldlt_plan: diagonal length mismatch";
  let parent = parent_of_factor l in
  {
    lu = l;
    ld = d;
    ln = n;
    lparent = parent;
    ltbl = Etree.make_path_table parent;
    lwx = Array.make n 0.0;
    lsnap = Array.make (max 1 (Csc.nnz l)) 0.0;
    ldsnap = Array.make (max 1 n) 0.0;
  }

let ldlt_update_raw (pl : ldlt_plan) ~(neg : bool) ~(sigma : float)
    (wi : int array) (wv : float array) (len : int) : unit =
  let jmin = wi.(0) in
  check_subset pl.lu wi len jmin;
  let path = plan_path pl.ltbl jmin in
  for k = 0 to len - 1 do
    pl.lwx.(wi.(k)) <- wv.(k)
  done;
  let lp = pl.lu.Csc.colptr
  and li = pl.lu.Csc.rowind
  and lx = pl.lu.Csc.values in
  let d = pl.ld in
  (* Snapshot values and pivots along the path. *)
  let off = ref 0 in
  for t = 0 to Array.length path - 1 do
    let j = path.(t) in
    let w = lp.(j + 1) - lp.(j) in
    Array.blit lx lp.(j) pl.lsnap !off w;
    off := !off + w;
    pl.ldsnap.(t) <- d.(j)
  done;
  let a = ref (if neg then -.sigma else sigma) in
  (try
     for t = 0 to Array.length path - 1 do
       let j = path.(t) in
       let pj = pl.lwx.(j) in
       let dj = d.(j) in
       let dj' = dj +. (!a *. pj *. pj) in
       if dj' = 0.0 then raise (Ldlt.Zero_pivot j);
       let b = pj *. !a /. dj' in
       a := dj *. !a /. dj';
       d.(j) <- dj';
       for p = lp.(j) + 1 to lp.(j + 1) - 1 do
         let i = li.(p) in
         pl.lwx.(i) <- pl.lwx.(i) -. (pj *. lx.(p));
         lx.(p) <- lx.(p) +. (b *. pl.lwx.(i))
       done
     done
   with e ->
     let off = ref 0 in
     for t = 0 to Array.length path - 1 do
       let j = path.(t) in
       let w = lp.(j + 1) - lp.(j) in
       Array.blit pl.lsnap !off lx lp.(j) w;
       off := !off + w;
       d.(j) <- pl.ldsnap.(t)
     done;
     clear_path pl.lwx path;
     raise e);
  clear_path pl.lwx path
