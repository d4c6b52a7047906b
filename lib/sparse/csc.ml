(* Compressed sparse column (CSC) matrices: the storage format used by the
   paper ({n, Lp, Li, Lx}). Row indices are kept strictly increasing within
   each column; [validate] checks the invariant and every constructor
   establishes it. *)

type t = {
  nrows : int;
  ncols : int;
  colptr : int array; (* length ncols+1; colptr.(ncols) = nnz *)
  rowind : int array; (* row index of each stored entry *)
  values : float array; (* numeric value of each stored entry *)
}

let nnz t = t.colptr.(t.ncols)

let validate t =
  let ok =
    Array.length t.colptr = t.ncols + 1
    && t.colptr.(0) = 0
    && Array.length t.rowind = nnz t
    && Array.length t.values = nnz t
  in
  if not ok then invalid_arg "Csc.validate: malformed pointer/index arrays";
  for j = 0 to t.ncols - 1 do
    if t.colptr.(j) > t.colptr.(j + 1) then
      invalid_arg "Csc.validate: decreasing colptr";
    if not (Utils.array_is_sorted_strict t.rowind t.colptr.(j) t.colptr.(j + 1))
    then invalid_arg "Csc.validate: unsorted or duplicate rows in a column";
    for p = t.colptr.(j) to t.colptr.(j + 1) - 1 do
      if t.rowind.(p) < 0 || t.rowind.(p) >= t.nrows then
        invalid_arg "Csc.validate: row index out of range"
    done
  done

let create ~nrows ~ncols ~colptr ~rowind ~values =
  let t = { nrows; ncols; colptr; rowind; values } in
  validate t;
  t

let of_triplet (tr : Triplet.t) =
  let colptr, rowind, values = Triplet.to_csc_arrays tr in
  { nrows = tr.Triplet.nrows; ncols = tr.Triplet.ncols; colptr; rowind; values }

let zero ~nrows ~ncols =
  {
    nrows;
    ncols;
    colptr = Array.make (ncols + 1) 0;
    rowind = [||];
    values = [||];
  }

let identity n =
  {
    nrows = n;
    ncols = n;
    colptr = Array.init (n + 1) (fun i -> i);
    rowind = Array.init n (fun i -> i);
    values = Array.make n 1.0;
  }

let col_nnz t j = t.colptr.(j + 1) - t.colptr.(j)

let iter_col t j f =
  for p = t.colptr.(j) to t.colptr.(j + 1) - 1 do
    f t.rowind.(p) t.values.(p)
  done

let iter t f =
  for j = 0 to t.ncols - 1 do
    for p = t.colptr.(j) to t.colptr.(j + 1) - 1 do
      f t.rowind.(p) j t.values.(p)
    done
  done

(* Binary search for row i within column j; O(log nnz(col)). *)
let get t i j =
  let lo = ref t.colptr.(j) and hi = ref (t.colptr.(j + 1) - 1) in
  let res = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = t.rowind.(mid) in
    if r = i then begin
      res := t.values.(mid);
      lo := !hi + 1
    end
    else if r < i then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let mem t i j =
  let lo = ref t.colptr.(j) and hi = ref (t.colptr.(j + 1) - 1) in
  let found = ref false in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = t.rowind.(mid) in
    if r = i then begin
      found := true;
      lo := !hi + 1
    end
    else if r < i then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let of_dense (d : float array array) =
  let nrows = Array.length d in
  let ncols = if nrows = 0 then 0 else Array.length d.(0) in
  let tr = Triplet.create ~nrows ~ncols () in
  for i = 0 to nrows - 1 do
    for j = 0 to ncols - 1 do
      if d.(i).(j) <> 0.0 then Triplet.add tr i j d.(i).(j)
    done
  done;
  of_triplet tr

(* Dense materialization is for tests and small oracles only; at large n an
   n x n float matrix OOMs long before any sparse structure does, so the
   bound fails fast instead of letting the allocator die. *)
let default_max_dense_elements = 1 lsl 26 (* 64M entries = 512 MB of floats *)

let to_dense ?(max_elements = default_max_dense_elements) t =
  if t.nrows * t.ncols > max_elements then
    invalid_arg
      (Printf.sprintf
         "Csc.to_dense: %dx%d dense materialization exceeds the %d-element \
          bound"
         t.nrows t.ncols max_elements);
  let d = Array.make_matrix t.nrows t.ncols 0.0 in
  iter t (fun i j v -> d.(i).(j) <- v);
  d

(* Column pointers of the transpose, and a copy of their heads that the
   fill loops advance as each column's cursor. *)
let transpose_ptrs t =
  let counts = Array.make (t.nrows + 1) 0 in
  for p = 0 to nnz t - 1 do
    counts.(t.rowind.(p)) <- counts.(t.rowind.(p)) + 1
  done;
  let _ = Utils.cumsum counts in
  (counts, Array.sub counts 0 t.nrows)

let transpose t =
  let colptr, next = transpose_ptrs t in
  let rowind = Array.make (nnz t) 0 in
  let values = Array.make (nnz t) 0.0 in
  for j = 0 to t.ncols - 1 do
    for p = t.colptr.(j) to t.colptr.(j + 1) - 1 do
      let i = t.rowind.(p) in
      let q = next.(i) in
      rowind.(q) <- j;
      values.(q) <- t.values.(p);
      next.(i) <- q + 1
    done
  done;
  { nrows = t.ncols; ncols = t.nrows; colptr; rowind; values }

let transpose_pattern t =
  let colptr, next = transpose_ptrs t in
  let rowind = Array.make (nnz t) 0 in
  for j = 0 to t.ncols - 1 do
    for p = t.colptr.(j) to t.colptr.(j + 1) - 1 do
      let i = t.rowind.(p) in
      rowind.(next.(i)) <- j;
      next.(i) <- next.(i) + 1
    done
  done;
  { nrows = t.ncols; ncols = t.nrows; colptr; rowind; values = [||] }

(* Structure of the transpose together with a gather map: entry q of the
   transpose reads its value from [values.(map.(q))] of the original matrix.
   Sympiler's Cholesky uses this to hoist the numeric-phase transpose the
   paper attributes to Eigen/CHOLMOD into symbolic analysis: at run time a
   cheap gather through [map] replaces building the transpose. *)
let transpose_map t =
  let colptr, next = transpose_ptrs t in
  let rowind = Array.make (nnz t) 0 in
  let map = Array.make (nnz t) 0 in
  for j = 0 to t.ncols - 1 do
    for p = t.colptr.(j) to t.colptr.(j + 1) - 1 do
      let i = t.rowind.(p) in
      let q = next.(i) in
      rowind.(q) <- j;
      map.(q) <- p;
      next.(i) <- q + 1
    done
  done;
  (colptr, rowind, map)

(* y = A * x *)
let spmv t x =
  if Array.length x <> t.ncols then invalid_arg "Csc.spmv: dimension";
  let y = Array.make t.nrows 0.0 in
  for j = 0 to t.ncols - 1 do
    let xj = x.(j) in
    if xj <> 0.0 then
      for p = t.colptr.(j) to t.colptr.(j + 1) - 1 do
        y.(t.rowind.(p)) <- y.(t.rowind.(p)) +. (t.values.(p) *. xj)
      done
  done;
  y

(* Column-major iteration preserves CSC order, so filtering needs no
   re-sort: count survivors per column, then copy them. Two passes — the
   predicate runs twice per entry — but no triplet round-trip and no
   resize churn. *)
let filter t keep =
  let n = t.ncols in
  let colptr = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    let c = ref 0 in
    for p = t.colptr.(j) to t.colptr.(j + 1) - 1 do
      if keep t.rowind.(p) j t.values.(p) then incr c
    done;
    colptr.(j + 1) <- colptr.(j) + !c
  done;
  let k = colptr.(n) in
  let rowind = Array.make k 0 in
  let values = Array.make k 0.0 in
  let out = ref 0 in
  for j = 0 to n - 1 do
    for p = t.colptr.(j) to t.colptr.(j + 1) - 1 do
      if keep t.rowind.(p) j t.values.(p) then begin
        rowind.(!out) <- t.rowind.(p);
        values.(!out) <- t.values.(p);
        incr out
      end
    done
  done;
  { nrows = t.nrows; ncols = n; colptr; rowind; values }

(* Lower-triangular part, diagonal included. Rows ascend within a column,
   so it is the run of each column from its first row >= j: one scan finds
   the run, one loop copies it, and no predicate runs per entry. *)
let lower t =
  let n = t.ncols in
  let first = Array.make n 0 in
  let colptr = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    let stop = t.colptr.(j + 1) in
    let p = ref t.colptr.(j) in
    while !p < stop && t.rowind.(!p) < j do
      incr p
    done;
    first.(j) <- !p;
    colptr.(j + 1) <- colptr.(j) + stop - !p
  done;
  let rowind = Array.make colptr.(n) 0 in
  let values = Array.make colptr.(n) 0.0 in
  for j = 0 to n - 1 do
    let shift = colptr.(j) - first.(j) in
    for p = first.(j) to t.colptr.(j + 1) - 1 do
      rowind.(shift + p) <- t.rowind.(p);
      values.(shift + p) <- t.values.(p)
    done
  done;
  { nrows = t.nrows; ncols = n; colptr; rowind; values }

let upper t = filter t (fun i j _ -> i <= j)
let strict_lower t = filter t (fun i j _ -> i > j)

let is_lower_triangular t =
  let ok = ref true in
  for j = 0 to t.ncols - 1 do
    for p = t.colptr.(j) to t.colptr.(j + 1) - 1 do
      if t.rowind.(p) < j then ok := false
    done
  done;
  !ok

(* Rebuild the full symmetric matrix from lower-triangular storage in
   O(n + nnz), without a triplet round trip: column j of the result holds
   the mirror images (i, j), i < j, of the stored entries (j, i), scattered
   in column order i so their rows ascend, followed by column j of the
   input. An entry above the diagonal would be mirrored on top of its
   stored twin, so it is rejected. *)
let symmetrize_from_lower t =
  if t.nrows <> t.ncols then invalid_arg "Csc.symmetrize_from_lower: square";
  let n = t.ncols in
  let colptr = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    colptr.(j) <- colptr.(j) + (t.colptr.(j + 1) - t.colptr.(j));
    for p = t.colptr.(j) to t.colptr.(j + 1) - 1 do
      let i = t.rowind.(p) in
      if i < j then
        invalid_arg
          "Csc.symmetrize_from_lower: input is not lower triangular";
      if i > j then colptr.(i) <- colptr.(i) + 1
    done
  done;
  let nnz = Utils.cumsum colptr in
  let next = Array.sub colptr 0 n in
  let rowind = Array.make nnz 0 in
  let values = Array.make nnz 0.0 in
  for j = 0 to n - 1 do
    for p = t.colptr.(j) to t.colptr.(j + 1) - 1 do
      let i = t.rowind.(p) in
      if i > j then begin
        let q = next.(i) in
        rowind.(q) <- j;
        values.(q) <- t.values.(p);
        next.(i) <- q + 1
      end
    done
  done;
  for j = 0 to n - 1 do
    let dst = next.(j) - t.colptr.(j) in
    for p = t.colptr.(j) to t.colptr.(j + 1) - 1 do
      rowind.(dst + p) <- t.rowind.(p);
      values.(dst + p) <- t.values.(p)
    done
  done;
  { nrows = n; ncols = n; colptr; rowind; values }

let map_values t f =
  { t with values = Array.map f t.values }

let pattern_equal a b =
  a.nrows = b.nrows && a.ncols = b.ncols
  && Utils.int_array_equal a.colptr b.colptr
  && Utils.int_array_equal a.rowind b.rowind

(* FNV-1a over the structural data (dims, colptr, rowind), mixing each int
   bytewise-equivalent as a single multiply/xor step. Collisions are
   resolved by [pattern_equal] at the caller (see Sympiler.Plan_cache), so
   the only requirement here is good dispersion, not cryptography. *)
let fnv_prime = 0x100000001b3
let fnv_offset = 0x3bf29ce484222325

let hash_fold_int h v = (h lxor v) * fnv_prime land max_int

let hash_fold_int_array h (a : int array) =
  let h = ref (hash_fold_int h (Array.length a)) in
  for i = 0 to Array.length a - 1 do
    h := hash_fold_int !h a.(i)
  done;
  !h

let pattern_hash t =
  let h = hash_fold_int fnv_offset t.nrows in
  let h = hash_fold_int h t.ncols in
  let h = hash_fold_int_array h t.colptr in
  hash_fold_int_array h t.rowind

let equal ?(eps = 1e-12) a b =
  pattern_equal a b
  &&
  let rec go p =
    p >= nnz a || (Utils.feq ~eps a.values.(p) b.values.(p) && go (p + 1))
  in
  go 0

(* C = A * B, classic Gustavson column-at-a-time sparse GEMM with a dense
   accumulator; result columns are sorted by construction of [of_triplet]. *)
let multiply a b =
  if a.ncols <> b.nrows then invalid_arg "Csc.multiply: dims";
  let tr = Triplet.create ~nrows:a.nrows ~ncols:b.ncols () in
  let acc = Array.make a.nrows 0.0 in
  let touched = Array.make a.nrows 0 in
  for j = 0 to b.ncols - 1 do
    let ntouched = ref 0 in
    for p = b.colptr.(j) to b.colptr.(j + 1) - 1 do
      let k = b.rowind.(p) in
      let bkj = b.values.(p) in
      for q = a.colptr.(k) to a.colptr.(k + 1) - 1 do
        let i = a.rowind.(q) in
        if acc.(i) = 0.0 then begin
          touched.(!ntouched) <- i;
          incr ntouched
        end;
        acc.(i) <- acc.(i) +. (a.values.(q) *. bkj)
      done
    done;
    for t = 0 to !ntouched - 1 do
      let i = touched.(t) in
      if acc.(i) <> 0.0 then Triplet.add tr i j acc.(i);
      acc.(i) <- 0.0
    done
  done;
  of_triplet tr

(* a + b, entrywise. *)
let add a b =
  if a.nrows <> b.nrows || a.ncols <> b.ncols then invalid_arg "Csc.add: dims";
  let tr = Triplet.create ~nrows:a.nrows ~ncols:a.ncols () in
  iter a (fun i j v -> Triplet.add tr i j v);
  iter b (fun i j v -> Triplet.add tr i j v);
  of_triplet tr

let scale t alpha = map_values t (fun v -> alpha *. v)

let pp ppf t =
  Fmt.pf ppf "@[<v>CSC %dx%d, nnz=%d" t.nrows t.ncols (nnz t);
  if nnz t <= 64 then
    iter t (fun i j v -> Fmt.pf ppf "@,(%d,%d) = %g" i j v);
  Fmt.pf ppf "@]"
