(* Compressed sparse column (CSC) matrices: the storage format used by the
   paper ({n, Lp, Li, Lx}). Row indices are kept strictly increasing within
   each column; [validate] checks the invariant and every constructor
   establishes it. The transposes and [check] index through [Ix]'s
   operators: unchecked outside the [checked] profile, behind [check]. *)

open Ix

type t = {
  nrows : int;
  ncols : int;
  colptr : int array; (* length ncols+1; colptr.(ncols) = nnz *)
  rowind : int array; (* row index of each stored entry *)
  values : float array; (* numeric value of each stored entry *)
}

let nnz t = t.colptr.(t.ncols)

(* The invariant every unchecked loop of this library relies on, in one
   O(ncols + nnz) pass. Once colptr is known to run from 0 up to the
   length of rowind, every [p] of a column is a valid position, so the
   row scan itself reads without bounds checks; a column's rows are in
   range when they strictly increase from a first row >= 0 to a last row
   below [nrows]. [lower] adds to [square]: no row above the diagonal. *)
let check ~who ?(values = true) ?(square = false) ?(lower = false) t =
  let fail reason = invalid_arg (who ^ ": " ^ reason) in
  let n = t.ncols and cp = t.colptr and ri = t.rowind in
  if t.nrows < 0 || n < 0 then fail "negative dimensions";
  if (square || lower) && t.nrows <> n then fail "matrix is not square";
  if Array.length cp <> n + 1 then fail "colptr length is not ncols + 1";
  if cp.(0) <> 0 then fail "colptr does not start at 0";
  for j = 0 to n - 1 do
    if cp.!(j) > cp.!(j + 1) then fail "decreasing colptr"
  done;
  if Array.length ri <> cp.(n) then
    fail "colptr.(ncols) does not match the rowind length";
  if values && Array.length t.values <> cp.(n) then
    fail "colptr.(ncols) does not match the values length";
  for j = 0 to n - 1 do
    let lo = cp.!(j) and hi = cp.!(j + 1) in
    if lo < hi then begin
      if ri.!(lo) < 0 || ri.!(hi - 1) >= t.nrows then
        fail "row index out of range";
      for p = lo + 1 to hi - 1 do
        if ri.!(p) <= ri.!(p - 1) then
          fail "unsorted or duplicate rows in a column"
      done;
      if lower && ri.!(lo) < j then fail "input is not lower triangular"
    end
  done

let validate t = check ~who:"Csc.validate" t

let create ~nrows ~ncols ~colptr ~rowind ~values =
  let t = { nrows; ncols; colptr; rowind; values } in
  validate t;
  t

let of_triplet (tr : Triplet.t) =
  let colptr, rowind, values =
    try Triplet.to_csc_arrays tr
    with Invalid_argument m -> invalid_arg ("Csc.of_triplet: " ^ m)
  in
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

(* The transposes. Each public entry checks its input, then runs one
   unchecked builder: column pointers of the transpose from a counting
   pass, and a copy of their heads that the fill loop advances as each
   column's cursor. Rows of the result ascend because the source columns
   are scanned in order. *)
let transpose_ptrs t =
  let counts = Array.make (t.nrows + 1) 0 in
  let ri = t.rowind in
  for p = 0 to nnz t - 1 do
    let i = ri.!(p) in
    counts.!(i) <- counts.!(i) + 1
  done;
  let _ = Utils.cumsum counts in
  (counts, Array.sub counts 0 t.nrows)

let transpose_unchecked ~values ~map t =
  let colptr, next = transpose_ptrs t in
  let nz = nnz t in
  let cp = t.colptr and ri = t.rowind and v = t.values in
  let rowind = Array.make nz 0 in
  let tv = if values then Array.make nz 0.0 else [||] in
  let tm = if map then Array.make nz 0 else [||] in
  for j = 0 to t.ncols - 1 do
    for p = cp.!(j) to cp.!(j + 1) - 1 do
      let i = ri.!(p) in
      let q = next.!(i) in
      rowind.!(q) <- j;
      if values then tv.!.(q) <- v.!.(p);
      if map then tm.!(q) <- p;
      next.!(i) <- q + 1
    done
  done;
  (colptr, rowind, tv, tm)

let transpose t =
  check ~who:"Csc.transpose" t;
  let colptr, rowind, values, _ =
    transpose_unchecked ~values:true ~map:false t
  in
  { nrows = t.ncols; ncols = t.nrows; colptr; rowind; values }

(* Structure of the transpose together with a gather map: entry q of the
   transpose reads its value from [values.(map.(q))] of the original matrix.
   Sympiler's Cholesky uses this to hoist the numeric-phase transpose the
   paper attributes to Eigen/CHOLMOD into symbolic analysis: at run time a
   cheap gather through [map] replaces building the transpose. *)
let transpose_map t =
  check ~who:"Csc.transpose_map" ~values:false t;
  let colptr, rowind, _, map = transpose_unchecked ~values:false ~map:true t in
  (colptr, rowind, map)

(* The compile path's entries that trust a pattern checked once (see
   csc.mli): a checked lower(A), its upper triangle, and the permutation
   that builds both. *)
module Unsafe = struct
  type checked_lower = t

  let check_lower ~who ?(values = false) t =
    check ~who ~values ~lower:true t;
    t

  (* The upper triangle of a checked lower(A), as the pattern of its
     transpose with the gather map into lower(A)'s entries: built here by
     [upper_pattern], or as the by-row bucket of [permute_lower]. *)
  type upper_pattern = {
    up_colptr : int array;
    up_rowind : int array;
    up_map : int array Lazy.t;
  }

  (* The gather map of an upper triangle [(uc, ur)] of [l]: entry q,
     (row i, column k), is entry (k, i) of [l]. Column i of [l] stores its
     rows k ascending and the columns k of the upper triangle are scanned
     in ascending order, so a cursor per column of [l] meets the entries
     in storage order, whatever the order of the rows within a column of
     the upper triangle. *)
  let upper_map (l : checked_lower) uc ur =
    let n = l.ncols in
    let next = Array.sub l.colptr 0 n in
    let map = Array.make (nnz l) 0 in
    for k = 0 to n - 1 do
      for q = uc.!(k) to uc.!(k + 1) - 1 do
        let i = ur.!(q) in
        let p = next.!(i) in
        map.!(q) <- p;
        next.!(i) <- p + 1
      done
    done;
    map

  (* The pattern now, the map when a consumer forces it: the fill
     analysis and the etree read no map. *)
  let upper_pattern (l : checked_lower) : upper_pattern =
    let up_colptr, up_rowind, _, _ =
      transpose_unchecked ~values:false ~map:false l
    in
    { up_colptr; up_rowind; up_map = lazy (upper_map l up_colptr up_rowind) }

  (* lower(P sym(A) P^T) from a checked lower(A), [pinv] taking each old
     index to its new one: stored entry (i, j) lands at
     (max (pinv i) (pinv j), min (pinv i) (pinv j)). Two counting passes.
     The first buckets the entries by permuted row; the second walks the
     rows in order and places each entry in its permuted column, so every
     column's rows come out ascending with no sort. The by-row bucket is
     the upper triangle of the result: its map is rewritten from source to
     result positions as the second pass places each entry. Values are
     carried when the input has nnz of them, else zeros (a pattern-only
     input). *)
  let permute_lower ~who ~pinv (a : checked_lower) :
      checked_lower * int array * upper_pattern =
    let n = a.ncols in
    if Array.length pinv <> n then
      invalid_arg (who ^ ": permutation length does not match n");
    let rowptr = Array.make (n + 1) 0 in
    for k = 0 to n - 1 do
      let i = pinv.(k) in
      if i < 0 || i >= n || rowptr.(i) <> 0 then
        invalid_arg (who ^ ": not a valid permutation of [0, n)");
      rowptr.(i) <- 1
    done;
    Array.fill rowptr 0 n 0;
    let cp = a.colptr and ri = a.rowind in
    let nz = cp.(n) in
    for j = 0 to n - 1 do
      let pj = pinv.!(j) in
      for q = cp.!(j) to cp.!(j + 1) - 1 do
        let pi = pinv.!(ri.!(q)) in
        let r = if pi > pj then pi else pj in
        rowptr.!(r) <- rowptr.!(r) + 1
      done
    done;
    let _ = Utils.cumsum rowptr in
    let next = Array.sub rowptr 0 n in
    let colptr = Array.make (n + 1) 0 in
    let up_rowind = Array.make nz 0 and up_map = Array.make nz 0 in
    for j = 0 to n - 1 do
      let pj = pinv.!(j) in
      for q = cp.!(j) to cp.!(j + 1) - 1 do
        let pi = pinv.!(ri.!(q)) in
        let r = if pi > pj then pi else pj and c = if pi > pj then pj else pi in
        let s = next.!(r) in
        up_rowind.!(s) <- c;
        up_map.!(s) <- q;
        next.!(r) <- s + 1;
        colptr.!(c) <- colptr.!(c) + 1
      done
    done;
    let _ = Utils.cumsum colptr in
    Array.blit colptr 0 next 0 n;
    let rowind = Array.make nz 0 and map = Array.make nz 0 in
    for r = 0 to n - 1 do
      for s = rowptr.!(r) to rowptr.!(r + 1) - 1 do
        let c = up_rowind.!(s) in
        let k = next.!(c) in
        rowind.!(k) <- r;
        map.!(k) <- up_map.!(s);
        up_map.!(s) <- k;
        next.!(c) <- k + 1
      done
    done;
    let av = a.values in
    let values = Array.make nz 0.0 in
    if Array.length av = nz then
      for k = 0 to nz - 1 do
        values.!.(k) <- av.!.(map.!(k))
      done;
    ( { nrows = n; ncols = n; colptr; rowind; values },
      map,
      { up_colptr = rowptr; up_rowind; up_map = Lazy.from_val up_map } )
end

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
   stored twin, so the check rejects it; after the check the mirror runs
   unchecked, as the transposes do. *)
let symmetrize_from_lower t =
  check ~who:"Csc.symmetrize_from_lower" ~lower:true t;
  let n = t.ncols in
  let cp = t.colptr and ri = t.rowind and v = t.values in
  let colptr = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    colptr.!(j) <- colptr.!(j) + (cp.!(j + 1) - cp.!(j));
    for p = cp.!(j) to cp.!(j + 1) - 1 do
      let i = ri.!(p) in
      if i > j then colptr.!(i) <- colptr.!(i) + 1
    done
  done;
  let nnz = Utils.cumsum colptr in
  let next = Array.sub colptr 0 n in
  let rowind = Array.make nnz 0 in
  let values = Array.make nnz 0.0 in
  for j = 0 to n - 1 do
    for p = cp.!(j) to cp.!(j + 1) - 1 do
      let i = ri.!(p) in
      if i > j then begin
        let q = next.!(i) in
        rowind.!(q) <- j;
        values.!.(q) <- v.!.(p);
        next.!(i) <- q + 1
      end
    done
  done;
  for j = 0 to n - 1 do
    let dst = next.!(j) - cp.!(j) in
    for p = cp.!(j) to cp.!(j + 1) - 1 do
      rowind.!(dst + p) <- ri.!(p);
      values.!.(dst + p) <- v.!.(p)
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
