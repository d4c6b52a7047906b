(* Coordinate-format (COO) builder used to assemble matrices entry by entry
   before conversion to CSC. Duplicate entries are summed on conversion, the
   convention used by FEM assembly and by Matrix Market readers. *)

open Ix

type t = {
  nrows : int;
  ncols : int;
  mutable len : int;
  mutable rows : int array;
  mutable cols : int array;
  mutable vals : float array;
}

let create ?(capacity = 16) ~nrows ~ncols () =
  if nrows < 0 || ncols < 0 then invalid_arg "Triplet.create: negative dims";
  let capacity = max capacity 1 in
  {
    nrows;
    ncols;
    len = 0;
    rows = Array.make capacity 0;
    cols = Array.make capacity 0;
    vals = Array.make capacity 0.0;
  }

let length t = t.len

let ensure_capacity t =
  if t.len >= Array.length t.rows then begin
    let cap = 2 * Array.length t.rows in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.len;
      b
    in
    t.rows <- grow t.rows 0;
    t.cols <- grow t.cols 0;
    t.vals <- grow t.vals 0.0
  end

let add t i j v =
  if i < 0 || i >= t.nrows || j < 0 || j >= t.ncols then
    invalid_arg
      (Printf.sprintf "Triplet.add: entry (%d,%d) out of %dx%d" i j t.nrows
         t.ncols);
  ensure_capacity t;
  t.rows.(t.len) <- i;
  t.cols.(t.len) <- j;
  t.vals.(t.len) <- v;
  t.len <- t.len + 1

(* Sum runs of duplicate rows within each column; column starts only
   move down, so colptr is rewritten in place. *)
let compact n colptr rowind values =
  let out = ref 0 and lo = ref 0 in
  for j = 0 to n - 1 do
    let hi = colptr.!(j + 1) in
    colptr.!(j) <- !out;
    let p = ref !lo in
    while !p < hi do
      let r = rowind.!(!p) in
      let v = ref 0.0 in
      while !p < hi && rowind.!(!p) = r do
        v := !v +. values.!.(!p);
        incr p
      done;
      rowind.!(!out) <- r;
      values.!.(!out) <- !v;
      incr out
    done;
    lo := hi
  done;
  colptr.!(n) <- !out;
  (colptr, Array.sub rowind 0 !out, Array.sub values 0 !out)

(* The (colptr, rowind, values) arrays of a CSC matrix with row indices
   strictly increasing within each column: two stable counting passes —
   by row, then by column — sort the entries, and a compaction pass sums
   duplicates when the second pass met any. O(len + nrows + ncols) whatever the column lengths. Both
   passes keep insertion order among equal keys, so duplicates of one
   (row, col) reach the compaction in the order they were added and are
   summed left to right. The record's fields are public, so [len] and
   every index are checked here (the indices in the counting pass that
   first reads them); the passes then run unchecked. *)
let to_csc_arrays t =
  let fail reason = invalid_arg ("Triplet.to_csc_arrays: " ^ reason) in
  let len = t.len and m = t.nrows and n = t.ncols in
  let rows = t.rows and cols = t.cols and vals = t.vals in
  if m < 0 || n < 0 then fail "negative dimensions";
  if
    len < 0
    || len > Array.length rows
    || len > Array.length cols
    || len > Array.length vals
  then fail "len exceeds the entry arrays";
  (* Counts of both passes. *)
  let rowptr = Array.make (m + 1) 0 and colptr = Array.make (n + 1) 0 in
  for k = 0 to len - 1 do
    let i = rows.!(k) and j = cols.!(k) in
    if i < 0 || i >= m || j < 0 || j >= n then fail "index out of range";
    rowptr.!(i) <- rowptr.!(i) + 1;
    colptr.!(j) <- colptr.!(j) + 1
  done;
  (* Pass 1: bucket by row. Only the column and value travel; the row of a
     slot is implied by its bucket. *)
  let _ = Utils.cumsum rowptr in
  let next = Array.sub rowptr 0 m in
  let by_row_col = Array.make len 0 and by_row_val = Array.make len 0.0 in
  for k = 0 to len - 1 do
    let i = rows.!(k) in
    let q = next.!(i) in
    by_row_col.!(q) <- cols.!(k);
    by_row_val.!.(q) <- vals.!.(k);
    next.!(i) <- q + 1
  done;
  (* Pass 2: bucket by column, walking rows in ascending order. A row
     equal to the one just placed in its column is a duplicate. Each
     value is stored as a sum from 0.0, the sum the compaction forms, so
     with or without duplicates the arrays are the same (a lone -0.0
     stores as 0.0). *)
  let _ = Utils.cumsum colptr in
  let next = Array.sub colptr 0 n in
  let rowind = Array.make len 0 and values = Array.make len 0.0 in
  let dups = ref false in
  for i = 0 to m - 1 do
    for q = rowptr.!(i) to rowptr.!(i + 1) - 1 do
      let j = by_row_col.!(q) in
      let p = next.!(j) in
      if p > colptr.!(j) && rowind.!(p - 1) = i then dups := true;
      rowind.!(p) <- i;
      values.!.(p) <- 0.0 +. by_row_val.!.(q);
      next.!(j) <- p + 1
    done
  done;
  if !dups then compact n colptr rowind values else (colptr, rowind, values)
