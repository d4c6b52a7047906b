(* Coordinate-format (COO) builder used to assemble matrices entry by entry
   before conversion to CSC. Duplicate entries are summed on conversion, the
   convention used by FEM assembly and by Matrix Market readers. *)

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

(* The (colptr, rowind, values) arrays of a CSC matrix with row indices
   strictly increasing within each column: two stable counting passes —
   by row, then by column — sort the entries, and a compaction pass sums
   duplicates. O(len + nrows + ncols) whatever the column lengths. Both
   passes keep insertion order among equal keys, so duplicates of one
   (row, col) reach the compaction in the order they were added and are
   summed left to right. *)
let to_csc_arrays t =
  let len = t.len and n = t.ncols in
  (* Pass 1: bucket by row. Only the column and value travel; the row of a
     slot is implied by its bucket. *)
  let rowptr = Array.make (t.nrows + 1) 0 in
  for k = 0 to len - 1 do
    rowptr.(t.rows.(k)) <- rowptr.(t.rows.(k)) + 1
  done;
  let _ = Utils.cumsum rowptr in
  let next = Array.sub rowptr 0 t.nrows in
  let by_row_col = Array.make len 0 and by_row_val = Array.make len 0.0 in
  for k = 0 to len - 1 do
    let i = t.rows.(k) in
    let q = next.(i) in
    by_row_col.(q) <- t.cols.(k);
    by_row_val.(q) <- t.vals.(k);
    next.(i) <- q + 1
  done;
  (* Pass 2: bucket by column, walking rows in ascending order. *)
  let colptr = Array.make (n + 1) 0 in
  for k = 0 to len - 1 do
    colptr.(t.cols.(k)) <- colptr.(t.cols.(k)) + 1
  done;
  let _ = Utils.cumsum colptr in
  let next = Array.sub colptr 0 n in
  let rowind = Array.make len 0 and values = Array.make len 0.0 in
  for i = 0 to t.nrows - 1 do
    for q = rowptr.(i) to rowptr.(i + 1) - 1 do
      let j = by_row_col.(q) in
      let p = next.(j) in
      rowind.(p) <- i;
      values.(p) <- by_row_val.(q);
      next.(j) <- p + 1
    done
  done;
  (* Compact duplicates, summing their values; column starts only move
     down, so colptr is rewritten in place. *)
  let out = ref 0 and lo = ref 0 in
  for j = 0 to n - 1 do
    let hi = colptr.(j + 1) in
    colptr.(j) <- !out;
    let p = ref !lo in
    while !p < hi do
      let r = rowind.(!p) in
      let v = ref 0.0 in
      while !p < hi && rowind.(!p) = r do
        v := !v +. values.(!p);
        incr p
      done;
      rowind.(!out) <- r;
      values.(!out) <- !v;
      incr out
    done;
    lo := hi
  done;
  colptr.(n) <- !out;
  if !out = len then (colptr, rowind, values)
  else (colptr, Array.sub rowind 0 !out, Array.sub values 0 !out)
