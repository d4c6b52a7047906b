open Ix

(* The unchecked loops of the symbolic analysis: the elimination tree
   and the row-by-row ereach walk over the upper triangle of lower(A),
   given as pattern arrays. A private module: the public entries of
   [Etree] and [Fill_pattern] check their input first, or the column
   pointers of a [Csc.Unsafe.upper_pattern]: these loops climb the etree
   only from rows i < k of column k, so every index they form is in
   range. *)

(* parent.(j) = parent column, or -1 for roots (Liu's algorithm with
   path-compressed virtual ancestors): column k of the upper triangle
   lists the i <= k with A(k, i) stored, in any order. *)
let etree n (uc : int array) (ur : int array) : int array =
  Sympiler_trace.Trace.with_span "symbolic.etree" @@ fun () ->
  let parent = Array.make n (-1) in
  let ancestor = Array.make n (-1) in
  for k = 0 to n - 1 do
    for p = uc.!(k) to uc.!(k + 1) - 1 do
      (* Walk from i up the current forest to its root, compressing. *)
      let i = ref ur.!(p) in
      while !i < k && !i >= 0 do
        let next = ancestor.!(!i) in
        ancestor.!(!i) <- k;
        if next = -1 then begin
          parent.!(!i) <- k;
          i := -1
        end
        else i := next
      done
    done
  done;
  parent

(* Row k of L without its diagonal, in discovery order: each entry of
   column k of the upper triangle climbs the etree until it reaches k or
   a node already marked for row k. The set is [stack.(0 .. len-1)] for
   the returned [len]. *)
let reach (uc : int array) (ur : int array) (parent : int array)
    (mark : int array) (stack : int array) k : int =
  let len = ref 0 in
  for p = uc.!(k) to uc.!(k + 1) - 1 do
    let i = ref ur.!(p) in
    while !i < k && !i >= 0 && mark.!(!i) <> k do
      mark.!(!i) <- k;
      stack.!(!len) <- !i;
      incr len;
      i := parent.!(!i)
    done
  done;
  !len

(* The walk every analysis shares: the etree, then each row's reach,
   counted into its columns and handed, in discovery order, to
   [row k stack len]. Returns [(parent, counts)]. *)
let walk n uc ur ~row : int array * int array =
  let parent = etree n uc ur in
  let mark = Array.make n (-1) and stack = Array.make n 0 in
  let counts = Array.make n 1 in
  Sympiler_trace.Trace.begin_span "symbolic.col_counts";
  for k = 0 to n - 1 do
    let len = reach uc ur parent mark stack k in
    for q = 0 to len - 1 do
      let j = stack.!(q) in
      counts.!(j) <- counts.!(j) + 1
    done;
    row k stack len
  done;
  Sympiler_trace.Trace.end_span ();
  (parent, counts)
