open Sympiler_sparse

(* Row sparsity patterns of the Cholesky factor L via elimination-tree
   up-traversal ("ereach", Davis, Direct Methods §4.2): the pattern of row k
   of L is the set of nodes on paths in the etree from the nonzeros of
   A(0:k-1, k) up towards k. Total cost over all rows is O(|L|).

   [upper] is the upper triangle of A in CSC form (column k holds the row
   indices i <= k of A(i,k)), i.e. the transpose of the stored lower part. *)

type workspace = {
  mark : int array; (* mark.(i) = k when i was visited while processing row k *)
  stack : int array;
}

let make_workspace n = { mark = Array.make n (-1); stack = Array.make n 0 }

(* Pattern of row k of L, diagonal excluded, in discovery order: each
   nonzero of column k of [upper] climbs the etree until it reaches k or a
   node already marked for row k. The result is
   [work.stack.(0 .. len-1)] for the returned [len], valid only until the
   next call on the same workspace. *)
let row_reach_ip ~(upper : Csc.t) ~(parent : int array) ~(work : workspace) k
    : int =
  let len = ref 0 in
  for p = upper.Csc.colptr.(k) to upper.Csc.colptr.(k + 1) - 1 do
    let i = ref upper.Csc.rowind.(p) in
    while !i < k && !i >= 0 && work.mark.(!i) <> k do
      work.mark.(!i) <- k;
      work.stack.(!len) <- !i;
      incr len;
      i := parent.(!i)
    done
  done;
  !len

(* The same pattern sorted ascending (which is a valid dependence order for
   lower-triangular systems), copied out of the workspace. *)
let row_pattern ~(upper : Csc.t) ~(parent : int array) ~(work : workspace) k :
    int array =
  let len = row_reach_ip ~upper ~parent ~work k in
  Utils.sort_int_range work.stack 0 len;
  Array.sub work.stack 0 len

(* Naive oracle used by tests: row pattern from an explicitly computed dense
   symbolic factorization. *)
let row_pattern_naive (a_lower : Csc.t) k : int array =
  let n = a_lower.Csc.ncols in
  let module S = Set.Make (Int) in
  let cols = Array.make n S.empty in
  Csc.iter a_lower (fun i j _ -> if i > j then cols.(j) <- S.add i cols.(j));
  for j = 0 to n - 1 do
    match S.min_elt_opt cols.(j) with
    | None -> ()
    | Some p -> cols.(p) <- S.union cols.(p) (S.remove p cols.(j))
  done;
  let acc = ref [] in
  for j = n - 1 downto 0 do
    if j < k && S.mem k cols.(j) then acc := j :: !acc
  done;
  Array.of_list !acc
