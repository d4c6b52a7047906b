open Sympiler_sparse

(* Dependence graph DG_L of a lower-triangular matrix L: vertices are
   columns, with an edge j -> i for every off-diagonal nonzero L(i,j). By the
   Gilbert-Peierls theorem the nonzero pattern of the solution of L x = b is
   Reach_L(beta), beta = pattern of b — computed here with a non-recursive
   depth-first search. *)

(* Reach set in topological order: every column appears before any column
   that depends on it, so a forward solve may process the set left to right.
   O(|b| + number of edges traversed). *)
let reach (l : Csc.t) (beta : int array) : int array =
  let n = l.Csc.ncols in
  let marked = Array.make n false in
  let out = Array.make n 0 in
  let out_top = ref n in
  (* Explicit DFS stack of (vertex, next edge position) pairs. *)
  let stack_v = Array.make n 0 in
  let stack_p = Array.make n 0 in
  let dfs start =
    if not marked.(start) then begin
      let top = ref 0 in
      stack_v.(0) <- start;
      stack_p.(0) <- l.Csc.colptr.(start);
      marked.(start) <- true;
      while !top >= 0 do
        let v = stack_v.(!top) in
        let p = ref stack_p.(!top) in
        let hi = l.Csc.colptr.(v + 1) in
        (* Skip the diagonal entry and already-marked successors. *)
        while
          !p < hi && (l.Csc.rowind.(!p) = v || marked.(l.Csc.rowind.(!p)))
        do
          incr p
        done;
        if !p < hi then begin
          let w = l.Csc.rowind.(!p) in
          stack_p.(!top) <- !p + 1;
          incr top;
          stack_v.(!top) <- w;
          stack_p.(!top) <- l.Csc.colptr.(w);
          marked.(w) <- true
        end
        else begin
          (* Post-order: all of v's descendants are emitted below it. *)
          decr out_top;
          out.(!out_top) <- v;
          decr top
        end
      done
    end
  in
  Array.iter dfs beta;
  Array.sub out !out_top (n - !out_top)

(* Reference implementation used as an oracle in tests: the reach set as a
   sorted list, computed by naive graph traversal. *)
let reach_naive (l : Csc.t) (beta : int array) : int array =
  let n = l.Csc.ncols in
  let marked = Array.make n false in
  let rec visit v =
    if not marked.(v) then begin
      marked.(v) <- true;
      Csc.iter_col l v (fun i _ -> if i <> v then visit i)
    end
  in
  Array.iter visit beta;
  let acc = ref [] in
  for v = n - 1 downto 0 do
    if marked.(v) then acc := v :: !acc
  done;
  Array.of_list !acc

(* Check that [order] is a valid topological order of DG_L restricted to the
   given set: for every edge j -> i inside the set, j appears before i. *)
let is_topological (l : Csc.t) (order : int array) : bool =
  let n = l.Csc.ncols in
  let pos = Array.make n (-1) in
  Array.iteri (fun k v -> pos.(v) <- k) order;
  let ok = ref true in
  Array.iter
    (fun j ->
      Csc.iter_col l j (fun i _ ->
          if i <> j && pos.(i) >= 0 && pos.(i) <= pos.(j) then ok := false))
    order;
  !ok

(* Share of the columns j < n-1 with an edge j -> j+1, i.e. L(j+1, j)
   stored: how far natural order is one long dependence chain, where each
   column waits for the previous one. Rows are sorted and the diagonal
   comes first, so the edge, when present, is the column's second entry:
   O(n), allocation-free. 0 when n < 2. *)
let chain_share (l : Csc.t) : float =
  let n = l.Csc.ncols in
  let lp = l.Csc.colptr and li = l.Csc.rowind in
  let linked = ref 0 in
  for j = 0 to n - 2 do
    let p = lp.(j) + 1 in
    if p < lp.(j + 1) && li.(p) = j + 1 then incr linked
  done;
  if n < 2 then 0.0 else float_of_int !linked /. float_of_int (n - 1)

(* Level order of DG_L taken window by window. The columns are cut into
   runs of [window] consecutive columns; within a run, column j's level is
   the longest path to it from the run's own columns (edges from earlier
   runs are satisfied by then), and the run is listed by level, ascending
   index within a level. Every edge therefore points to a later run or a
   higher level: the result is a topological order. One pass per run
   finalizes its levels, because all of j's predecessors have smaller
   index. Returns [(level_ptr, order)]: level [l] (counted over all runs)
   occupies [order.(level_ptr.(l)) .. order.(level_ptr.(l+1) - 1)]. Besides
   the two results, only window-sized scratch is allocated. *)
let level_order ~(window : int) (l : Csc.t) : int array * int array =
  if window < 1 then invalid_arg "Dep_graph.level_order: window < 1";
  let n = l.Csc.ncols in
  let lp = l.Csc.colptr and li = l.Csc.rowind in
  let order = Array.make n 0 in
  let level = Array.make (min window n) 0 in
  let runs = ref [] in
  let base = ref 0 in
  while !base < n do
    let b = !base in
    let hi = min n (b + window) in
    Array.fill level 0 (hi - b) 0;
    let depth = ref 0 in
    for j = b to hi - 1 do
      let lj = level.(j - b) in
      if lj >= !depth then depth := lj + 1;
      for p = lp.(j) + 1 to lp.(j + 1) - 1 do
        let i = li.(p) in
        if i < hi && level.(i - b) <= lj then level.(i - b) <- lj + 1
      done
    done;
    (* Counting sort of the run by level: [start.(d)] is level d's first
       slot, then its next one. *)
    let start = Array.make (!depth + 1) 0 in
    for j = b to hi - 1 do
      let d = level.(j - b) + 1 in
      start.(d) <- start.(d) + 1
    done;
    for d = 1 to !depth do
      start.(d) <- start.(d) + start.(d - 1)
    done;
    runs := Array.init !depth (fun d -> b + start.(d)) :: !runs;
    for j = b to hi - 1 do
      let d = level.(j - b) in
      order.(b + start.(d)) <- j;
      start.(d) <- start.(d) + 1
    done;
    base := hi
  done;
  (Array.concat (List.rev ([| n |] :: !runs)), order)
