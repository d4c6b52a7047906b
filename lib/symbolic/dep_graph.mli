open Sympiler_sparse

(** The dependence graph DG_L of a lower-triangular matrix L (§1.1): one
    vertex per column, an edge [j -> i] for every off-diagonal nonzero
    [L(i,j)]. By the Gilbert-Peierls theorem, the nonzero pattern of the
    solution of [L x = b] is [Reach_L(beta)] with [beta] the pattern of
    [b] — the inspection set driving the VI-Prune transformation for
    triangular solve. *)

val reach : Csc.t -> int array -> int array
(** [reach l beta]: all columns reachable in DG_L from the vertices in
    [beta], returned in topological order (every column precedes the
    columns that depend on it, so a forward solve may process the result
    left to right). Non-recursive DFS, O(|beta| + edges traversed) — the
    cost never exceeds the numeric work it saves. *)

val reach_naive : Csc.t -> int array -> int array
(** Test oracle: the same set by naive traversal, returned sorted
    ascending. *)

val is_topological : Csc.t -> int array -> bool
(** [is_topological l order]: no edge inside the set points backwards —
    validates inspector output in tests. *)

val chain_share : Csc.t -> float
(** Share of the columns [j < n-1] with [L(j+1, j)] stored: how far
    natural order is one dependence chain, each column waiting for the
    previous one. Reads one index per column (rows sorted, diagonal
    first); [0.] when [n < 2]. *)

val level_order : window:int -> Csc.t -> int array * int array
(** [level_order ~window l]: a topological order of DG_L built window by
    window, as [(level_ptr, order)]. The columns are cut into runs of
    [window] consecutive columns; each run is listed by its level within
    the run (edges from earlier runs are already satisfied), ascending
    index within a level, and level [l] (counted over all runs) occupies
    [order.(level_ptr.(l)) .. order.(level_ptr.(l+1) - 1)]. With
    [window >= n] this is the global level schedule. Raises
    [Invalid_argument] when [window < 1]. *)
