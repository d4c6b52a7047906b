open Sympiler_sparse

(** Row sparsity patterns of the Cholesky factor via elimination-tree
    up-traversal ("ereach", Davis §4.2): the pattern of row [k] of L is the
    set of nodes on etree paths from the nonzeros of [A(0:k-1, k)] up
    towards [k]. Summed over all rows the cost is O(|L|) — this is how
    {!Fill_pattern.analyze} computes prune-sets, counts and the full
    pattern of L. *)

type workspace
(** Reusable marks + stack; create once per matrix. *)

val make_workspace : int -> workspace

val row_pattern :
  upper:Csc.t -> parent:int array -> work:workspace -> int -> int array
(** [row_pattern ~upper ~parent ~work k]: the columns [j < k] with
    [L(k,j) <> 0], sorted ascending (a valid dependence order for
    lower-triangular solves). [upper] is the transpose of the stored lower
    part of A (column [k] holds the row indices [i <= k]). *)

val row_reach_ip :
  upper:Csc.t -> parent:int array -> work:workspace -> int -> int
(** The set of {!row_pattern} in discovery order, unsorted and in place:
    returns [len], and the set is [(stack work).(0 .. len-1)], valid until
    the next call on the same workspace. For callers that only count
    entries or sort in place (the walk of {!Fill_pattern}), with no
    allocation per row. *)

val stack : workspace -> int array
(** The workspace's stack, where {!row_reach_ip} leaves each row's set. *)

val row_pattern_naive : Csc.t -> int -> int array
(** Test oracle via an explicit dense symbolic factorization; takes the
    lower part of A directly. *)
