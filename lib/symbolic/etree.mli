open Sympiler_sparse

(** The elimination tree (etree) of a symmetric positive definite matrix —
    the central graph structure of sparse factorization symbolic analysis
    (§3.2): [parent j = min { i > j : L(i,j) <> 0 }], a spanning forest of
    the filled graph. *)

val compute : Csc.t -> int array
(** [compute a_lower]: parent array of the etree ([-1] for roots), from the
    lower-triangular part of A. Liu's algorithm with path-compressed
    virtual ancestors, nearly O(|A|). Raises
    [Invalid_argument "Etree.compute: …"] unless the input is a square
    lower-triangular pattern that satisfies the CSC invariant. *)

val compute_naive : Csc.t -> int array
(** Test oracle: parents read off an explicit set-based symbolic
    factorization. Quadratic; small inputs only. *)

val children : int array -> int list array
(** Children lists (increasing order) from a parent array. *)

val n_children : int array -> int array
(** Child counts — the paper's supernode rule needs "j-1 is the only child
    of j". *)

val roots : int array -> int list
(** Indices with no parent (one per connected component). *)

val depths : int array -> int array
(** Depth of each node; roots have depth 0. *)

val path_to_root : int array -> int -> int array
(** [path_to_root parent j]: the nodes from [j] to its root, inclusive, in
    child-to-root order — the inspection set of the §3.3 rank-update
    method. Raises [Invalid_argument] when [j] is out of range. *)

type path_table = {
  pt_parent : int array;
  pt_paths : int array array;  (** [[||]] = not yet computed *)
  mutable pt_hits : int;  (** lookups served from the table *)
  mutable pt_misses : int;  (** lookups that computed (and cached) a path *)
}
(** Memoized per-node path table: the symbolic phase of a {e repeated}
    rank update is a single array read. *)

val make_path_table : int array -> path_table
(** A table over [parent] with every path unset. O(n) allocation, no
    paths computed up front. *)

val path : path_table -> int -> int array
(** The (cached) path from a node to its root; allocates only on the
    first lookup of each node. The returned array is shared — callers
    must not mutate it. *)
