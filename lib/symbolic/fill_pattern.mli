open Sympiler_sparse

(** Symbolic Cholesky factorization: the complete nonzero pattern of L
    (fill-ins included), its column counts, and the per-row prune-sets —
    everything the numeric phase needs so that no dynamic index arrays
    remain, the property Sympiler's code generation relies on (§3.2). *)

(** Result of analyzing [A = L L^T]: L's structure as plain int arrays,
    built once by one etree and ereach walk, which every consumer reads in
    place (kernels, code generators and plans keep references to them, so
    treat every array as read-only). It holds no float array. *)
type t = {
  n : int;
  parent : int array;  (** elimination tree *)
  counts : int array;  (** [counts.(j)] = nnz(L(:,j)), diagonal included *)
  l_colptr : int array;  (** column pattern of L: pointers, length [n+1] *)
  l_rowind : int array;
      (** rows of column [j] at [l_rowind.(l_colptr.(j)) ..
          l_rowind.(l_colptr.(j+1)-1)], ascending, diagonal first *)
  row_ptr : int array;  (** row-list pointers, length [n+1] *)
  row_ind : int array;
      (** row [k]'s list at [row_ind.(row_ptr.(k)) .. row_ind.(row_ptr.(k+1)-1)]:
          the columns [j < k] with [L(k,j) <> 0], ascending — the
          per-column prune-sets of Cholesky's VI-Prune (the transpose of
          the column pattern without its diagonal) *)
}

val analyze : Csc.t -> t
(** O(|L|) symbolic factorization of the lower-triangular part of A, via
    the etree and the ereach walk ({!Etree}, {!Ereach}). Raises
    [Invalid_argument "Fill_pattern.analyze: …"] unless the input is a
    square lower-triangular pattern that satisfies the CSC invariant
    ({!Csc.check}); values are not read. *)

val of_upper : Csc.Unsafe.upper_pattern -> t
(** {!analyze} from the upper triangle of a checked lower(A) (its
    transpose, or the by-row bucket of {!Csc.Unsafe.permute_lower}),
    with no transpose of its own. The order of the rows within each
    column of the upper triangle does not change the result. It checks
    only the column pointers (O(n)), and raises
    [Invalid_argument "Fill_pattern.of_upper: …"] when they are
    malformed: the walk reads the rows only as etree starting points
    below the diagonal, so no row array makes it index out of bounds. *)

val col_counts : Csc.t -> int array * int array
(** [col_counts a_lower] is [(parent, counts)], equal to the [parent] and
    [counts] of {!analyze}, from the same etree and ereach walk but with
    no row lists and no pattern of L. nnz(L) is the sum of [counts].
    Checks its input as {!analyze} does. *)

val l_view : t -> Csc.t
(** The column pattern as a [Csc.t] that shares [l_colptr] and [l_rowind]
    and has no values ([values = [||]]): for the pattern-only consumers
    that take a matrix ({!Dep_graph}, {!Supernodes}, the sweep schedules).
    Not a valid input to anything that reads values. *)

val pattern_by_children : Csc.t -> Csc.t
(** Independent oracle implementing the paper's equation (1):
    [Lj = Aj ∪ {j} ∪ (∪_{j = T(s)} Ls \ {s})], with child lists
    precomputed from the etree. Asymptotically worse than {!analyze} (set
    unions); used by tests to cross-check it. *)

val nnz_l : t -> int

val flops : t -> float
(** Flop count of the numeric factorization under the standard
    [sum_j counts.(j)^2] model, used as the GFLOP/s numerator in the
    benchmark figures. *)

val flops_of_counts : int array -> float
(** {!flops} from a column-count array, e.g. the counts of {!col_counts}
    (bitwise equal to [flops] on the same counts). *)

val col_flops : int array -> float array
(** Per-column flop estimate from a column-count array ([counts.(j)^2],
    the summand of {!flops}) — the symbolic cost model behind the parallel
    runtime's cost-balanced level partitions. Accepts any counts array
    (e.g. derived from a factor's [colptr]), not just {!t.counts}. *)
