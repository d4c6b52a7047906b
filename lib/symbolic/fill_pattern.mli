open Sympiler_sparse

(** Symbolic Cholesky factorization: the complete nonzero pattern of L
    (fill-ins included), its column counts, and the per-row prune-sets —
    everything the numeric phase needs so that no dynamic index arrays
    remain, the property Sympiler's code generation relies on (§3.2). *)

(** Result of analyzing [A = L L^T]. The per-row prune-sets are packed in
    an int32 {!Bigstore} (segment [k] = row [k]'s pattern) — half the
    memory of a jagged [int array array] at large n. *)
type t = {
  n : int;
  parent : int array;  (** elimination tree *)
  l_pattern : Csc.t;
      (** pattern of L (unit values), rows sorted ascending per column *)
  counts : int array;  (** [counts.(j)] = nnz(L(:,j)), diagonal included *)
  row_store : Bigstore.t;
      (** segment [k] = columns [j < k] with [L(k,j) <> 0], ascending — the
          per-column prune-sets of Cholesky's VI-Prune *)
}

val analyze : Csc.t -> t
(** O(|L|) symbolic factorization of the lower-triangular part of A, via
    {!Etree} + {!Ereach}. *)

val col_counts : Csc.t -> int array * int array
(** [col_counts a_lower] is [(parent, counts)], equal to the [parent] and
    [counts] of {!analyze}, from the same etree and ereach walk but with
    no row store and no pattern of L. nnz(L) is the sum of [counts]. *)

val row_ptr : t -> int array
(** Segment offsets of the packed row patterns (length [n+1]; row [k]
    occupies packed positions [row_ptr.(k) .. row_ptr.(k+1)-1]). Shared
    with the store — treat as read-only. *)

val row_pattern : t -> int -> int array
(** Allocating copy of row [k]'s pattern. *)

val iter_row_pattern : t -> int -> (int -> unit) -> unit
(** Apply a function to each column of row [k]'s pattern, ascending. *)

val row_patterns : t -> int array array
(** Allocating jagged copy of all row patterns (inspection sets, tests). *)

val row_store : t -> Bigstore.t
(** The packed store itself (for kernels that flatten it at compile time). *)

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
