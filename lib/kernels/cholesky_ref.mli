open Sympiler_sparse
open Sympiler_symbolic

(** Non-supernodal (simplicial) sparse Cholesky [A = L L^T], input given as
    the lower-triangular part of A in CSC form. Two variants: the
    Eigen-like library baseline whose numeric phase still performs coupled
    symbolic work, and the fully decoupled Sympiler form. *)

exception Not_positive_definite of int
(** Raised at the offending column; the same exception as
    {!Dense_blas.Not_positive_definite}. *)

(** Eigen-style baseline: the symbolic phase ("analyzePattern") computes
    only the elimination tree and column counts; the numeric phase, like
    Eigen's SimplicialLLT, transposes A and recomputes every row pattern
    with etree up-traversals — the residual symbolic work §4.2 calls out. *)
module Eigen : sig
  type analysis = { n : int; parent : int array; l_colptr : int array }

  val analyze : Csc.t -> analysis
  (** Symbolic phase: etree + counts (storage allocation only). *)

  val factor : analysis -> Csc.t -> Csc.t
  (** Numeric phase (up-looking), including the transpose and the pattern
      up-traversals. *)
end

(** The inspection sets of an up-looking factorization, shared by
    {!Decoupled} and {!Ldlt}: one fill analysis (its row lists are the
    prune-sets, its column pattern is L's storage) and the transpose
    gather map of lower(A). Every array is read in place. *)
type up_looking = {
  fill : Fill_pattern.t;
  up_colptr : int array;  (** structure of the transpose of lower(A) *)
  up_rowind : int array;
  up_map : int array;
      (** entry [q] of the transpose reads [values.(up_map.(q))] *)
}

val up_looking :
  ?fill:Fill_pattern.t -> ?upper:Csc.Unsafe.upper_pattern -> Csc.t -> up_looking
(** The sets of lower(A); pass [fill] to share an already-computed
    analysis, and [upper] (lower(A)'s upper triangle, e.g. the by-row
    bucket of {!Csc.Unsafe.permute_lower}) to share a transpose: the
    analysis and the gather map then both read it. Without [upper],
    lower(A) is checked and transposed once, and
    [Invalid_argument "Cholesky_ref.up_looking: …"] is raised unless it is
    a square lower-triangular pattern that satisfies the CSC invariant.
    With [upper], whose type says lower(A) was checked when it was built
    ({!Csc.Unsafe}), only its size is checked against lower(A)'s. *)

val l_over : Fill_pattern.t -> float array -> Csc.t
(** [l_over fill lx]: the factor view over values [lx] and the analysis'
    own column pattern (shared, not copied: read-only). *)

(** Decoupled Sympiler variant (the Cholesky VI-Prune baseline of
    Figure 7): prune-sets, the full pattern of L, and a transpose gather
    map are precomputed, so the numeric phase touches numbers only. *)
module Decoupled : sig
  type compiled = { up : up_looking; flops : float }

  val compile :
    ?fill:Fill_pattern.t -> ?upper:Csc.Unsafe.upper_pattern -> Csc.t -> compiled
  (** Compile-time symbolic factorization; pass [fill] and [upper] to
      share an already-computed analysis and transpose ({!up_looking}). *)

  val factor : compiled -> Csc.t -> Csc.t
  (** Numeric-only factorization: identical arithmetic to [Eigen.factor]
      with zero symbolic work. Allocates a fresh factor per call; use a
      {!plan} for allocation-free steady state. *)

  (** {2 Plans} *)

  type plan = {
    c : compiled;
    lx : float array;  (** values of L, plan-owned *)
    nzcount : int array;  (** per-column fill cursor *)
    x : float array;  (** sparse accumulator *)
    l : Csc.t;
        (** factor view sharing [lx] and the analysis' column pattern;
            refreshed by {!factor_ip} *)
  }

  val make_plan : compiled -> plan

  val factor_ip : plan -> Csc.t -> unit
  (** Numeric factorization into the plan's storage; zero allocation in
      steady state, reusable even after {!Not_positive_definite}. *)
end

val factor_simple : Csc.t -> Csc.t
(** One-shot convenience: [Eigen.analyze] + [Eigen.factor]. *)

val solve_ip : Csc.t -> float array -> unit
(** [solve_ip l x] overwrites [x] with the solution of [A x = x] given the
    factor L: {!Stages.solve_pair_ip}, then both sweeps' flops,
    [2 (2 nnz(L) - n)], and entries, [2 nnz(L)], added to the metrics. *)

val solve_with_factor : Csc.t -> float array -> float array
(** [A x = b] given the factor L: a copy of [b] and {!solve_ip}. *)
