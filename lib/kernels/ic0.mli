open Sympiler_sparse

(** Incomplete Cholesky with zero fill, IC(0): the factor keeps exactly the
    pattern of lower(A) (updates landing outside it are dropped). A §3.3
    method used as the preconditioner in [examples/precond_cg.ml]. On a
    matrix whose exact factor has no fill, IC(0) equals the exact factor. *)

exception Not_positive_definite of int
(** The same exception as {!Dense_blas.Not_positive_definite}. *)

type compiled = {
  n : int;
  colptr : int array;
  rowind : int array;
  row_ptr : int array;
      (** flattened row lists: row [j]'s update sources occupy
          [\[row_ptr.(j), row_ptr.(j+1))] *)
  row_col : int array;  (** columns [r < j] with [A(j,r) <> 0] *)
  row_pos : int array;  (** storage position of each such entry *)
  flops : int;
      (** pattern bound on one factorization's operations (updates
          attempted plus the sqrt/divide pass), credited to
          [Metrics.flops] per {!factor_ip} *)
}

val compile : Csc.t -> compiled
(** Precompute row lists and positions from the lower part of A, making the
    numeric phase decoupled. Column [j]'s pivot is its first stored entry;
    raises [Not_positive_definite j] when column [j] stores none. *)

val factor : compiled -> Csc.t -> Csc.t
(** Numeric IC(0); the input's values may change as long as the pattern
    matches the compiled one. Allocates a fresh factor per call; use a
    {!plan} for allocation-free steady state. *)

(** {2 Plans} *)

type plan = {
  c : compiled;
  lx : float array;  (** values of L, plan-owned *)
  pos : int array;  (** dense row→position scratch *)
  l : Csc.t;
      (** factor view sharing [lx] and the compiled pattern's arrays;
          refreshed by {!factor_ip} *)
}

val make_plan : compiled -> plan

val factor_ip : plan -> Csc.t -> unit
(** Numeric IC(0) into the plan's storage; zero allocation in steady
    state, reusable even after {!Not_positive_definite}. *)

val factorize : Csc.t -> Csc.t
(** [compile] + [factor]. *)
