open Sympiler_sparse

(** [A = L D L^T] factorization (unit-diagonal L, diagonal D): handles
    symmetric {e indefinite} but strongly regular matrices that plain
    Cholesky rejects — one of the "other matrix methods" of §3.3 whose
    symbolic analysis is exactly the Cholesky inspectors'. Decoupled:
    {!compile} precomputes prune-sets, L's pattern, and the transpose
    gather map; {!factor} is numeric-only up-looking. *)

exception Zero_pivot of int

type compiled = Cholesky_ref.up_looking = {
  fill : Sympiler_symbolic.Fill_pattern.t;
  up_colptr : int array;
  up_rowind : int array;
  up_map : int array;
}
(** Cholesky's up-looking inspection sets ({!Cholesky_ref.up_looking}). *)

type factors = {
  l : Csc.t;  (** unit lower triangular, unit diagonal stored *)
  d : float array;  (** the diagonal of D (may contain negative pivots) *)
}

val compile : ?upper:Csc.Unsafe.upper_pattern -> Csc.t -> compiled
(** Symbolic phase over the lower-triangular part of A; [upper] shares
    its upper triangle ({!Cholesky_ref.up_looking}). *)

val factor : compiled -> Csc.t -> factors
(** Numeric phase; raises {!Zero_pivot} on a structurally unlucky zero.
    Allocates fresh factors per call; use a {!plan} for allocation-free
    steady state. *)

(** {2 Plans} *)

type plan = {
  c : compiled;
  lx : float array;  (** values of L, plan-owned *)
  nzcount : int array;  (** per-column fill cursor *)
  y : float array;  (** sparse accumulator *)
  f : factors;  (** factor view over the plan's storage *)
}

val make_plan : compiled -> plan

val factor_ip : plan -> Csc.t -> unit
(** Numeric factorization into the plan's storage ([plan.f] afterwards);
    zero allocation in steady state, reusable even after {!Zero_pivot}. *)

val factorize : Csc.t -> factors
(** [compile] + [factor] in one call. *)

val solve : factors -> float array -> float array
(** [A x = b]: forward solve, diagonal scaling, backward solve. *)
