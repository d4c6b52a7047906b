open Sympiler_sparse

(** Sparse LU factorization (left-looking Gilbert-Peierls, no pivoting):
    [A = L U] with unit-diagonal L — the §3.3 extension whose symbolic
    needs are precisely the dependence-graph reach machinery. Intended for
    matrices that are numerically safe without pivoting (diagonally
    dominant or SPD). *)

exception Zero_pivot of int

type factors = {
  l : Csc.t;  (** unit lower triangular; unit diagonal stored first *)
  u : Csc.t;  (** upper triangular; diagonal stored last per column *)
}

(** Decoupled variant: all column patterns are computed once by a symbolic
    simulation of the factorization; the numeric phase runs no DFS. *)
module Sympiler : sig
  type compiled = {
    n : int;
    l_colptr : int array;
    l_rowind : int array;
    u_colptr : int array;
    u_rowind : int array;
    flops : float;
  }

  val compile : Csc.t -> compiled
  (** Symbolic LU: per-column reach sets over the growing DG_L. *)

  val factor : compiled -> Csc.t -> factors
  (** Numeric-only factorization for any matrix sharing the compiled
      pattern. Allocates fresh factors per call; use a {!plan} for
      allocation-free steady state. *)

  (** {2 Plans} *)

  type plan = {
    c : compiled;
    lx : float array;  (** values of L, plan-owned *)
    ux : float array;  (** values of U, plan-owned *)
    x : float array;  (** dense scatter column *)
    f : factors;
        (** factor views over the plan's storage and the compiled
            patterns *)
  }

  val make_plan : compiled -> plan

  val factor_ip : plan -> Csc.t -> unit
  (** Numeric factorization into the plan's storage ([plan.f] afterwards);
      zero allocation in steady state, reusable even after {!Zero_pivot}. *)
end

(** Library-style Gilbert-Peierls: the per-column symbolic DFS runs inside
    the numeric phase, with dynamically grown factors. *)
module Ref : sig
  val factor : Csc.t -> factors
end

val solve : factors -> float array -> float array
(** [A x = b] via forward (unit L) then backward (U) substitution. *)
