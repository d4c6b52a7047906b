open Sympiler_sparse

(** Incomplete LU with zero fill, ILU(0), in the classic row-wise (IKJ)
    formulation: the combined L\U factor keeps exactly A's pattern. §5 of
    the paper singles ILU(0) out as the static-pattern kernel earlier
    inspector-executor work targets; here the CSR view and the diagonal
    positions are compile-time position maps. *)

exception Zero_pivot of int

type compiled = {
  n : int;
  rowptr : int array;  (** CSR row pointers of A's pattern *)
  colind : int array;  (** column indices, ascending within each row *)
  diag : int array;  (** position of each diagonal entry *)
  csc_map : int array;  (** value gather map from the CSC input *)
  flops : int;
      (** pattern bound on one factorization's operations (a divide plus
          the row updates per eliminating entry), credited to
          [Metrics.flops] per {!factor_ip} *)
}

type factors = {
  c : compiled;
  values : float array;
      (** CSR values of L\U: entries left of the diagonal are L (unit
          diagonal implicit), the rest is U *)
}

val compile : Csc.t -> compiled
(** Builds the CSR view; raises {!Zero_pivot} when a structural diagonal
    entry is missing. *)

val factor : compiled -> Csc.t -> factors
(** Allocates fresh factors per call; use a {!plan} for allocation-free
    steady state. *)

(** {2 Plans} *)

type plan = {
  c : compiled;
  pos : int array;  (** dense column→row-entry scratch *)
  f : factors;  (** factor view over the plan's values *)
}

val make_plan : compiled -> plan

val factor_ip : plan -> Csc.t -> unit
(** Numeric ILU(0) into the plan's storage ([plan.f] afterwards); zero
    allocation in steady state, reusable even after {!Zero_pivot}. *)

val factorize : Csc.t -> factors

val solve : factors -> float array -> float array
(** Apply the preconditioner: solve [(L U) x = b]. *)
