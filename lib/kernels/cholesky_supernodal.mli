open Sympiler_sparse
open Sympiler_symbolic

(** Supernodal left-looking Cholesky. One engine serves both the
    CHOLMOD-style library baseline and Sympiler's VS-Block executor; L is
    stored in plain CSC whose per-supernode panels are jagged dense blocks
    (see {!Dense_blas}). *)

type analysis = {
  n : int;
  sn : Supernodes.t;
  l_colptr : int array;
  l_rowind : int array;
  parent : int array;
  nb : int array;  (** below-block height per supernode *)
  flops : float;
  nnz_l : int;
}

(** One descendant update: supernode [d] contributes to the current target
    starting at index [first] of its below-block; the first [t] of its
    remaining [m] rows land in the target's diagonal block. *)
type update = { d : int; first : int; t : int; m : int }

val analyze : ?max_width:int -> Csc.t -> analysis
(** Symbolic analysis: fill pattern, supernodes, panel geometry. *)

val of_pattern : l_colptr:int array -> l_rowind:int array -> analysis
(** The analysis of a factor's column pattern alone (rows ascending, the
    diagonal first, as {!Fill_pattern} builds it): counts are the column
    lengths and each column's etree parent is its first below-diagonal
    row. The arrays are shared, not copied. *)

val below_rows_start : analysis -> int -> int
(** Index into [l_rowind] of a supernode's below-block row list. *)

val compute_schedule : analysis -> update array array
(** The full compile-time update schedule: per target supernode, its
    updates in ascending descendant order. *)

val max_update_size : update array array -> int
(** The largest [m * t] of a schedule (at least 1): the work buffer
    {!apply_update_generic} needs for it. *)

(** {2 Numeric building blocks} (shared with {!Cholesky_parallel}) *)

val init_panel_from_a :
  analysis -> Csc.t -> float array -> int array -> int -> unit
(** Scatter A's values into the (zeroed) panel of one supernode, filling the
    row-offset scratch [relpos]. *)

val apply_update_generic :
  analysis -> float array -> int array -> s:int -> update -> float array -> unit
(** The update of every executor: one dense product into the work buffer
    ([m * t] entries), then one scatter-subtract into the target panel.
    The emitted supernodal C forms the same sums in the same order. *)

val factor_view : analysis -> float array -> Csc.t
(** [factor_view an lx]: the factor over values [lx] and [an]'s own
    column pattern (shared, not copied: read-only). *)

val factor_panel_generic : analysis -> float array -> int -> unit
(** Jagged potrf + trsm (generic loops). *)

val factor_panel_blas : analysis -> float array -> int -> unit
(** Merged contiguous panel kernel (models a well-tuned BLAS pair). *)

val factor_panel_specialized : analysis -> float array -> int -> unit
(** Peeled width-1 path + fused kernel otherwise. *)

(** Library baseline: numeric phase transposes A (the residual symbolic
    work of §4.2), discovers descendant lists with linked-list bookkeeping
    at numeric time, and applies updates through a GEMM work buffer +
    scatter (the BLAS calling convention). *)
module Cholmod : sig
  type t = analysis

  val analyze : ?max_width:int -> Csc.t -> t
  val factor : t -> Csc.t -> Csc.t
end

(** Sympiler's VS-Block executor: the schedule and row offsets are baked in
    at compile time; every update goes through the work buffer, and the
    specialized variant factors panels with the merged contiguous kernel
    and peels width-1 supernodes. *)
module Sympiler : sig
  type compiled = {
    an : analysis;
    schedule : update array array;
    specialized : bool;  (** apply the low-level transformations *)
  }

  val of_analysis : ?specialized:bool -> analysis -> compiled
  (** The update schedule over an existing analysis. *)

  val compile :
    ?max_width:int ->
    ?specialized:bool ->
    Csc.t ->
    compiled

  val factor : compiled -> Csc.t -> Csc.t
  (** Numeric phase: no transpose, no list maintenance, just arithmetic
      driven by the baked-in schedule. Allocates a fresh factor per call;
      for allocation-free steady state use a {!plan}. *)

  (** {2 Plans} — reusable numeric workspaces for the compile-once /
      execute-many regime. *)

  type plan = {
    c : compiled;
    lx : float array;  (** values of L, plan-owned *)
    relpos : int array;  (** panel row-offset scratch *)
    wbuf : float array;  (** update buffer ({!max_update_size}) *)
    l : Csc.t;
        (** factor view sharing [lx] and the analysis' column pattern;
            refreshed by {!factor_ip} *)
  }

  val make_plan : compiled -> plan
  (** Allocate all numeric workspaces once for the compiled pattern. *)

  val factor_ip : plan -> Csc.t -> unit
  (** Numeric factorization into the plan's storage ([plan.l] afterwards
      holds L): zero allocation in steady state. The input must share the
      compiled pattern; values are free to differ between calls. *)
end
