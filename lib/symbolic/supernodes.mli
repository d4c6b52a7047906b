open Sympiler_sparse

(** Supernode detection — the block-set inspection producing VS-Block's
    input. A supernode is a maximal range of consecutive columns of L with
    identical below-diagonal structure and a dense diagonal block.

    Two detectors matching Table 1:
    - {!detect_exact}: node equivalence on the dependence graph (columns
      merged when their outgoing-edge sets coincide) — works on any
      lower-triangular pattern, used for triangular solve;
    - {!detect_etree}: the Cholesky rule of §3.2 — merge [j-1] and [j] when
      [nnz(L(:,j-1)) = nnz(L(:,j)) + 1] and [j-1] is the only etree child
      of [j]; needs only counts and the etree. *)

type t = {
  sn_ptr : int array;
      (** length nsuper+1; supernode [s] covers columns
          [\[sn_ptr.(s), sn_ptr.(s+1))] *)
  col_to_sn : int array;  (** inverse map: column -> supernode *)
}

val nsuper : t -> int
val width : t -> int -> int

val of_boundaries : n:int -> int list -> t
(** Build from the ascending list of first columns (head 0). *)

val mergeable_exact : Csc.t -> int -> bool
(** [mergeable_exact l j]: column [j]'s pattern equals column [j-1]'s with
    its leading (diagonal) entry removed. *)

val detect : ?max_width:int -> mergeable:(int -> bool) -> int -> t
(** Generic contiguous-merge driver over a mergeability predicate. *)

val detect_exact : ?max_width:int -> Csc.t -> t
(** Node-equivalence supernodes of a lower-triangular pattern. *)

val detect_etree :
  ?max_width:int -> counts:int array -> parent:int array -> unit -> t
(** The paper's etree + column-count rule. *)

val widths : t -> int array
val avg_width : t -> float

val flop_weighted_width : t -> counts:int array -> float
(** [sum_s w_s f_s / sum_s f_s], where [w_s] is supernode [s]'s width and
    [f_s] the sum of [counts.(j)^2] over its columns (the flop model of
    {!Fill_pattern.flops}); [0.] when there are no flops. *)

val validate_against : Csc.t -> t -> bool
(** Structural check used by tests: contiguous cover of [\[0, n)] whose
    blocks all satisfy {!mergeable_exact}. *)
