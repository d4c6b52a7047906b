open Sympiler_sparse

(** The symbolic inspector framework of §2.2 / Table 1. For each pair of
    (numerical method, transformation), an inspector names the inspection
    graph it builds and the strategy it traverses it with, and produces the
    inspection set that drives the corresponding inspector-guided
    transformation. New methods can be added to Sympiler exactly when their
    symbolic needs fit this shape. *)

type inspection_graph =
  | Dependence_graph  (** adjacency graph of the triangular matrix *)
  | Elimination_tree  (** etree of A, for factorization methods *)

type inspection_strategy =
  | Depth_first_search  (** reach-set computation *)
  | Node_equivalence  (** supernode detection on DG_L *)
  | Up_traversal  (** etree up-walks over all rows *)
  | Single_node_up_traversal  (** etree walk for one row pattern *)

type inspection_set =
  | Prune_set of int array  (** e.g. the reach-set, topologically ordered *)
  | Prune_sets of int array * int array
      (** per-column prune sets (row patterns) as [(ptr, ind)]: set [k] is
          [ind.(ptr.(k)) .. ind.(ptr.(k+1)-1)], shared with the analysis *)
  | Block_set of Supernodes.t  (** supernode boundaries *)

type t = {
  graph : inspection_graph;
  strategy : inspection_strategy;
  description : string;
  run : unit -> inspection_set;
}

val graph_name : inspection_graph -> string
val strategy_name : inspection_strategy -> string

val describe : t -> string
(** Human-readable summary ("...: DFS over DG"). *)

val trisolve_vi_prune : Csc.t -> Vector.sparse -> t
(** Reach-set inspector for triangular solve (Table 1, row 1). *)

val trisolve_vs_block : Csc.t -> t
(** Node-equivalence supernode inspector for triangular solve. *)

val cholesky_vi_prune : Fill_pattern.t -> t
(** Row-pattern (prune-set) inspector for Cholesky. *)

val cholesky_vs_block : Fill_pattern.t -> t
(** Etree + column-count supernode inspector for Cholesky. *)
