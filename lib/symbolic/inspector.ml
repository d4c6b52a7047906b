open Sympiler_sparse

(* The symbolic inspector framework of §2.2 / Table 1. For each (numerical
   method, transformation) pair, an inspector names the inspection graph it
   builds, the strategy it traverses it with, and produces an inspection set
   that drives the corresponding inspector-guided transformation. Keeping
   this structure explicit (rather than ad hoc calls into [Dep_graph] /
   [Etree]) is what lets new methods be added "as long as the required
   inspectors can be described in this manner" (paper, end of §2.2). *)

type inspection_graph =
  | Dependence_graph (* adjacency graph of the triangular matrix *)
  | Elimination_tree (* etree of A, for factorization methods *)

type inspection_strategy =
  | Depth_first_search (* reach-set computation *)
  | Node_equivalence (* supernode detection on DG_L *)
  | Up_traversal (* etree up-walk (ereach) *)
  | Single_node_up_traversal (* etree walk for one row pattern *)

type inspection_set =
  | Prune_set of int array (* e.g. the reach-set, topologically ordered *)
  | Prune_sets of int array * int array
      (* per-column prune sets (row patterns) as (pointers, packed lists) *)
  | Block_set of Supernodes.t (* supernode boundaries *)

type t = {
  graph : inspection_graph;
  strategy : inspection_strategy;
  description : string;
  run : unit -> inspection_set;
}

let graph_name = function
  | Dependence_graph -> "DG"
  | Elimination_tree -> "etree"

let strategy_name = function
  | Depth_first_search -> "DFS"
  | Node_equivalence -> "node-equivalence"
  | Up_traversal -> "up-traversal"
  | Single_node_up_traversal -> "single-node up-traversal"

let describe i =
  Printf.sprintf "%s: %s over %s" i.description (strategy_name i.strategy)
    (graph_name i.graph)

(* --- Inspectors for sparse triangular solve (§3.1) --- *)

(* VI-Prune inspector: reach-set of the RHS pattern in DG_L. *)
let trisolve_vi_prune (l : Csc.t) (b : Vector.sparse) : t =
  {
    graph = Dependence_graph;
    strategy = Depth_first_search;
    description = "triangular solve reach-set";
    run = (fun () -> Prune_set (Dep_graph.reach l b.Vector.indices));
  }

(* VS-Block inspector: supernodes of L by node equivalence. *)
let trisolve_vs_block (l : Csc.t) : t =
  {
    graph = Dependence_graph;
    strategy = Node_equivalence;
    description = "triangular solve supernodes";
    run = (fun () -> Block_set (Supernodes.detect_exact l));
  }

(* --- Inspectors for Cholesky factorization (§3.2) --- *)

(* VI-Prune inspector: per-column prune sets = row patterns of L. *)
let cholesky_vi_prune (fill : Fill_pattern.t) : t =
  {
    graph = Elimination_tree;
    strategy = Single_node_up_traversal;
    description = "Cholesky row patterns (prune sets)";
    run =
      (fun () ->
        Prune_sets (fill.Fill_pattern.row_ptr, fill.Fill_pattern.row_ind));
  }

(* VS-Block inspector: supernodes from etree + column counts. *)
let cholesky_vs_block (fill : Fill_pattern.t) : t =
  {
    graph = Elimination_tree;
    strategy = Up_traversal;
    description = "Cholesky supernodes";
    run =
      (fun () ->
        Block_set
          (Supernodes.detect_etree ~counts:fill.Fill_pattern.counts
             ~parent:fill.Fill_pattern.parent ()));
  }
