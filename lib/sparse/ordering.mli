(** Fill-reducing and bandwidth-reducing orderings. CHOLMOD and Eigen apply
    a fill-reducing ordering (AMD) in their default configurations; these
    are the portable stand-ins used when preparing the benchmark suite.
    Inputs are full symmetric matrices; outputs use the {!Perm} new->old
    convention. *)

val adjacency_csr : Csc.t -> int array * int array
(** [(ptr, ind)]: CSR adjacency of the symmetric pattern, self-loops
    removed. Vertex [v]'s neighbors are [ind.(ptr.(v) .. ptr.(v+1)-1)], in
    ascending order. O(n + nnz), two flat arrays — the representation the
    ordering algorithms traverse (no per-vertex boxed lists). Raises
    [Invalid_argument "Ordering.adjacency_csr: …"] unless the input is
    square and satisfies the CSC invariant ({!Csc.check}). *)

val adjacency : Csc.t -> int list array
(** Sorted adjacency lists of the symmetric pattern, self-loops removed
    (list view of {!adjacency_csr}; for oracles and tests). *)

val rcm : Csc.t -> Perm.t
(** Reverse Cuthill-McKee: BFS from a pseudo-peripheral vertex per
    connected component, neighbors in increasing-degree order, reversed.
    The pseudo-peripheral search starts from a minimum-degree vertex of
    each component and breaks farthest-level ties by minimum degree
    (George-Liu). Reduces bandwidth. BFS sweeps share one flat-array
    queue/distance workspace reset via the visited prefix, so the whole
    ordering is O(n + nnz) per pseudo-peripheral iteration even on
    many-component matrices. *)

val min_degree : Csc.t -> Perm.t
(** Greedy minimum-degree on the elimination graph (no quotient-graph
    machinery, so quadratic-ish in the worst case). Exact current degrees:
    kept as the quality oracle {!amd} is measured against. *)

val amd : Csc.t -> Perm.t
(** Approximate minimum degree (Amestoy-Davis-Duff) on a quotient graph:
    supervariables, mass elimination, element absorption, and the
    external-degree approximation with iteration-stamped workspaces. Near
    linear-time in practice and the default fill-reducing ordering of the
    compile pipeline; fill quality tracks {!min_degree} closely (the
    ordering tests check the tolerance on the suite). Raises
    [Invalid_argument "Ordering.amd: …"] unless the input is square and
    satisfies the CSC invariant. *)

(** An entry that trusts a checked pattern ({!Csc.Unsafe}). *)
module Unsafe : sig
  val amd_lower : Csc.Unsafe.checked_lower -> Perm.t
  (** {!amd} of sym(A) read straight from a checked lower(A), with no
      re-check: the same adjacency lists, hence the same permutation as
      [amd (Csc.symmetrize_from_lower a_lower)], without the symmetrized
      copy. *)
end

val bandwidth : Csc.t -> int
(** Maximum [|i - j|] over stored entries. *)
