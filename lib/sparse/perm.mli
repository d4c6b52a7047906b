(** Permutations, in the new-index -> old-index convention: applying [p] to
    a vector [x] yields [y] with [y.(k) = x.(p.(k))] (i.e. [y = P x] where
    row [k] of [P] has its 1 in column [p.(k)]). Fill-reducing orderings in
    {!Ordering} return permutations in this convention. *)

type t = int array

val identity : int -> t

val is_valid : t -> bool
(** True when the array is a bijection on [\[0, n)]. *)

val inverse : t -> t
(** [inverse p] satisfies [(inverse p).(p.(k)) = k]. *)

val apply_vec : t -> float array -> float array
(** [apply_vec p x] is [y] with [y.(k) = x.(p.(k))]. *)

val apply_inv_vec : t -> float array -> float array
(** Inverse application: returns [y] with [y.(p.(k)) = x.(k)]. *)

val compose : t -> t -> t
(** [(compose p q).(k) = q.(p.(k))]: apply [q] after [p]'s relabeling (used
    to chain a fill-reducing ordering with an etree postorder). *)

val symmetric_permute : t -> Csc.t -> Csc.t
(** [symmetric_permute p a] is [P A P^T] for a square matrix stored in full
    (not triangular) form: entry [(k, j)] of the result is
    [a.(p.(k), p.(j))]. Raises [Invalid_argument] when [p] is not a valid
    permutation of [\[0, n)] (checked with {!is_valid}, never an
    out-of-bounds crash). *)

val permute_pattern : t -> Csc.t -> Csc.t * int array
(** [permute_pattern p a] is [(b, map)] with [b = P A P^T] and [map] a
    gather map: entry [q] of [b] reads its value from
    [a.values.(map.(q))]. Refreshing [b.values] with the gather is the
    allocation-free way to track value changes of [a] under a fixed
    permutation (the ordered plans' steady state). Raises
    [Invalid_argument "Perm.permute_pattern: …"] on a matrix that breaks
    the CSC invariant ({!Csc.check}), a non-square matrix or an invalid
    permutation. *)

val permute_lower : t -> Csc.t -> Csc.t * int array
(** [permute_lower p a_lower] is [(b, map)] where [b] is
    [lower(P sym(A) P^T)] computed directly from lower-triangular storage:
    each stored entry [(i, j)] of [a_lower] lands at
    [(max (pinv i) (pinv j), min (pinv i) (pinv j))]. Same gather-map
    contract as {!permute_pattern}. Raises
    [Invalid_argument "Perm.permute_lower: …"] when the input breaks the
    CSC invariant, is not lower triangular or the permutation is
    invalid. *)

val random : Utils.Rng.t -> int -> t
(** Uniformly random permutation (deterministic given the RNG state). *)
