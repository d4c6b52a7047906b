(** Compressed sparse column (CSC) matrices — the storage format used
    throughout the paper ([{n, Lp, Li, Lx}]). Row indices are strictly
    increasing within each column; every constructor establishes the
    invariant and {!validate} checks it. *)

type t = {
  nrows : int;
  ncols : int;
  colptr : int array;  (** length [ncols+1]; [colptr.(ncols)] = nnz *)
  rowind : int array;  (** row index of each stored entry *)
  values : float array;  (** numeric value of each stored entry *)
}

val nnz : t -> int
(** Number of stored entries. *)

val validate : t -> unit
(** Checks structural invariants (pointer monotonicity, sorted unique rows,
    index ranges); raises [Invalid_argument] on violation. *)

val create :
  nrows:int ->
  ncols:int ->
  colptr:int array ->
  rowind:int array ->
  values:float array ->
  t
(** Builds and validates a CSC matrix from raw arrays (no copies taken). *)

val of_triplet : Triplet.t -> t
(** Converts a COO builder, sorting rows and summing duplicates. *)

val zero : nrows:int -> ncols:int -> t
(** All-zero matrix (no stored entries). *)

val identity : int -> t
(** [identity n] is the n x n identity. *)

val col_nnz : t -> int -> int
(** Number of stored entries in one column. *)

val iter_col : t -> int -> (int -> float -> unit) -> unit
(** [iter_col t j f] applies [f row value] to each entry of column [j], in
    increasing row order. *)

val iter : t -> (int -> int -> float -> unit) -> unit
(** [iter t f] applies [f row col value] to every stored entry in
    column-major order. *)

val get : t -> int -> int -> float
(** [get t i j] is the value at [(i, j)], or [0.] when not stored.
    Logarithmic in the column's entry count. *)

val mem : t -> int -> int -> bool
(** Whether entry [(i, j)] is stored (a pattern query: a stored [0.] counts). *)

val of_dense : float array array -> t
(** From a dense row-major matrix, dropping exact zeros. *)

val to_dense : ?max_elements:int -> t -> float array array
(** Dense row-major copy. Raises [Invalid_argument] when
    [nrows * ncols > max_elements] (default [2^26]): dense materialization
    is a test/oracle device, and at large n it would OOM long before any
    sparse structure does, so the guard fails fast instead. *)

val transpose : t -> t
(** Transposed matrix, O(nnz + max dims); output rows are sorted. *)

val transpose_map : t -> int array * int array * int array
(** [(colptr, rowind, map)]: the {e structure} of the transpose together
    with a gather map — entry [q] of the transpose reads its value from
    [values.(map.(q))] of the original. Sympiler uses this to hoist the
    numeric-phase transpose the paper attributes to Eigen/CHOLMOD into
    symbolic analysis: at run time a cheap gather replaces building the
    transpose. *)

val spmv : t -> float array -> float array
(** Sparse matrix-vector product [A x]. *)

val filter : t -> (int -> int -> float -> bool) -> t
(** Keep only the entries satisfying the predicate. Runs in O(nnz) with
    no re-sort (CSC order is preserved); the predicate must be pure — it
    is applied twice per entry (a counting pass then a fill pass). *)

val lower : t -> t
(** Lower-triangular part, diagonal included — the storage convention for
    symmetric matrices and factor inputs throughout this library. *)

val upper : t -> t
(** Upper-triangular part, diagonal included. *)

val strict_lower : t -> t
(** Below-diagonal part. *)

val is_lower_triangular : t -> bool

val symmetrize_from_lower : t -> t
(** Rebuild the full symmetric matrix from lower-triangular storage, in
    O(n + nnz) with rows sorted. Raises [Invalid_argument] when the input
    is not square or stores an entry above the diagonal (mirroring it would
    double the off-diagonal values). *)

val map_values : t -> (float -> float) -> t
(** Same pattern, transformed values — the paper's core scenario of
    changing numeric values under a fixed structure. *)

val pattern_equal : t -> t -> bool
(** Structural equality (dimensions, colptr, rowind). *)

val pattern_hash : t -> int
(** Structural hash of [(dims, colptr, rowind)] (values excluded): equal
    patterns hash equal, so a pattern-keyed compilation cache can use this
    as its key, falling back to {!pattern_equal} on collision. *)

val hash_fold_int : int -> int -> int
(** One FNV-1a mixing step: fold an int into a running structural hash
    (used to extend {!pattern_hash} with RHS patterns or option
    fingerprints). *)

val hash_fold_int_array : int -> int array -> int
(** Fold a whole int array (length included) into a running hash. *)

val equal : ?eps:float -> t -> t -> bool
(** Pattern equality plus entrywise value equality to tolerance [eps]. *)

val multiply : t -> t -> t
(** Sparse matrix product [A B] (Gustavson's column-at-a-time algorithm
    with a dense accumulator). Exact numerical zeros are dropped. *)

val add : t -> t -> t
(** Entrywise sum (patterns united). *)

val scale : t -> float -> t
(** Multiply all values by a scalar. *)

val pp : Format.formatter -> t -> unit
(** Debug printer (entry list for small matrices). *)
