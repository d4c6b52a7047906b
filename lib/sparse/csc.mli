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
(** Checks the invariant: [colptr] of length [ncols + 1], starting at 0
    and non-decreasing; [colptr.(ncols)] equal to the lengths of [rowind]
    and [values]; rows in [\[0, nrows)] and strictly increasing within each
    column. Raises [Invalid_argument "Csc.validate: …"] on a violation.
    O(ncols + nnz). *)

val check :
  who:string -> ?values:bool -> ?square:bool -> ?lower:bool -> t -> unit
(** {!validate} for an entry point named [who]: raises
    [Invalid_argument (who ^ ": …")]. [~values:false] skips the value
    count (pattern-only inputs); [~square:true] requires
    [nrows = ncols]; [~lower:true] requires a square matrix with no entry
    above the diagonal. *)

(** {2 Entries that trust a checked pattern}

    The compile path's loops (the transposes, the symmetric permutation,
    AMD, the etree and the fill walk) run without bounds checks outside
    the [checked] dune profile, so every public entry that runs one checks
    what it reads first. The entries here skip that O(nnz) check, because
    their argument was checked once already ({!Unsafe.check_lower}) or
    built by this library from a checked pattern. They are for the
    facade's compile path, which checks the caller's pattern once before
    its plan-cache lookup, and for the library's public entries, which
    call them right after their own check ({!Perm.permute_lower},
    [Sympiler_symbolic.Fill_pattern.analyze]); other callers use those
    checked entries.

    A checked pattern holds the caller's arrays, not copies. Writing to
    them (or to the arrays of an {!Unsafe.upper_pattern}) after the check
    voids it: the loops that trust it may then read and write out of
    bounds. *)
module Unsafe : sig
  type checked_lower = private t
  (** A square lower-triangular pattern that passed {!check_lower}, or one
      this library built from such a pattern. Its [values] may be
      anything: entries that read them check their length. *)

  val check_lower : who:string -> ?values:bool -> t -> checked_lower
  (** [check ~who ~values ~lower:true] ([values] defaults to [false]),
      returning the checked pattern (no copy). *)

  type upper_pattern = private {
    up_colptr : int array;  (** length [n+1] *)
    up_rowind : int array;
        (** column [k] lists the [i <= k] with [(k, i)] stored in
            lower(A), each once *)
    up_map : int array Lazy.t;
        (** entry [q] of the upper triangle is entry [up_map.(q)] of
            lower(A); built when first forced *)
  }
  (** The upper triangle of a {!checked_lower}: the transpose of its
      pattern, with the gather map into its entries. Rows ascend within
      each column when {!upper_pattern} built it; the by-row bucket of
      {!permute_lower} keeps each column's rows in no particular order. *)

  val upper_pattern : checked_lower -> upper_pattern
  (** The transpose of a checked lower(A), O(n + nnz). The map is built
      (O(n + nnz), one int array) only when a consumer forces it. *)

  val permute_lower :
    who:string ->
    pinv:int array ->
    checked_lower ->
    checked_lower * int array * upper_pattern
  (** [permute_lower ~who ~pinv a] is [(b, map, u)]: [b] =
      lower(P sym(A) P^T), where stored entry [(i, j)] lands at
      [(max (pinv i) (pinv j), min (pinv i) (pinv j))]; entry [q] of [b]
      takes its value from [a.values.(map.(q))]; and [u] is [b]'s upper
      triangle, the by-row bucket the two counting passes leave behind.
      [b] carries [a]'s values when their count is nnz, else zeros.
      Raises [Invalid_argument (who ^ ": …")] unless [pinv] is a
      permutation of [\[0, n)]. *)
end

val create :
  nrows:int ->
  ncols:int ->
  colptr:int array ->
  rowind:int array ->
  values:float array ->
  t
(** Builds and validates a CSC matrix from raw arrays (no copies taken). *)

val of_triplet : Triplet.t -> t
(** Converts a COO builder, sorting rows and summing duplicates. Raises
    [Invalid_argument "Csc.of_triplet: …"] on a [len] past the entry
    arrays or an index out of range ({!Triplet.to_csc_arrays}). *)

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
(** Transposed matrix, O(nnz + max dims); output rows are sorted. Checks
    its input ({!check}). *)

val transpose_map : t -> int array * int array * int array
(** [(colptr, rowind, map)]: the {e structure} of the transpose together
    with a gather map — entry [q] of the transpose reads its value from
    [values.(map.(q))] of the original. Sympiler uses this to hoist the
    numeric-phase transpose the paper attributes to Eigen/CHOLMOD into
    symbolic analysis: at run time a cheap gather replaces building the
    transpose. Checks the input's pattern. *)

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
    breaks the invariant, is not square or stores an entry above the
    diagonal (mirroring it would double the off-diagonal values). *)

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
