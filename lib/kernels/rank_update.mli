open Sympiler_sparse

(** Sparse rank-1 update/downdate of a Cholesky factorization: rewrite L in
    place so that [L L^T] becomes [A + sigma w w^T], touching only the
    columns on the elimination-tree path from w's minimum index to the root
    — the rank-update method of §3.3 (Davis & Hager / CSparse
    [cs_updown]). The required symbolic analysis is a single-node etree
    up-traversal, one of Sympiler's inspection strategies (Table 1).

    Precondition (as in CSparse): the pattern of [w] must be a subset of
    the pattern of L's column [jmin] (its minimum index); then L's pattern
    is unchanged and the numeric phase is fully decoupled. The precondition
    is tight — a violation always means the updated factor needs entries L
    does not have (fill-clique lemma), so the caller must recompile with
    the augmented pattern (the facade's escalation path does).

    Plans own every workspace and memoize the per-[jmin] etree path, so
    steady-state [update_raw] calls allocate nothing; a failed downdate
    rolls the touched values back before re-raising. The one-shot entry
    points validate [w] (sorted, unique, in-range indices) and raise
    [Invalid_argument] on malformed input instead of corrupting L; the
    plan entry points take arrays their caller validated (the facade's
    [update_ip] checks every update vector before it gets here). *)

exception Not_positive_definite of int
(** A downdate destroyed positive definiteness. Plan entry points (and the
    one-shot {!apply}) roll the factor back before re-raising. The same
    exception as {!Dense_blas.Not_positive_definite}. *)

exception Pattern_violation of int
(** [w] has a nonzero outside the allowed pattern (offending row given). *)

(** {1 One-shot spellings (allocating)} *)

type compiled = { path : int array }
(** The etree path the update walks (symbolic inspection set). *)

val compile : parent:int array -> Vector.sparse -> compiled
(** Symbolic phase: walk the etree from w's minimum index to the root.
    Validates [w]; raises [Invalid_argument] on unsorted, duplicate, or
    out-of-range indices. *)

val check_pattern : Csc.t -> Vector.sparse -> unit
(** Validate [w] and the precondition; raises {!Pattern_violation}. *)

val apply : ?sigma:float -> compiled -> Csc.t -> Vector.sparse -> unit
(** Numeric phase, in place on [l]'s values: [A + sigma w w^T] (default
    [sigma = 1.]; any magnitude works — it folds into the vector). A
    downdate that raises {!Not_positive_definite} leaves [l] unchanged. *)

val update : ?sigma:float -> parent:int array -> Csc.t -> Vector.sparse -> unit
(** [check_pattern] + [compile] + [apply]. *)

val vector_like : Csc.t -> j:int -> scale:float -> Vector.sparse
(** A legal update vector: column [j] of [l] scaled by [scale]. *)

(** {1 Plans (zero-alloc steady state)} *)

type plan
(** Owns the scatter workspace, the rollback snapshot, the memoized path
    table, and the incremental-refactorization inspection arrays; borrows
    the factor view (values are updated in place). *)

val make_plan : a_pattern:Csc.t -> Csc.t -> plan
(** [make_plan ~a_pattern l]: a plan over the factor view [l] of a matrix
    with input pattern [a_pattern] (both in compiled order). Derives the
    etree from [l]'s pattern; all symbolic work beyond per-[jmin] paths
    happens here. *)

val update_raw :
  plan -> neg:bool -> sigma:float -> int array -> float array -> int -> unit
(** [update_raw pl ~neg ~sigma wi wv len]: in-place [A + sigma w w^T]
    ([neg] logically negates [sigma]) over the first [len] entries of raw
    index/value arrays, already validated and sorted. Steady-state calls
    (memoized path, no failure) allocate nothing. Raises
    {!Pattern_violation} when the precondition fails (factor untouched),
    {!Not_positive_definite} on a rejected downdate (factor rolled
    back). *)

val note_refactor : plan -> float array -> unit
(** Record the input values (compiled order) the factor was just computed
    from, as the diff baseline of {!refactor_cols_ip}. *)

val prev_valid : plan -> bool
(** Whether a baseline is recorded and still matches the factor (rank
    updates invalidate it). *)

val refactor_cols_ip : plan -> float array -> int
(** Incremental refactorization: diff the new input values against the
    recorded baseline, close changed columns over their etree paths, and
    recompute only the affected rows (position-driven up-looking kernel —
    bitwise what a from-scratch simplicial factorization produces).
    Returns the number of rows recomputed and re-records the baseline.
    Raises [Invalid_argument] without a valid baseline, and
    {!Not_positive_definite} if the new values are not PD (the plan then
    requires a full refactor). *)

val current_matrix : plan -> Csc.t
(** lower(L L^T) over L's own pattern — the matrix the factor currently
    represents (after any updates). The escalation path's starting point:
    the true matrix's pattern is a subset of pattern(L) by the fill-clique
    lemma, so nothing is lost. Allocates the result. *)

(** {1 LDL^T plans} *)

type ldlt_plan
(** Rank-1 update state over a unit-lower [L] and diagonal [D] — the
    Gill–Golub–Murray–Saunders C1 recurrence (no square roots, update and
    downdate share one code path, indefinite pivots allowed). *)

val make_ldlt_plan : Csc.t -> float array -> ldlt_plan
(** [make_ldlt_plan l d]: borrow the factor views of an LDL^T plan. *)

val ldlt_update_raw :
  ldlt_plan -> neg:bool -> sigma:float -> int array -> float array -> int -> unit
(** In-place [A + sigma w w^T] on the LDL^T factors, over arrays as for
    {!update_raw}. Raises [Ldlt.Zero_pivot] on an exactly-zero updated
    pivot (factors rolled back), {!Pattern_violation} as for Cholesky. *)
