open Sympiler_sparse

(** One symbolic analysis serving every stage of a pipeline.

    A DAG of kernel stages compiled over one matrix pattern keeps asking
    the same structural questions; compiling each stage in isolation
    re-derives them. [t] memoizes each artifact the first time any stage
    forces it — the elimination tree, the fill pattern, the level schedule
    of the triangular dependence graph, the symmetrized full pattern with
    its value-gather map — and the {!runs} ledger counts computations so
    callers (and tests) can assert that nothing ran twice. *)

type t

val create : ?upper:Csc.Unsafe.upper_pattern Lazy.t -> Csc.t -> t
(** Wrap a pattern; no analysis runs until an accessor forces it. [upper]
    is the pattern's upper triangle when the caller holds it (a facade
    compile's permutation builds it): {!fill} then reads it, with no check
    or transpose of its own. *)

val pattern : t -> Csc.t

val etree : t -> int array
(** Elimination tree (memoized {!Etree.compute}). *)

val fill : t -> Fill_pattern.t
(** Fill analysis (memoized {!Fill_pattern.analyze}, or
    {!Fill_pattern.of_upper} of [upper]); the pattern must be lower
    triangular. *)

val levels : t -> int array * int array
(** Level schedule [(level_ptr, level_cols)] of the lower-triangular
    dependence graph: level [l]'s columns occupy
    [level_cols.(level_ptr.(l)) .. level_cols.(level_ptr.(l+1)-1)],
    ascending within each level. Columns in one level are independent — the
    forward substitution can run them in any order; reversing the levels
    schedules the transposed solve. *)

val full : t -> Csc.t * int array
(** Symmetrized full pattern [A = L + L^T] (diagonal stored once) and the
    gather map from the lower-triangular values: full entry [k] reads
    [lower.values.(map.(k))]. Lets a plan refresh an SpMV operand from new
    lower-triangular values without allocating. *)

val runs : t -> (string * int) list
(** Computation counts per artifact ([("etree", _); ("fill", _);
    ("levels", _); ("full", _)]); each stays [<= 1] for the lifetime of
    the record. *)
