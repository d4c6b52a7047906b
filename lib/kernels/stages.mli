open Sympiler_sparse

(** In-place stage executors over caller-owned workspaces: the numeric
    bodies a compiled {!Sympiler.Pipeline} chains on its one shared vector
    buffer. Plain loop nests — no allocation, no dispatch; the pipeline
    layer owns buffer placement, so "fusing" two stages is calling two of
    these back to back on the same array (or a merged variant, which also
    removes the function boundary).

    Operation order is canonical per entry: every [x(i)] receives the
    operation sequence of the natural-order schedules of {!Trisolve_ref}
    (its updates by ascending column, then the divide). The column sweeps
    visit the entries in natural order; the scheduled sweeps
    ({!lower_sched_ip} and friends) visit them in a compile-time
    topological order, which only reorders independent entries. So a fused
    chain and a staged chain over the same factors produce
    bitwise-identical results whichever sweep runs: fusion and scheduling
    eliminate copies, dispatch and waiting, never reorder floating-point
    arithmetic.

    Every entry point checks its vector lengths in O(1) and raises
    [Invalid_argument "Stages.<name>: ..."] on a mismatch (the kernels are
    built without bounds checks). *)

val lower_ip : Csc.t -> float array -> unit
(** Forward substitution [L x = x], CSC lower-triangular, diagonal stored
    first per column (explicitly stored unit diagonals are exact). *)

val ltrans_ip : Csc.t -> float array -> unit
(** Backward substitution [L^T x = x] from the same CSC [L]. *)

val solve_pair_ip : Csc.t -> float array -> unit
(** The merged pass: {!lower_ip} then {!ltrans_ip} in one kernel body —
    the stage boundary of a factor+solve pair fused away. *)

(** {1 Scheduled sweeps} *)

type schedule = {
  order : int array;  (** a topological order of L's dependence graph *)
  row_ptr : int array;
      (** row [i]'s strictly-lower entries occupy
          [\[row_ptr.(i), row_ptr.(i+1))] of the two arrays below *)
  row_col : int array;  (** their columns, ascending within a row *)
  row_pos : int array;  (** their positions in L's storage *)
}
(** A compile-time sweep schedule for one L pattern (diagonal stored first
    per column). The forward sweep is a row gather visited in [order]; the
    backward sweep is the column gather of {!ltrans_ip} visited in reverse
    [order]. The row lists are structure only, so one schedule serves every
    value set of the pattern. *)

val schedule : order:int array -> Csc.t -> schedule
(** [schedule ~order l]: [order] with the row lists of [l] built from its
    structure (every entry of column [j] past its head updates its row).
    The caller guarantees [order] is topological, e.g.
    {!Sympiler_symbolic.Dep_graph.level_order}. *)

val lower_sched_ip : Csc.t -> schedule -> float array -> unit
(** {!lower_ip} as a row gather in schedule order; bitwise-identical. *)

val ltrans_sched_ip : Csc.t -> schedule -> float array -> unit
(** {!ltrans_ip} in reverse schedule order; bitwise-identical. *)

val solve_pair_sched_ip : Csc.t -> schedule -> float array -> unit
(** {!solve_pair_ip} over the schedule; bitwise-identical. *)

(** {1 Other stage bodies} *)

val upper_ip : Csc.t -> float array -> unit
(** Backward substitution [U x = x], CSC upper-triangular, diagonal stored
    last per column (LU's U factor). *)

val diag_ip : float array -> float array -> unit
(** Diagonal solve [D x = x] (the middle stage of an LDL^T apply). *)

val csr_lower_unit_ip : Ilu0.compiled -> float array -> float array -> unit
(** ILU(0) forward: unit-lower part of the combined CSR L\U factor. *)

val csr_upper_ip : Ilu0.compiled -> float array -> float array -> unit
(** ILU(0) backward: upper part of the combined CSR L\U factor. *)

val spmv_into : Csc.t -> float array -> float array -> unit
(** [spmv_into a x y]: [y <- A x], column-oriented. *)

val axpy2_ip :
  alpha:float ->
  float array ->
  float array ->
  float array ->
  float array ->
  unit
(** [axpy2_ip ~alpha p q x r]: the fused CG vector updates
    [x <- x + alpha p] and [r <- r - alpha q] in one sweep
    (bitwise-identical to the two loops it replaces). *)

val dot : float array -> float array -> float
