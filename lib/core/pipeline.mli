open Sympiler_sparse
module Trace = Sympiler_trace.Trace
module Metrics = Sympiler_metrics.Metrics

(** Solver-pipeline fusion: compile whole DAGs of kernel stages through one
    symbolic analysis, into one fused plan.

    Compiling each stage of a solver pipeline in isolation pays the
    symbolic phase N times and the stage boundaries forever: every hand-off
    is a vector copy, a dispatch, and a loop restart. A pipeline compiles
    the DAG as one unit:

    - the factor family's symbolic result is the chain's: the factor stage
      compiles, plans and factors through the family's {!Factor.FAMILY}
      instance (the one the facade's families are made of), the solve
      stages sweep its factor, and the level-sweep rule reads its [L];
    - the plan owns one shared vector workspace threaded through the whole
      chain — zero intermediate vectors between stages, zero steady-state
      allocation in {!execute_ip};
    - adjacent stages fuse where the schedule allows: an L solve followed
      by an L^T solve collapses into one merged pass.

    Fusion never reorders floating-point arithmetic. Operation order is
    canonical per entry: every [x(i)] receives the same operations in the
    same order on both executors, so {!execute_ip} and
    {!staged_execute_ip} return bitwise-identical results. The fused path
    removes copies, dispatch, and function boundaries; where L's structure
    makes natural order a long dependence chain (the [level-sweep]
    decision), it also visits the rows of its triangular sweeps in a
    compile-time level order, which reorders only independent rows. *)

type family = [ `Cholesky | `Ldlt | `Lu | `Ic0 | `Ilu0 ]

type stage_spec =
  | Factor of family
      (** the DAG's (single) numeric factorization; runs only when
          {!execute_ip} receives [?a] (or via {!factor_ip}) *)
  | Lower_solve  (** forward substitution on the factor's L *)
  | Diag_solve  (** [x / D] — requires [Factor `Ldlt] *)
  | Upper_solve  (** backward substitution (L^T, or LU's U) *)
  | Solve
      (** the family's whole apply: [L, L^T] (Cholesky/IC(0)/factorless),
          [L, D, L^T] (LDL^T), [L, U] (LU/ILU(0)) *)
  | Spmv
      (** [x <- A x] — the symmetrized input for the symmetric families,
          the input itself for LU/ILU(0) and factorless chains *)

type dag
(** A pipeline under construction: a chain of stages, execution order =
    construction order. *)

(** {1 Combinators} *)

val stage : stage_spec -> dag
val then_ : dag -> dag -> dag

val pair : dag -> dag -> dag
(** [pair f s]: a factor+solve pair — [f] must contain the factor stage,
    [s] must not (raises [Invalid_argument] otherwise). *)

val factor_solve : family -> dag
(** [then_ (stage (Factor f)) (stage Solve)] — the common pair. *)

val of_stages : stage_spec list -> dag
val to_stages : dag -> stage_spec list

(** {1 Compilation} *)

type t
(** A compiled pipeline: at most one compiled factor family, the
    family-resolved vector chain. *)

val compile : ?cache:t Plan_cache.t -> ?opts:Options.t -> dag -> Csc.t -> t
(** Compile the DAG for one pattern: lower(A) for the symmetric families
    and factorless chains, square A for LU/ILU(0). Runs the symbolic
    analysis {e once} for the whole DAG. [?opts] is the shared
    {!Options.t}; factorless chains support [`Natural] ordering only. A
    Cholesky stage takes the facade's own variant decision. Passing
    [?cache] (or [opts.cache = true], which uses the module's default
    cache) routes the compile through a {!Plan_cache} keyed on the pattern
    structure, the stage sequence and the options. A hit on the matrix
    that compiled the entry returns that handle; a hit on another matrix
    of the pattern returns a copy bound to the caller's values, which
    plans of a factorless chain or an SpMV stage read.

    Raises [Invalid_argument] on an empty DAG, more than one factor stage,
    [Diag_solve] without [Factor `Ldlt], or a pattern of the wrong shape. *)

val cache_stats : unit -> Plan_cache.stats
val cache_clear : unit -> unit

val symbolic_seconds : t -> float
(** Wall-clock of the one symbolic phase (ordering included). *)

val dag_of : t -> stage_spec list
val input_pattern : t -> Csc.t

val fused_boundaries : t -> int
(** Stage boundaries the fused executor removed by merging. *)

val decisions : t -> Trace.decision list
(** Transformation decisions taken at compile time: vi-prune and vs-block
    when the DAG factors with Cholesky (the facade's decisions);
    pipeline-fuse and level-sweep always. The
    level-sweep decision fires when the fused sweeps run level-ordered:
    its metric is the share of columns [j] with [L(j+1, j)] stored
    (threshold 0.875, [nan] without a CSC L), and it also requires at most
    [n/2] levels. *)

val describe : t -> string
(** Human-readable report: stages, family, sizes, ordering, the fusion
    counter, decisions. *)

(** {1 Plans} *)

type plan
(** Reusable numeric workspaces: the factor kernel's plan plus the shared
    vector chain buffers — allocated once, reused across executions. *)

val plan : t -> plan

val execute_ip : plan -> ?a:Csc.t -> float array -> float array
(** Run the whole fused pipeline on [b]: with [~a] (values for the compiled
    pattern) the factor stage refactorizes in place at its DAG position;
    without it the chain reuses the current factor values. Returns the
    plan-owned result buffer (natural order, valid until the next call).
    Zero steady-state allocation. A DAG whose factor never ran (no [~a]
    yet, no {!factor_ip}) applies whatever the factor workspaces hold —
    factor first. *)

val staged_execute_ip : plan -> ?a:Csc.t -> float array -> float array
(** The unfused baseline: the same stage bodies in the same order, but
    every stage gets its own workspace copy-in/copy-out — what N
    independently compiled plans would do. Bitwise-identical results to
    {!execute_ip}; per-stage latency lands in {!stage_latencies}. *)

val factor_ip : plan -> Csc.t -> unit
(** Refresh values and run only the factor stage (no vector chain). *)

val plan_latency : plan -> Metrics.histogram_snapshot
(** Latency distribution of the fused {!execute_ip} (empty unless
    {!Metrics.enable}d). *)

val stage_latencies : plan -> (string * Metrics.histogram_snapshot) array
(** Per-stage latency of the staged baseline, labeled [stageN:<name>]. *)
