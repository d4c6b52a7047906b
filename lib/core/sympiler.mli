open Sympiler_sparse
open Sympiler_kernels

(** Public facade: Sympiler as the paper presents it. [compile] runs all
    symbolic analysis (and can emit specialized C) once for a fixed
    sparsity structure; the returned handles expose numeric routines that
    contain no symbolic work, plus the time the symbolic phase took
    (the quantity of Figures 8 and 9).

    Every kernel family conforms to the one {!KERNEL} signature, so the
    compile → plan → execute-in-place lifecycle is identical across
    triangular solve, Cholesky, LDL^T, LU, IC(0), and ILU(0): one
    [compile ?cache ?opts] per family, every knob riding in the shared
    {!Options.t} record. Whole DAGs of stages compile through one shared
    symbolic analysis via {!Pipeline}. *)

module Suite = Suite
(** The prepared Table 2 benchmark suite. *)

module Codegen_supernodal = Codegen_supernodal
(** C emission for the supernodal Cholesky executor. *)

module Plan_cache = Plan_cache
(** Pattern-keyed LRU cache of compiled handles (see the [?cache] argument
    of every family's [compile]). *)

module Options = Options
(** The shared compile-option record: every family's [compile] (and
    {!Pipeline.compile}) takes one [?opts:Options.t]. Families consume the
    fields they understand, ignore the rest, and key their compilation
    cache only on what they consume. *)

module Pipeline = Pipeline
(** Solver-pipeline fusion: compile a whole DAG of kernel stages through
    one shared symbolic analysis into a single fused plan — one analysis,
    one workspace, zero intermediate vectors, stage boundaries merged
    where the schedule allows. *)

module Trace = Sympiler_trace.Trace
(** Structured trace spans over the whole compile/execute pipeline
    (re-exported for convenience): enable with [Trace.enable ()], export
    with [Trace.to_chrome_json] / [Trace.to_folded]. *)

module Metrics = Sympiler_metrics.Metrics
(** Serving-grade metrics (re-exported): the library's one store of
    counters, gauges, and latency histograms, populated by the kernels'
    work counters ({!Metrics.flops}, …), the plan lifecycle
    ([sympiler_compile_seconds], [sympiler_execute_seconds]), the plan
    cache, the native engine, and the domain pool. Enable with
    [Metrics.enable ()] or [SYMPILER_METRICS=1]; export with
    [Metrics.to_openmetrics] / [to_json] / [to_table]. See DESIGN.md
    "Instrumentation" for the metrics (counts) / trace (spans) split. *)

module Runtime = Sympiler_runtime
(** The persistent domain-pool parallel runtime ({!Runtime.Pool}) behind
    every [?ndomains] argument, re-exported for sizing control
    ([Pool.default_size], the [SYMPILER_NDOMAINS] override) and shutdown. *)

module Native = Sympiler_native.Native
(** The native kernel engine behind every [?engine:`Native] argument
    (re-exported): compiles emitted C to a shared object with the system C
    compiler and loads it through [dlopen]. See {!Native.stats},
    {!Native.cc}, and the [SYMPILER_CC] / [SYMPILER_NATIVE_CACHE]
    overrides. *)

module Native_engine = Native_engine
(** Facade-side glue for the native engine: the uniform entry of the
    factor kernels (one per kernel shape, the pattern passed as int32
    arguments and the values without copies), and the four-buffer
    trampoline of the triangular solve. *)

module Factor = Factor
(** The five factor families as one functor: {!Factor.FAMILY} holds what
    differs between them (the kernel's options-aware compile and its slice
    of the cache key, plan, in-place and one-shot factor and result view;
    lower(A) or square pattern; flop model, factor size and decision log;
    native kernel bound to a handle and the factor arrays it writes; the
    pivot exception; the rank-update state), and
    {!Factor.Make} writes ordering, symbolic timing, cache routing, plans,
    engine dispatch and metrics once. {!Cholesky}, {!Ldlt}, {!Lu}, {!Ic0}
    and {!Ilu0} are its instances; {!Trisolve}, whose input is an RHS
    pattern and whose output is dense, is written by hand. *)

type engine = [ `Ocaml | `Native ]
(** Which executor a plan runs its numeric phase on.

    - [`Ocaml] (the default): the interpreted-by-OCaml executors, exactly
      as before.
    - [`Native]: the family's emitted C — the same kernel [c_code]
      prints — compiled with the system C compiler and loaded via
      [dlopen]. A factor kernel's text is one per kernel shape (family ×
      variant × whether it reads natural-order input through the
      ordering's gather map): the pattern is passed as arguments and the
      values with no copy, so every pattern of a shape shares one
      compiled object. Compiled objects are cached on disk keyed by
      source, flags, and compiler identity, so steady state never
      re-invokes the compiler. When no C compiler is available the plan
      silently falls back to [`Ocaml] (one-time note on stderr; counted
      in {!Native.stats}). *)

type ordering = [ `Natural | `Rcm | `Amd | `Min_degree | `Given of Perm.t ]
(** The fill-reducing ordering request of a compilation: ordering is a
    symbolic-stage decision, so the permutation is computed once at compile
    time, the symbolic analysis runs on [P A P^T], and the resulting plans
    bake [P] in — steady-state executions take natural-order inputs,
    gather them through a precomputed map (still zero-allocation), and the
    results are bitwise-identical to compiling a manually pre-permuted
    input. [`Given p] supplies an explicit new->old permutation (validated
    with {!Sympiler_sparse.Perm.is_valid}; [Invalid_argument] otherwise). *)

type applied_ordering = Compile_common.applied_ordering = {
  o_perm : Perm.t option;  (** [None] = natural order (no gather) *)
  o_name : string;
      (** "natural", "rcm", "amd", "min-degree", or "given" *)
  o_map : int array;
      (** gather map: permuted-pattern entry [q] reads the natural input's
          [values.(o_map.(q))], or a structural zero where it is [-1] (a
          handle a rank update escalated); [[||]] when natural *)
}
(** What an ordered compilation recorded into its handle. *)

(** The uniform kernel lifecycle every family implements.

    - [compile] runs the symbolic phase for one sparsity [pattern]. Every
      knob rides in [?opts] (the shared {!Options.t}; families ignore the
      fields they do not read — the cost of a uniform signature):
      [opts.ordering] selects the fill-reducing ordering applied before
      the analysis (see {!type:ordering} — default [`Natural]). Passing
      [?cache] (or setting
      [opts.cache], which uses the family's module-wide default cache)
      routes the compile through a pattern-keyed {!Plan_cache}; the key
      holds the options the family consumes and nothing else, so two
      option records differing only in an ignored field share one entry.
    - [plan] allocates the numeric workspaces once; [?ndomains] requests
      the level-parallel executor on the persistent domain pool where one
      exists (Trisolve, supernodal Cholesky) and is ignored elsewhere;
      [?engine] selects the executor (see {!type:engine}) — a native
      request takes precedence over [?ndomains], and falls back to the
      OCaml executor when no C compiler is available.
    - [execute_ip] is the steady-state numeric phase: no symbolic work,
      zero allocation, results written into plan-owned storage (the
      returned [output] is a view valid until the next call on the same
      plan). A factor view's values are the plan's own; its [colptr] and
      [rowind] are the handle's own pattern arrays, shared by every plan
      of the handle and not copied, so treat them as read-only.
      Bitwise-identical results for any [ndomains]. An input that
      does not match the compiled pattern's shape raises
      [Invalid_argument] before anything is read, and the plan stays
      usable.
    - [c_code] emits the specialized C executor as one self-contained
      file with every inspection set as static arrays. A factor family's
      file is the native engine's kernel text, then the handle's data,
      then an entry with the family's historical name and signature; on
      an ordered handle it takes natural-order input. *)
module type KERNEL = Factor.KERNEL

(** Sparse triangular solve [L x = b] with a sparse right-hand side. *)
module Trisolve : sig
  type pattern = Csc.t * Vector.sparse
  (** The pattern of [L] and the RHS pattern (values ignored). *)

  type t = {
    l : Csc.t;  (** the compiled (ordered handles: permuted) L pattern *)
    b_pattern : int array;  (** compiled RHS pattern (permuted likewise) *)
    compiled : Trisolve_sympiler.compiled;
    symbolic_seconds : float;  (** one-time inspection + planning cost *)
    reach : int array;  (** the reach-set (VI-Prune inspection set) *)
    flops : float;  (** useful flops of the pruned numeric solve *)
    decisions : Trace.decision list;
        (** transformation decision log: VI-Prune (pruned-iteration ratio)
            and VS-Block (fired/declined with the measured average reached
            supernode width) *)
    ord : applied_ordering;
    ord_b_map : int array;
        (** permuted-b entry [t] reads natural [b.values.(ord_b_map.(t))] *)
  }

  val compile : ?cache:t Plan_cache.t -> ?opts:Options.t -> pattern -> t
  (** Symbolic inspection and inspector-guided planning for the patterns
      of [l] and [b]; numeric values are free to change afterwards.
      [opts.vs_block_threshold] moves the VS-Block profitability bar.
      [opts.ordering] relabels the system to [P L P^T (P x) = P b] at
      compile time; the numeric entry points keep taking natural-order [b]
      and returning natural-order [x]. The ordering must keep [P L P^T]
      lower triangular (a dependence-respecting relabeling such as an
      etree postorder via [`Given]); raises [Invalid_argument] otherwise,
      or when [l] is not lower triangular. [?cache] (or [opts.cache],
      which uses the module-wide default cache) routes the compile through
      a pattern-keyed {!Plan_cache}: a hit (same structure of [l], same
      RHS pattern, same [vs_block_threshold] and [ordering]) returns the
      earlier handle physically equal, with no symbolic work. *)

  val cache_stats : unit -> Plan_cache.stats
  (** Hit/miss/length counters of the default cache. *)

  val cache_clear : unit -> unit

  val symbolic_seconds : t -> float

  val solve : t -> Vector.sparse -> float array
  (** Numeric-only solve; [b] must have the compile-time pattern, in
      natural order even on ordered handles (permutation handled inside).
      Raises [Invalid_argument] when [b]'s dimension, index count or value
      count differs from the compiled RHS pattern, or an index lies
      outside [\[0, n)]. *)

  val solve_ip : t -> float array -> unit
  (** In-place: [x] holds b on entry, the solution on exit (both in
      natural order). Raises [Invalid_argument] unless [x] has length n. *)

  type plan = {
    handle : t;
    p : Trisolve_sympiler.plan;
    par : Trisolve_parallel.plan option;
        (** populated when [plan ~ndomains] requested the level-set
            executor *)
    ord_b : Vector.sparse option;
        (** ordered plans: the permuted-b scratch (fixed indices, values
            refreshed per execute) *)
    ord_x : float array option;  (** ordered plans: natural-order output *)
    native : Native_engine.buffers option;
        (** populated when [plan ~engine:`Native] loaded the compiled-C
            executor (buffers Lx, x, and tmp when VS-Block added one) *)
    m_exec : Metrics.histogram;
        (** the plan's [sympiler_execute_seconds] latency series *)
  }
  (** Reusable numeric workspaces for the compile-once / execute-many
      regime. *)

  type input = Vector.sparse
  type output = float array

  val plan : ?ndomains:int -> ?engine:engine -> t -> plan
  (** Without [ndomains]: the sequential reach-set executor. With
      [ndomains] (any value, including 1): the level-set executor on the
      persistent domain pool — levelization happens here, at plan time.
      It gives every [x(i)] the operation sequence of the column sweep
      {!Sympiler_kernels.Stages.lower_ip} over the handle's L, so its
      results equal that sweep's bit for bit for all [ndomains] (the
      reach-set executor's operation order differs). [ndomains] defaults
      the pool sizing rule to
      {!Runtime.Pool.default_size} semantics; see that module. [?engine]
      selects the executor ({!type:engine}); a loaded native kernel takes
      precedence over [ndomains]. *)

  val execute_ip : plan -> Vector.sparse -> float array
  (** Solve into the plan's buffer (valid until the next call on the same
      plan); zero allocation in steady state. Rejects a malformed [b] as
      {!solve} does, leaving the plan usable. *)

  val plan_latency : plan -> Metrics.histogram_snapshot
  (** Per-call solve-latency distribution of this plan's metric series
      (see {!KERNEL.plan_latency}). *)

  val c_code : t -> string
  (** Specialized C implementing the same solve (VS-Block + VI-Prune +
      low-level transformations), from the {!Sympiler_ir.Pipeline}. *)
end

(** Sparse Cholesky factorization [A = L L^T]: a {!Factor.Make} instance.

    [compile] takes the variant decision on one fill analysis of
    lower(A): the supernodal (VS-Block + low-level) variant when the
    average supernode width reaches the paper's hand-tuned 2.0 threshold
    (§4.2), the simplicial (VI-Prune-only) code below it — as Sympiler
    does for matrices 3,4,5,7. [opts.simplicial] forces the simplicial
    variant, [opts.vs_block_threshold] moves the bar; both are in the
    cache key. [opts.ordering] runs the whole analysis on [P A P^T] (the
    numeric entry points keep taking natural-order values; the factor
    produced is that of the permuted matrix). The handle's [decisions]
    log VI-Prune (pruned-iteration ratio vs the dense update count) and
    VS-Block (fired/declined with the measured average supernode width;
    [nan] when [Simplicial] was forced); the ordering's fill ratio is
    reported by {!Explain.cholesky}. Raises [Invalid_argument] on
    non-lower-triangular input.

    [plan ~ndomains] on a supernodal handle runs the level-parallel
    executor on the persistent domain pool (the supernode DAG is levelized
    at plan time); factors are bitwise-identical across all [ndomains].
    Simplicial handles ignore [ndomains]. On a non-positive pivot every
    plan, OCaml or native, simplicial or supernodal, raises
    {!Sympiler_kernels.Dense_blas.Not_positive_definite} at the same
    column (the native simplicial kernel checks the diagonal after the
    factorization, so a NaN pivot counts as well). It is the one
    exception of Cholesky, IC(0) and rejected downdates: the kernels'
    [Cholesky_ref], [Cholesky_leftlooking], [Ic0] and [Rank_update]
    spellings name it too, so one handler catches them all. The plan
    stays reusable. *)
module Cholesky : sig
  type variant = Supernodal | Simplicial

  type updown
  (** Lazily-built rank-update state: the kernel plan (scatter workspace,
      rollback snapshot, memoized etree-path table, incremental-refactor
      inspectors). *)

  include Factor.S with type output = Csc.t and type updown := updown

  val variant : t -> variant
  (** What [compile] chose: the kernel of the handle's OCaml plans. *)

  val native_variant : t -> variant
  (** The kernel of the handle's native plans. A simplicial handle's
      native plan runs the supernodal C kernel when the handle's
      flop-weighted supernode width
      ({!Sympiler_symbolic.Supernodes.flop_weighted_width}) reaches the
      measured C crossover, 6, and the caller pinned no variant
      ([opts.simplicial] or an explicit [opts.vs_block_threshold]); its
      factor is then the one an OCaml plan compiled with
      [vs_block_threshold = 0.] gives, bit for bit. Otherwise it is
      {!variant}. *)

  val variant_name : variant -> string
  (** ["supernodal"] or ["simplicial"]. *)

  val plan_factor : plan -> Csc.t
  (** The plan's factor view, refreshed in place by each {!execute_ip}
      (valid until the next call on the same plan). *)

  val update_ip : plan -> ?sigma:float -> Vector.sparse -> unit
  (** In-place rank-1 update of the plan's factor: [L L^T] becomes
      [A + sigma w w^T] (default [sigma = 1.]) along the §3.3 etree path,
      without refactoring. [w] is in {e natural} order; ordered plans
      gather it through the inverse permutation into plan-owned buffers.
      Steady-state calls (memoized path, in-pattern update) allocate
      nothing.

      An update outside the factor pattern {e escalates}: the plan is
      recompiled in place over the augmented pattern (lower(L L^T) + the
      update clique) with the handle's own options, through the default
      cache, and factored. The plan's [handle] becomes the escalated one:
      it keeps the caller's natural pattern and ordering name, and its
      [ord] carries its own input map over the grown pattern ([-1] at the
      structural zeros the caller never passes; on a natural handle the
      permutation becomes the identity), so the plan, and any fresh plan
      of that handle, still take inputs with the original natural
      pattern. [ndomains]/[engine] requests are dropped back to the
      sequential OCaml executor, {!plan_latency} follows it (the
      [engine="ocaml"] series), and a native plan or [c_code] of the
      escalated handle raises [Invalid_argument].

      Raises [Invalid_argument] on malformed [w] (a dimension or value
      count that does not match, unsorted, duplicate or out-of-range
      indices) before anything is written, and
      [Not_positive_definite] (the one of {!Sympiler_kernels.Dense_blas})
      on a rejected downdate, with the factor rolled back to its pre-call
      values. *)

  val downdate_ip : plan -> ?sigma:float -> Vector.sparse -> unit
  (** [update_ip ~sigma:(-. sigma)]: [A - sigma w w^T]. *)

  val refactor_cols_ip : plan -> Csc.t -> int
  (** Incremental refactorization: diff the input values against the plan's
      recorded baseline (the last full {!execute_ip}) and recompute only
      the factor rows reachable from the changed input columns (etree path
      closure). Returns the number of rows recomputed. Falls back to a
      full refactor (returning [n]) when no valid baseline exists — before
      any full refactor, or after a rank update (the factor then belongs
      to a different matrix). On simplicial plans the recomputed rows are
      bitwise what a full up-looking refactor produces; on supernodal
      plans agreement is to rounding (different operation order). *)

  val solve : t -> Csc.t -> float array -> float array
  (** [A x = b]: numeric factorization + the two triangular sweeps of
      {!Sympiler_kernels.Stages.solve_pair_ip} (both counted in the
      metrics) in one work vector. On an ordered handle [b] is gathered
      into compiled order, the permuted system solved in place, and [x]
      scattered back to natural order. Rejects malformed input as
      {!factor} does, and a [b] whose length is not n. *)
end

(** The four §3.3 families below are {!Factor.Make} instances too. Each
    [compile] consumes only [opts.ordering] (and [opts.cache]); the other
    fields are ignored for {!KERNEL} uniformity and stay out of the cache
    key. [opts.ordering] compiles for [P A P^T] — on the symmetrized graph
    for the lower(A) families, on [A + A^T] for the square ones — and the
    numeric entry points keep taking natural-order values and return the
    permuted system's factors. [?ndomains] is accepted and ignored
    (sequential executors). [execute_ip] raises the family's pivot
    exception on a pivot failure; the plan stays reusable. *)

(** [A = L D L^T] factorization for symmetric indefinite but strongly
    regular matrices (§3.3); pass lower(A) (raises [Invalid_argument]
    otherwise). Pivot failure: {!Sympiler_kernels.Ldlt.Zero_pivot}. *)
module Ldlt : sig
  type updown
  (** Lazily-built rank-update state (GGMS C1 recurrence). *)

  include
    Factor.S
      with type compiled = Sympiler_kernels.Ldlt.compiled
       and type kplan = Sympiler_kernels.Ldlt.plan
       and type output = Sympiler_kernels.Ldlt.factors
       and type updown := updown

  val update_ip : plan -> ?sigma:float -> Vector.sparse -> unit
  (** In-place rank-1 update of the plan's factors: [L D L^T] becomes
      [A + sigma w w^T] (default [sigma = 1.]) via the
      Gill–Golub–Murray–Saunders C1 recurrence — no square roots, update
      and downdate share one code path, indefinite pivots allowed. [w] is
      in natural order; ordered plans gather it through the inverse
      permutation. Steady-state calls allocate nothing.

      Unlike {!Cholesky.update_ip} there is no escalation path: an update
      outside the factor pattern raises [Rank_update.Pattern_violation]
      (factors untouched) and the caller recompiles — with indefinite
      inputs the escalated matrix's signature is ambiguous, so the
      decision stays with the caller. Raises
      [Sympiler_kernels.Ldlt.Zero_pivot] on an exactly-zero updated pivot,
      with the factors rolled back; [Invalid_argument] on malformed [w]
      (as for {!Cholesky.update_ip}), before anything is written. *)

  val downdate_ip : plan -> ?sigma:float -> Vector.sparse -> unit
  (** [update_ip ~sigma:(-. sigma)]: [A - sigma w w^T]. *)
end

(** Sparse LU (left-looking Gilbert-Peierls, no pivoting) for matrices
    that are numerically safe without pivoting (§3.3); the only family
    here with a flop model ([t.flops], from the reach-set simulation over
    DG_L). Pivot failure: {!Sympiler_kernels.Lu.Zero_pivot}. *)
module Lu :
  Factor.S
    with type compiled = Sympiler_kernels.Lu.Sympiler.compiled
     and type kplan = Sympiler_kernels.Lu.Sympiler.plan
     and type output = Sympiler_kernels.Lu.factors
     and type updown = unit

(** Incomplete Cholesky with zero fill, IC(0) (§3.3); pass lower(A). The
    factor keeps exactly the input pattern, so an ordering changes the
    incomplete factor's quality, not just its cost. Pivot failure:
    {!Sympiler_kernels.Dense_blas.Not_positive_definite}, the one
    exception of {!Cholesky} (its [Ic0] spelling names it too). *)
module Ic0 :
  Factor.S
    with type compiled = Sympiler_kernels.Ic0.compiled
     and type kplan = Sympiler_kernels.Ic0.plan
     and type output = Csc.t
     and type updown = unit

(** Incomplete LU with zero fill, ILU(0), row-wise IKJ (§3.3 / §5). [compile]
    raises {!Sympiler_kernels.Ilu0.Zero_pivot} when a structural diagonal
    entry is missing; so does a pivot failure. *)
module Ilu0 :
  Factor.S
    with type compiled = Sympiler_kernels.Ilu0.compiled
     and type kplan = Sympiler_kernels.Ilu0.plan
     and type output = Sympiler_kernels.Ilu0.factors
     and type updown = unit

(** Symbolic "explain" reports: what the inspectors measured and what the
    transformations decided, for one compiled handle. Diagnostic path —
    recomputes symbolic quantities freely; not for steady-state loops. *)
module Explain : sig
  type histogram = (string * int) list
  (** Power-of-two buckets, label to count: [1], [2], [3-4], [5-8], … *)

  type report = {
    kernel : string;  (** "cholesky" or "trisolve" *)
    ordering : string;
        (** "natural", "rcm", "amd", "min-degree", or "given" *)
    n : int;
    nnz_a : int;
    nnz_l : int;  (** under the handle's selected ordering *)
    nnz_l_natural : int;
        (** what the natural order would cost (equals [nnz_l] on natural
            handles) *)
    fill_ratio : float;  (** nnz(L) / nnz(A); 0 for empty patterns *)
    etree_height : int;
    col_count_hist : histogram;  (** nnz per column of L *)
    supernode_width_hist : histogram;
    avg_supernode_width : float;
    flop_weighted_width : float;
        (** supernode width averaged over the flop model
            ({!Sympiler_symbolic.Supernodes.flop_weighted_width}): what
            the native engine's VS-Block rule reads *)
    native_kernel : string;
        (** the kernel a native plan of the handle runs: "supernodal" or
            "simplicial" (Cholesky: {!Cholesky.native_variant}; a
            triangular solve follows its own VS-Block decision) *)
    level_depth : int;  (** level sets of L's dependence graph *)
    max_level_width : int;
    decisions : Trace.decision list;
        (** the handle's decision log; on an ordered Cholesky handle led by
            the ordering's [fill_ratio_vs_natural] ([nnz_l /
            nnz_l_natural]) *)
    predicted_flops : float;  (** symbolic flop model of the handle *)
    predicted_flops_natural : float;
        (** the same model without the ordering *)
    executed_flops : int;
        (** the [sympiler_flops] counter ({!Metrics.flops}) when the report
            is built: it counts every kernel run while metrics were on. To
            report one execution, read the counter before it and subtract,
            as [sympiler_cli explain] does. *)
    symbolic_seconds : float;
  }

  val cholesky : Cholesky.t -> report
  val trisolve : Trisolve.t -> report

  val to_json : report -> string
  val to_table : report -> string
  (** Aligned two-column text rendering (label column sized to fit). *)
end

val explain : Cholesky.t -> Explain.report
(** Shorthand for {!Explain.cholesky}. *)
