(** Persistent worker pool of OCaml 5 domains.

    The level-set parallel kernels used to pay [Domain.spawn]/[Domain.join]
    for every numeric call — tens of microseconds per level, destroying the
    compile-once/execute-many amortization the rest of the system is built
    around. This pool spawns its worker domains once (lazily, on the first
    parallel dispatch) and thereafter runs tasks through a low-latency
    level barrier: workers spin briefly on an atomic epoch counter, then
    park on a [Mutex]/[Condition] pair, so an idle pool costs nothing and a
    busy one synchronizes without syscalls in the common case.

    Zero steady-state allocation: [run] allocates nothing on the caller or
    worker domains when the task closure is preallocated (as the kernel
    plans do), so the `plans` Gc gates extend to the parallel paths.

    Sizing is decided in exactly one place: {!default_size}, which reads
    [Domain.recommended_domain_count] unless the [SYMPILER_NDOMAINS]
    environment variable overrides it. Every [?ndomains] default in the
    library resolves here.

    [run] is NOT reentrant and must not be called from two domains at
    once: it is the single orchestration point of a numeric phase. *)

val max_domains : int
(** Hard cap on pool width (worker requests are clamped to it). *)

val parse_ndomains : string option -> int option
(** The [SYMPILER_NDOMAINS] parser, exposed for tests: [Some k] for a
    well-formed positive integer (clamped to {!max_domains}), [None] for
    absent or malformed input. *)

val default_size : unit -> int
(** Pool width used when a caller does not pass [?ndomains]:
    [SYMPILER_NDOMAINS] if set and valid, else
    [Domain.recommended_domain_count ()], clamped to {!max_domains}.
    Read once and cached. *)

val spawned : unit -> int
(** Worker domains spawned so far (0 until the first parallel [run]). *)

val run : nworkers:int -> (int -> unit) -> unit
(** [run ~nworkers task] executes [task 0] on the calling domain and
    [task 1] … [task (nworkers - 1)] on pool workers, returning when all
    have finished (the level barrier). [nworkers <= 1] degrades to a plain
    [task 0] call with no synchronization at all. Missing workers are
    spawned on demand and persist for the process lifetime.

    If any task raises, the first captured exception is re-raised on the
    caller after the barrier; the pool itself survives and remains usable.

    While metrics are on, each dispatch records its latency
    ([sympiler_pool_dispatch_seconds]), [sympiler_pool_runs] and
    [sympiler_pool_tasks], and sets the [sympiler_pool_max_workers] and
    [sympiler_pool_imbalance_pct] gauges (max/mean worker time, 100 =
    balanced) to its own width and imbalance; a ["pool.run"] trace span
    brackets the dispatch when tracing is on. *)
