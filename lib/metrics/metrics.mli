(** Serving-grade metrics: the library's one store of counters, gauges
    and latency histograms — a domain-safe labeled registry with
    OpenMetrics / JSON / table exporters.

    The instrumentation spine (DESIGN.md "Instrumentation"):
    - {b metrics} (this module) holds every count: work counters
      ({!flops}, {!levels}, …), plan-cache, native and pool series, and
      the latency {e distributions} (p50/p99, exact sum) of compiles and
      numeric calls, labeled by dimension. Each event counts once, here.
    - {b trace} holds every span: what happened, in order, and how long
      each phase took.
    - {b prof} holds the switch and the clock they share.

    Contracts:
    - {!enabled}/{!enable}/{!disable} are {!Sympiler_prof.Prof}'s switch:
      one flag for every series of the library. [SYMPILER_METRICS=1] in
      the environment turns it on at program start.
    - Off (the default) costs a single boolean load per recording site
      and allocates nothing.
    - On, the hot paths ({!inc}, {!observe_ns}) are one atomic
      fetch-and-add on a per-domain sharded cell plus integer arithmetic —
      no allocation, no locks. Cells are aggregated at read time.
    - Registration ({!counter} / {!gauge} / {!histogram}) takes a lock and
      allocates; do it once at plan/startup time and keep the handle. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero every registered metric (registrations and handles survive). *)

(** {1 Registration}

    A metric is identified by its name plus its sorted label set;
    registering the same identity twice returns the same handle.
    Names must match [[a-zA-Z_:][a-zA-Z0-9_:]*]; label names must match
    [[a-zA-Z_][a-zA-Z0-9_]*]. Label values are arbitrary UTF-8 (escaped
    on export). Raises [Invalid_argument] on a malformed name or when the
    same identity is re-registered as a different metric kind. *)

type counter
type gauge
type histogram

val counter :
  ?help:string -> ?labels:(string * string) list -> string -> counter

val gauge : ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  ?help:string -> ?labels:(string * string) list -> string -> histogram
(** Histogram values are {e seconds}; internally they are recorded as
    integer nanoseconds into log-linear (HDR-style) buckets: exact below
    16 ns, then 16 sub-buckets per power of two (≤ 6.25% relative width),
    saturating at ~2.3 h. Count, sum, and max are exact; percentiles are
    exact to one bucket. *)

(** {1 Work series}

    Registered at module init; the kernels, the symbolic stages and the
    facade bump them while {!enabled}. Gauges hold the last value set. *)

val flops : counter
(** [sympiler_flops]: useful floating-point operations executed. *)

val nnz_touched : counter
(** [sympiler_nnz_touched]: matrix nonzeros read or written by kernels. *)

val iters_pruned : counter
(** [sympiler_iters_pruned]: loop iterations removed by VI-Prune. *)

val supernodes : counter
(** [sympiler_supernodes]: supernodes produced by VS-Block detection. *)

val supernode_cols : counter
(** [sympiler_supernode_cols]: columns those supernodes cover. *)

val levels : counter
(** [sympiler_levels]: level sets built by level-set schedules. *)

val max_level_width : gauge
(** [sympiler_max_level_width]: widest level of the last schedule. *)

val orderings : counter
(** [sympiler_orderings]: fill-reducing orderings computed. *)

val updown_path_hits : counter
(** [sympiler_updown_path_hits]: rank-update etree paths served from the
    memoized per-jmin table. *)

val updown_path_misses : counter
(** [sympiler_updown_path_misses]: rank-update etree paths computed. *)

val updown_escalations : counter
(** [sympiler_updown_escalations]: rank updates that outgrew the factor
    pattern and recompiled it. *)

(** {1 Recording (hot paths)} *)

val inc : counter -> int -> unit
(** Add [n] (>= 0) to a counter: one boolean load when disabled, one
    atomic fetch-and-add when enabled. Never allocates. *)

val set : gauge -> float -> unit
(** Set a gauge to the given value (last write wins across domains).
    Gauges are sample-time instruments, not hot-path ones: setting one
    may allocate a boxed float. *)

val observe : histogram -> float -> unit
(** Record a latency in seconds: bucket + sum + max updates, all atomic
    fetch-and-add / compare-and-set on integers. Never allocates.
    Negative and non-finite values are dropped. *)

val observe_ns : histogram -> int -> unit
(** Same, with the value already in integer nanoseconds: the form a
    timing pair of {!Sympiler_prof.Prof.now_ns} reads feeds without
    boxing a float. *)

(** {1 Reading} *)

val counter_value : counter -> int
(** Sum over the per-domain cells. *)

val gauge_value : gauge -> float

type histogram_snapshot = {
  count : int;
  sum : float;  (** seconds, exact (integer-ns accumulation) *)
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;  (** seconds, exact *)
}

val snapshot : histogram -> histogram_snapshot

val percentile : histogram -> float -> float
(** [percentile h q] for [q] in [0,1]: the upper bound (in seconds) of
    the bucket holding the nearest-rank [q]-quantile; [0.] when empty. *)

(** {1 Bucket geometry} (exposed for tests and the bench oracle) *)

val bucket_of_ns : int -> int
(** Bucket index of an integer-nanosecond value (saturating). *)

val bucket_upper_ns : int -> int
(** Inclusive upper bound of bucket [i], in nanoseconds. *)

val n_buckets : int

(** {1 Process gauges} *)

val sample_process : unit -> unit
(** Refresh the built-in process gauges: [process_gc_minor_words],
    [process_gc_major_words], [process_gc_compactions], and
    [process_vm_hwm_kb] (from /proc/self/status; absent on platforms
    without procfs). Called automatically by the exporters below. *)

(** {1 Exporters}

    All exporters aggregate the sharded cells at call time; they allocate
    freely and take the registry lock, so they belong on scrape/report
    paths, not hot paths. Metrics are emitted sorted by name then label
    set, so output is deterministic. *)

val to_openmetrics : unit -> string
(** OpenMetrics 1.0 text exposition: [# TYPE]/[# HELP] metadata, counters
    as [name_total], histograms as cumulative [name_bucket{le="..."}]
    series over a decade ladder plus [+Inf], [name_sum], [name_count];
    terminated by [# EOF]. Label values are escaped per the spec. *)

val to_json : unit -> Sympiler_prof.Prof.Json.t
(** [{"counters":[...],"gauges":[...],"histograms":[...]}] with per-metric
    name, labels, and values (histograms include count/sum/percentiles). *)

val to_table : unit -> string
(** Aligned human-readable table: one row per counter/gauge, and
    count/sum/p50/p99/max columns per histogram (the sums say where the
    time went). *)

(** {1 OpenMetrics conformance lint} (used by tests, bench, and CI)

    A small structural checker for the exposition format produced above:
    metric-name and label-name grammar, label-value escaping, cumulative
    non-decreasing [_bucket] series ending in [le="+Inf"] that matches
    [_count], and a final [# EOF]. *)

val lint_openmetrics : string -> (unit, string) result
