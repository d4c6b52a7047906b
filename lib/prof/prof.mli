(** The instrumentation switch, the monotonic clock, and a JSON builder.

    The library keeps one instrumentation spine (DESIGN.md
    "Instrumentation"): {!Sympiler_metrics.Metrics} holds every counter,
    gauge and latency histogram, {!Sympiler_trace.Trace} every span. This
    module is what both stand on.

    - {b One switch.} {!enabled} is the flag [Metrics.enabled] reads and
      [Metrics.enable]/[disable] set: the two spellings are one switch.
      Off is the default; [SYMPILER_METRICS=1] in the environment turns it
      on at program start. Every recording site is guarded by it, a single
      boolean load, so the disabled path does no work and allocates
      nothing. Trace's span ring has a separate switch
      ({!Sympiler_trace.Trace.enable}).
    - {b One clock.} {!now_ns} reads CLOCK_MONOTONIC without allocating,
      so a timing pair in integer nanoseconds fed to
      [Metrics.observe_ns] keeps the enabled hot path allocation-free. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val now_ns : unit -> int
(** The monotonic clock in integer nanoseconds (immune to NTP
    adjustments). Never allocates. *)

val now_seconds : unit -> float
(** The same clock in seconds, for callers that report seconds (bench
    harness, [symbolic_seconds]). Always available, whatever the
    switch. *)

(** Minimal JSON document builder (no external dependency), used by the
    bench harness to assemble [BENCH_*.json] files. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string

  val of_string : string -> (t, string) result
  (** Parse a JSON document (the full language; numbers without [.]/[e]
      parse as [Int], others as [Float]). Used by the perf-regression
      gate to read committed [BENCH_*.json] baselines. *)
end
