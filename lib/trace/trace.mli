(** Structured trace spans: hierarchical begin/end events with typed
    attributes, recorded into a preallocated ring buffer and exportable as
    Chrome trace-event JSON (Perfetto / [chrome://tracing]) or folded-stacks
    text (flamegraph input).

    Spans are the phase timer of the instrumentation spine (DESIGN.md
    "Instrumentation"): [symbolic.*], [ordering], [compile.<family>], the
    [codegen:<pass>] IR passes and the [factor_ip.<kernel>] /
    [solve_ip.<kernel>] numeric calls each open one. Counts live in
    {!Sympiler_metrics.Metrics}; both read {!Sympiler_prof.Prof}'s clock.

    The span ring has its own switch, separate from the metrics switch, so
    a process may record spans without counting or count without spans.
    Off is the default, and the disabled path is a single boolean load:
    {!begin_span}, {!end_span}, {!set_attr} and {!instant} allocate nothing
    and read no clock while disabled, so span sites may sit on
    allocation-free steady-state kernel paths. {!with_span} is likewise a
    plain [f ()] when disabled (callers on hot paths should still prefer
    {!begin_span}/{!end_span}, which need no closure at the call site).

    When enabled, completed spans are written oldest-first into a ring of
    {!enable}'s [capacity]; once full, each new span overwrites the oldest
    and bumps {!dropped_spans}. *)

(** Attribute values attached to spans and instant events. *)
type attr = Bool of bool | Int of int | Float of float | Str of string

type kind = Span | Instant

(** A completed span (or instant event) as stored in the ring. *)
type span = {
  name : string;
  start_ns : int;  (** monotonic-clock begin time *)
  dur_ns : int;  (** 0 for instants *)
  depth : int;  (** nesting depth at begin; 0 = root *)
  kind : kind;
  attrs : (string * attr) list;  (** in the order they were attached *)
}

val enabled : unit -> bool

val enable : ?capacity:int -> unit -> unit
(** Turn tracing on. Allocates the ring on first use; passing a different
    [capacity] (default 65536 spans) reallocates and clears it. Raises
    [Invalid_argument] when [capacity < 1]. *)

val disable : unit -> unit

val reset : unit -> unit
(** Drop all recorded spans, the open-span stack, and the dropped counter;
    keeps the ring allocation and the enabled state. *)

(** {1 Recording} *)

val begin_span : string -> unit
(** Open a nested span. No-op (and allocation-free) while disabled. *)

val end_span : unit -> unit
(** Close the innermost open span, writing it into the ring. No-op while
    disabled or when no span is open. *)

val set_attr : string -> attr -> unit
(** Attach an attribute to the innermost open span (e.g. a cache-hit flag
    discovered mid-span). No-op while disabled or outside any span. *)

val with_span : ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span (exception-safe); plain
    [f ()] while disabled. *)

val instant : ?attrs:(string * attr) list -> string -> unit
(** Record a zero-duration event at the current depth. *)

(** {1 Decision log}

    Inspector-guided transformations record whether they fired and the
    measured quantity behind the choice (the paper's profitability
    thresholds, §4.2). Decisions appear in the trace as instant events
    named ["decision.<pass>"] and are also kept on compiled handles for
    {!Sympiler}'s explain reports. *)

type decision = {
  pass : string;  (** e.g. ["vs-block"], ["vi-prune"] *)
  fired : bool;
  metric : string;  (** e.g. ["avg_supernode_width"] *)
  value : float;  (** measured value of [metric]; [nan] = not measured *)
  threshold : float;  (** the profitability threshold compared against *)
}

val decision : decision -> unit
(** Record [d] as an instant event (no-op while disabled). *)

val decision_attrs : decision -> (string * attr) list

(** {1 Inspection} *)

val spans : unit -> span list
(** Completed spans, oldest first (completion order). *)

val span_count : unit -> int
val dropped_spans : unit -> int

(** {1 Exporters} *)

val to_chrome_json : unit -> string
(** The recorded spans as a Chrome trace-event JSON document
    ([{"traceEvents":[...]}]): spans are complete ("X") events with
    microsecond [ts]/[dur], instants are "i" events, attributes become
    [args]. [ts] counts from the earliest exported span, so it keeps
    sub-microsecond precision however long the host has been up.
    Loadable in Perfetto or [chrome://tracing]. *)

val to_folded : unit -> string
(** Folded-stacks text: one [root;child;leaf self_ns] line per stack path
    (self time = span time minus child spans), ready for
    [flamegraph.pl]. *)
