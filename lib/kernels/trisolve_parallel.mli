open Sympiler_sparse

(** Level-set (wavefront) parallel sparse triangular solve on the
    persistent domain pool ({!Sympiler_runtime.Pool}) — the shared-memory
    extension the paper's conclusion points to (and its ParSy follow-on
    builds). The dependence graph is levelized at compile time, and the
    level sets are the order of a {!Stages.schedule}. The numeric solve is
    that schedule's forward row gather ({!Stages.lower_range_ip}), run
    level by level: a narrow level inline, a wide one split into
    cost-balanced slices of rows that pool workers gather concurrently.
    Rows of one level read only earlier levels, so workers own disjoint
    rows (no races, no atomics, no merge sweep), and every [x(i)] gets the
    operation sequence of {!Stages.lower_ip}: results are bitwise-identical
    to the column sweep for any domain count. *)

type compiled = {
  l : Csc.t;
  nlevels : int;
  level_ptr : int array;
      (** level [l] = [level_cols.\[level_ptr.(l), level_ptr.(l+1))] *)
  level_cols : int array;  (** columns ordered by level, ascending inside *)
  sched : Stages.schedule;  (** L's row lists, in order [level_cols] *)
}

val compile : Csc.t -> compiled
(** The global level sets
    ({!Sympiler_symbolic.Dep_graph.level_order} in one window; one empty
    level when [n = 0]) and the schedule over them — inspection sets
    computed once. *)

val solve : ?ndomains:int -> compiled -> float array -> float array
(** One-shot solve on a fresh plan ({!make_plan}, {!solve_ip}); the result
    is that plan's buffer. Raises [Invalid_argument] on a wrong-length
    right-hand side. *)

(** {2 Plans} *)

type plan = {
  c : compiled;
  x : float array;  (** plan-owned solution *)
  ndomains : int;
  part : int array array;
      (** per level: [ndomains + 1] boundaries into [level_cols],
          balanced on each row's cost (its row-list length plus 1) *)
  mutable lv : int;  (** level being dispatched (set before each run) *)
  task : int -> unit;
      (** the preallocated pool worker: slice [w] of level [lv]; exposed
          (with [lv]/[part]) for the bench harness's spawn-per-call
          baseline *)
}

val make_plan : ?ndomains:int -> compiled -> plan
(** [ndomains] defaults to {!Sympiler_runtime.Pool.default_size} — the
    library's single sizing decision ([SYMPILER_NDOMAINS] override, else
    [Domain.recommended_domain_count]). With 1, a solve is one
    {!Stages.lower_sched_ip} call. *)

val solve_ip : plan -> float array -> float array
(** Solve into the plan's buffer (valid until the next call). Zero
    steady-state allocation, sequential or parallel; results are
    bitwise-identical to {!Stages.lower_ip} for every [ndomains]. Raises
    [Invalid_argument] on a wrong-length right-hand side. *)

val valid_schedule : compiled -> bool
(** Every dependence edge crosses levels forward (test helper). *)
