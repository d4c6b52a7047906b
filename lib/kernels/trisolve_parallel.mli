open Sympiler_sparse

(** Level-set (wavefront) parallel sparse triangular solve on the
    persistent domain pool ({!Sympiler_runtime.Pool}) — the shared-memory
    extension the paper's conclusion points to (and its ParSy follow-on
    builds). The dependence graph is levelized at compile time; the
    numeric solve runs levels sequentially, each wide level in two phases:
    the caller finalizes the level's columns (the divisions), then workers
    apply the below-diagonal updates grouped by row over a compile-time
    row-gather structure with ascending-column order per row. Workers own
    disjoint rows (no races, no atomics, no merge sweep), and the pinned
    per-row update order makes results bitwise-identical to the sequential
    sweep for any domain count. Row ranges are cost-balanced at plan time
    from per-row entry counts. *)

type compiled = {
  l : Csc.t;
  nlevels : int;
  level_ptr : int array;
      (** level [l] = [level_cols.\[level_ptr.(l), level_ptr.(l+1))] *)
  level_cols : int array;  (** columns ordered by level, ascending inside *)
  lrow_ptr : int array;
      (** level [l]'s updated rows = [lrows.\[lrow_ptr.(l), lrow_ptr.(l+1))] *)
  lrows : int array;  (** target row indices *)
  lentry_ptr : int array;
      (** row slot [k]'s entries = [\[lentry_ptr.(k), lentry_ptr.(k+1))] *)
  lentry_col : int array;  (** source column, ascending within a row slot *)
  lentry_pos : int array;  (** position of the entry in [l.values] *)
}

val compile : Csc.t -> compiled
(** The global level sets
    ({!Sympiler_symbolic.Dep_graph.level_order} in one window; one empty
    level when [n = 0]) plus the per-level row-gather structure —
    inspection sets computed once. *)

val solve_ip_sequential : compiled -> float array -> unit
(** Sequential execution of the level schedule (validates the schedule). *)

val solve_ip_parallel : ?ndomains:int -> compiled -> float array -> unit
(** One-shot parallel execution (allocates a transient plan); levels
    narrower than 64 columns run inline. [ndomains] defaults to
    {!Sympiler_runtime.Pool.default_size}. *)

val solve : ?ndomains:int -> compiled -> float array -> float array
(** Functional wrapper over the in-place solvers. *)

(** {2 Plans} *)

type plan = {
  c : compiled;
  x : float array;  (** plan-owned solution *)
  ndomains : int;
  row_part : int array array;
      (** per level: [ndomains + 1] cost-balanced boundaries into the
          level's row slots *)
  mutable lv : int;  (** level being dispatched (set before each run) *)
  task : int -> unit;
      (** the preallocated phase-B pool worker; exposed (with
          [lv]/[row_part]) for the bench harness's spawn-per-call
          baseline *)
}

val make_plan : ?ndomains:int -> compiled -> plan
(** [ndomains] defaults to {!Sympiler_runtime.Pool.default_size} — the
    library's single sizing decision ([SYMPILER_NDOMAINS] override, else
    [Domain.recommended_domain_count]). Pass 1 to force the sequential
    path. *)

val solve_ip : plan -> float array -> float array
(** Solve into the plan's buffer (valid until the next call). Zero
    steady-state allocation, sequential or parallel; results are
    bitwise-identical across [ndomains]. *)

val solve_ip_sparse : plan -> Vector.sparse -> float array
(** Sparse-RHS entry used by the facade's level-set plans: scatters [b]
    into the zeroed buffer, then solves as {!solve_ip}. Allocation-free. *)

val valid_schedule : compiled -> bool
(** Every dependence edge crosses levels forward (test helper). *)
