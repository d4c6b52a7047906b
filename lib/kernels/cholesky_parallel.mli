open Sympiler_sparse

(** Level-set parallel supernodal Cholesky on the persistent domain pool
    ({!Sympiler_runtime.Pool}) — the shared-memory direction of the paper's
    conclusion, in the style of its ParSy follow-on: the supernodal
    dependency DAG is levelized at compile time and each level's target
    supernodes factor in parallel, partitioned by the symbolic counts²
    flop estimates ({!Sympiler_symbolic.Fill_pattern.col_flops}).

    Race-free without atomics: a left-looking target writes only its own
    panel and reads descendant panels finalized at earlier levels — and
    because each target runs the same operation sequence as the sequential
    engine, factors are bitwise-identical for any domain count. Steady
    state allocates nothing (the worker closure lives in the plan). It is
    a kernel, not a facade plan: on the 2-vCPU evaluation host the
    facade's sequential plans beat it (DESIGN.md, "Parallel runtime"),
    and correctness is exercised with several domains regardless. *)

type compiled = {
  sym : Cholesky_supernodal.Sympiler.compiled;
  nlevels : int;
  level_ptr : int array;
  level_sn : int array;  (** supernodes ordered by level *)
  cost : float array;
      (** per-supernode symbolic flop estimate (counts² model), input of
          the plan's cost-balanced partitions *)
}

val compile : Csc.t -> compiled
(** Supernodal compilation plus DAG levelization (one more inspection
    set). *)

val factor : ?ndomains:int -> compiled -> Csc.t -> Csc.t
(** Numeric factorization; levels narrower than 8 supernodes run inline.
    Allocates a fresh factor per call; use a {!plan} for steady state.
    [ndomains] defaults to {!Sympiler_runtime.Pool.default_size}. *)

(** {2 Plans} *)

type plan = {
  c : compiled;
  lx : float array;  (** values of L, plan-owned *)
  relpos : int array array;  (** per-domain row-offset scratch *)
  wbuf : float array array;  (** per-domain update buffer *)
  l : Csc.t;
      (** factor view sharing [lx] and the analysis' column pattern;
          refreshed by {!factor_ip} *)
  ndomains : int;
  part : int array array;
      (** per level: [ndomains + 1] cost-balanced boundaries into
          [level_sn] *)
  mutable lv : int;  (** level being dispatched (set before each run) *)
  mutable a_lower : Csc.t;  (** input of the call in flight *)
  task : int -> unit;
      (** the preallocated pool worker; exposed (with [lv]/[part]) so the
          bench harness can drive the same chunks through a spawn-per-call
          baseline *)
}

val make_plan : ?ndomains:int -> compiled -> plan
(** [ndomains] defaults to {!Sympiler_runtime.Pool.default_size} — the
    library's single sizing decision ([SYMPILER_NDOMAINS] override, else
    [Domain.recommended_domain_count]). Pass 1 to force the sequential
    path. *)

val factor_ip : plan -> Csc.t -> unit
(** Numeric factorization into the plan's storage; zero allocation in
    steady state, sequential or parallel (the pool barrier allocates
    nothing either). *)

val process_target :
  compiled -> Csc.t -> float array -> int array -> float array -> int -> unit
(** [process_target c a_lower lx relpos wbuf s]: one target supernode's
    panel init + scheduled updates + factorization (the unit of
    level-parallel work), with one domain's row-offset scratch and update
    buffer; exposed for the bench baseline. *)

val valid_schedule : compiled -> bool
(** Every update dependency crosses levels forward (test helper). *)
