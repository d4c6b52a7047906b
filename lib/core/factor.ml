open Sympiler_sparse
open Compile_common

(* The five factor families (Cholesky and the §3.3 LDL^T, LU, IC(0),
   ILU(0)) are one pipeline — ordering, symbolic inspection, plan, engine —
   around different kernels. [FAMILY] holds what differs; [Make] writes the
   rest once and produces the family's {!KERNEL} module. *)

(** The uniform kernel lifecycle every facade family implements (the
    contract is documented on {!Sympiler.KERNEL}). *)
module type KERNEL = sig
  type pattern
  (** What the symbolic phase inspects (structure only). *)

  type t
  (** Compiled handle: inspection sets + chosen strategy. *)

  type plan
  (** Reusable numeric workspaces for compile-once / execute-many. *)

  type input
  (** Numeric input of one execution (values free to change per call). *)

  type output
  (** Result view over plan-owned storage. *)

  val compile : ?cache:t Plan_cache.t -> ?opts:Options.t -> pattern -> t
  val cache_stats : unit -> Plan_cache.stats
  val cache_clear : unit -> unit

  val symbolic_seconds : t -> float
  (** One-time inspection + planning cost of this handle. *)

  val plan : ?engine:Options.engine -> t -> plan
  val execute_ip : plan -> input -> output

  val plan_latency : plan -> Metrics.histogram_snapshot
  (** Snapshot of the plan's per-call execution-latency histogram
      ([sympiler_execute_seconds], shared across plans with the same
      family × op × engine × ordering labels): exact count/sum/max,
      bucket-resolution p50/p90/p99. All zeros until {!Metrics.enable}. *)

  val c_code : t -> string
end

(** A plan's factor as the operands of a pipeline's sweeps: views into the
    plan's storage, which each [factor_ip] refreshes in place. *)
type operands =
  | L of Csc.t  (** Cholesky, IC(0): [L], diagonal first per column *)
  | L_d of Csc.t * float array  (** LDL^T: unit [L] and the diagonal of [D] *)
  | L_u of Csc.t * Csc.t  (** LU: unit [L] and [U] *)
  | Csr_lu of Sympiler_kernels.Ilu0.factors  (** ILU(0): the CSR [L\U] *)

(** The L structure a pipeline's level-sweep rule reads, and the sweep
    schedule over it for a topological order. *)
type sweep_l = Csc.t * (order:int array -> Sympiler_kernels.Stages.schedule)

(** The [sweep_l] of an [L] whose row lists {!Sympiler_kernels.Stages.schedule}
    builds from its structure. *)
let positional (l : Csc.t) : sweep_l =
  (l, fun ~order -> Sympiler_kernels.Stages.schedule ~order l)

(** What one factor family contributes: its kernel and the few facts the
    shared scaffold cannot derive. *)
module type FAMILY = sig
  val name : string
  (** ["cholesky"], ["ldlt"], ["lu"], ["ic0"] or ["ilu0"]: the stem of the
      family's span names ([compile.<name>]), metric label and error
      messages ([Sympiler.<Name>.…]). *)

  val lower : bool
  (** [true]: the pattern is lower(A) (checked at compile time, ordered on
      the symmetrized graph); [false]: square A (ordered on [A + A^T]). *)

  type compiled
  type kplan
  type output

  type updown
  (** Family-owned lazy rank-update state (the Cholesky and LDL^T update
      plans; [unit] elsewhere). *)

  val compile : Options.t -> compiled_pattern -> compiled
  (** The symbolic phase on the compiled-order pattern, checked by the
      facade (a lower family may force its upper triangle). Reads no
      option but those {!key} fingerprints (the ordering is applied
      before). *)

  val key : Options.t -> int array
  (** The options [compile] reads, as the family's slice of the cache
      key ([[||]] when it reads none). *)

  val make_plan : compiled -> kplan
  val factor_ip : kplan -> Csc.t -> unit

  val view : kplan -> output
  (** The plan's result view, refreshed by each [factor_ip]. *)

  val factor : compiled -> Csc.t -> output

  val flops : compiled -> float
  (** Predicted flops of one factorization; [nan] without a model. *)

  val nnz_l : compiled -> int
  (** Stored entries of the factor (LU: of L and U; ILU(0): of L\U). *)

  val decisions : compiled -> Trace.decision list
  (** The transformation decisions [compile] took. *)

  val native :
    compiled -> Csc.t -> int array option -> Sympiler_ir.Pretty_c.shaped
  (** The native kernel bound to a handle: the kernel of its shape and
      the handle's pattern arrays, given the compiled pattern and, on an
      ordered handle, the ordering's gather map (the kernel then takes
      natural-order input). Its factor arrays are {!outputs}. *)

  val outputs : kplan -> float array array
  (** The plan's factor arrays, which the native kernel writes in
      place. *)

  val pivot : int -> exn
  (** The exception for a pivot failure at the given index. *)

  val updown : kplan -> Csc.t -> updown
  (** Build the rank-update state over a plan and the compiled pattern. *)

  val refactored : updown -> Csc.t -> unit
  (** Told the compiled-order input of every full refactor. *)

  val operands : kplan -> operands
  (** The plan's factor as a pipeline's sweep operands. *)

  val sweep_l : compiled -> Csc.t -> sweep_l option
  (** The compiled factor's [L], given the compiled pattern, for a
      pipeline's level-sweep rule; [None] where its sweeps keep column
      order (LU, ILU(0)). *)
end

(** The rank-update slot of the families without one. *)
module No_updown = struct
  type updown = unit

  let updown _ _ = ()
  let refactored () _ = ()
end

(** The module [Make] produces: a {!KERNEL} with concrete handle and plan
    records, plus the one-shot [factor] and the hooks the rank-update
    entry points of Cholesky and LDL^T are written on. *)
module type S = sig
  type compiled
  type kplan
  type output
  type updown

  type t = {
    compiled : compiled;
    pattern : Csc.t;
        (** compiled (ordered handles: permuted) pattern, without values *)
    natural_pattern : Csc.t;
        (** the caller's pattern before ordering, without values *)
    symbolic_seconds : float;
    flops : float;  (** the kernel's flop model; [nan] without one *)
    nnz_l : int;  (** stored entries of the factor *)
    decisions : Trace.decision list;
        (** the transformation decisions the compile took *)
    ord : applied_ordering;
    opts : Options.t;  (** the options the handle was compiled with *)
  }

  type plan = {
    mutable handle : t;
    mutable p : kplan;
    mutable scratch : Csc.t option;
        (** ordered plans gather natural-order input values in here *)
    mutable native : Native_engine.exec option;
        (** populated when [plan ~engine:`Native] loaded the compiled-C
            executor (it writes the factor arrays of [p] in place) *)
    mutable m_exec : Metrics.histogram;
        (** the plan's [sympiler_execute_seconds] latency series, labelled
            with the engine that runs *)
    mutable ru : (updown * w_gather) option;
        (** lazy rank-update state and its update-vector gather *)
  }
  (** The fields are mutable solely for Cholesky's escalation, which swaps
      in a plan built for the escalated pattern. *)

  include
    KERNEL
      with type pattern = Csc.t
       and type input = Csc.t
       and type t := t
       and type plan := plan
       and type output := output

  val factor : t -> Csc.t -> output
  (** One-shot: fresh factors per call. *)

  val input : who:string -> plan -> Csc.t -> Csc.t
  (** A caller's natural-order input in compiled order: the input itself
      on natural plans, else the plan's [scratch] after the gather.
      Raises [Invalid_argument] on a wrong value count. Zero
      allocation. *)

  val ru_state : plan -> updown * w_gather
  (** The plan's rank-update state, built on first use. *)
end

module Make (F : FAMILY) :
  S
    with type compiled = F.compiled
     and type kplan = F.kplan
     and type output = F.output
     and type updown = F.updown = struct
  type compiled = F.compiled
  type kplan = F.kplan
  type output = F.output
  type updown = F.updown
  type pattern = Csc.t
  type input = Csc.t

  type t = {
    compiled : compiled;
    pattern : Csc.t;
    natural_pattern : Csc.t;
    symbolic_seconds : float;
    flops : float;
    nnz_l : int;
    decisions : Trace.decision list;
    ord : applied_ordering;
    opts : Options.t;
  }

  type plan = {
    mutable handle : t;
    mutable p : kplan;
    mutable scratch : Csc.t option;
    mutable native : Native_engine.exec option;
    mutable m_exec : Metrics.histogram;
    mutable ru : (updown * w_gather) option;
  }

  (* Built once per family, so the hot path never concatenates. *)
  let who = "Sympiler." ^ String.capitalize_ascii F.name
  let who_compile = who ^ ".compile"
  let who_execute = who ^ ".execute_ip"
  let who_factor = who ^ ".factor"
  let span_compile = "compile." ^ F.name
  let span_cached = "compile_cached." ^ F.name

  let compile_base (opts : Options.t) (checked : checked) (a : Csc.t) : t =
    let t0 = Prof.now_seconds () in
    let cp, ord = ordered ~who:who_compile opts.Options.ordering checked in
    let pattern = cp.pattern in
    let ord_seconds = Prof.now_seconds () -. t0 in
    Trace.with_span span_compile ~attrs:[ ("n", Trace.Int pattern.Csc.ncols) ]
    @@ fun () ->
    let compiled, symbolic_seconds =
      time_symbolic (fun () -> F.compile opts cp)
    in
    let symbolic_seconds = symbolic_seconds +. ord_seconds in
    observe_compile ~family:F.name ~ordering:ord.o_name symbolic_seconds;
    (* Patterns only: a cached handle must not keep the value arrays of
       the caller that compiled it alive. *)
    let shape (m : Csc.t) = { m with Csc.values = [||] } in
    {
      compiled;
      pattern = shape pattern;
      natural_pattern = shape a;
      symbolic_seconds;
      flops = F.flops compiled;
      nnz_l = F.nnz_l compiled;
      decisions = F.decisions compiled;
      ord;
      opts;
    }

  let default_cache : t Plan_cache.t = Plan_cache.create ()

  (* The cache key beyond the pattern is exactly what the compile reads:
     the family's options, then the ordering. The caller's pattern is
     checked once, before the lookup: the hash and the symbolic loops
     behind it read it unchecked. *)
  let compile ?cache ?(opts = Options.default) (a : Csc.t) : t =
    let checked = check_input ~who:who_compile ~lower:F.lower a in
    cached_compile ~span:span_cached ~default:default_cache ?cache ~opts
      ~pattern:a
      ~extra:(Array.append (F.key opts) (Options.fp_ordering opts.Options.ordering))
      (fun () -> compile_base opts checked a)

  let cache_stats () = Plan_cache.stats default_cache
  let cache_clear () = Plan_cache.clear default_cache
  let symbolic_seconds (t : t) = t.symbolic_seconds

  (* The ordering's gather map of an ordered handle. The map of a handle a
     rank update escalated has [-1] entries (structural zeros of the
     caller's pattern), which no native kernel reads. *)
  let gather_map (t : t) =
    match t.ord.o_perm with
    | None -> None
    | Some _ ->
        if Array.exists (fun s -> s < 0) t.ord.o_map then
          invalid_arg (who ^ ": an escalated handle has no native kernel");
        Some t.ord.o_map

  let plan ?(engine : Options.engine = `Ocaml) (t : t) : plan =
    let p = F.make_plan t.compiled in
    let native =
      match engine with
      | `Ocaml -> None
      | `Native ->
          Native_engine.load
            (F.native t.compiled t.pattern (gather_map t))
            ~inputs:(Csc.nnz t.natural_pattern) ~outputs:(F.outputs p)
    in
    {
      handle = t;
      p;
      scratch = ordering_scratch t.ord t.pattern;
      native;
      m_exec =
        execute_hist ~family:F.name ~op:"factor" ~engine:(engine_label native)
          ~ordering:t.ord.o_name;
      ru = None;
    }

  let input ~who (p : plan) (a : Csc.t) : Csc.t =
    plan_input ~who p.handle.ord p.scratch p.handle.natural_pattern a

  (* A native kernel reads the caller's values where they are, through
     the ordering's map on an ordered plan; its non-negative return is
     the failing pivot index. Only rank-update state needs the input in
     compiled order. *)
  let execute_ip_raw (p : plan) (a : Csc.t) : output =
    (match p.native with
    | Some e ->
        let h = p.handle in
        if Array.length a.Csc.values <> Csc.nnz h.natural_pattern then
          nnz_mismatch who_execute;
        e.Native_engine.x <- a.Csc.values;
        let rc = Native_engine.call e in
        if rc >= 0 then raise (F.pivot rc);
        (match p.ru with
        | Some (st, _) -> F.refactored st (input ~who:who_execute p a)
        | None -> ())
    | None -> (
        let a = input ~who:who_execute p a in
        F.factor_ip p.p a;
        match p.ru with Some (st, _) -> F.refactored st a | None -> ()));
    F.view p.p

  let execute_ip (p : plan) (a : Csc.t) : output =
    observed p.m_exec execute_ip_raw p a

  let plan_latency (p : plan) = Metrics.snapshot p.m_exec

  let factor (t : t) (a : Csc.t) : output =
    F.factor t.compiled
      (ordered_input ~who:who_factor t.ord ~pattern:t.pattern
         ~natural:t.natural_pattern a)

  let ru_state (p : plan) =
    match p.ru with
    | Some r -> r
    | None ->
        let r =
          ( F.updown p.p p.handle.pattern,
            w_gather p.handle.ord p.handle.pattern.Csc.ncols )
        in
        p.ru <- Some r;
        r

  let c_code (t : t) : string =
    Sympiler_ir.Pretty_c.artifact
      (F.native t.compiled t.pattern (gather_map t))
end
