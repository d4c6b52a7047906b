open Sympiler_sparse
open Sympiler_prof
open Compile_common

(* The four §3.3 factor families (LDL^T, LU, IC(0), ILU(0)) are one
   pipeline — ordering, symbolic inspection, plan, engine — around
   different kernels. [FAMILY] holds what differs; [Make] writes the rest
   once and produces the family's {!KERNEL} module. *)

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

  val plan : ?ndomains:int -> ?engine:Options.engine -> t -> plan
  val execute_ip : plan -> input -> output

  val plan_latency : plan -> Metrics.histogram_snapshot
  (** Snapshot of the plan's per-call execution-latency histogram
      ([sympiler_execute_seconds], shared across plans with the same
      family × op × engine × ordering labels): exact count/sum/max,
      bucket-resolution p50/p90/p99. All zeros until {!Metrics.enable}. *)

  val c_code : t -> string
end

(** What one factor family contributes: its kernel and the few facts the
    shared scaffold cannot derive. *)
module type FAMILY = sig
  val name : string
  (** ["ldlt"], ["lu"], ["ic0"] or ["ilu0"]: the stem of the family's span
      names ([compile.<name>]), metric label, native kernel
      ([<name>_factor]) and error messages ([Sympiler.<Name>.…]). *)

  val lower : bool
  (** [true]: the pattern is lower(A) (checked at compile time, ordered on
      the symmetrized graph); [false]: square A (ordered on [A + A^T]). *)

  type compiled
  type kplan
  type output

  type updown
  (** Family-owned lazy plan state (LDL^T's rank-update plan; [unit]
      elsewhere). *)

  val compile : Csc.t -> compiled
  val make_plan : compiled -> kplan
  val factor_ip : kplan -> Csc.t -> unit

  val view : kplan -> output
  (** The plan's result view, refreshed by each [factor_ip]. *)

  val factor : compiled -> Csc.t -> output

  val flops : compiled -> float
  (** Predicted flops of one factorization; [nan] without a model. *)

  val native_sizes : kplan -> int array
  (** Sizes of the native factor buffers b1, b2, … (b0 holds the input
      values). *)

  val copy_out : Native_engine.exec -> kplan -> unit
  (** Copy a native call's factor buffers into the plan's storage. *)

  val pivot : int -> exn
  (** The exception for a pivot failure at the given index. *)

  val c_code : compiled -> Csc.t -> string
  (** The emitted C, given the handle and its compiled pattern. *)
end

(** The module [Make] produces: a {!KERNEL} with concrete handle and plan
    records, plus the one-shot [factor]. *)
module type S = sig
  type compiled
  type kplan
  type output
  type updown

  type t = {
    compiled : compiled;
    pattern : Csc.t;  (** compiled (ordered handles: permuted) pattern *)
    symbolic_seconds : float;
    flops : float;  (** the kernel's flop model; [nan] without one *)
    ord : applied_ordering;
  }

  type plan = {
    handle : t;
    p : kplan;
    scratch : Csc.t option;
        (** ordered plans gather natural-order input values in here *)
    native : Native_engine.exec option;
        (** populated when [plan ~engine:`Native]/[`Native_novec] loaded
            the compiled-C executor (b0 = input values, then the factor
            buffers) *)
    m_exec : Metrics.histogram;
        (** the plan's [sympiler_execute_seconds] latency series *)
    mutable ru : updown option;  (** lazy family-owned state *)
  }

  include
    KERNEL
      with type pattern = Csc.t
       and type input = Csc.t
       and type t := t
       and type plan := plan
       and type output := output

  val factor : t -> Csc.t -> output
  (** One-shot: fresh factors per call. *)
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
    symbolic_seconds : float;
    flops : float;
    ord : applied_ordering;
  }

  type plan = {
    handle : t;
    p : kplan;
    scratch : Csc.t option;
    native : Native_engine.exec option;
    m_exec : Metrics.histogram;
    mutable ru : updown option;
  }

  (* Built once per family, so the hot path never concatenates. *)
  let who = "Sympiler." ^ String.capitalize_ascii F.name
  let who_compile = who ^ ".compile"
  let who_execute = who ^ ".execute_ip"
  let who_factor = who ^ ".factor"
  let span_compile = "compile." ^ F.name
  let span_cached = "compile_cached." ^ F.name

  let compile_base (ordering : Options.ordering) (a : Csc.t) : t =
    if F.lower && not (Csc.is_lower_triangular a) then
      invalid_arg (who_compile ^ ": pass lower(A)");
    let t0 = Prof.now_seconds () in
    let a, ord =
      (if F.lower then ordered_lower else ordered_square)
        ~who:who_compile ordering a
    in
    let ord_seconds = Prof.now_seconds () -. t0 in
    Trace.with_span span_compile ~attrs:[ ("n", Trace.Int a.Csc.ncols) ]
    @@ fun () ->
    let compiled, symbolic_seconds = time_symbolic (fun () -> F.compile a) in
    let symbolic_seconds = symbolic_seconds +. ord_seconds in
    observe_compile ~family:F.name ~ordering:ord.o_name symbolic_seconds;
    { compiled; pattern = a; symbolic_seconds; flops = F.flops compiled; ord }

  let default_cache : t Plan_cache.t = Plan_cache.create ()

  (* The kernels read no option but the ordering, so that is the whole
     cache key beyond the pattern. *)
  let compile ?cache ?(opts = Options.default) (a : Csc.t) : t =
    cached_compile ~span:span_cached ~default:default_cache ?cache ~opts
      ~pattern:a
      ~extra:(Options.fp_ordering opts.Options.ordering)
      (fun () -> compile_base opts.Options.ordering a)

  let cache_stats () = Plan_cache.stats default_cache
  let cache_clear () = Plan_cache.clear default_cache
  let symbolic_seconds (t : t) = t.symbolic_seconds

  (* The executors are sequential (no level schedule), so [?ndomains] is
     accepted for KERNEL uniformity and ignored. The native kernel is
     [int]-returning C from [Codegen_static] whose non-negative return is
     the failing pivot index. *)
  let plan ?ndomains:_ ?(engine : Options.engine = `Ocaml) (t : t) : plan =
    let p = F.make_plan t.compiled in
    let native =
      match native_mode engine with
      | None -> None
      | Some mode ->
          let sizes = Array.append [| Csc.nnz t.pattern |] (F.native_sizes p) in
          Native_engine.load ~mode ~pattern_key:(Csc.pattern_hash t.pattern)
            ~family:F.name ~kname:(F.name ^ "_factor")
            ~nargs:(Array.length sizes) ~int_return:true ~sizes
            (F.c_code t.compiled t.pattern)
    in
    {
      handle = t;
      p;
      scratch = ordering_scratch t.ord t.pattern;
      native;
      m_exec =
        execute_hist ~family:F.name ~op:"factor"
          ~engine:(engine_label native engine) ~ordering:t.ord.o_name;
      ru = None;
    }

  let execute_ip_raw (p : plan) (a : Csc.t) : output =
    Prof.start "numeric";
    (try
       let a =
         plan_input ~who:who_execute p.handle.ord p.scratch p.handle.pattern a
       in
       match p.native with
       | Some e ->
           Native_engine.blit_in a.Csc.values e.Native_engine.b0;
           let rc = Native_engine.call e in
           if rc >= 0 then raise (F.pivot rc);
           F.copy_out e p.p
       | None -> F.factor_ip p.p a
     with e ->
       Prof.stop "numeric";
       raise e);
    Prof.stop "numeric";
    F.view p.p

  let execute_ip (p : plan) (a : Csc.t) : output =
    observed p.m_exec execute_ip_raw p a

  let plan_latency (p : plan) = Metrics.snapshot p.m_exec

  let factor (t : t) (a : Csc.t) : output =
    Prof.time "numeric" (fun () ->
        F.factor t.compiled (ordered_input ~who:who_factor t.ord t.pattern a))

  let c_code (t : t) : string = F.c_code t.compiled t.pattern
end
