open Sympiler_sparse
module Prof = Sympiler_prof.Prof

(* Shared compile-time machinery of the facade and the pipeline layer:
   ordering resolution and the baked gather maps, symbolic-phase timing,
   the plan-lifecycle metrics, cache routing and the input check at the
   plan boundary. The pipeline compiles DAGs of facade stages, so the
   machinery lives where both can reach it without a cycle. *)

module Trace = Sympiler_trace.Trace
module Metrics = Sympiler_metrics.Metrics

(* Wall-clock timing for the [symbolic_seconds] report fields. The
   monotonic clock keeps the report immune to NTP slews. *)
let time_symbolic f =
  let t0 = Prof.now_seconds () in
  let r = f () in
  (r, Prof.now_seconds () -. t0)

(* ------------------------ Plan-lifecycle metrics ------------------------ *)

(* Latency distributions for the two halves of the compile-once /
   execute-many economics: what one symbolic compile costs, and what one
   steady-state numeric call costs, labeled by the dimensions a serving
   process wants to slice on. Registration happens on compile/plan paths
   (it locks and allocates); the handles live in plan records so the
   per-call hot path is a guarded [observe]. *)

let observe_compile ~family ~ordering seconds =
  if Metrics.enabled () then
    Metrics.observe
      (Metrics.histogram "sympiler_compile_seconds"
         ~help:"Symbolic compile latency (ordering + inspection + codegen)"
         ~labels:[ ("family", family); ("ordering", ordering) ])
      seconds

(* The label reports the engine that will actually execute — a native
   request that degraded to the OCaml executor (no C compiler) says so. *)
let engine_label (native : _ option) =
  if Option.is_some native then "native" else "ocaml"

let execute_hist ~family ~op ~engine ~ordering =
  Metrics.histogram "sympiler_execute_seconds"
    ~help:"Numeric execution latency per call (factor_ip / solve_ip)"
    ~labels:
      [
        ("engine", engine);
        ("family", family);
        ("op", op);
        ("ordering", ordering);
      ]

let ordering_name = Options.ordering_name

(* ----------------------- Compile and execute routing ---------------------- *)

(* Route a compile through a pattern-keyed cache when the caller passes one
   or [opts.cache] asks for the family's [default]. [extra] is the family's
   key beyond the pattern: exactly the options it consumes, so two records
   differing only in a field the family ignores share one entry. *)
let cached_compile ~span ~default ?cache ~(opts : Options.t) ~pattern ~extra
    compile =
  match (cache, opts.Options.cache) with
  | None, false -> compile ()
  | _ ->
      let c = Option.value cache ~default in
      Trace.with_span span @@ fun () ->
      Plan_cache.find_or_compile c ~pattern ~extra compile

(* A plan's steady-state entry point under the metrics switch: one
   integer-nanosecond clock pair around [f] feeding the plan's latency
   histogram when metrics are on, a plain call otherwise (no allocation
   either way). *)
let observed (h : Metrics.histogram) f p x =
  if Metrics.enabled () then begin
    let t0 = Prof.now_ns () in
    let r = f p x in
    Metrics.observe_ns h (Prof.now_ns () - t0);
    r
  end
  else f p x

(* ----------------------- Fill-reducing orderings ----------------------- *)

(* Ordering is a symbolic-stage decision: the permutation is computed once
   at compile time, the symbolic analysis runs on P A P^T, and the plan
   bakes P in — steady-state executions only gather values through a
   precomputed map, so ordered plans stay allocation-free and produce
   results bitwise-identical to manually pre-permuting the input. *)

type applied_ordering = {
  o_perm : Perm.t option;  (* None = natural (identity, no gather) *)
  o_name : string;  (* "natural" | "rcm" | "amd" | "min-degree" | "given" *)
  o_map : int array;
      (* gather map: permuted entry [q] reads the natural input's
         [values.(o_map.(q))], or a structural zero where it is [-1] (an
         escalated Cholesky handle); [||] when natural *)
}

let natural_ordering = { o_perm = None; o_name = "natural"; o_map = [||] }

(* Compute the requested permutation ([`Natural] is handled by callers
   before getting here; [sym] is forced only by the graph algorithms, and
   not by AMD when the checked [lower] it was symmetrized from is given:
   AMD then reads lower(A) directly). *)
let resolve_ordering ~who ?lower (o : Options.ordering) (sym : Csc.t lazy_t)
    (n : int) : Perm.t =
  Trace.with_span "ordering"
    ~attrs:[ ("n", Trace.Int n); ("algorithm", Trace.Str (ordering_name o)) ]
  @@ fun () ->
  match o with
  | `Natural -> Perm.identity n
  | `Rcm -> Ordering.rcm (Lazy.force sym)
  | `Amd -> (
      match lower with
      | Some l -> Ordering.Unsafe.amd_lower l
      | None -> Ordering.amd (Lazy.force sym))
  | `Min_degree -> Ordering.min_degree (Lazy.force sym)
  | `Given p ->
      if Array.length p <> n then
        invalid_arg (who ^ ": `Given permutation length does not match n");
      if not (Perm.is_valid p) then
        invalid_arg (who ^ ": `Given is not a valid permutation of [0, n)");
      Array.copy p

let nnz_mismatch who =
  invalid_arg (who ^ ": input nnz does not match the compiled pattern")

(* Allocation-free gather of [expect] natural-order input values into the
   compiled-order scratch a plan owns. A [-1] map entry is a structural
   zero: a Cholesky plan escalated by a rank update keeps taking the
   original pattern, whose map misses the entries the update added. *)
let gather_values ~who ~expect (map : int array) (src : float array)
    (dst : Csc.t) =
  if Array.length src <> expect then nnz_mismatch who;
  let dv = dst.Csc.values in
  for q = 0 to Array.length dv - 1 do
    let s = map.(q) in
    dv.(q) <- (if s < 0 then 0.0 else src.(s))
  done

(* A compiled-order input scratch: shares the pattern's structure arrays,
   owns its values. *)
let values_scratch (pattern : Csc.t) : Csc.t =
  { pattern with Csc.values = Array.make (Csc.nnz pattern) 0.0 }

(* The permuted-input scratch of an ordered plan. *)
let ordering_scratch (ord : applied_ordering) (pattern : Csc.t) : Csc.t option =
  Option.map (fun _ -> values_scratch pattern) ord.o_perm

(* Bring a caller's natural-order values into compiled order: ordered plans
   gather into their [scratch], natural ones pass the input through. Either
   way the value count is checked here against the caller's pattern
   [natural], at the facade boundary, because the kernels are built with
   -unsafe: a wrong-length input must raise, not be read out of bounds.
   Allocation-free. *)
let plan_input ~who (ord : applied_ordering) (scratch : Csc.t option)
    (natural : Csc.t) (a : Csc.t) : Csc.t =
  match scratch with
  | Some s ->
      gather_values ~who ~expect:(Csc.nnz natural) ord.o_map a.Csc.values s;
      s
  | None ->
      if Array.length a.Csc.values <> Csc.nnz natural then nnz_mismatch who;
      a

(* One-shot (allocating) version of the same, for the [factor] convenience
   entry points: [pattern] is the compiled one. *)
let ordered_input ~who (ord : applied_ordering) ~(pattern : Csc.t)
    ~(natural : Csc.t) (a : Csc.t) : Csc.t =
  plan_input ~who ord (ordering_scratch ord pattern) natural a

(* A caller's values in compiled order, fresh on an ordered handle: what a
   handle that binds values (a trisolve, a pipeline's factorless chain or
   SpMV operand) takes from the caller whose cache hit returned it. *)
let compiled_values (ord : applied_ordering) (a : Csc.t) : float array =
  match ord.o_perm with
  | None -> a.Csc.values
  | Some _ -> Array.map (fun s -> a.Csc.values.(s)) ord.o_map

(* ------------------------ The facade's input check ----------------------- *)

(* A caller's pattern after the one check a facade compile runs before
   its plan-cache lookup ([check_input]): lower(A) for the symmetric
   families, square A for the others. Values are not read. The symbolic
   loops the compile runs next are unchecked, and they take the checked
   pattern without checking it again. *)
type checked = Lower of Csc.Unsafe.checked_lower | Square of Csc.t

let check_input ~who ~lower (a : Csc.t) : checked =
  if lower then Lower (Csc.Unsafe.check_lower ~who a)
  else begin
    Csc.check ~who ~values:false ~square:true a;
    Square a
  end

(* What a family's symbolic phase reads: the compiled-order pattern and,
   for the symmetric families, its upper triangle. An ordered compile gets
   that triangle, map included, free from the permutation; a natural one
   transposes only if the family asks, and builds the map only if the
   up-looking compile forces it. *)
type compiled_pattern = {
  pattern : Csc.t;
  upper : Csc.Unsafe.upper_pattern Lazy.t;
}

let no_upper =
  lazy (invalid_arg "Compile_common: a square pattern has no upper triangle")

(* Shared ordered-compile preamble for the symmetric families, whose
   compiled pattern is lower(A): AMD reads the checked lower(A) directly,
   the graph orderings the symmetrized copy, and the permutation builds
   the permuted pattern with its upper triangle. *)
let ordered_lower ~who (ordering : Options.ordering)
    (a_lower : Csc.Unsafe.checked_lower) : compiled_pattern * applied_ordering =
  match ordering with
  | `Natural ->
      ( {
          pattern = (a_lower :> Csc.t);
          upper = lazy (Csc.Unsafe.upper_pattern a_lower);
        },
        natural_ordering )
  | o ->
      let a = (a_lower :> Csc.t) in
      let p =
        resolve_ordering ~who ~lower:a_lower o
          (lazy (Csc.symmetrize_from_lower a))
          a.Csc.ncols
      in
      let pl, map, upper =
        Csc.Unsafe.permute_lower ~who ~pinv:(Perm.inverse p) a_lower
      in
      ( { pattern = (pl :> Csc.t); upper = Lazy.from_val upper },
        { o_perm = Some p; o_name = ordering_name o; o_map = map } )

(* Same for the square-pattern families (LU, ILU(0)): the ordering graph
   is the symmetrized pattern A + A^T. *)
let ordered_square ~who (ordering : Options.ordering) (a : Csc.t) :
    compiled_pattern * applied_ordering =
  let pa, ord =
    match ordering with
    | `Natural -> (a, natural_ordering)
    | o ->
        let p =
          resolve_ordering ~who o
            (lazy (Csc.add a (Csc.transpose a)))
            a.Csc.ncols
        in
        let pa, map = Perm.permute_pattern p a in
        (pa, { o_perm = Some p; o_name = ordering_name o; o_map = map })
  in
  ({ pattern = pa; upper = no_upper }, ord)

let ordered ~who (ordering : Options.ordering) :
    checked -> compiled_pattern * applied_ordering = function
  | Lower l -> ordered_lower ~who ordering l
  | Square a -> ordered_square ~who ordering a

(* ----------------------- Rank-update vector gather ---------------------- *)

(* The plan-owned buffers a natural-order rank-update vector is carried
   into compiled order through ([pinv] is the inverse permutation, [[||]]
   on natural plans). *)
type w_gather = { n : int; pinv : int array; wi : int array; wv : float array }

let w_gather (ord : applied_ordering) (n : int) : w_gather =
  {
    n;
    pinv = (match ord.o_perm with Some p -> Perm.inverse p | None -> [||]);
    wi = Array.make (max 1 n) 0;
    wv = Array.make (max 1 n) 0.0;
  }

(* Check [w] and gather it into [g]: map every index through [pinv],
   tandem-insertion sort on ordered plans (update vectors are short —
   typically the pattern of one factor column — so the quadratic sort
   never shows), and require strictly increasing indices. The update
   kernels are built with -unsafe, so everything is checked here, before
   anything is written. Returns the entry count. Zero allocation. *)
let gather_w ~who (g : w_gather) (w : Vector.sparse) : int =
  let wi = w.Vector.indices and wv = w.Vector.values in
  let len = Array.length wi in
  let ordered = Array.length g.pinv > 0 in
  if w.Vector.n <> g.n then invalid_arg (who ^ ": dimension mismatch");
  if Array.length wv <> len then
    invalid_arg (who ^ ": w values and indices differ in length");
  if len > g.n then invalid_arg (who ^ ": w has more entries than n");
  for k = 0 to len - 1 do
    let i = wi.(k) in
    if i < 0 || i >= g.n then invalid_arg (who ^ ": w index out of range");
    g.wi.(k) <- (if ordered then g.pinv.(i) else i);
    g.wv.(k) <- wv.(k)
  done;
  if ordered then
    for k = 1 to len - 1 do
      let ki = g.wi.(k) and kv = g.wv.(k) in
      let t = ref (k - 1) in
      while !t >= 0 && g.wi.(!t) > ki do
        g.wi.(!t + 1) <- g.wi.(!t);
        g.wv.(!t + 1) <- g.wv.(!t);
        decr t
      done;
      g.wi.(!t + 1) <- ki;
      g.wv.(!t + 1) <- kv
    done;
  for k = 1 to len - 1 do
    if g.wi.(k - 1) >= g.wi.(k) then
      invalid_arg
        (who
        ^ if ordered then ": w indices must be unique"
          else ": w indices must be sorted and unique")
  done;
  len
