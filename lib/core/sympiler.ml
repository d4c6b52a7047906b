open Sympiler_sparse
open Sympiler_kernels

(* Public facade: Sympiler as the paper presents it. Each kernel family's
   [compile] runs all symbolic analysis and code generation once for a
   fixed sparsity structure; the returned handles expose numeric routines
   that contain no symbolic work, the generated C source, and the time the
   symbolic phase took (reported in the paper's Figures 8 and 9). All six
   families implement the one KERNEL signature of the interface, so the
   compile -> plan -> execute_ip lifecycle and the optional-argument
   spellings are uniform. *)

(* Re-export the companion modules: since this module shares the library's
   name it is the library's sole interface. *)
module Suite = Suite
module Codegen_supernodal = Codegen_supernodal
module Plan_cache = Plan_cache
module Native = Sympiler_native.Native
module Native_engine = Native_engine
module Options = Options
module Pipeline = Pipeline
module Factor = Factor

(* The execution engine and fill-reducing-ordering requests live in
   [Options] (the one shared compile-options record); the historical
   spellings stay as aliases. *)
type engine = Options.engine
type ordering = Options.ordering

(* The compile-time machinery shared with the pipeline layer: ordering
   resolution and the baked gather maps, symbolic-phase timing, the
   plan-lifecycle metrics, cache routing and the plan-boundary input
   check. *)
include Compile_common

(* The uniform kernel lifecycle (see the interface for the contract); the
   per-family [module Check : KERNEL = ...] assertions live in the test
   suite so a drifting family breaks the build there, not here. *)
module type KERNEL = Factor.KERNEL

(* --------------- Cholesky escalation facade machinery --------------- *)

(* Extend an input gather map across a pattern growth: entry [q] of the new
   pattern reads where the matching old-pattern entry read ([old_map]), or
   [-1] when the old pattern lacks it. Merge scan per column. *)
let extend_input_map ~(old_pattern : Csc.t) ~(old_map : int array)
    (np : Csc.t) : int array =
  let map = Array.make (Csc.nnz np) (-1) in
  for j = 0 to np.Csc.ncols - 1 do
    let op = ref old_pattern.Csc.colptr.(j) in
    let ohi = old_pattern.Csc.colptr.(j + 1) in
    for q = np.Csc.colptr.(j) to np.Csc.colptr.(j + 1) - 1 do
      let i = np.Csc.rowind.(q) in
      while !op < ohi && old_pattern.Csc.rowind.(!op) < i do
        incr op
      done;
      if !op < ohi && old_pattern.Csc.rowind.(!op) = i then
        map.(q) <- old_map.(!op)
    done
  done;
  map

(* lower(M + sigma w w^T) with the union pattern kept structurally: every
   entry of [m] survives (even under exact cancellation — future refactors
   gather real input values through these positions), and the w-clique
   entries merge in. [wi] holds [len] sorted indices. *)
let clique_union (m : Csc.t) ~(sigma : float) (wi : int array)
    (wv : float array) (len : int) : Csc.t =
  let n = m.Csc.ncols in
  let inw = Array.make n (-1) in
  for k = 0 to len - 1 do
    inw.(wi.(k)) <- k
  done;
  let colptr = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    let base = m.Csc.colptr.(j + 1) - m.Csc.colptr.(j) in
    let extra = ref 0 in
    let k = inw.(j) in
    if k >= 0 then
      for t = k to len - 1 do
        if not (Csc.mem m wi.(t) j) then incr extra
      done;
    colptr.(j + 1) <- base + !extra
  done;
  for j = 0 to n - 1 do
    colptr.(j + 1) <- colptr.(j + 1) + colptr.(j)
  done;
  let nnz = colptr.(n) in
  let rowind = Array.make nnz 0 in
  let values = Array.make nnz 0.0 in
  for j = 0 to n - 1 do
    let q = ref colptr.(j) in
    let mp = ref m.Csc.colptr.(j) in
    let mhi = m.Csc.colptr.(j + 1) in
    let k0 = inw.(j) in
    let t = ref (if k0 >= 0 then k0 else len) in
    let wj = if k0 >= 0 then wv.(k0) else 0.0 in
    while !mp < mhi || !t < len do
      let mi = if !mp < mhi then m.Csc.rowind.(!mp) else max_int in
      let ci = if !t < len then wi.(!t) else max_int in
      if mi < ci then begin
        rowind.(!q) <- mi;
        values.(!q) <- m.Csc.values.(!mp);
        incr mp
      end
      else if ci < mi then begin
        rowind.(!q) <- ci;
        values.(!q) <- sigma *. wv.(!t) *. wj;
        incr t
      end
      else begin
        rowind.(!q) <- mi;
        values.(!q) <- m.Csc.values.(!mp) +. (sigma *. wv.(!t) *. wj);
        incr mp;
        incr t
      end;
      incr q
    done
  done;
  Csc.create ~nrows:n ~ncols:n ~colptr ~rowind ~values

module Trisolve = struct
  type pattern = Csc.t * Vector.sparse

  type t = {
    l : Csc.t;
    natural_l : Csc.t;
    b_pattern : int array;
    compiled : Trisolve_sympiler.compiled;
    symbolic_seconds : float;
    reach : int array;
    flops : float;
    decisions : Trace.decision list;
    ord : applied_ordering;
    ord_b_map : int array;
  }

  type input = Vector.sparse
  type output = float array

  (* Symbolic inspection + inspector-guided planning for L x = b with the
     given RHS pattern. The numeric values of L and b may change afterwards;
     only the patterns are compiled in. With [?ordering], both patterns are
     permuted here at compile time; [execute_ip] then gathers b into the
     plan's permuted scratch and inverse-permutes x on the way out, so the
     caller keeps natural-order vectors throughout. Orderings must keep
     P L P^T lower triangular (a dependence-respecting relabeling, e.g. a
     [`Given] etree postorder); anything else raises [Invalid_argument]. *)
  let compile_internal ~(ordering : ordering) (l : Csc.t) (b : Vector.sparse) :
      t =
    let t0 = Prof.now_seconds () in
    let natural_l = l in
    let l, b, ord, ord_b_map =
      match ordering with
      | `Natural -> (l, b, natural_ordering, [||])
      | o ->
          let n = l.Csc.ncols in
          let p =
            resolve_ordering ~who:"Sympiler.Trisolve.compile" o
              (lazy (Csc.symmetrize_from_lower l))
              n
          in
          let pl, map = Perm.permute_pattern p l in
          if not (Csc.is_lower_triangular pl) then
            invalid_arg
              "Sympiler.Trisolve.compile: the requested ordering does not \
               keep L lower triangular; use `Given with a \
               dependency-respecting permutation";
          let pinv = Perm.inverse p in
          let pairs = Array.mapi (fun t i -> (pinv.(i), t)) b.Vector.indices in
          Array.sort compare pairs;
          let pb =
            {
              Vector.n;
              indices = Array.map fst pairs;
              values = Array.map (fun (_, t) -> b.Vector.values.(t)) pairs;
            }
          in
          ( pl,
            pb,
            { o_perm = Some p; o_name = ordering_name o; o_map = map },
            Array.map snd pairs )
    in
    let ord_seconds = Prof.now_seconds () -. t0 in
    Trace.with_span "compile.trisolve"
      ~attrs:[ ("n", Trace.Int l.Csc.ncols) ]
    @@ fun () ->
    let compiled, symbolic_seconds =
      time_symbolic (fun () -> Trisolve_sympiler.compile l b)
    in
    observe_compile ~family:"trisolve" ~ordering:ord.o_name
      (symbolic_seconds +. ord_seconds);
    {
      l;
      natural_l;
      b_pattern = b.Vector.indices;
      compiled;
      symbolic_seconds = symbolic_seconds +. ord_seconds;
      reach = compiled.Trisolve_sympiler.reach;
      flops = compiled.Trisolve_sympiler.flops;
      decisions = compiled.Trisolve_sympiler.decisions;
      ord;
      ord_b_map;
    }

  (* Compilation cache: keyed on L's structure plus the RHS pattern and
     the one option a solve consumes, the ordering ([simplicial] means
     nothing here) — a hit returns the previously compiled handle,
     physically equal, with no symbolic work. *)
  let default_cache : t Plan_cache.t = Plan_cache.create ()

  (* The patterns are checked once, before the lookup: L as a lower
     triangle, b's indices against its dimension. The handle binds L's
     values, so a hit on another matrix of the pattern is rebound to the
     caller's. *)
  let compile ?cache ?(opts = Options.default) ((l, b) : pattern) : t =
    let who = "Sympiler.Trisolve.compile" in
    Csc.check ~who ~values:false ~lower:true l;
    let idx = b.Vector.indices in
    if b.Vector.n <> l.Csc.ncols then
      invalid_arg (who ^ ": b dimension does not match L");
    if Array.length b.Vector.values <> Array.length idx then
      invalid_arg (who ^ ": b values and indices differ in length");
    Array.iter
      (fun i ->
        if i < 0 || i >= l.Csc.ncols then
          invalid_arg (who ^ ": b index out of range"))
      idx;
    let ordering = opts.Options.ordering in
    let t =
      cached_compile ~span:"compile_cached.trisolve" ~default:default_cache
        ?cache ~opts ~pattern:l
        ~extra:
          (Array.concat
             [
               [| b.Vector.n |]; b.Vector.indices; Options.fp_ordering ordering;
             ])
        (fun () -> compile_internal ~ordering l b)
    in
    if t.natural_l.Csc.values == l.Csc.values then t
    else
      let l' = { t.l with Csc.values = compiled_values t.ord l } in
      {
        t with
        l = l';
        natural_l = l;
        compiled = { t.compiled with Trisolve_sympiler.l = l' };
      }

  let cache_stats () = Plan_cache.stats default_cache
  let cache_clear () = Plan_cache.clear default_cache
  let symbolic_seconds (t : t) = t.symbolic_seconds

  (* The facade boundary's RHS check (the kernels are built with -unsafe):
     a b whose dimension or entry counts differ from the compiled pattern,
     or that indexes outside [0, n), is rejected before anything is read or
     written. Allocation-free. *)
  let check_rhs ~who (t : t) (b : Vector.sparse) =
    let n = t.l.Csc.ncols and nb = Array.length t.b_pattern in
    let idx = b.Vector.indices in
    if
      b.Vector.n <> n
      || Array.length idx <> nb
      || Array.length b.Vector.values <> nb
    then invalid_arg (who ^ ": b does not match the compiled pattern");
    for k = 0 to nb - 1 do
      if idx.(k) < 0 || idx.(k) >= n then
        invalid_arg (who ^ ": b index out of range")
    done

  (* Numeric solve (no symbolic work): x such that L x = b. [b] must have
     the pattern given at compile time (values free to differ) — in natural
     order even on an ordered handle: b is permuted in and x permuted back
     out here. Every OCaml solve runs the reach-set column executor. *)
  let solve (t : t) (b : Vector.sparse) : float array =
    check_rhs ~who:"Sympiler.Trisolve.solve" t b;
    match t.ord.o_perm with
    | None -> Trisolve_sympiler.solve_reach t.compiled b
    | Some p ->
        let pb =
          {
            Vector.n = b.Vector.n;
            indices = t.b_pattern;
            values = Array.map (fun m -> b.Vector.values.(m)) t.ord_b_map;
          }
        in
        let xp = Trisolve_sympiler.solve_reach t.compiled pb in
        let out = Array.make (Array.length xp) 0.0 in
        Array.iteri (fun k v -> out.(p.(k)) <- v) xp;
        out

  (* In-place numeric solve: [x] holds b on entry, the solution on exit.
     A one-shot solve runs on a fresh plan, so it shares no scratch. *)
  let solve_ip (t : t) (x : float array) : unit =
    if Array.length x <> t.l.Csc.ncols then
      invalid_arg "Sympiler.Trisolve.solve_ip: x length does not match n";
    let p = Trisolve_sympiler.make_plan t.compiled in
    match t.ord.o_perm with
    | None -> Trisolve_sympiler.solve_reach_ip p x
    | Some q ->
        let px = Perm.apply_vec q x in
        Trisolve_sympiler.solve_reach_ip p px;
        let xn = Perm.apply_inv_vec q px in
        Array.blit xn 0 x 0 (Array.length x)

  (* Plans: allocate the numeric workspaces once, then solve repeatedly
     with zero steady-state allocation. *)
  type plan = {
    handle : t;
    p : Trisolve_sympiler.plan;
    ord_b : Vector.sparse option;
        (* permuted-b scratch of an ordered plan: fixed (permuted) indices,
           values refreshed by each execute *)
    ord_x : float array option; (* natural-order output buffer *)
    native : Native_engine.exec option;
        (* the compiled solve: input L's values, output [p]'s x, and its
           own tmp workspace when VS-Block added one *)
    m_exec : Metrics.histogram; (* per-call solve latency *)
  }

  (* The handle's lowering, the one its native plans run and [c_code]
     prints: VS-Block as the handle decided, with its width-1 blocks
     peeled; the column code of a handle that declined it, with the
     low-level passes off (peeled, it compiled for tens of seconds and ran
     slower than the OCaml plan), over the reach set in the OCaml
     executor's ascending order. The RHS values are never read. *)
  let lowering (t : t) : Sympiler_ir.Pipeline.result =
    let vs_block = not t.compiled.Trisolve_sympiler.columnwise in
    Sympiler_ir.Pipeline.trisolve ~vs_block ~low_level:vs_block t.l
      {
        Vector.n = t.l.Csc.ncols;
        indices = t.b_pattern;
        values = Array.map (fun _ -> 1.0) t.b_pattern;
      }

  let plan ?(engine : engine = `Ocaml) (t : t) : plan =
    let p = Trisolve_sympiler.make_plan t.compiled in
    (* The kernel's text holds L's pattern, so it compiles per pattern;
       its input is bound at each call (as the OCaml executor reads
       [t.l]'s values) and its output is the OCaml plan's own x. *)
    let native =
      if engine = `Native then
        Native_engine.load
          (Sympiler_ir.Pipeline.trisolve_shaped t.l (lowering t))
          ~inputs:0 ~outputs:[| p.Trisolve_sympiler.x |]
      else None
    in
    let ord_b, ord_x =
      match t.ord.o_perm with
      | None -> (None, None)
      | Some _ ->
          ( Some
              {
                Vector.n = t.l.Csc.ncols;
                indices = t.b_pattern;
                values = Array.make (Array.length t.b_pattern) 0.0;
              },
            Some (Array.make t.l.Csc.ncols 0.0) )
    in
    {
      handle = t;
      p;
      ord_b;
      ord_x;
      native;
      m_exec =
        execute_hist ~family:"trisolve" ~op:"solve" ~engine:(engine_label native)
          ~ordering:t.ord.o_name;
    }

  (* The inner executor dispatch shared by the natural and ordered paths.
     A native plan loads b into the OCaml plan's buffer, as
     [Trisolve_sympiler.solve_ip] does, and the kernel solves in it, so
     the returned view is the same array whichever engine ran. *)
  let run_inner (p : plan) (b : Vector.sparse) : float array =
    match p.native with
    | Some e ->
        Trisolve_sympiler.load_rhs p.p b;
        e.Native_engine.x <- p.handle.l.Csc.values;
        ignore (Native_engine.call e : int);
        p.p.Trisolve_sympiler.x
    | None -> Trisolve_sympiler.solve_ip p.p b

  let execute_ip_raw (p : plan) (b : Vector.sparse) : float array =
    check_rhs ~who:"Sympiler.Trisolve.execute_ip" p.handle b;
    match (p.ord_b, p.ord_x) with
    | None, _ | _, None -> run_inner p b
    | Some pb, Some out ->
        let map = p.handle.ord_b_map in
        for t = 0 to Array.length map - 1 do
          pb.Vector.values.(t) <- b.Vector.values.(map.(t))
        done;
        let xp = run_inner p pb in
        let perm =
          match p.handle.ord.o_perm with Some q -> q | None -> assert false
        in
        for k = 0 to Array.length out - 1 do
          out.(perm.(k)) <- xp.(k)
        done;
        out

  let execute_ip (p : plan) (b : Vector.sparse) : float array =
    observed p.m_exec execute_ip_raw p b

  let plan_latency (p : plan) = Metrics.snapshot p.m_exec

  (* Generated C source implementing the same specialized solve: the
     kernel its native plans run. *)
  let c_code (t : t) : string = (lowering t).Sympiler_ir.Pipeline.c_code
end

(* The five factor families: one [Factor.Make] instance each, around the
   kernel it drives. Cholesky and LDL^T add their rank-update entry points
   on top. *)

module Cholesky = struct
  include Factor.Make (Cholesky_family)

  type variant = Cholesky_family.variant = Supernodal | Simplicial

  let variant (t : t) = Cholesky_family.variant t.compiled

  let variant_name = function
    | Supernodal -> "supernodal"
    | Simplicial -> "simplicial"
  let plan_factor (p : plan) : Csc.t = Cholesky_family.view p.p

  (* Escalation: the update needs entries the factor pattern lacks (the
     precondition is tight — a violation always means structural growth),
     so recompile in place. The plan's current matrix lower(L L^T) is
     recovered from the factor, the update's clique merged in, and the
     result compiled with the handle's own options (already in compiled
     order, so naturally ordered) through the default cache, where a
     repeated escalation pattern hits. The new handle keeps the caller's
     natural pattern and ordering and carries its own input map: the old
     map extended over the grown pattern, [-1] at the entries the caller
     never passes (structural zeros), so every plan of it gathers the
     caller's input. The replacement is an OCaml plan, built and factored
     BEFORE any field swaps, so a failed escalation (e.g. a downdate that
     leaves the matrix indefinite) leaves the plan exactly as it was.
     [wi]/[wv] are sorted, compiled-order, [len] entries. *)
  let escalate (p : plan) (rk : updown) ~(neg : bool) ~(sigma : float)
      (wi : int array) (wv : float array) (len : int) : unit =
    Trace.with_span "updown.escalate" ~attrs:[ ("len", Trace.Int len) ]
    @@ fun () ->
    let sigma = if neg then -.sigma else sigma in
    let a_esc = clique_union (Rank_update.current_matrix rk) ~sigma wi wv len in
    let h = p.handle in
    let t' =
      compile
        ~opts:{ h.opts with Options.ordering = `Natural; cache = true }
        a_esc
    in
    let n = h.pattern.Csc.ncols in
    let perm, old_map =
      match h.ord.o_perm with
      | Some q -> (q, h.ord.o_map)
      | None -> (Perm.identity n, Array.init (Csc.nnz h.pattern) Fun.id)
    in
    let ord =
      {
        h.ord with
        o_perm = Some perm;
        o_map = extend_input_map ~old_pattern:h.pattern ~old_map t'.pattern;
      }
    in
    let np = plan { t' with ord; natural_pattern = h.natural_pattern } in
    (* raises, plan untouched, if the updated matrix is not positive
       definite *)
    Cholesky_family.factor_ip np.p a_esc;
    p.scratch <- np.scratch;
    p.handle <- np.handle;
    p.p <- np.p;
    p.native <- None;
    p.m_exec <- np.m_exec;
    p.ru <- None;
    Metrics.inc Metrics.updown_escalations 1

  (* [neg] carries the downdate direction as a flag so the sign flip never
     boxes a fresh float on the zero-alloc path. *)
  let updown_body (p : plan) ~(neg : bool) ~(sigma : float) (w : Vector.sparse)
      : unit =
    if Array.length w.Vector.indices > 0 && sigma <> 0.0 then begin
      let rk, g = ru_state p in
      let len = gather_w ~who:"Sympiler.Cholesky.update_ip" g w in
      try Rank_update.update_raw rk ~neg ~sigma g.wi g.wv len
      with Rank_update.Pattern_violation _ ->
        escalate p rk ~neg ~sigma g.wi g.wv len
    end

  let update_ip (p : plan) ?(sigma = 1.0) (w : Vector.sparse) : unit =
    updown_body p ~neg:false ~sigma w

  let downdate_ip (p : plan) ?(sigma = 1.0) (w : Vector.sparse) : unit =
    updown_body p ~neg:true ~sigma w

  (* Incremental refactorization: recompute only the factor rows whose
     values can change under the new input (changed input columns, closed
     over their etree paths). Needs a baseline from a prior full
     [execute_ip] that rank updates have not invalidated — otherwise it
     transparently falls back to the full refactor. Returns the number of
     rows recomputed. *)
  let refactor_cols_ip (p : plan) (a_lower : Csc.t) : int =
    let rk, _ = ru_state p in
    if not (Rank_update.prev_valid rk) then begin
      ignore (execute_ip p a_lower : Csc.t);
      p.handle.pattern.Csc.ncols
    end
    else
      let a = input ~who:"Sympiler.Cholesky.refactor_cols_ip" p a_lower in
      Rank_update.refactor_cols_ip rk a.Csc.values

  (* Solve A x = b: numeric factorization + two triangular solves. On an
     ordered handle the permuted system (P A P^T)(P x) = P b is solved in
     the gathered vector and x scattered back to natural order: two
     n-vectors, one on a natural handle. *)
  let solve (t : t) (a_lower : Csc.t) (b : float array) : float array =
    if Array.length b <> t.pattern.Csc.ncols then
      invalid_arg "Sympiler.Cholesky.solve: b length does not match n";
    let l = factor t a_lower in
    match t.ord.o_perm with
    | None -> Cholesky_ref.solve_with_factor l b
    | Some p ->
        let x = Perm.apply_vec p b in
        Cholesky_ref.solve_ip l x;
        Perm.apply_inv_vec p x
end

module Ldlt = struct
  include Factor.Make (Families.Ldlt)

  (* In-place rank-1 update of the plan's factors (GGMS C1): L D L^T
     becomes A + sigma w w^T. [w] is natural-order; ordered plans gather
     through the inverse permutation. No escalation path here — an update
     outside the factor pattern raises [Rank_update.Pattern_violation] and
     the caller recompiles (the Cholesky facade automates this; LDL^T's
     indefinite inputs make the escalated matrix's signature ambiguous, so
     the decision stays with the caller). A zero updated pivot raises
     [Sympiler_kernels.Ldlt.Zero_pivot] with the factors rolled back. *)
  let updown_body (p : plan) ~(neg : bool) ~(sigma : float) (w : Vector.sparse)
      : unit =
    if Array.length w.Vector.indices > 0 && sigma <> 0.0 then begin
      let lk, g = ru_state p in
      let len = gather_w ~who:"Sympiler.Ldlt.update_ip" g w in
      Rank_update.ldlt_update_raw lk ~neg ~sigma g.wi g.wv len
    end

  let update_ip (p : plan) ?(sigma = 1.0) (w : Vector.sparse) : unit =
    updown_body p ~neg:false ~sigma w

  let downdate_ip (p : plan) ?(sigma = 1.0) (w : Vector.sparse) : unit =
    updown_body p ~neg:true ~sigma w
end

module Lu = Factor.Make (Families.Lu)
module Ic0 = Factor.Make (Families.Ic0)
module Ilu0 = Factor.Make (Families.Ilu0)

(* Symbolic "explain" reports: what the inspectors measured and what the
   transformations decided, for one compiled handle. Everything here is
   diagnostic-path code — it may recompute symbolic quantities freely. *)
module Explain = struct
  type histogram = (string * int) list

  type report = {
    kernel : string; (* "cholesky" | "trisolve" *)
    ordering : string; (* "natural" | "rcm" | "amd" | "min-degree" | "given" *)
    n : int;
    nnz_a : int;
    nnz_l : int; (* under the selected ordering *)
    nnz_l_natural : int; (* what the natural order would have cost *)
    fill_ratio : float; (* nnz(L) / nnz(A); 0 for empty patterns *)
    etree_height : int;
    col_count_hist : histogram;
    supernode_width_hist : histogram;
    avg_supernode_width : float;
    flop_weighted_width : float; (* what Cholesky's VS-Block rule reads *)
    native_kernel : string; (* "supernodal" | "simplicial" *)
    level_depth : int; (* level sets of L's dependence graph *)
    max_level_width : int;
    decisions : Trace.decision list;
    predicted_flops : float; (* symbolic flop model of the handle *)
    predicted_flops_natural : float; (* same model without the ordering *)
    executed_flops : int; (* the flop counter's value; see sympiler.mli *)
    symbolic_seconds : float;
  }

  let safe_div a b = if b = 0.0 then 0.0 else a /. b

  (* Power-of-two buckets [1,1] [2,2] [3,4] [5,8] ... up to the max value;
     empty input yields the empty histogram. One pass over the values into
     per-bucket counters — the bucket of v is determined directly, not by
     scanning all values once per bucket (which made diagnostics on a
     10^6-column factor cost n * log(max) array sweeps). *)
  let histogram (values : int array) : histogram =
    if Array.length values = 0 then []
    else begin
      let vmax = Array.fold_left max 1 values in
      (* Bucket b covers [2^(b-1)+1, 2^b] for b >= 1; bucket 0 is [1,1]. *)
      let nbuckets = ref 1 in
      let hi = ref 1 in
      while !hi < vmax do
        hi := !hi * 2;
        incr nbuckets
      done;
      let counts = Array.make !nbuckets 0 in
      Array.iter
        (fun v ->
          if v >= 1 then begin
            let b = ref 0 and top = ref 1 in
            while v > !top do
              top := !top * 2;
              incr b
            done;
            counts.(!b) <- counts.(!b) + 1
          end)
        values;
      let out = ref [] in
      let lo = ref 1 and hi = ref 1 in
      for b = 0 to !nbuckets - 1 do
        let label =
          if !lo = !hi then string_of_int !lo
          else Printf.sprintf "%d-%d" !lo !hi
        in
        out := (label, counts.(b)) :: !out;
        lo := !hi + 1;
        hi := !hi * 2
      done;
      List.rev !out
    end

  let etree_height (parent : int array) : int =
    if Array.length parent = 0 then 0
    else 1 + Array.fold_left max 0 (Sympiler_symbolic.Etree.depths parent)

  (* Level-set depth and widest level of a lower-triangular pattern, read
     from the global level order: no schedule is built, so nothing is
     counted as one. *)
  let level_stats (l : Csc.t) : int * int =
    if l.Csc.ncols = 0 then (0, 0)
    else begin
      let level_ptr, _ =
        Sympiler_symbolic.Dep_graph.level_order ~window:l.Csc.ncols l
      in
      let nlevels = Array.length level_ptr - 1 in
      let maxw = ref 0 in
      for lv = 0 to nlevels - 1 do
        maxw := max !maxw (level_ptr.(lv + 1) - level_ptr.(lv))
      done;
      (nlevels, !maxw)
    end

  let cholesky (t : Cholesky.t) : report =
    Trace.with_span "explain.cholesky" @@ fun () ->
    let a = t.Cholesky.pattern in
    let n = a.Csc.ncols in
    let nnz_a = Csc.nnz a in
    let fill = Sympiler_symbolic.Fill_pattern.analyze a in
    let sn =
      Sympiler_symbolic.Supernodes.detect_etree
        ~counts:fill.Sympiler_symbolic.Fill_pattern.counts
        ~parent:fill.Sympiler_symbolic.Fill_pattern.parent ()
    in
    let depth, maxw =
      level_stats (Sympiler_symbolic.Fill_pattern.l_view fill)
    in
    (* Natural-order baseline columns: on an ordered handle, count the
       caller's pattern (etree and column counts only) to show what the
       ordering bought, and log that as the ordering's decision; on a
       natural handle both columns coincide. *)
    let nnz_l_natural, predicted_flops_natural, decisions =
      match t.Cholesky.ord.o_perm with
      | None -> (t.Cholesky.nnz_l, t.Cholesky.flops, t.Cholesky.decisions)
      | Some _ ->
          let _, counts =
            Sympiler_symbolic.Fill_pattern.col_counts t.Cholesky.natural_pattern
          in
          let nnz_nat = Array.fold_left ( + ) 0 counts in
          let d =
            {
              Trace.pass = "ordering";
              fired = true;
              metric = "fill_ratio_vs_natural";
              value =
                (if nnz_nat = 0 then 1.0
                 else float_of_int t.Cholesky.nnz_l /. float_of_int nnz_nat);
              threshold = 1.0;
            }
          in
          Trace.decision d;
          ( nnz_nat,
            Sympiler_symbolic.Fill_pattern.flops_of_counts counts,
            d :: t.Cholesky.decisions )
    in
    {
      kernel = "cholesky";
      ordering = t.Cholesky.ord.o_name;
      n;
      nnz_a;
      nnz_l = t.Cholesky.nnz_l;
      nnz_l_natural;
      fill_ratio =
        safe_div (float_of_int t.Cholesky.nnz_l) (float_of_int nnz_a);
      etree_height =
        etree_height fill.Sympiler_symbolic.Fill_pattern.parent;
      col_count_hist =
        histogram fill.Sympiler_symbolic.Fill_pattern.counts;
      supernode_width_hist =
        histogram (Sympiler_symbolic.Supernodes.widths sn);
      avg_supernode_width = Sympiler_symbolic.Supernodes.avg_width sn;
      flop_weighted_width =
        Sympiler_symbolic.Supernodes.flop_weighted_width sn
          ~counts:fill.Sympiler_symbolic.Fill_pattern.counts;
      native_kernel = Cholesky.variant_name (Cholesky.variant t);
      level_depth = depth;
      max_level_width = maxw;
      decisions;
      predicted_flops = t.Cholesky.flops;
      predicted_flops_natural;
      executed_flops = Metrics.counter_value Metrics.flops;
      symbolic_seconds = t.Cholesky.symbolic_seconds;
    }

  let trisolve (t : Trisolve.t) : report =
    Trace.with_span "explain.trisolve" @@ fun () ->
    let l = t.Trisolve.l in
    let n = l.Csc.ncols in
    let nnz = Csc.nnz l in
    let parent = Sympiler_symbolic.Etree.compute l in
    let sn = t.Trisolve.compiled.Trisolve_sympiler.sn in
    let counts =
      Array.init n (fun j -> l.Csc.colptr.(j + 1) - l.Csc.colptr.(j))
    in
    let depth, maxw = level_stats l in
    {
      kernel = "trisolve";
      ordering = t.Trisolve.ord.o_name;
      n;
      nnz_a = nnz;
      nnz_l = nnz;
      (* a solve's pattern is a relabeling: ordering changes neither nnz
         nor the reach-set flop model *)
      nnz_l_natural = nnz;
      fill_ratio = (if nnz = 0 then 0.0 else 1.0);
      etree_height = etree_height parent;
      col_count_hist = histogram counts;
      supernode_width_hist =
        histogram (Sympiler_symbolic.Supernodes.widths sn);
      avg_supernode_width = Sympiler_symbolic.Supernodes.avg_width sn;
      flop_weighted_width =
        Sympiler_symbolic.Supernodes.flop_weighted_width sn ~counts;
      native_kernel =
        (if
           List.exists
             (fun (d : Trace.decision) ->
               d.Trace.pass = "vs-block" && d.Trace.fired)
             t.Trisolve.decisions
         then "supernodal"
         else "simplicial");
      level_depth = depth;
      max_level_width = maxw;
      decisions = t.Trisolve.decisions;
      predicted_flops = t.Trisolve.flops;
      predicted_flops_natural = t.Trisolve.flops;
      executed_flops = Metrics.counter_value Metrics.flops;
      symbolic_seconds = t.Trisolve.symbolic_seconds;
    }

  module Json = Prof.Json

  let decision_json (d : Trace.decision) =
    Json.Obj
      [
        ("pass", Json.Str d.Trace.pass);
        ("fired", Json.Bool d.Trace.fired);
        ("metric", Json.Str d.Trace.metric);
        ("value", Json.Float d.Trace.value);
        ("threshold", Json.Float d.Trace.threshold);
      ]

  let hist_json (h : histogram) =
    Json.Obj (List.map (fun (label, c) -> (label, Json.Int c)) h)

  let to_json (r : report) : string =
    Json.to_string
      (Json.Obj
         [
           ("kernel", Json.Str r.kernel);
           ("ordering", Json.Str r.ordering);
           ("n", Json.Int r.n);
           ("nnz_a", Json.Int r.nnz_a);
           ("nnz_l", Json.Int r.nnz_l);
           ("nnz_l_natural", Json.Int r.nnz_l_natural);
           ("fill_ratio", Json.Float r.fill_ratio);
           ("etree_height", Json.Int r.etree_height);
           ("col_count_hist", hist_json r.col_count_hist);
           ("supernode_width_hist", hist_json r.supernode_width_hist);
           ("avg_supernode_width", Json.Float r.avg_supernode_width);
           ("flop_weighted_width", Json.Float r.flop_weighted_width);
           ("native_kernel", Json.Str r.native_kernel);
           ("level_depth", Json.Int r.level_depth);
           ("max_level_width", Json.Int r.max_level_width);
           ("decisions", Json.List (List.map decision_json r.decisions));
           ("predicted_flops", Json.Float r.predicted_flops);
           ("predicted_flops_natural", Json.Float r.predicted_flops_natural);
           ("executed_flops", Json.Int r.executed_flops);
           ("symbolic_seconds", Json.Float r.symbolic_seconds);
         ])

  (* Aligned two-column table; histogram and decision rows are indented
     under their headers. The label column is sized to the longest label. *)
  let to_table (r : report) : string =
    let hist_rows prefix h =
      List.filter_map
        (fun (label, c) ->
          if c = 0 then None
          else Some (Printf.sprintf "%s[%s]" prefix label, string_of_int c))
        h
    in
    let decision_rows =
      List.map
        (fun (d : Trace.decision) ->
          ( Printf.sprintf "decision[%s]" d.Trace.pass,
            Printf.sprintf "%s (%s = %g, threshold %g)"
              (if d.Trace.fired then "fired" else "declined")
              d.Trace.metric d.Trace.value d.Trace.threshold ))
        r.decisions
    in
    let rows =
      [
        ("kernel", r.kernel);
        ("ordering", r.ordering);
        ("n", string_of_int r.n);
        ("nnz(A)", string_of_int r.nnz_a);
        ("nnz(L)", string_of_int r.nnz_l);
        ("nnz(L) natural", string_of_int r.nnz_l_natural);
        ("fill ratio", Printf.sprintf "%.3f" r.fill_ratio);
        ("etree height", string_of_int r.etree_height);
      ]
      @ hist_rows "col count " r.col_count_hist
      @ hist_rows "sn width " r.supernode_width_hist
      @ [
          ("avg supernode width", Printf.sprintf "%.3f" r.avg_supernode_width);
          ("flop-weighted width", Printf.sprintf "%.3f" r.flop_weighted_width);
          ("native kernel", r.native_kernel);
          ("level depth", string_of_int r.level_depth);
          ("max level width", string_of_int r.max_level_width);
        ]
      @ decision_rows
      @ [
          ("predicted flops", Printf.sprintf "%.0f" r.predicted_flops);
          ( "predicted flops natural",
            Printf.sprintf "%.0f" r.predicted_flops_natural );
          ("executed flops", string_of_int r.executed_flops);
          ("symbolic seconds", Printf.sprintf "%.6f" r.symbolic_seconds);
        ]
    in
    let w =
      List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 rows
    in
    let buf = Buffer.create 512 in
    List.iter
      (fun (l, v) -> Buffer.add_string buf (Printf.sprintf "%-*s  %s\n" w l v))
      rows;
    Buffer.contents buf
end

let explain = Explain.cholesky
