open Sympiler_sparse
open Sympiler_kernels
open Sympiler_prof

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
module Runtime = Sympiler_runtime
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

(* ------------- rank-update (updown) shared facade machinery ------------ *)

(* Gather a natural-order sparse update vector into an ordered plan's
   compiled index space: map every index through [pinv], tandem-insertion
   sort the plan-owned buffers (update vectors are short — typically the
   pattern of one factor column — so the quadratic sort never shows), and
   reject malformed input. Returns the entry count. Zero allocation. *)
let permute_sorted_w ~who (pinv : int array) (wi_buf : int array)
    (wv_buf : float array) (w : Vector.sparse) : int =
  let wi = w.Vector.indices and wv = w.Vector.values in
  let len = Array.length wi in
  let n = Array.length pinv in
  for k = 0 to len - 1 do
    let i = wi.(k) in
    if i < 0 || i >= n then invalid_arg (who ^ ": w index out of range");
    wi_buf.(k) <- pinv.(i);
    wv_buf.(k) <- wv.(k)
  done;
  for k = 1 to len - 1 do
    let ki = wi_buf.(k) and kv = wv_buf.(k) in
    let t = ref (k - 1) in
    while !t >= 0 && wi_buf.(!t) > ki do
      wi_buf.(!t + 1) <- wi_buf.(!t);
      wv_buf.(!t + 1) <- wv_buf.(!t);
      decr t
    done;
    wi_buf.(!t + 1) <- ki;
    wv_buf.(!t + 1) <- kv
  done;
  for k = 1 to len - 1 do
    if wi_buf.(k - 1) = wi_buf.(k) then
      invalid_arg (who ^ ": w indices must be unique")
  done;
  len

(* Allocation-free gather through a [-1]-extended map: escalated plans keep
   accepting inputs with the original natural pattern, and the pattern
   entries the escalation added that the input does not have are structural
   zeros. *)
let gather_esc ~who ~(expect : int) (map : int array) (src : float array)
    (dst : Csc.t) : unit =
  if Array.length src <> expect then
    invalid_arg (who ^ ": input nnz does not match the compiled pattern");
  let dv = dst.Csc.values in
  for q = 0 to Array.length dv - 1 do
    let s = map.(q) in
    dv.(q) <- (if s < 0 then 0.0 else src.(s))
  done

(* Extend an input gather map across a pattern growth: entry [q] of the new
   pattern reads where the matching old-pattern entry read ([old_q]), or
   [-1] when the old pattern lacks it. Merge scan per column. *)
let extend_input_map ~(old_pattern : Csc.t) ~(old_q : int -> int)
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
        map.(q) <- old_q !op
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
  let compile_internal ?vs_block_threshold ~(ordering : ordering) (l : Csc.t)
      (b : Vector.sparse) : t =
    if not (Csc.is_lower_triangular l) then
      invalid_arg "Sympiler.Trisolve.compile: L must be lower triangular";
    let t0 = Prof.now_seconds () in
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
      time_symbolic (fun () ->
          Trisolve_sympiler.compile ?vs_block_threshold l b)
    in
    observe_compile ~family:"trisolve" ~ordering:ord.o_name
      (symbolic_seconds +. ord_seconds);
    {
      l;
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
     the two options a solve consumes (the VS-Block threshold and the
     ordering; [fill] and [simplicial] mean nothing here) — a hit returns
     the previously compiled handle, physically equal, with no symbolic
     work. *)
  let default_cache : t Plan_cache.t = Plan_cache.create ()

  let compile ?cache ?(opts = Options.default) ((l, b) : pattern) : t =
    let { Options.vs_block_threshold; ordering; _ } = opts in
    cached_compile ~span:"compile_cached.trisolve" ~default:default_cache
      ?cache ~opts ~pattern:l
      ~extra:
        (Array.concat
           [
             [| b.Vector.n |];
             b.Vector.indices;
             Options.fp_threshold vs_block_threshold;
             Options.fp_ordering ordering;
           ])
      (fun () -> compile_internal ?vs_block_threshold ~ordering l b)

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
     out here. *)
  let solve (t : t) (b : Vector.sparse) : float array =
    check_rhs ~who:"Sympiler.Trisolve.solve" t b;
    Prof.time "numeric" (fun () ->
        match t.ord.o_perm with
        | None -> Trisolve_sympiler.solve_full t.compiled b
        | Some p ->
            let pb =
              {
                Vector.n = b.Vector.n;
                indices = t.b_pattern;
                values =
                  Array.map (fun m -> b.Vector.values.(m)) t.ord_b_map;
              }
            in
            let xp = Trisolve_sympiler.solve_full t.compiled pb in
            let out = Array.make (Array.length xp) 0.0 in
            Array.iteri (fun k v -> out.(p.(k)) <- v) xp;
            out)

  (* In-place numeric solve: [x] holds b on entry, the solution on exit. *)
  let solve_ip (t : t) (x : float array) : unit =
    if Array.length x <> t.l.Csc.ncols then
      invalid_arg "Sympiler.Trisolve.solve_ip: x length does not match n";
    Prof.time "numeric" (fun () ->
        match t.ord.o_perm with
        | None -> Trisolve_sympiler.solve_full_ip t.compiled x
        | Some p ->
            let px = Perm.apply_vec p x in
            Trisolve_sympiler.solve_full_ip t.compiled px;
            let xn = Perm.apply_inv_vec p px in
            Array.blit xn 0 x 0 (Array.length x))

  (* Plans: allocate the numeric workspaces once, then solve repeatedly
     with zero steady-state allocation. [Prof.start]/[stop] rather than
     [Prof.time] keeps even the profiled path closure-free. *)
  type plan = {
    handle : t;
    p : Trisolve_sympiler.plan;
    par : Trisolve_parallel.plan option;
    ord_b : Vector.sparse option;
        (* permuted-b scratch of an ordered plan: fixed (permuted) indices,
           values refreshed by each execute *)
    ord_x : float array option; (* natural-order output buffer *)
    native : Native_engine.exec option;
        (* compiled-C executor: b0 = Lx (filled at plan time), b1 = x,
           b2 = tmp when VS-Block added one *)
    m_exec : Metrics.histogram; (* per-call solve latency *)
  }

  (* The emitted C binds L's values as a runtime parameter, so the plan
     loads them into the Lx buffer once — same binding time as the OCaml
     executor, whose compiled plan captured [t.l]'s values at compile. *)
  let native_exec (mode : Native_engine.mode) (t : t) :
      Native_engine.exec option =
    let b =
      {
        Vector.n = t.l.Csc.ncols;
        indices = t.b_pattern;
        values = Array.map (fun _ -> 1.0) t.b_pattern;
      }
    in
    let r = Sympiler_ir.Pipeline.trisolve t.l b in
    let nargs = List.length r.Sympiler_ir.Pipeline.kernel.Sympiler_ir.Ast.params in
    match
      Native_engine.load ~mode ~pattern_key:(Csc.pattern_hash t.l)
        ~family:"trisolve" ~kname:"trisolve" ~nargs ~int_return:false
        ~sizes:
          [| Csc.nnz t.l; t.l.Csc.ncols; r.Sympiler_ir.Pipeline.tmp_size |]
        r.Sympiler_ir.Pipeline.c_code
    with
    | None -> None
    | Some e ->
        Native_engine.blit_in t.l.Csc.values e.Native_engine.b0;
        Some e

  (* [~ndomains] switches the plan to the level-set executor on the
     persistent domain pool; the levelization (one more inspection set) is
     paid here, at plan time. Any requested domain count — including 1 —
     goes through the level schedule, so results are bitwise-identical
     across [ndomains]; they may differ in operation order (hence in last
     bits) from the reach-set executor of a plain plan. *)
  let plan ?ndomains ?(engine : engine = `Ocaml) (t : t) : plan =
    let par =
      match ndomains with
      | None -> None
      | Some nd ->
          Some
            (Prof.time "symbolic" (fun () ->
                 Trisolve_parallel.make_plan ~ndomains:nd
                   (Trisolve_parallel.compile t.l)))
    in
    let native =
      match native_mode engine with
      | None -> None
      | Some mode -> native_exec mode t
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
      p = Trisolve_sympiler.make_plan t.compiled;
      par;
      ord_b;
      ord_x;
      native;
      m_exec =
        execute_hist ~family:"trisolve" ~op:"solve"
          ~engine:(engine_label native engine) ~ordering:t.ord.o_name;
    }

  (* The inner executor dispatch shared by the natural and ordered paths.
     A native plan zeroes the dense x buffer and scatters b into it — the
     same per-call work [Trisolve_sympiler.solve_ip] does on its plan
     array — then blits the solution into the OCaml plan's buffer so the
     returned view is the same array whichever engine ran. *)
  let run_inner (p : plan) (b : Vector.sparse) : float array =
    match p.native with
    | Some e ->
        (* The solution's nonzero set is exactly the reach-set (pruned
           supernode columns compute exact FP zeros), so resetting and
           copying out only reach entries is sound — and keeps the native
           per-call cost O(|reach|), below the OCaml executor's O(n)
           scatter reset. *)
        let xb = e.Native_engine.b1 in
        let reach = p.handle.reach in
        Native_engine.fill0_at xb reach;
        Native_engine.scatter xb b.Vector.indices b.Vector.values;
        ignore (Native_engine.call e : int);
        let x = p.p.Trisolve_sympiler.x in
        Native_engine.gather xb reach x;
        x
    | None -> (
        match p.par with
        | Some pp -> Trisolve_parallel.solve_ip_sparse pp b
        | None -> Trisolve_sympiler.solve_ip p.p b)

  let execute_ip_raw (p : plan) (b : Vector.sparse) : float array =
    check_rhs ~who:"Sympiler.Trisolve.execute_ip" p.handle b;
    Prof.start "numeric";
    let r =
      try
        match (p.ord_b, p.ord_x) with
        | None, _ | _, None -> run_inner p b
        | Some pb, Some out ->
            let map = p.handle.ord_b_map in
            for t = 0 to Array.length map - 1 do
              pb.Vector.values.(t) <- b.Vector.values.(map.(t))
            done;
            let xp = run_inner p pb in
            let perm =
              match p.handle.ord.o_perm with
              | Some q -> q
              | None -> assert false
            in
            for k = 0 to Array.length out - 1 do
              out.(perm.(k)) <- xp.(k)
            done;
            out
      with e ->
        Prof.stop "numeric";
        raise e
    in
    Prof.stop "numeric";
    r

  let execute_ip (p : plan) (b : Vector.sparse) : float array =
    observed p.m_exec execute_ip_raw p b

  let plan_latency (p : plan) = Metrics.snapshot p.m_exec

  (* Generated C source implementing the same specialized solve
     (VS-Block + VI-Prune + low-level transformations). *)
  let c_code (t : t) : string =
    let b =
      {
        Vector.n = t.l.Csc.ncols;
        indices = t.b_pattern;
        values = Array.map (fun _ -> 1.0) t.b_pattern;
      }
    in
    (Sympiler_ir.Pipeline.trisolve t.l b).Sympiler_ir.Pipeline.c_code
end

module Cholesky = struct
  type variant = Supernodal | Simplicial

  type t = {
    variant : variant;
    supernodal : Cholesky_supernodal.Sympiler.compiled option;
    simplicial : Cholesky_ref.Decoupled.compiled option;
    pattern : Csc.t; (* lower(A) pattern compiled against (permuted) *)
    natural_pattern : Csc.t; (* caller's lower(A) before any ordering *)
    symbolic_seconds : float;
    flops : float;
    nnz_l : int;
    decisions : Trace.decision list;
    ord : applied_ordering;
  }

  type pattern = Csc.t
  type input = Csc.t
  type output = Csc.t

  (* Compile Cholesky for the pattern of lower-triangular [a_lower]. The
     supernodal variant (VS-Block + low-level) is the default; [Simplicial]
     gives the column (VI-Prune-only) code. [vs_block_threshold]: minimum
     average supernode width for VS-Block to pay off (paper §4.2) — below
     it compilation falls back to the simplicial variant automatically.
     [fill0] reuses a caller-provided fill analysis of the same pattern. *)
  let compile_internal ?fill:fill0 ~variant ~vs_block_threshold
      ~(ordering : ordering) (a_natural : Csc.t) : t =
    if not (Csc.is_lower_triangular a_natural) then
      invalid_arg "Sympiler.Cholesky.compile: pass lower(A)";
    let t0 = Prof.now_seconds () in
    (* The ordering stage: permute the pattern, run the fill analysis on
       P A P^T, and record the predicted fill ratio ordered-vs-natural as a
       traced decision. The natural-order nnz(L) comes from the counts-only
       pass (a caller-provided [?fill] is the natural-order analysis, so it
       seeds the comparison baseline, not the compile). *)
    let a_lower, fill0, ord, ord_decisions =
      match ordering with
      | `Natural -> (a_natural, fill0, natural_ordering, [])
      | o ->
          let n = a_natural.Csc.ncols in
          let p =
            resolve_ordering ~who:"Sympiler.Cholesky.compile" o
              (lazy (Csc.symmetrize_from_lower a_natural))
              n
          in
          let pl, map = Perm.permute_lower p a_natural in
          let nnz_nat =
            match fill0 with
            | Some f -> f.Sympiler_symbolic.Fill_pattern.l_pattern.Csc.colptr.(n)
            | None ->
                let _, counts =
                  Sympiler_symbolic.Fill_pattern.col_counts a_natural
                in
                Array.fold_left ( + ) 0 counts
          in
          let fill_perm = Sympiler_symbolic.Fill_pattern.analyze pl in
          let nnz_perm =
            fill_perm.Sympiler_symbolic.Fill_pattern.l_pattern.Csc.colptr.(n)
          in
          let d =
            {
              Trace.pass = "ordering";
              fired = true;
              metric = "fill_ratio_vs_natural";
              value =
                (if nnz_nat = 0 then 1.0
                 else float_of_int nnz_perm /. float_of_int nnz_nat);
              threshold = 1.0;
            }
          in
          Trace.decision d;
          ( pl,
            Some fill_perm,
            { o_perm = Some p; o_name = ordering_name o; o_map = map },
            [ d ] )
    in
    let ord_seconds = Prof.now_seconds () -. t0 in
    Trace.with_span "compile.cholesky"
      ~attrs:[ ("n", Trace.Int a_lower.Csc.ncols) ]
    @@ fun () ->
    let (sup, simp, flops, nnz_l, decisions), symbolic_seconds =
      time_symbolic (fun () ->
          (* One shared symbolic factorization; the variant decision (the
             paper's VS-Block threshold) is taken on the cheap supernode
             statistics before any variant-specific planning is built. *)
          let fill =
            match fill0 with
            | Some f -> f
            | None -> Sympiler_symbolic.Fill_pattern.analyze a_lower
          in
          let flops = Sympiler_symbolic.Fill_pattern.flops fill in
          let n = a_lower.Csc.ncols in
          let nnz_l =
            fill.Sympiler_symbolic.Fill_pattern.l_pattern.Csc.colptr.(n)
          in
          let go_supernodal, avg_width =
            match variant with
            | Simplicial -> (false, Float.nan (* forced: never measured *))
            | Supernodal ->
                let sn =
                  Sympiler_symbolic.Supernodes.detect_etree
                    ~counts:fill.Sympiler_symbolic.Fill_pattern.counts
                    ~parent:fill.Sympiler_symbolic.Fill_pattern.parent ()
                in
                let w = Sympiler_symbolic.Supernodes.avg_width sn in
                (w >= vs_block_threshold, w)
          in
          let d_vs =
            {
              Trace.pass = "vs-block";
              fired = go_supernodal;
              metric = "avg_supernode_width";
              value = avg_width;
              threshold = vs_block_threshold;
            }
          in
          (* VI-Prune always fires for Cholesky: the prune-sets are baked
             into both variants. Its measured quantity is the fraction of
             the dense n*(n-1)/2 candidate updates the pattern removed. *)
          let d_vi =
            {
              Trace.pass = "vi-prune";
              fired = true;
              metric = "pruned_iteration_ratio";
              value =
                (if n < 2 then 0.0
                 else
                   1.0
                   -. float_of_int (nnz_l - n)
                      /. (float_of_int n *. float_of_int (n - 1) /. 2.0));
              threshold = 0.0;
            }
          in
          Trace.decision d_vi;
          Trace.decision d_vs;
          let decisions = [ d_vi; d_vs ] in
          if go_supernodal then
            let c = Cholesky_supernodal.Sympiler.compile ~fill a_lower in
            (Some c, None, flops, nnz_l, decisions)
          else
            let d = Cholesky_ref.Decoupled.compile ~fill a_lower in
            (None, Some d, flops, nnz_l, decisions))
    in
    let variant = if sup = None then Simplicial else variant in
    observe_compile ~family:"cholesky" ~ordering:ord.o_name
      (symbolic_seconds +. ord_seconds);
    {
      variant;
      supernodal = sup;
      simplicial = simp;
      pattern = a_lower;
      natural_pattern = a_natural;
      symbolic_seconds = symbolic_seconds +. ord_seconds;
      flops;
      nnz_l;
      decisions = ord_decisions @ decisions;
      ord;
    }

  (* Compilation cache: keyed on lower(A)'s structure plus the option
     fingerprint (Cholesky consumes every option field that shapes the
     artifact) — a hit returns the previously compiled handle, physically
     equal, skipping the symbolic phase entirely. *)
  let default_cache : t Plan_cache.t = Plan_cache.create ()

  let compile ?cache ?(opts = Options.default) (a_lower : pattern) : t =
    cached_compile ~span:"compile_cached.cholesky" ~default:default_cache
      ?cache ~opts ~pattern:a_lower ~extra:(Options.fingerprint opts)
      (fun () ->
        compile_internal ?fill:opts.Options.fill
          ~variant:(if opts.Options.simplicial then Simplicial else Supernodal)
          ~vs_block_threshold:
            (Option.value opts.Options.vs_block_threshold ~default:2.0)
          ~ordering:opts.Options.ordering a_lower)

  let cache_stats () = Plan_cache.stats default_cache
  let cache_clear () = Plan_cache.clear default_cache
  let symbolic_seconds (t : t) = t.symbolic_seconds

  (* Numeric factorization: A = L L^T for any [a_lower] sharing the compiled
     (natural-order) pattern. On an ordered handle the result is the factor
     of P A P^T — exactly what compiling the pre-permuted matrix yields. *)
  let factor (t : t) (a_lower : Csc.t) : Csc.t =
    Prof.time "numeric" @@ fun () ->
    let a_lower =
      ordered_input ~who:"Sympiler.Cholesky.factor" t.ord t.pattern a_lower
    in
    match (t.supernodal, t.simplicial) with
    | Some c, _ -> Cholesky_supernodal.Sympiler.factor c a_lower
    | None, Some d -> Cholesky_ref.Decoupled.factor d a_lower
    | None, None -> assert false

  (* Rank-update state, built lazily on the first [update_ip] /
     [refactor_cols_ip] call: the kernel plan (scatter workspace, rollback
     snapshot, memoized path table, incremental-refactor inspectors) plus
     the ordered-gather buffers that carry a natural-order update vector
     into compiled order without allocating. *)
  type updown = {
    rk : Rank_update.plan;
    up_pinv : int array; (* inverse permutation; [||] on natural plans *)
    up_wi : int array; (* permuted+sorted update indices *)
    up_wv : float array; (* matching values *)
  }

  (* Plans: allocate the factor storage and numeric scratch once, then
     refactorize repeatedly with zero steady-state allocation.
     [Prof.start]/[stop] rather than [Prof.time] keeps even the profiled
     path closure-free. The engine fields are mutable solely for the
     escalation path of [update_ip], which recompiles the plan in place
     when an update needs entries the factor pattern lacks. *)
  type plan = {
    mutable handle : t;
    mutable sup : Cholesky_supernodal.Sympiler.plan option;
    mutable simp : Cholesky_ref.Decoupled.plan option;
    mutable par : Cholesky_parallel.plan option;
    mutable scratch : Csc.t option;
        (* ordered plans gather natural-order values in here *)
    mutable native : Native_engine.exec option;
        (* compiled-C executor: b0 = Ax, b1 = Lx, b2 = f (simplicial
           accumulator; it self-restores to zero after every column) *)
    m_exec : Metrics.histogram; (* per-call refactorization latency *)
    mutable ru : updown option; (* lazy rank-update state *)
    mutable esc_map : int array option;
        (* after escalation: gather map from natural input nnz to the
           escalated pattern, -1 = structural zero *)
  }

  (* Both emitted variants fully (re)write Lx each call — the supernodal
     driver zeroes its panels, the simplicial kernel assigns every entry
     from the self-restoring f — so only Ax needs refreshing per call. *)
  let native_exec (mode : Native_engine.mode) (t : t) :
      Native_engine.exec option =
    let n = t.pattern.Csc.ncols in
    let kname, source, fsize =
      match t.supernodal with
      | Some c -> ("cholesky_supernodal", Codegen_supernodal.to_c c t.pattern, 0)
      | None ->
          ( "cholesky",
            (Sympiler_ir.Pipeline.cholesky t.pattern).Sympiler_ir.Pipeline
            .c_code,
            n )
    in
    let nargs = if fsize > 0 then 3 else 2 in
    Native_engine.load ~mode ~pattern_key:(Csc.pattern_hash t.pattern)
      ~family:"cholesky" ~kname ~nargs ~int_return:false
      ~sizes:[| Csc.nnz t.pattern; t.nnz_l; fsize |]
      source

  (* [~ndomains] on a supernodal handle: levelize the already-compiled
     supernode DAG (plan-time inspection, no re-analysis) and run levels
     on the persistent domain pool. The parallel engine executes each
     target supernode with the same operation sequence as the sequential
     one, so factors are bitwise-identical for any domain count. The
     simplicial column code has no level schedule — [ndomains] is
     ignored there. *)
  let plan ?ndomains ?(engine : engine = `Ocaml) (t : t) : plan =
    let scratch = ordering_scratch t.ord t.pattern in
    let native =
      match native_mode engine with
      | None -> None
      | Some mode -> native_exec mode t
    in
    let m_exec =
      execute_hist ~family:"cholesky" ~op:"factor"
        ~engine:(engine_label native engine) ~ordering:t.ord.o_name
    in
    match (ndomains, t.supernodal) with
    | Some nd, Some c ->
        let lp =
          Prof.time "symbolic" (fun () ->
              Cholesky_parallel.make_plan ~ndomains:nd
                (Cholesky_parallel.levelize c))
        in
        {
          handle = t;
          sup = None;
          simp = None;
          par = Some lp;
          scratch;
          native;
          m_exec;
          ru = None;
          esc_map = None;
        }
    | _ -> (
        match (t.supernodal, t.simplicial) with
        | Some c, _ ->
            {
              handle = t;
              sup = Some (Cholesky_supernodal.Sympiler.make_plan c);
              simp = None;
              par = None;
              scratch;
              native;
              m_exec;
              ru = None;
              esc_map = None;
            }
        | None, Some d ->
            {
              handle = t;
              sup = None;
              simp = Some (Cholesky_ref.Decoupled.make_plan d);
              par = None;
              scratch;
              native;
              m_exec;
              ru = None;
              esc_map = None;
            }
        | None, None -> assert false)

  (* The plan's factor view: refreshed in place by each [refactor_ip]. *)
  let plan_factor (p : plan) : Csc.t =
    match (p.sup, p.simp, p.par) with
    | Some sp, _, _ -> sp.Cholesky_supernodal.Sympiler.l
    | None, Some sp, _ -> sp.Cholesky_ref.Decoupled.l
    | None, None, Some pp -> pp.Cholesky_parallel.l
    | None, None, None -> assert false

  (* Bring caller values into compiled order. Escalated plans gather
     through the -1-extended map (callers keep passing the original
     natural pattern; the escalation's extra entries are structural
     zeros); ordered plans through the baked permutation map; natural
     plans pass through once the value count checks out. *)
  let gathered_input ~who (p : plan) (a_lower : Csc.t) : Csc.t =
    match (p.esc_map, p.scratch) with
    | Some em, Some s ->
        gather_esc ~who ~expect:(Csc.nnz p.handle.natural_pattern) em
          a_lower.Csc.values s;
        s
    | Some _, None -> assert false (* escalation always installs scratch *)
    | None, scratch ->
        plan_input ~who p.handle.ord scratch p.handle.pattern a_lower

  let refactor_ip_raw (p : plan) (a_lower : Csc.t) : unit =
    Prof.start "numeric";
    (try
       let a_lower =
         gathered_input ~who:"Sympiler.Cholesky.execute_ip" p a_lower
       in
       (match p.native with
        | Some e ->
            Native_engine.blit_in a_lower.Csc.values e.Native_engine.b0;
            ignore (Native_engine.call e : int);
            Native_engine.blit_out e.Native_engine.b1
              (plan_factor p).Csc.values
        | None -> (
            match (p.sup, p.simp, p.par) with
            | Some sp, _, _ -> Cholesky_supernodal.Sympiler.factor_ip sp a_lower
            | None, Some sp, _ -> Cholesky_ref.Decoupled.factor_ip sp a_lower
            | None, None, Some pp -> Cholesky_parallel.factor_ip pp a_lower
            | None, None, None -> assert false));
       (* keep the incremental-refactor diff baseline fresh *)
       match p.ru with
       | Some st -> Rank_update.note_refactor st.rk a_lower.Csc.values
       | None -> ()
     with e ->
       Prof.stop "numeric";
       raise e);
    Prof.stop "numeric"

  let refactor_ip (p : plan) (a_lower : Csc.t) : unit =
    observed p.m_exec refactor_ip_raw p a_lower

  let plan_latency (p : plan) = Metrics.snapshot p.m_exec

  let execute_ip (p : plan) (a_lower : Csc.t) : Csc.t =
    refactor_ip p a_lower;
    plan_factor p

  (* ----------------------- rank update / downdate ----------------------- *)

  (* Lazy updown state: built on the first [update_ip] /
     [refactor_cols_ip]. The kernel plan borrows the plan's factor view,
     so updates and refactors stay coherent without copying. *)
  let ru_state (p : plan) : updown =
    match p.ru with
    | Some st -> st
    | None ->
        let st =
          Prof.time "symbolic" (fun () ->
              let n = p.handle.pattern.Csc.ncols in
              {
                rk =
                  Rank_update.make_plan ~a_pattern:p.handle.pattern
                    (plan_factor p);
                up_pinv =
                  (match p.handle.ord.o_perm with
                  | Some pm -> Perm.inverse pm
                  | None -> [||]);
                up_wi = Array.make (max 1 n) 0;
                up_wv = Array.make (max 1 n) 0.0;
              })
        in
        p.ru <- Some st;
        st

  (* Escalation: the update needs entries the factor pattern lacks (the
     precondition is tight — a violation always means structural growth),
     so recompile in place. The plan's current matrix lower(L L^T) is
     recovered from the factor, the update's clique merged in, and the
     result compiled through the default cache (a repeated escalation
     pattern hits it). The new engine is built and factored BEFORE any
     field swaps, so a failed escalation (e.g. a downdate that leaves the
     matrix indefinite) leaves the plan exactly as it was. [wi]/[wv] are
     sorted, compiled-order, [len] entries. *)
  let escalate (p : plan) ~(neg : bool) ~(sigma : float) (wi : int array)
      (wv : float array) (len : int) : unit =
    Trace.with_span "updown.escalate"
      ~attrs:[ ("len", Trace.Int len) ]
    @@ fun () ->
    let sigma = if neg then -.sigma else sigma in
    let st = match p.ru with Some st -> st | None -> assert false in
    let m = Rank_update.current_matrix st.rk in
    let a_esc = clique_union m ~sigma wi wv len in
    let t' = compile ~cache:default_cache a_esc in
    let t_new =
      {
        t' with
        ord = p.handle.ord;
        natural_pattern = p.handle.natural_pattern;
      }
    in
    let sup', simp' =
      match (t'.supernodal, t'.simplicial) with
      | Some c, _ -> (Some (Cholesky_supernodal.Sympiler.make_plan c), None)
      | None, Some d -> (None, Some (Cholesky_ref.Decoupled.make_plan d))
      | None, None -> assert false
    in
    (* Numeric phase on the escalated input; raises (plan untouched) if
       the updated matrix is not positive definite. *)
    (match (sup', simp') with
    | Some sp, _ -> Cholesky_supernodal.Sympiler.factor_ip sp a_esc
    | None, Some sp -> Cholesky_ref.Decoupled.factor_ip sp a_esc
    | None, None -> assert false);
    let old_q =
      match p.esc_map with
      | Some em -> fun q -> em.(q)
      | None -> (
          match p.handle.ord.o_perm with
          | Some _ ->
              let map = p.handle.ord.o_map in
              fun q -> map.(q)
          | None -> fun q -> q)
    in
    let em =
      extend_input_map ~old_pattern:p.handle.pattern ~old_q t_new.pattern
    in
    p.handle <- t_new;
    p.sup <- sup';
    p.simp <- simp';
    p.par <- None;
    p.native <- None;
    p.scratch <-
      Some
        {
          t_new.pattern with
          Csc.values = Array.make (Csc.nnz t_new.pattern) 0.0;
        };
    p.esc_map <- Some em;
    p.ru <- None;
    if Prof.enabled () then begin
      let k = Prof.cell () in
      k.Prof.updown_escalations <- k.Prof.updown_escalations + 1
    end

  (* In-place rank-1 update of the plan's factor: L L^T becomes
     A + sigma w w^T. [w] is in natural order; ordered plans gather it
     through the inverse permutation into plan-owned buffers (steady-state
     calls allocate nothing). An update outside the factor pattern
     escalates (recompiles the plan in place with the augmented pattern) —
     after it, the plan still accepts inputs with the original natural
     pattern. A rejected downdate rolls the factor back and re-raises
     [Rank_update.Not_positive_definite]. *)
  (* [neg] carries the downdate direction as a flag so the sign flip never
     boxes a fresh float on the zero-alloc path. *)
  let updown_body (p : plan) ~(neg : bool) ~(sigma : float) (w : Vector.sparse)
      : unit =
    let len = Array.length w.Vector.indices in
    if len > 0 && sigma <> 0.0 then begin
      let st = ru_state p in
      match p.handle.ord.o_perm with
      | None -> (
          try Rank_update.update_vec st.rk ~neg ~sigma w
          with Rank_update.Pattern_violation _ ->
            escalate p ~neg ~sigma w.Vector.indices w.Vector.values len)
      | Some _ ->
          if w.Vector.n <> p.handle.pattern.Csc.ncols then
            invalid_arg "Sympiler.Cholesky.update_ip: dimension mismatch";
          let len =
            permute_sorted_w ~who:"Sympiler.Cholesky.update_ip" st.up_pinv
              st.up_wi st.up_wv w
          in
          (try
             Rank_update.update_raw st.rk ~neg ~sigma st.up_wi st.up_wv len
           with Rank_update.Pattern_violation _ ->
             escalate p ~neg ~sigma st.up_wi st.up_wv len)
    end

  let update_ip (p : plan) ?(sigma = 1.0) (w : Vector.sparse) : unit =
    updown_body p ~neg:false ~sigma w

  let downdate_ip (p : plan) ?(sigma = 1.0) (w : Vector.sparse) : unit =
    updown_body p ~neg:true ~sigma w

  (* Incremental refactorization: recompute only the factor rows whose
     values can change under the new input (changed input columns, closed
     over their etree paths). Needs a baseline from a prior full
     [refactor_ip] that rank updates have not invalidated — otherwise it
     transparently falls back to the full refactor. Returns the number of
     rows recomputed. *)
  let refactor_cols_ip (p : plan) (a_lower : Csc.t) : int =
    let st = ru_state p in
    if not (Rank_update.prev_valid st.rk) then begin
      refactor_ip p a_lower;
      p.handle.pattern.Csc.ncols
    end
    else begin
      Prof.start "numeric";
      let nrows =
        try
          let a =
            gathered_input ~who:"Sympiler.Cholesky.refactor_cols_ip" p a_lower
          in
          Rank_update.refactor_cols_ip st.rk a.Csc.values
        with e ->
          Prof.stop "numeric";
          raise e
      in
      Prof.stop "numeric";
      nrows
    end

  (* Solve A x = b: numeric factorization + two triangular solves. On an
     ordered handle the permuted system (P A P^T)(P x) = P b is solved and
     x returned in natural order. *)
  let solve (t : t) (a_lower : Csc.t) (b : float array) : float array =
    if Array.length b <> t.pattern.Csc.ncols then
      invalid_arg "Sympiler.Cholesky.solve: b length does not match n";
    let l = factor t a_lower in
    match t.ord.o_perm with
    | None -> Cholesky_ref.solve_with_factor l b
    | Some p ->
        let pb = Perm.apply_vec p b in
        Perm.apply_inv_vec p (Cholesky_ref.solve_with_factor l pb)

  (* Generated C source: the supernodal driver with baked-in schedule, or
     the fully specialized simplicial kernel from the AST pipeline. *)
  let c_code (t : t) : string =
    match t.supernodal with
    | Some c -> Codegen_supernodal.to_c c t.pattern
    | None ->
        (Sympiler_ir.Pipeline.cholesky t.pattern).Sympiler_ir.Pipeline.c_code
end

(* The four §3.3 families: one [Factor.Make] instance each, around the
   kernel it drives. LDL^T adds its rank-update pair on top. *)

module Ldlt = struct
  module K = Sympiler_kernels.Ldlt

  module Family = struct
    let name = "ldlt"
    let lower = true

    type compiled = K.compiled
    type kplan = K.plan
    type output = K.factors

    (* Rank-update state (GGMS C1), built lazily on the first [update_ip]. *)
    type updown = {
      lk : Rank_update.ldlt_plan;
      up_pinv : int array; (* inverse permutation; [||] on natural plans *)
      up_wi : int array;
      up_wv : float array;
    }

    let compile = K.compile
    let make_plan = K.make_plan
    let factor_ip = K.factor_ip
    let view (p : kplan) = p.K.f
    let factor = K.factor
    let flops _ = Float.nan

    (* b1 = Lx, b2 = D *)
    let native_sizes (p : kplan) = [| Array.length p.K.lx; p.K.c.K.n |]

    (* The plan's factor views alias [lx] / [d], so blitting the kernel
       buffers back makes [p.f] the result either way. *)
    let copy_out (e : Native_engine.exec) (p : kplan) =
      Native_engine.blit_out e.Native_engine.b1 p.K.lx;
      Native_engine.blit_out e.Native_engine.b2 p.K.f.K.d

    let pivot rc = K.Zero_pivot rc
    let c_code c _ = Codegen_static.ldlt c
  end

  include Factor.Make (Family)

  let ru_state (p : plan) : updown =
    match p.ru with
    | Some st -> st
    | None ->
        let st =
          Prof.time "symbolic" (fun () ->
              let n = p.handle.pattern.Csc.ncols in
              {
                Family.lk = Rank_update.make_ldlt_plan p.p.K.f.K.l p.p.K.f.K.d;
                up_pinv =
                  (match p.handle.ord.o_perm with
                  | Some pm -> Perm.inverse pm
                  | None -> [||]);
                up_wi = Array.make (max 1 n) 0;
                up_wv = Array.make (max 1 n) 0.0;
              })
        in
        p.ru <- Some st;
        st

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
    let len = Array.length w.Vector.indices in
    if len > 0 && sigma <> 0.0 then begin
      let st = ru_state p in
      match p.handle.ord.o_perm with
      | None -> Rank_update.ldlt_update_vec st.lk ~neg ~sigma w
      | Some _ ->
          if w.Vector.n <> p.handle.pattern.Csc.ncols then
            invalid_arg "Sympiler.Ldlt.update_ip: dimension mismatch";
          let len =
            permute_sorted_w ~who:"Sympiler.Ldlt.update_ip" st.up_pinv
              st.up_wi st.up_wv w
          in
          Rank_update.ldlt_update_raw st.lk ~neg ~sigma st.up_wi st.up_wv len
    end

  let update_ip (p : plan) ?(sigma = 1.0) (w : Vector.sparse) : unit =
    updown_body p ~neg:false ~sigma w

  let downdate_ip (p : plan) ?(sigma = 1.0) (w : Vector.sparse) : unit =
    updown_body p ~neg:true ~sigma w
end

module Lu = Factor.Make (struct
  module K = Sympiler_kernels.Lu

  let name = "lu"
  let lower = false

  type compiled = K.Sympiler.compiled
  type kplan = K.Sympiler.plan
  type output = K.factors
  type updown = unit

  let compile = K.Sympiler.compile
  let make_plan = K.Sympiler.make_plan
  let factor_ip = K.Sympiler.factor_ip
  let view (p : kplan) = p.K.Sympiler.f
  let factor = K.Sympiler.factor
  let flops (c : compiled) = c.K.Sympiler.flops

  (* b1 = Lx, b2 = Ux *)
  let native_sizes (p : kplan) =
    [| Array.length p.K.Sympiler.lx; Array.length p.K.Sympiler.ux |]

  let copy_out (e : Native_engine.exec) (p : kplan) =
    Native_engine.blit_out e.Native_engine.b1 p.K.Sympiler.lx;
    Native_engine.blit_out e.Native_engine.b2 p.K.Sympiler.ux

  let pivot rc = K.Zero_pivot rc
  let c_code = Codegen_static.lu
end)

module Ic0 = Factor.Make (struct
  module K = Sympiler_kernels.Ic0

  let name = "ic0"
  let lower = true

  type compiled = K.compiled
  type kplan = K.plan
  type output = Csc.t
  type updown = unit

  let compile = K.compile
  let make_plan = K.make_plan
  let factor_ip = K.factor_ip
  let view (p : kplan) = p.K.l
  let factor = K.factor
  let flops _ = Float.nan

  (* b1 = Lx *)
  let native_sizes (p : kplan) = [| Array.length p.K.lx |]

  let copy_out (e : Native_engine.exec) (p : kplan) =
    Native_engine.blit_out e.Native_engine.b1 p.K.lx

  let pivot rc = K.Not_positive_definite rc
  let c_code c _ = Codegen_static.ic0 c
end)

module Ilu0 = Factor.Make (struct
  module K = Sympiler_kernels.Ilu0

  let name = "ilu0"
  let lower = false

  type compiled = K.compiled
  type kplan = K.plan
  type output = K.factors
  type updown = unit

  let compile = K.compile
  let make_plan = K.make_plan
  let factor_ip = K.factor_ip
  let view (p : kplan) = p.K.f
  let factor = K.factor
  let flops _ = Float.nan

  (* b1 = factor values (CSR order) *)
  let native_sizes (p : kplan) = [| Array.length p.K.f.K.values |]

  let copy_out (e : Native_engine.exec) (p : kplan) =
    Native_engine.blit_out e.Native_engine.b1 p.K.f.K.values

  let pivot rc = K.Zero_pivot rc
  let c_code c _ = Codegen_static.ilu0 c
end)

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
    level_depth : int; (* level sets of L's dependence graph *)
    max_level_width : int;
    decisions : Trace.decision list;
    predicted_flops : float; (* symbolic flop model of the handle *)
    predicted_flops_natural : float; (* same model without the ordering *)
    executed_flops : int; (* Prof.counters snapshot; 0 when profiling off *)
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

  (* Level-set statistics of a lower-triangular pattern. *)
  let level_stats (l : Csc.t) : int * int =
    if l.Csc.ncols = 0 then (0, 0)
    else begin
      let c = Trisolve_parallel.compile l in
      let maxw = ref 0 in
      for lv = 0 to c.Trisolve_parallel.nlevels - 1 do
        maxw :=
          max !maxw
            (c.Trisolve_parallel.level_ptr.(lv + 1)
            - c.Trisolve_parallel.level_ptr.(lv))
      done;
      (c.Trisolve_parallel.nlevels, !maxw)
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
      level_stats fill.Sympiler_symbolic.Fill_pattern.l_pattern
    in
    (* Natural-order baseline columns: on an ordered handle, count the
       caller's pattern (etree and column counts only) to show what the
       ordering bought; on a natural handle both columns coincide. *)
    let nnz_l_natural, predicted_flops_natural =
      match t.Cholesky.ord.o_perm with
      | None -> (t.Cholesky.nnz_l, t.Cholesky.flops)
      | Some _ ->
          let _, counts =
            Sympiler_symbolic.Fill_pattern.col_counts t.Cholesky.natural_pattern
          in
          ( Array.fold_left ( + ) 0 counts,
            Sympiler_symbolic.Fill_pattern.flops_of_counts counts )
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
      level_depth = depth;
      max_level_width = maxw;
      decisions = t.Cholesky.decisions;
      predicted_flops = t.Cholesky.flops;
      predicted_flops_natural;
      executed_flops = Prof.counters.Prof.flops;
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
      level_depth = depth;
      max_level_width = maxw;
      decisions = t.Trisolve.decisions;
      predicted_flops = t.Trisolve.flops;
      predicted_flops_natural = t.Trisolve.flops;
      executed_flops = Prof.counters.Prof.flops;
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
