open Sympiler_sparse
open Sympiler_kernels
module Prof = Sympiler_prof.Prof
module Shared_analysis = Sympiler_symbolic.Shared_analysis
module Dep_graph = Sympiler_symbolic.Dep_graph
module Trace = Sympiler_trace.Trace
module Metrics = Sympiler_metrics.Metrics

(* Solver-pipeline fusion: compile a whole DAG of kernel stages through one
   shared symbolic analysis, into one fused plan.

   Compiling each stage of a solver pipeline in isolation pays the symbolic
   phase N times and the stage boundaries forever: every hand-off is a
   vector copy, a dispatch, and a loop restart. A pipeline compiles the DAG
   as one unit — one [Shared_analysis] serves every stage (the elimination
   tree, fill pattern, level schedule and symmetrized full pattern are each
   computed at most once, and the {!analysis_runs} ledger proves it), the
   plan owns one shared vector workspace threaded through the whole chain,
   and adjacent stages fuse where the schedule allows (L then L^T collapses
   into [Stages.solve_pair_ip], one pass with no boundary).

   Fusion never reorders floating-point arithmetic. Operation order is
   canonical per entry: every x(i) receives the same operations in the
   same order on the fused and the staged path, so their results are
   bitwise-identical. The fused path removes copies, dispatch, and
   function boundaries, and where the compile-time rule selects it
   ([sweep_schedule]) it visits the rows of its triangular sweeps in a
   level order of L's dependence graph instead of natural order; the
   staged path keeps the natural-order column sweeps as the oracle. *)

type family = [ `Cholesky | `Ldlt | `Lu | `Ic0 | `Ilu0 ]

type stage_spec =
  | Factor of family
  | Lower_solve
  | Diag_solve
  | Upper_solve
  | Solve
  | Spmv

type dag = stage_spec list

(* ------------------------------ Combinators ----------------------------- *)

let stage (s : stage_spec) : dag = [ s ]
let then_ (a : dag) (b : dag) : dag = a @ b
let is_factor = function Factor _ -> true | _ -> false

let pair (f : dag) (s : dag) : dag =
  if not (List.exists is_factor f) then
    invalid_arg "Sympiler.Pipeline.pair: left side must contain a factor stage";
  if List.exists is_factor s then
    invalid_arg "Sympiler.Pipeline.pair: right side must not contain a factor";
  f @ s

let factor_solve (fam : family) : dag = [ Factor fam; Solve ]
let of_stages (l : stage_spec list) : dag = l
let to_stages (d : dag) : stage_spec list = d

(* ------------------------- Normalized vector ops ------------------------ *)

(* The family-resolved vector chain: [Solve] expands to the family's apply
   sequence, [Upper_solve] picks the right backward variant. *)
type vop = VLower | VLtrans | VUpper | VDiag | VCsrLower | VCsrUpper | VSpmv

let expand (family : family option) (s : stage_spec) : vop list =
  match (s, family) with
  | Factor _, _ -> []
  | Lower_solve, Some `Ilu0 -> [ VCsrLower ]
  | Lower_solve, _ -> [ VLower ]
  | Upper_solve, Some `Lu -> [ VUpper ]
  | Upper_solve, Some `Ilu0 -> [ VCsrUpper ]
  | Upper_solve, _ -> [ VLtrans ]
  | Diag_solve, Some `Ldlt -> [ VDiag ]
  | Diag_solve, _ ->
      invalid_arg "Sympiler.Pipeline.compile: Diag_solve requires Factor `Ldlt"
  | Solve, Some `Lu -> [ VLower; VUpper ]
  | Solve, Some `Ilu0 -> [ VCsrLower; VCsrUpper ]
  | Solve, Some `Ldlt -> [ VLower; VDiag; VLtrans ]
  | Solve, (Some (`Cholesky | `Ic0) | None) -> [ VLower; VLtrans ]
  | Spmv, _ -> [ VSpmv ]

(* ----------------------------- Compiled DAG ----------------------------- *)

type fhandle =
  | FChol of Cholesky_family.compiled
  | FLdlt of Ldlt.compiled
  | FLu of Lu.Sympiler.compiled
  | FIc0 of Ic0.compiled
  | FIlu0 of Ilu0.compiled

type t = {
  dag : stage_spec list;
  family : family option;
  vops : vop array;  (* family-resolved vector chain, dag order *)
  fbefore : int;
      (* number of vector ops preceding the factor stage in dag order;
         -1 when the DAG has no factor *)
  pattern : Csc.t;  (* compiled (permuted when ordered) pattern *)
  natural_pattern : Csc.t;
  ord : Compile_common.applied_ordering;
  analysis : Shared_analysis.t;  (* the one analysis every stage shares *)
  chain_analysis : Shared_analysis.t;
      (* analysis of the chain's L pattern: physically [analysis] when the
         factor keeps the input pattern (no fill), separate for the filled
         factors *)
  chain_l : Csc.t option;  (* structural L the fused C emission runs on *)
  fhandle : fhandle option;
  fused_boundaries : int;  (* stage boundaries removed by merging *)
  sweep : Stages.schedule option;
      (* the fused path's level-ordered sweep over [chain_l], when the
         rule selects it *)
  symbolic_seconds : float;
  decisions : Trace.decision list;
  n : int;
}

let family_name = function
  | `Cholesky -> "cholesky"
  | `Ldlt -> "ldlt"
  | `Lu -> "lu"
  | `Ic0 -> "ic0"
  | `Ilu0 -> "ilu0"

let stage_name = function
  | Factor f -> "factor:" ^ family_name f
  | Lower_solve -> "lower_solve"
  | Diag_solve -> "diag_solve"
  | Upper_solve -> "upper_solve"
  | Solve -> "solve"
  | Spmv -> "spmv"

(* Validation: a chain (execution order = stage order) with at most one
   factor stage. Returns the family and the factor's dag position. *)
let validate (d : dag) : family option * int =
  if d = [] then invalid_arg "Sympiler.Pipeline.compile: empty pipeline";
  let factors = List.filter is_factor d in
  if List.length factors > 1 then
    invalid_arg "Sympiler.Pipeline.compile: at most one factor stage per DAG";
  let family = match factors with [ Factor f ] -> Some f | _ -> None in
  let rec pos i = function
    | [] -> -1
    | Factor _ :: _ -> i
    | _ :: tl -> pos (i + 1) tl
  in
  (family, pos 0 d)

(* Greedy left-to-right count of (L, L^T) boundaries the fused step array
   removes; a pair straddling the factor slot does not merge (the factor
   must run between them). *)
let count_fusable ~(fbefore : int) (vops : vop array) : int =
  let c = ref 0 and i = ref 0 in
  let n = Array.length vops in
  while !i < n do
    if
      !i + 1 < n
      && vops.(!i) = VLower
      && vops.(!i + 1) = VLtrans
      && fbefore <> !i + 1
    then (
      incr c;
      i := !i + 2)
    else incr i
  done;
  !c

(* Cholesky's variant decision is the facade's own, fed from the one fill
   pattern every stage shares. The symmetric families read the compiled
   pattern's upper triangle as the facade compiles do: the analysis and
   the up-looking gather map take it from the permutation, or from one
   transpose of a natural pattern. *)
let compile_factor ~(opts : Options.t) ~analysis (family : family)
    (cp : Compile_common.compiled_pattern) : fhandle * Trace.decision list =
  let pattern = cp.Compile_common.pattern in
  match family with
  | `Cholesky ->
      let c =
        Cholesky_family.compile_fill ~opts
          ~upper:(Lazy.force cp.Compile_common.upper)
          (Shared_analysis.fill analysis) pattern
      in
      (FChol c, c.Cholesky_family.decisions)
  | `Ldlt ->
      (FLdlt (Ldlt.compile ~upper:(Lazy.force cp.Compile_common.upper) pattern), [])
  | `Lu -> (FLu (Lu.Sympiler.compile pattern), [])
  | `Ic0 -> (FIc0 (Ic0.compile pattern), [])
  | `Ilu0 -> (FIlu0 (Ilu0.compile pattern), [])

(* Structural view of the factor L the fused C emission runs on, plus the
   analysis record that owns its level schedule (None for the CSR-side
   families, whose chains have no CSC L). *)
let chain_l_of ~analysis (fh : fhandle option) (pattern : Csc.t) :
    Csc.t option * Shared_analysis.t =
  let filled fill =
    let l = Sympiler_symbolic.Fill_pattern.l_view fill in
    (Some l, Shared_analysis.create l)
  in
  match fh with
  | None -> (Some pattern, analysis)
  | Some (FIc0 _) ->
      (* IC(0) keeps the input pattern: the shared analysis of the input
         *is* the chain analysis — its level schedule serves both. *)
      (Some pattern, analysis)
  | Some (FChol _) -> filled (Shared_analysis.fill analysis)
  | Some (FLdlt c) -> filled c.Ldlt.fill
  | Some (FLu _ | FIlu0 _) -> (None, analysis)

(* Level-ordered sweeps. A preconditioner's triangular solves run
   thousands of times on one pattern (paper §4.3), so an order inspected
   once at compile time pays in every apply. In natural order, a chain-like
   L makes each column's divide wait for the previous column's update;
   visiting the rows in level order of L's dependence graph lets
   independent rows overlap. The level order is taken within windows of
   [sweep_window] consecutive columns, which keeps one window's working set
   in L2. Measured, a level order loses wherever natural order is no chain
   (AMD-ordered and filled factors, random chains: 0.66-0.94x) or the
   levels are few columns wide, so it is selected from L's structure only
   when both hold:
   - natural order is a dependence chain: L(j+1, j) is stored for at
     least [chain_threshold] of the columns;
   - the schedule has width: at most n/2 levels.
   IC(0) reuses its compiled row lists (when every column stores its
   diagonal, its row lists are exactly the positional ones); the other
   families build theirs only when selected. *)
let sweep_window = 2048
let chain_threshold = 0.875

let sweep_schedule (fh : fhandle option) (vops : vop array)
    (chain_l : Csc.t option) : Stages.schedule option * Trace.decision =
  let sweeps =
    Array.exists (function VLower | VLtrans -> true | _ -> false) vops
  in
  let share =
    match chain_l with Some l -> Dep_graph.chain_share l | None -> Float.nan
  in
  let sweep =
    match chain_l with
    | Some l when sweeps && share >= chain_threshold ->
        let n = l.Csc.ncols in
        let level_ptr, order = Dep_graph.level_order ~window:sweep_window l in
        if 2 * (Array.length level_ptr - 1) > n then None
        else
          Some
            (match fh with
            | Some (FIc0 c) when c.Ic0.row_ptr.(n) + n = Csc.nnz l ->
                {
                  Stages.order;
                  row_ptr = c.Ic0.row_ptr;
                  row_col = c.Ic0.row_col;
                  row_pos = c.Ic0.row_pos;
                }
            | _ -> Stages.schedule ~order l)
    | _ -> None
  in
  let d =
    {
      Trace.pass = "level-sweep";
      fired = Option.is_some sweep;
      metric = "chain_share";
      value = share;
      threshold = chain_threshold;
    }
  in
  Trace.decision d;
  (sweep, d)

let compile_raw ~(opts : Options.t) (d : dag)
    ~(checked : Compile_common.checked) (a : Csc.t) : t =
  let family, factor_at = validate d in
  let who = "Sympiler.Pipeline.compile" in
  let t0 = Prof.now_seconds () in
  (* A factorless chain runs on the triangular input itself; permuting
     folds it into lower(P sym(A) P^T), a different operator — so
     orderings don't apply here. *)
  if family = None && opts.ordering <> `Natural then
    invalid_arg
      "Sympiler.Pipeline.compile: factorless pipelines support `Natural \
       ordering only";
  let cp, ord = Compile_common.ordered ~who opts.ordering checked in
  let pattern = cp.Compile_common.pattern in
  let ord_seconds = Prof.now_seconds () -. t0 in
  Trace.with_span "compile.pipeline"
    ~attrs:
      [
        ("n", Trace.Int pattern.Csc.ncols); ("stages", Trace.Int (List.length d));
      ]
  @@ fun () ->
  let r, symbolic_seconds =
    Compile_common.time_symbolic (fun () ->
        let analysis =
          Shared_analysis.create ~upper:cp.Compile_common.upper pattern
        in
        let fhandle, decisions =
          match family with
          | None -> (None, [])
          | Some f ->
              let fh, ds = compile_factor ~opts ~analysis f cp in
              (Some fh, ds)
        in
        let vops = Array.of_list (List.concat_map (expand family) d) in
        let fbefore =
          if factor_at < 0 then -1
          else
            List.filteri (fun i _ -> i < factor_at) d
            |> List.concat_map (expand family)
            |> List.length
        in
        let chain_l, chain_analysis = chain_l_of ~analysis fhandle pattern in
        let sweep, d_sweep = sweep_schedule fhandle vops chain_l in
        let fused_boundaries = count_fusable ~fbefore vops in
        let d_fuse =
          {
            Trace.pass = "pipeline-fuse";
            fired = fused_boundaries > 0;
            metric = "stage_boundaries_fused";
            value = float_of_int fused_boundaries;
            threshold = 1.0;
          }
        in
        Trace.decision d_fuse;
        ( analysis,
          fhandle,
          vops,
          fbefore,
          chain_l,
          chain_analysis,
          fused_boundaries,
          sweep,
          decisions @ [ d_fuse; d_sweep ] ))
  in
  let ( analysis,
        fhandle,
        vops,
        fbefore,
        chain_l,
        chain_analysis,
        fused_boundaries,
        sweep,
        decisions ) =
    r
  in
  let symbolic_seconds = symbolic_seconds +. ord_seconds in
  Compile_common.observe_compile ~family:"pipeline" ~ordering:ord.o_name
    symbolic_seconds;
  {
    dag = d;
    family;
    vops;
    fbefore;
    pattern;
    natural_pattern = a;
    ord;
    analysis;
    chain_analysis;
    chain_l;
    fhandle;
    fused_boundaries;
    sweep;
    symbolic_seconds;
    decisions;
    n = pattern.Csc.ncols;
  }

(* --------------------------- Compilation cache -------------------------- *)

let default_cache : t Plan_cache.t = Plan_cache.create ()

let stage_code = function
  | Factor `Cholesky -> 10
  | Factor `Ldlt -> 11
  | Factor `Lu -> 12
  | Factor `Ic0 -> 13
  | Factor `Ilu0 -> 14
  | Lower_solve -> 1
  | Diag_solve -> 2
  | Upper_solve -> 3
  | Solve -> 4
  | Spmv -> 5

(* Cache key: the DAG's stage codes then the option fingerprint — two
   pipelines share an entry only when the structure hash, the stage
   sequence and the options all agree. *)
let fingerprint (d : dag) (opts : Options.t) : int array =
  Array.append
    (Array.of_list (List.length d :: List.map stage_code d))
    (Options.fingerprint opts)

(* The caller's pattern is checked once, before the lookup: lower(A),
   or square A for LU/ILU(0) DAGs. *)
let compile ?cache ?(opts = Options.default) (d : dag) (a : Csc.t) : t =
  let square =
    match validate d with Some (`Lu | `Ilu0), _ -> true | _ -> false
  in
  let checked =
    Compile_common.check_input ~who:"Sympiler.Pipeline.compile"
      ~lower:(not square) a
  in
  Compile_common.cached_compile ~span:"compile_cached.pipeline"
    ~default:default_cache ?cache ~opts ~pattern:a ~extra:(fingerprint d opts)
    (fun () -> compile_raw ~opts d ~checked a)

let cache_stats () = Plan_cache.stats default_cache
let cache_clear () = Plan_cache.clear default_cache
let symbolic_seconds (t : t) = t.symbolic_seconds
let analysis_runs (t : t) = Shared_analysis.runs t.analysis
let dag_of (t : t) = t.dag
let input_pattern (t : t) = t.natural_pattern
let fused_boundaries (t : t) = t.fused_boundaries
let decisions (t : t) = t.decisions

(* --------------------------------- Plans -------------------------------- *)

type fplan =
  | PChol of Cholesky_family.kplan
  | PLdlt of Ldlt.plan
  | PLu of Lu.Sympiler.plan
  | PIc0 of Ic0.plan
  | PIlu0 of Ilu0.plan

(* One executed step. Factor views ([SLower]'s [Csc.t], [SDiag]'s array...)
   point into the factor plan's storage, which [factor_ip] refreshes in
   place — the views stay valid across refactorizations. *)
type step =
  | SFactor
  | SLower of Csc.t
  | SLtrans of Csc.t
  | SPair of Csc.t  (* merged L then L^T: one fused pass *)
  | SLowerSched of Csc.t * Stages.schedule  (* fused path, level-ordered *)
  | SLtransSched of Csc.t * Stages.schedule
  | SPairSched of Csc.t * Stages.schedule
  | SUpper of Csc.t
  | SDiag of float array
  | SCsrLower of Ilu0.compiled * float array
  | SCsrUpper of Ilu0.compiled * float array
  | SSpmv of Csc.t

type plan = {
  handle : t;
  fplan : fplan option;
  fused : step array;  (* adjacent L / L^T merged *)
  staged : step array;  (* one step per stage: the baseline *)
  x : float array;  (* the shared chain workspace (permuted order) *)
  y : float array;  (* SpMV ping buffer; empty without an Spmv stage *)
  sx : float array;  (* staged path: per-stage input copy *)
  sy : float array;  (* staged path: SpMV target; empty without Spmv *)
  out : float array;  (* natural-order result, plan-owned *)
  scratch : Csc.t option;  (* ordered plans: permuted-input values *)
  lvals : Csc.t option;  (* factorless chains: plan-owned L values *)
  spmv_op : (Csc.t * int array) option;
      (* SpMV operand (plan-owned values) + gather map from the permuted
         input's values *)
  mutable cur : int;  (* which of x/y holds the chain value (fused path) *)
  m_fused : Metrics.histogram;
  m_staged : Metrics.histogram;
  m_factor : Metrics.histogram;
  m_stages : Metrics.histogram array;  (* staged per-stage latency *)
}

let make_fplan = function
  | FChol c -> PChol (Cholesky_family.make_plan c)
  | FLdlt c -> PLdlt (Ldlt.make_plan c)
  | FLu c -> PLu (Lu.Sympiler.make_plan c)
  | FIc0 c -> PIc0 (Ic0.make_plan c)
  | FIlu0 c -> PIlu0 (Ilu0.make_plan c)

(* The factor views each vop reads, resolved against the factor plan. *)
let step_of_vop (fp : fplan option) (lvals : Csc.t option)
    (spmv_op : (Csc.t * int array) option) (v : vop) : step =
  let l_view () =
    match (fp, lvals) with
    | Some (PChol p), _ -> Cholesky_family.view p
    | Some (PLdlt p), _ -> p.Ldlt.f.Ldlt.l
    | Some (PLu p), _ -> p.Lu.Sympiler.f.Lu.l
    | Some (PIc0 p), _ -> p.Ic0.l
    | Some (PIlu0 _), _ | None, None ->
        invalid_arg "Sympiler.Pipeline.plan: no CSC L for this stage"
    | None, Some lv -> lv
  in
  match v with
  | VLower -> SLower (l_view ())
  | VLtrans -> SLtrans (l_view ())
  | VUpper -> (
      match fp with
      | Some (PLu p) -> SUpper p.Lu.Sympiler.f.Lu.u
      | _ ->
          invalid_arg "Sympiler.Pipeline.plan: Upper_solve needs an LU factor")
  | VDiag -> (
      match fp with
      | Some (PLdlt p) -> SDiag p.Ldlt.f.Ldlt.d
      | _ -> invalid_arg "Sympiler.Pipeline.plan: Diag_solve needs LDL^T")
  | VCsrLower -> (
      match fp with
      | Some (PIlu0 p) -> SCsrLower (p.Ilu0.f.Ilu0.c, p.Ilu0.f.Ilu0.values)
      | _ -> invalid_arg "Sympiler.Pipeline.plan: CSR solve needs ILU(0)")
  | VCsrUpper -> (
      match fp with
      | Some (PIlu0 p) -> SCsrUpper (p.Ilu0.f.Ilu0.c, p.Ilu0.f.Ilu0.values)
      | _ -> invalid_arg "Sympiler.Pipeline.plan: CSR solve needs ILU(0)")
  | VSpmv -> (
      match spmv_op with
      | Some (op, _) -> SSpmv op
      | None -> assert false)

(* Interleave the factor back into the executed step sequence at its dag
   position (so mid-chain refactorization honors dag order), then merge
   adjacent L / L^T steps on the same view — the factor slot is a barrier,
   a pair straddling it stays split — and, given a [sweep], run the L
   sweeps over it. *)
let steps_of (t : t) fp lvals spmv_op ~(merge : bool)
    ~(sweep : Stages.schedule option) : step array =
  let vsteps =
    Array.to_list (Array.map (step_of_vop fp lvals spmv_op) t.vops)
  in
  let with_factor =
    if t.fbefore < 0 then vsteps
    else
      let rec insert i l =
        if i = 0 then SFactor :: l
        else
          match l with [] -> [ SFactor ] | s :: tl -> s :: insert (i - 1) tl
      in
      insert t.fbefore vsteps
  in
  let rec merge_pairs = function
    | SLower l :: SLtrans l' :: tl when l == l' -> SPair l :: merge_pairs tl
    | s :: tl -> s :: merge_pairs tl
    | [] -> []
  in
  let scheduled s = function
    | SLower l -> SLowerSched (l, s)
    | SLtrans l -> SLtransSched (l, s)
    | SPair l -> SPairSched (l, s)
    | st -> st
  in
  let steps = if merge then merge_pairs with_factor else with_factor in
  let steps =
    match sweep with None -> steps | Some s -> List.map (scheduled s) steps
  in
  Array.of_list steps

let step_name = function
  | SFactor -> "factor"
  | SLower _ | SLowerSched _ -> "lower_solve"
  | SLtrans _ | SLtransSched _ -> "ltrans_solve"
  | SPair _ | SPairSched _ -> "solve_pair"
  | SUpper _ -> "upper_solve"
  | SDiag _ -> "diag_solve"
  | SCsrLower _ -> "csr_lower_solve"
  | SCsrUpper _ -> "csr_upper_solve"
  | SSpmv _ -> "spmv"

let plan (t : t) : plan =
  Trace.with_span "plan.pipeline" ~attrs:[ ("n", Trace.Int t.n) ] @@ fun () ->
  let n = t.n in
  let fp = Option.map make_fplan t.fhandle in
  let nnz = Csc.nnz t.pattern in
  let scratch = Compile_common.ordering_scratch t.ord t.pattern in
  (* Values the chain reads when there is no factor: captured from the
     compiled matrix (like a trisolve plan), refreshed by [?a]. *)
  let lvals =
    match t.fhandle with
    | Some _ -> None
    | None ->
        Some { t.pattern with Csc.values = Array.copy t.pattern.Csc.values }
  in
  let spmv_op =
    if not (Array.exists (fun v -> v = VSpmv) t.vops) then None
    else
      match t.family with
      | Some (`Lu | `Ilu0) | None ->
          (* square input (or a factorless triangular chain): the operand
             is the input matrix itself *)
          let op =
            { t.pattern with Csc.values = Array.copy t.pattern.Csc.values }
          in
          Some (op, Array.init nnz (fun k -> k))
      | Some (`Cholesky | `Ldlt | `Ic0) ->
          (* symmetric input given as lower(A): the operand is the
             symmetrized A, refreshed through the shared analysis's gather
             map *)
          let full, map = Shared_analysis.full t.analysis in
          let op = { full with Csc.values = Array.make (Csc.nnz full) 0.0 } in
          let src = t.pattern.Csc.values and dst_v = op.Csc.values in
          for k = 0 to Array.length dst_v - 1 do
            dst_v.(k) <- src.(map.(k))
          done;
          Some (op, map)
  in
  let fused = steps_of t fp lvals spmv_op ~merge:true ~sweep:t.sweep in
  let staged = steps_of t fp lvals spmv_op ~merge:false ~sweep:None in
  (* the SpMV buffers only where a stage writes them *)
  let spmv_buf () =
    if Option.is_some spmv_op then Array.make n 0.0 else [||]
  in
  let hist op =
    Compile_common.execute_hist ~family:"pipeline" ~op ~engine:"ocaml"
      ~ordering:t.ord.o_name
  in
  {
    handle = t;
    fplan = fp;
    fused;
    staged;
    x = Array.make n 0.0;
    y = spmv_buf ();
    sx = Array.make n 0.0;
    sy = spmv_buf ();
    out = Array.make n 0.0;
    scratch;
    lvals;
    spmv_op;
    cur = 0;
    m_fused = hist "apply_fused";
    m_staged = hist "apply_staged";
    m_factor = hist "factor";
    m_stages =
      Array.mapi
        (fun i s -> hist (Printf.sprintf "stage%d:%s" i (step_name s)))
        staged;
  }

(* ------------------------------- Execution ------------------------------ *)

(* Refresh every value the chain reads from a new input: gather into the
   ordered scratch, the factorless L view, and the SpMV operand. Returns
   the (permuted) input the factor consumes. Allocation-free. *)
let prepare (p : plan) (a : Csc.t) : Csc.t =
  let who = "Sympiler.Pipeline.execute_ip" in
  let src =
    Compile_common.plan_input ~who p.handle.ord p.scratch
      p.handle.natural_pattern a
  in
  (match p.lvals with
  | Some lv ->
      Array.blit src.Csc.values 0 lv.Csc.values 0 (Array.length lv.Csc.values)
  | None -> ());
  (match p.spmv_op with
  | Some (op, map) ->
      let sv = src.Csc.values and dv = op.Csc.values in
      for k = 0 to Array.length dv - 1 do
        dv.(k) <- sv.(map.(k))
      done
  | None -> ());
  src

let run_factor (p : plan) (a' : Csc.t) : unit =
  match p.fplan with
  | None -> ()
  | Some fp ->
      let t0 = if Metrics.enabled () then Prof.now_ns () else 0 in
      (match fp with
      | PChol sp -> Cholesky_family.factor_ip sp a'
      | PLdlt sp -> Ldlt.factor_ip sp a'
      | PLu sp -> Lu.Sympiler.factor_ip sp a'
      | PIc0 sp -> Ic0.factor_ip sp a'
      | PIlu0 sp -> Ilu0.factor_ip sp a');
      if Metrics.enabled () then
        Metrics.observe_ns p.m_factor (Prof.now_ns () - t0)

let buf (p : plan) = if p.cur = 0 then p.x else p.y

(* The two ILU(0) sweeps over the combined CSR factor. *)
let csr_lower (c : Ilu0.compiled) v x =
  Stages.csr_lower_unit_ip ~rowptr:c.Ilu0.rowptr ~colind:c.Ilu0.colind
    ~diag:c.Ilu0.diag v x

let csr_upper (c : Ilu0.compiled) v x =
  Stages.csr_upper_ip ~rowptr:c.Ilu0.rowptr ~colind:c.Ilu0.colind
    ~diag:c.Ilu0.diag v x

(* The fused executor: every vector stage runs in place on the one shared
   workspace; SpMV ping-pongs between the two chain buffers instead of
   copying back. [src = None] (no new matrix) skips the factor step. *)
let run_fused (p : plan) (src : Csc.t option) : unit =
  p.cur <- 0;
  for i = 0 to Array.length p.fused - 1 do
    match p.fused.(i) with
    | SFactor -> ( match src with Some a' -> run_factor p a' | None -> ())
    | SLower l -> Stages.lower_ip l (buf p)
    | SLtrans l -> Stages.ltrans_ip l (buf p)
    | SPair l -> Stages.solve_pair_ip l (buf p)
    | SLowerSched (l, s) -> Stages.lower_sched_ip l s (buf p)
    | SLtransSched (l, s) -> Stages.ltrans_sched_ip l s (buf p)
    | SPairSched (l, s) -> Stages.solve_pair_sched_ip l s (buf p)
    | SUpper u -> Stages.upper_ip u (buf p)
    | SDiag d -> Stages.diag_ip d (buf p)
    | SCsrLower (c, v) -> csr_lower c v (buf p)
    | SCsrUpper (c, v) -> csr_upper c v (buf p)
    | SSpmv op ->
        let s = buf p in
        let d = if p.cur = 0 then p.y else p.x in
        Stages.spmv_into op s d;
        p.cur <- 1 - p.cur
  done

(* The staged baseline: same stage bodies, same order, but every stage gets
   its own input copy and copies its result back — the per-stage workspace
   discipline of N independently compiled plans. Bitwise-identical to the
   fused path (the copies don't change values); the difference is pure
   boundary overhead. *)
let run_staged (p : plan) (src : Csc.t option) : unit =
  p.cur <- 0;
  let n = p.handle.n in
  for i = 0 to Array.length p.staged - 1 do
    let t0 = if Metrics.enabled () then Prof.now_ns () else 0 in
    (match p.staged.(i) with
    | SFactor -> ( match src with Some a' -> run_factor p a' | None -> ())
    | SSpmv op ->
        Array.blit p.x 0 p.sx 0 n;
        Stages.spmv_into op p.sx p.sy;
        Array.blit p.sy 0 p.x 0 n
    | s ->
        Array.blit p.x 0 p.sx 0 n;
        (match s with
        | SLower l -> Stages.lower_ip l p.sx
        | SLtrans l -> Stages.ltrans_ip l p.sx
        | SPair l -> Stages.solve_pair_ip l p.sx
        | SUpper u -> Stages.upper_ip u p.sx
        | SDiag d -> Stages.diag_ip d p.sx
        | SCsrLower (c, v) -> csr_lower c v p.sx
        | SCsrUpper (c, v) -> csr_upper c v p.sx
        | SFactor | SSpmv _ | SLowerSched _ | SLtransSched _ | SPairSched _
          ->
            assert false);
        Array.blit p.sx 0 p.x 0 n);
    if Metrics.enabled () then
      Metrics.observe_ns p.m_stages.(i) (Prof.now_ns () - t0)
  done

let load_b (p : plan) (b : float array) : unit =
  let n = p.handle.n in
  match p.handle.ord.o_perm with
  | None -> Array.blit b 0 p.x 0 n
  | Some pm ->
      for k = 0 to n - 1 do
        p.x.(k) <- b.(pm.(k))
      done

let store_out (p : plan) : float array =
  let n = p.handle.n in
  let s = buf p in
  (match p.handle.ord.o_perm with
  | None -> Array.blit s 0 p.out 0 n
  | Some pm ->
      for k = 0 to n - 1 do
        p.out.(pm.(k)) <- s.(k)
      done);
  p.out

let execute_raw run (p : plan) (a : Csc.t option) (b : float array) :
    float array =
  (* Validate before anything is written: a rejected call must leave the
     plan as it was. *)
  if Array.length b <> p.handle.n then
    invalid_arg "Sympiler.Pipeline.execute_ip: b has the wrong length";
  (* [prepare] refreshes everything value-like; the factor step still
     needs the permuted input, which is the scratch when ordered *)
  (match a with
  | None ->
      load_b p b;
      run p None
  | Some a0 ->
      let src = prepare p a0 in
      load_b p b;
      run p (Some src));
  store_out p

(* No closures here: the steady-state apply path must not allocate. *)
let execute_ip (p : plan) ?a (b : float array) : float array =
  if Metrics.enabled () then begin
    let t0 = Prof.now_ns () in
    let r = execute_raw run_fused p a b in
    Metrics.observe_ns p.m_fused (Prof.now_ns () - t0);
    r
  end
  else execute_raw run_fused p a b

let staged_execute_ip (p : plan) ?a (b : float array) : float array =
  if Metrics.enabled () then begin
    let t0 = Prof.now_ns () in
    let r = execute_raw run_staged p a b in
    Metrics.observe_ns p.m_staged (Prof.now_ns () - t0);
    r
  end
  else execute_raw run_staged p a b

(* Refactor only: refresh values and run the factor stage, leaving the
   vector chain alone (the [factor_ip] of the unified kernel API). *)
let factor_ip (p : plan) (a : Csc.t) : unit = run_factor p (prepare p a)

let plan_latency (p : plan) = Metrics.snapshot p.m_fused

let stage_latencies (p : plan) : (string * Metrics.histogram_snapshot) array =
  Array.mapi
    (fun i s ->
      ( Printf.sprintf "stage%d:%s" i (step_name s),
        Metrics.snapshot p.m_stages.(i) ))
    p.staged

(* ------------------------------ C emission ------------------------------ *)

(* Fused C for the vector chain: one kernel, stage bodies back to back,
   both triangular sweeps driven by the shared analysis's level schedule.
   The CSR-side families (LU, ILU(0)) have no CSC L to schedule — their
   chains stay executor-only for now. *)
let c_code (t : t) : string =
  let stages =
    Array.to_list t.vops
    |> List.map (function
         | VLower -> Sympiler_ir.Fuse.Lower
         | VLtrans -> Sympiler_ir.Fuse.Ltrans
         | VDiag -> Sympiler_ir.Fuse.Diag
         | VSpmv -> Sympiler_ir.Fuse.Spmv
         | VUpper | VCsrLower | VCsrUpper ->
             invalid_arg
               "Sympiler.Pipeline.c_code: LU/ILU(0) chains have no fused C \
                emission")
  in
  if stages = [] then
    invalid_arg "Sympiler.Pipeline.c_code: the DAG has no vector stages";
  let l =
    match t.chain_l with
    | Some l -> l
    | None -> invalid_arg "Sympiler.Pipeline.c_code: no CSC L in this DAG"
  in
  let level_ptr, level_cols = Shared_analysis.levels t.chain_analysis in
  let full =
    if List.mem Sympiler_ir.Fuse.Spmv stages then
      match t.family with
      | Some (`Cholesky | `Ldlt | `Ic0) ->
          let f, _ = Shared_analysis.full t.analysis in
          Some f
      | _ -> Some t.pattern
    else None
  in
  Sympiler_ir.Pretty_c.kernel_to_c
    (Sympiler_ir.Fuse.chain ~kname:"pipeline_apply" ~level_ptr ~level_cols ?full l stages)

(* ------------------------------- Reporting ------------------------------ *)

let describe (t : t) : string =
  let b = Buffer.create 256 in
  let kv k v = Buffer.add_string b (Printf.sprintf "  %-22s %s\n" k v) in
  Buffer.add_string b "pipeline\n";
  kv "stages" (String.concat " -> " (List.map stage_name t.dag));
  kv "family" (match t.family with None -> "none" | Some f -> family_name f);
  kv "n" (string_of_int t.n);
  kv "nnz" (string_of_int (Csc.nnz t.pattern));
  kv "ordering" t.ord.o_name;
  kv "fused_boundaries" (string_of_int t.fused_boundaries);
  kv "symbolic_seconds" (Printf.sprintf "%.6f" t.symbolic_seconds);
  kv "analysis_runs"
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s=%d" k v)
          (Shared_analysis.runs t.analysis)));
  List.iter
    (fun (d : Trace.decision) ->
      kv
        ("decision." ^ d.Trace.pass)
        (Printf.sprintf "%s (%s=%.3g, threshold %.3g)"
           (if d.Trace.fired then "fired" else "skipped")
           d.Trace.metric d.Trace.value d.Trace.threshold))
    t.decisions;
  Buffer.contents b
