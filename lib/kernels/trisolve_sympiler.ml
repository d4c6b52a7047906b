open Sympiler_sparse
open Sympiler_symbolic
module Metrics = Sympiler_metrics.Metrics

(* Sympiler's triangular-solve executors (the code of Figure 1e): all
   symbolic information — reach-set, supernodes, the supernode sequence the
   solve iterates over — is computed once at "compile time" and baked into
   a [compiled] value whose numeric routines contain no symbolic work.

   The reach-set executor ([solve_reach]) is VI-Prune alone: the flat
   column loop of Figure 1d over the reach set. It is what every OCaml
   plan runs, because VS-Block's dense block loops do not pay without
   vector code (1.03-1.36x slower on the suite); the VS-Block decision
   taken here picks the lowering of the emitted C. Three more variants
   mirror the stacked bars of Figure 6; [solve_full] is the reference the
   native tests hold a VS-Block kernel to:
   - [solve_vs_block]: VS-Block only — all supernodes processed with dense
     block kernels, no pruning.
   - [solve_vs_vi]: VS-Block + VI-Prune — only supernodes intersecting the
     reach-set are processed.
   - [solve_full]: + enabled low-level transformations — width-1 supernodes
     peeled into a scalar fast path and narrow blocks dispatched to
     specialized unrolled kernels. *)

type compiled = {
  l : Csc.t;
  reach : int array; (* topological reach-set (VI-Prune inspection set) *)
  sn : Supernodes.t; (* block-set (VS-Block inspection set) *)
  sn_sequence : int array; (* supernodes hit by the reach-set, ascending *)
  all_sn : int array; (* every supernode, ascending (for VS-Block only) *)
  max_below : int; (* max below-block height, sizes each plan's scratch *)
  flops : float; (* useful numeric flops of the pruned solve *)
  columnwise : bool;
      (* the VS-Block decision, declined: the lowered C and [solve_full]
         process the reach-set column by column (scalar code) instead of
         block by block — chosen when supernodes are too narrow or would
         waste too much work on unreached columns *)
  written : int array;
      (* the columns of the hit supernodes, ascending: every entry the
         reach-set executor or the lowered C writes (the reach set itself
         when [columnwise]) *)
  decisions : Sympiler_trace.Trace.decision list;
      (* decision log: VS-Block and VI-Prune, with measured quantities *)
}

(* VS-Block is worthwhile only when participating supernodes are large
   enough; the paper hand-tunes this threshold (set to 160 there for the
   average *supernode work size*; our executor uses average width — the
   ablation bench explores this). When the average width of reached
   supernodes is below [vs_block_width], or block processing would spend
   more than [vs_block_waste] extra flops on unreached columns of hit
   supernodes, [compile] records supernodes of width 1 everywhere, making
   the block variants degenerate to column code, exactly as Sympiler skips
   VS-Block for matrices 3,4,5,7. *)
let vs_block_width = 1.6
let vs_block_waste = 0.1

let compile (l : Csc.t) (b : Vector.sparse) : compiled =
  let reach = Dep_graph.reach l b.Vector.indices in
  (* Ascending column order is also a valid dependence order for forward
     substitution and gives the numeric loop sequential memory access; the
     compiler sorts the inspection set once, for free at run time. *)
  Array.sort compare reach;
  let sn = Supernodes.detect_exact l in
  let col_flops j = float_of_int ((2 * Csc.col_nnz l j) - 1) in
  (* Work accounting, all at compile time: block processing runs every
     column of a hit supernode, useful or not. *)
  let hit0 = Array.make (Supernodes.nsuper sn) false in
  Array.iter (fun j -> hit0.(sn.Supernodes.col_to_sn.(j)) <- true) reach;
  let useful = Array.fold_left (fun acc j -> acc +. col_flops j) 0.0 reach in
  let block_work = ref 0.0 in
  let reached_w = ref 0 and reached_n = ref 0 in
  Array.iteri
    (fun s h ->
      if h then begin
        reached_w := !reached_w + Supernodes.width sn s;
        incr reached_n;
        for j = sn.Supernodes.sn_ptr.(s) to sn.Supernodes.sn_ptr.(s + 1) - 1 do
          block_work := !block_work +. col_flops j
        done
      end)
    hit0;
  let avg_reached_width =
    if !reached_n = 0 then 0.0
    else float_of_int !reached_w /. float_of_int !reached_n
  in
  let waste = (!block_work -. useful) /. Float.max useful 1.0 in
  let columnwise =
    avg_reached_width < vs_block_width || waste > vs_block_waste
  in
  let sn = if columnwise then Supernodes.detect_exact ~max_width:1 l else sn in
  let hit = Array.make (Supernodes.nsuper sn) false in
  Array.iter (fun j -> hit.(sn.Supernodes.col_to_sn.(j)) <- true) reach;
  (* Supernodes hit by the reach-set, ascending: ascending column order is
     always a valid dependence order for forward substitution. *)
  let sn_sequence =
    let acc = ref [] in
    for s = Supernodes.nsuper sn - 1 downto 0 do
      if hit.(s) then acc := s :: !acc
    done;
    Array.of_list !acc
  in
  let written =
    let acc = ref [] in
    for j = l.Csc.ncols - 1 downto 0 do
      if hit.(sn.Supernodes.col_to_sn.(j)) then acc := j :: !acc
    done;
    Array.of_list !acc
  in
  let all_sn = Array.init (Supernodes.nsuper sn) (fun s -> s) in
  let max_below = ref 0 in
  for s = 0 to Supernodes.nsuper sn - 1 do
    let c0 = sn.Supernodes.sn_ptr.(s) in
    let w = Supernodes.width sn s in
    (* Clamp at 0: a structurally empty column (no stored diagonal) makes
       [col_nnz - w] negative; the scratch size must stay the maximum of
       the genuine below-block heights, never a negative artifact. *)
    max_below := max !max_below (max 0 (Csc.col_nnz l c0 - w))
  done;
  (* VI-Prune inspection removed the columns outside the reach-set. *)
  Metrics.inc Metrics.iters_pruned (l.Csc.ncols - Array.length reach);
  (* Decision log: what the inspectors measured and which way each
     transformation went — recorded on the handle for explain reports and
     into the trace as instant events. *)
  let open Sympiler_trace in
  let d_vs =
    {
      Trace.pass = "vs-block";
      fired = not columnwise;
      metric = "avg_reached_supernode_width";
      value = avg_reached_width;
      threshold = vs_block_width;
    }
  in
  let d_vi =
    {
      Trace.pass = "vi-prune";
      fired = true;
      metric = "pruned_iteration_ratio";
      value =
        (if l.Csc.ncols = 0 then 0.0
         else
           1.0
           -. (float_of_int (Array.length reach) /. float_of_int l.Csc.ncols));
      threshold = 0.0;
    }
  in
  Trace.decision d_vi;
  Trace.decision d_vs;
  {
    l;
    reach;
    sn;
    sn_sequence;
    all_sn;
    max_below = !max_below;
    flops = Trisolve_ref.flops l reach;
    columnwise;
    written;
    decisions = [ d_vi; d_vs ];
  }

(* ------------------------------- Plans ------------------------------- *)

(* A plan owns every array a solve writes: the dense solution buffer of
   [solve_ip] and the block scratch [tmp], so plans of one compiled
   pattern may solve on different domains at once. [tmp] has the exact
   size: [max_below] is clamped non-negative, and every block path bounds
   its scratch use by the per-supernode below height, itself <=
   max_below; a 0-length scratch is legal for patterns with no
   below-blocks at all. *)
type plan = { c : compiled; x : float array; tmp : float array }

let make_plan (c : compiled) : plan =
  { c; x = Array.make c.l.Csc.ncols 0.0; tmp = Array.make c.max_below 0.0 }

(* Process one supernode with generic block kernels. *)
let process_supernode_generic p x s =
  let c = p.c in
  let l = c.l and sn = c.sn in
  let c0 = sn.Supernodes.sn_ptr.(s) and c1 = sn.Supernodes.sn_ptr.(s + 1) in
  let lp = l.Csc.colptr and li = l.Csc.rowind and lx = l.Csc.values in
  let nb = lp.(c0 + 1) - lp.(c0) - (c1 - c0) in
  Dense_blas.diag_solve_generic lp lx ~c0 ~c1 x;
  if nb > 0 then begin
    let tmp = p.tmp in
    Array.fill tmp 0 nb 0.0;
    Dense_blas.below_gemv_generic lp lx ~c0 ~c1 ~nb x tmp;
    let below_start = lp.(c0) + (c1 - c0) in
    for t = 0 to nb - 1 do
      x.(li.(below_start + t)) <- x.(li.(below_start + t)) -. tmp.(t)
    done
  end

(* Process one supernode with low-level transformations applied: peeled
   width-1 path and width-specialized unrolled GEMV. *)
let process_supernode_specialized p x s =
  let c = p.c in
  let l = c.l and sn = c.sn in
  let c0 = sn.Supernodes.sn_ptr.(s) and c1 = sn.Supernodes.sn_ptr.(s + 1) in
  let lp = l.Csc.colptr and li = l.Csc.rowind and lx = l.Csc.values in
  if c1 - c0 = 1 then begin
    (* Peeled single-column supernode: plain scalar column update. *)
    let xj = x.(c0) /. lx.(lp.(c0)) in
    x.(c0) <- xj;
    for p = lp.(c0) + 1 to lp.(c0 + 1) - 1 do
      x.(li.(p)) <- x.(li.(p)) -. (lx.(p) *. xj)
    done
  end
  else begin
    let nb = lp.(c0 + 1) - lp.(c0) - (c1 - c0) in
    Dense_blas.diag_solve_generic lp lx ~c0 ~c1 x;
    if nb > 0 then begin
      let tmp = p.tmp in
      Array.fill tmp 0 nb 0.0;
      Dense_blas.below_gemv_specialized lp lx ~c0 ~c1 ~nb x tmp;
      let below_start = lp.(c0) + (c1 - c0) in
      for t = 0 to nb - 1 do
        x.(li.(below_start + t)) <- x.(li.(below_start + t)) -. tmp.(t)
      done
    end
  end

(* Useful work of the pruned solve, as compile-time closed forms: the
   recorded flop count is [c.flops] (what every Figure 6 variant is
   normalized by) and nnz touched follows from flops = sum(2*nnz_j - 1)
   over the reach-set. Recording is a few integer adds per *solve*, not per
   iteration, and only while metrics are on. *)
let record_solve c =
  let fl = int_of_float c.flops in
  Metrics.inc Metrics.flops fl;
  Metrics.inc Metrics.nnz_touched ((fl + Array.length c.reach) / 2)

(* VS-Block only: every supernode, generic kernels. Plain [for] loops
   everywhere below: an [Array.iter] over a partial application would
   allocate a closure per solve, breaking the plans' zero-allocation
   steady state. *)
let solve_vs_block_ip p (x : float array) =
  let seq = p.c.all_sn in
  for i = 0 to Array.length seq - 1 do
    process_supernode_generic p x seq.(i)
  done;
  record_solve p.c

(* VS-Block + VI-Prune: only supernodes reached from the RHS pattern. *)
let solve_vs_vi_ip p (x : float array) =
  let seq = p.c.sn_sequence in
  for i = 0 to Array.length seq - 1 do
    process_supernode_generic p x seq.(i)
  done;
  record_solve p.c

(* VI-Prune alone: the flat decoupled code of Figure 1d over the
   reach-set, no supernode dispatch. *)
let solve_reach_ip p (x : float array) =
  let c = p.c in
  let l = c.l in
  let lp = l.Csc.colptr and li = l.Csc.rowind and lx = l.Csc.values in
  let reach = c.reach in
  for px = 0 to Array.length reach - 1 do
    let j = reach.(px) in
    let xj = x.(j) /. lx.(lp.(j)) in
    x.(j) <- xj;
    for p = lp.(j) + 1 to lp.(j + 1) - 1 do
      x.(li.(p)) <- x.(li.(p)) -. (lx.(p) *. xj)
    done
  done;
  record_solve c

(* VS-Block + VI-Prune + low-level transformations (the Figure 1e code).
   When compilation declined VS-Block, the loop is the reach-set one,
   which peeling/specialization reduce to in that regime. *)
let solve_full_ip p (x : float array) =
  let c = p.c in
  if c.columnwise then solve_reach_ip p x
  else begin
    let seq = c.sn_sequence in
    for i = 0 to Array.length seq - 1 do
      process_supernode_specialized p x seq.(i)
    done;
    record_solve c
  end

(* Scatter b over the solution buffer after zeroing what the last solve
   wrote: the plan's buffer is zero everywhere else, so the reset is
   O(|written|), not O(n). The hit supernodes' columns cover the -0.0 that
   a block solve writes at an unreached column with a negative
   diagonal. *)
let load_rhs (p : plan) (b : Vector.sparse) =
  if b.Vector.n <> Array.length p.x then
    invalid_arg "Trisolve_sympiler.solve_ip: RHS dimension mismatch";
  let x = p.x and w = p.c.written in
  for k = 0 to Array.length w - 1 do
    x.(w.(k)) <- 0.0
  done;
  let idx = b.Vector.indices and v = b.Vector.values in
  for k = 0 to Array.length idx - 1 do
    x.(idx.(k)) <- v.(k)
  done

let solve_ip (p : plan) (b : Vector.sparse) : float array =
  load_rhs p b;
  Sympiler_trace.Trace.begin_span "solve_ip.trisolve";
  solve_reach_ip p p.x;
  Sympiler_trace.Trace.end_span ();
  p.x

(* The one-shot solves: a fresh plan each, so they share nothing. *)
let run ip c (b : Vector.sparse) =
  let p = make_plan c in
  load_rhs p b;
  ip p p.x;
  p.x

let solve_reach c b = run solve_reach_ip c b
let solve_vs_block c b = run solve_vs_block_ip c b
let solve_vs_vi c b = run solve_vs_vi_ip c b
let solve_full c b = run solve_full_ip c b
