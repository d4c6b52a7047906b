open Sympiler_sparse
module Metrics = Sympiler_metrics.Metrics
open Sympiler_runtime

(* Level-set (wavefront) parallel sparse triangular solve on the persistent
   domain pool. The paper's conclusion argues its single-core
   transformations "should extend to improve performance on shared ...
   memory systems", and its follow-on work (ParSy) builds exactly this: the
   dependence graph DG_L is levelized at compile time — level l holds the
   columns whose longest dependence chain has length l — and the numeric
   solve processes levels sequentially but each level in parallel, with no
   synchronization finer than a per-level barrier.

   Parallel execution of a level is two-phase and *deterministic*:

   - Phase A (caller, O(width)): finalize x.(j) <- x.(j) / l_jj for every
     column j of the level, in ascending j. Columns of one level never
     depend on each other, so every x.(j) read below is final.

   - Phase B (parallel): apply the below-diagonal updates grouped BY ROW —
     a compile-time CSR-like structure holds, per level, the affected rows
     and each row's (column, position) entries in ascending-column order.
     Workers own disjoint row ranges, so there are no write conflicts and
     no merge sweep; and because each row's updates are applied in the
     same ascending-column order as the sequential column sweep, the
     result is bitwise-identical to the sequential solve for ANY domain
     count and ANY partition (floating-point order is fully pinned).

   The row ranges are cost-balanced at plan time from the per-row entry
   counts (the exact flop count of a row's gather), not split round-robin.

   The level sets are one more inspection set: computed once symbolically,
   consumed by a numeric phase with no symbolic work. On the single-core
   evaluation container the parallel path cannot show speedups; the
   correctness tests exercise it with several domains regardless. *)

type compiled = {
  l : Csc.t;
  nlevels : int;
  level_ptr : int array; (* level l = level_cols.[level_ptr.(l), level_ptr.(l+1)) *)
  level_cols : int array; (* columns ordered by level, ascending inside *)
  (* Row-gather structure for deterministic phase-B updates: *)
  lrow_ptr : int array; (* level l's rows = lrows.[lrow_ptr.(l), lrow_ptr.(l+1)) *)
  lrows : int array; (* target row indices *)
  lentry_ptr : int array; (* row slot k's entries = [lentry_ptr.(k), lentry_ptr.(k+1)) *)
  lentry_col : int array; (* source column j, ascending within a row slot *)
  lentry_pos : int array; (* position of L(i,j) in l.values *)
}

(* The global level sets of the full matrix (dense-RHS case) are
   [Dep_graph.level_order] in one window spanning every column: level.(j)
   = 1 + max over incoming edges, ascending j inside a level. An empty
   matrix keeps one empty level. Then build the per-level row-gather
   structure (three O(nnz) sweeps, all at compile time). *)
let compile (l : Csc.t) : compiled =
  let n = l.Csc.ncols in
  let lp = l.Csc.colptr and li = l.Csc.rowind in
  let level_ptr, level_cols =
    if n = 0 then ([| 0; 0 |], [||])
    else Sympiler_symbolic.Dep_graph.level_order ~window:n l
  in
  let nlevels = Array.length level_ptr - 1 in
  (* Row-gather structure. Sweep 1: count distinct rows per level. *)
  let stamp = Array.make n (-1) in
  let lrow_ptr = Array.make (nlevels + 1) 0 in
  for lv = 0 to nlevels - 1 do
    for t = level_ptr.(lv) to level_ptr.(lv + 1) - 1 do
      let j = level_cols.(t) in
      for p = lp.(j) + 1 to lp.(j + 1) - 1 do
        let i = li.(p) in
        if stamp.(i) <> lv then begin
          stamp.(i) <- lv;
          lrow_ptr.(lv + 1) <- lrow_ptr.(lv + 1) + 1
        end
      done
    done
  done;
  for lv = 0 to nlevels - 1 do
    lrow_ptr.(lv + 1) <- lrow_ptr.(lv + 1) + lrow_ptr.(lv)
  done;
  let nrows_total = lrow_ptr.(nlevels) in
  let lrows = Array.make (max 1 nrows_total) 0 in
  let slot = Array.make n 0 in
  let lentry_ptr = Array.make (nrows_total + 1) 0 in
  (* Sweep 2: assign row slots (first-appearance order within a level) and
     count each slot's entries. *)
  Array.fill stamp 0 n (-1);
  let rcur = ref 0 in
  for lv = 0 to nlevels - 1 do
    for t = level_ptr.(lv) to level_ptr.(lv + 1) - 1 do
      let j = level_cols.(t) in
      for p = lp.(j) + 1 to lp.(j + 1) - 1 do
        let i = li.(p) in
        if stamp.(i) <> lv then begin
          stamp.(i) <- lv;
          slot.(i) <- !rcur;
          lrows.(!rcur) <- i;
          incr rcur
        end;
        lentry_ptr.(slot.(i) + 1) <- lentry_ptr.(slot.(i) + 1) + 1
      done
    done
  done;
  for k = 0 to nrows_total - 1 do
    lentry_ptr.(k + 1) <- lentry_ptr.(k + 1) + lentry_ptr.(k)
  done;
  let nentries = lentry_ptr.(nrows_total) in
  let lentry_col = Array.make (max 1 nentries) 0 in
  let lentry_pos = Array.make (max 1 nentries) 0 in
  (* Sweep 3: fill each slot's entries; iterating columns in ascending j
     per level pins the within-row order to the sequential sweep's. *)
  Array.fill stamp 0 n (-1);
  let ecur = Array.make (max 1 nrows_total) 0 in
  Array.blit lentry_ptr 0 ecur 0 nrows_total;
  rcur := 0;
  for lv = 0 to nlevels - 1 do
    for t = level_ptr.(lv) to level_ptr.(lv + 1) - 1 do
      let j = level_cols.(t) in
      for p = lp.(j) + 1 to lp.(j + 1) - 1 do
        let i = li.(p) in
        if stamp.(i) <> lv then begin
          stamp.(i) <- lv;
          slot.(i) <- !rcur;
          incr rcur
        end;
        let k = slot.(i) in
        lentry_col.(ecur.(k)) <- j;
        lentry_pos.(ecur.(k)) <- p;
        ecur.(k) <- ecur.(k) + 1
      done
    done
  done;
  if Metrics.enabled () then begin
    Metrics.inc Metrics.levels nlevels;
    let maxw = ref 0 in
    for lv = 0 to nlevels - 1 do
      maxw := max !maxw (level_ptr.(lv + 1) - level_ptr.(lv))
    done;
    Metrics.set Metrics.max_level_width (float_of_int !maxw)
  end;
  {
    l;
    nlevels;
    level_ptr;
    level_cols;
    lrow_ptr;
    lrows;
    lentry_ptr;
    lentry_col;
    lentry_pos;
  }

(* The sequential column sweep of one level. *)
let solve_level_sequential (c : compiled) (x : float array) ~lo ~hi =
  let l = c.l in
  let lp = l.Csc.colptr and li = l.Csc.rowind and lx = l.Csc.values in
  for t = lo to hi - 1 do
    let j = c.level_cols.(t) in
    let xj = x.(j) /. lx.(lp.(j)) in
    x.(j) <- xj;
    for p = lp.(j) + 1 to lp.(j + 1) - 1 do
      x.(li.(p)) <- x.(li.(p)) -. (lx.(p) *. xj)
    done
  done

(* The dense-RHS solve visits every column: 2*nnz - n flops. *)
let record_solve (c : compiled) =
  let n = c.l.Csc.ncols in
  let nnz = c.l.Csc.colptr.(n) in
  Metrics.inc Metrics.flops ((2 * nnz) - n);
  Metrics.inc Metrics.nnz_touched nnz

(* Sequential reference over the level schedule (validates the schedule
   itself). *)
let solve_ip_sequential (c : compiled) (x : float array) =
  for lv = 0 to c.nlevels - 1 do
    solve_level_sequential c x ~lo:c.level_ptr.(lv) ~hi:c.level_ptr.(lv + 1)
  done;
  record_solve c

(* Levels narrower than this run inline: a pool dispatch cannot pay off.
   The inline path is the sequential sweep, which phase A + phase B
   reproduce bitwise, so the threshold never changes results. *)
let par_min_width = 64

(* A plan owns the dense solution buffer, the cost-balanced per-level row
   partitions, and a preallocated phase-B worker closure, so steady-state
   solves allocate nothing — sequential or parallel. [lv] is the dispatch
   argument the closure reads; it and [row_part]/[task] are exposed so the
   bench harness can drive the same chunks through a spawn-per-call
   baseline. *)
type plan = {
  c : compiled;
  x : float array; (* plan-owned solution *)
  ndomains : int;
  row_part : int array array; (* per level: ndomains+1 row-slot boundaries *)
  mutable lv : int; (* level being dispatched *)
  task : int -> unit; (* preallocated phase-B pool worker *)
}

(* [ndomains] defaults to the pool's size — the library's single sizing
   decision, [Pool.default_size] (SYMPILER_NDOMAINS override, else
   [Domain.recommended_domain_count]). *)
let make_plan ?ndomains (c : compiled) : plan =
  let nd =
    match ndomains with Some k -> max 1 k | None -> Pool.default_size ()
  in
  let n = c.l.Csc.ncols in
  let row_part =
    Array.init c.nlevels (fun lv ->
        let lo = c.lrow_ptr.(lv) in
        let w = c.lrow_ptr.(lv + 1) - lo in
        let b =
          Partition.balanced ~ntasks:w ~nparts:nd ~cost:(fun k ->
              float_of_int
                (c.lentry_ptr.(lo + k + 1) - c.lentry_ptr.(lo + k)))
        in
        Array.map (fun k -> lo + k) b)
  in
  let rec p =
    {
      c;
      x = Array.make n 0.0;
      ndomains = nd;
      row_part;
      lv = 0;
      task =
        (fun w ->
          let c = p.c in
          let x = p.x in
          let lx = c.l.Csc.values in
          let b = p.row_part.(p.lv) in
          for k = b.(w) to b.(w + 1) - 1 do
            let i = c.lrows.(k) in
            let acc = ref x.(i) in
            for e = c.lentry_ptr.(k) to c.lentry_ptr.(k + 1) - 1 do
              acc := !acc -. (lx.(c.lentry_pos.(e)) *. x.(c.lentry_col.(e)))
            done;
            x.(i) <- !acc
          done);
    }
  in
  p

(* Solve the plan's buffer in place (b already blitted into p.x). *)
let run_plan (p : plan) : unit =
  let c = p.c in
  if p.ndomains <= 1 then solve_ip_sequential c p.x
  else begin
    let l = c.l in
    let lp = l.Csc.colptr and lx = l.Csc.values in
    let x = p.x in
    for lv = 0 to c.nlevels - 1 do
      let lo = c.level_ptr.(lv) and hi = c.level_ptr.(lv + 1) in
      if hi - lo < par_min_width then solve_level_sequential c x ~lo ~hi
      else begin
        (* Phase A: finalize the level's columns (ascending j). *)
        for t = lo to hi - 1 do
          let j = c.level_cols.(t) in
          x.(j) <- x.(j) /. lx.(lp.(j))
        done;
        (* Phase B: row-partitioned update gather through the pool. *)
        p.lv <- lv;
        Pool.run ~nworkers:p.ndomains p.task
      end
    done;
    record_solve c
  end

let solve_ip (p : plan) (b : float array) : float array =
  let n = Array.length p.x in
  if Array.length b <> n then
    invalid_arg "Trisolve_parallel.solve_ip: RHS dimension mismatch";
  (* Span begins after validation so an invalid call leaves no open span;
     the body itself cannot raise. *)
  Sympiler_trace.Trace.begin_span "solve_ip.trisolve_parallel";
  Array.blit b 0 p.x 0 n;
  run_plan p;
  Sympiler_trace.Trace.end_span ();
  p.x

(* Sparse-RHS entry used by the facade's level-set plans: scatter b into
   the (zeroed) buffer, then the same dense solve. Allocation-free. *)
let solve_ip_sparse (p : plan) (b : Vector.sparse) : float array =
  if b.Vector.n <> Array.length p.x then
    invalid_arg "Trisolve_parallel.solve_ip_sparse: RHS dimension mismatch";
  Sympiler_trace.Trace.begin_span "solve_ip.trisolve_parallel";
  Array.fill p.x 0 (Array.length p.x) 0.0;
  let idx = b.Vector.indices and vals = b.Vector.values in
  for t = 0 to Array.length idx - 1 do
    p.x.(idx.(t)) <- vals.(t)
  done;
  run_plan p;
  Sympiler_trace.Trace.end_span ();
  p.x

(* One-shot wrappers (fresh plan = fresh buffers + partitions). *)
let solve_ip_parallel ?ndomains (c : compiled) (x : float array) =
  match ndomains with
  | Some k when k <= 1 -> solve_ip_sequential c x
  | _ ->
      let p = make_plan ?ndomains c in
      Array.blit x 0 p.x 0 (Array.length x);
      run_plan p;
      Array.blit p.x 0 x 0 (Array.length x)

let solve ?ndomains (c : compiled) (b : float array) : float array =
  let x = Array.copy b in
  (match ndomains with
  | Some k when k > 1 -> solve_ip_parallel ~ndomains:k c x
  | Some _ -> solve_ip_sequential c x
  | None -> solve_ip_sequential c x);
  x

(* Schedule validation used by tests: every dependence edge crosses levels
   forward. *)
let valid_schedule (c : compiled) : bool =
  let n = c.l.Csc.ncols in
  let level_of = Array.make n 0 in
  for lv = 0 to c.nlevels - 1 do
    for t = c.level_ptr.(lv) to c.level_ptr.(lv + 1) - 1 do
      level_of.(c.level_cols.(t)) <- lv
    done
  done;
  let ok = ref true in
  Csc.iter c.l (fun i j _ ->
      if i <> j && level_of.(i) <= level_of.(j) then ok := false);
  !ok
