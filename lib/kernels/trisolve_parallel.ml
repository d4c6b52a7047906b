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

   The executor is [Stages]' forward row gather over a schedule whose
   order is the level sets: x(i) collects its updates from its row list,
   ascending column, then divides. Every x(i) a row of one level reads
   belongs to an earlier level, so a level's rows are independent and
   workers own disjoint slices of them (no races, no atomics, no merge
   sweep). Each x(i) gets the same operation sequence as in
   [Stages.lower_ip], so the result is bitwise-identical to the column
   sweep for ANY domain count and ANY partition.

   A level's slices are cost-balanced at plan time from the row-list
   lengths (the exact flop count of a row's gather), not split
   round-robin.

   The level sets are one more inspection set: computed once symbolically,
   consumed by a numeric phase with no symbolic work. On the single-core
   evaluation container the parallel path cannot show speedups; the
   correctness tests exercise it with several domains regardless. *)

type compiled = {
  l : Csc.t;
  nlevels : int;
  level_ptr : int array; (* level l = level_cols.[level_ptr.(l), level_ptr.(l+1)) *)
  level_cols : int array; (* columns ordered by level, ascending inside *)
  sched : Stages.schedule; (* order = level_cols *)
}

(* The global level sets of the full matrix (dense-RHS case) are
   [Dep_graph.level_order] in one window spanning every column: level.(j)
   = 1 + max over incoming edges, ascending j inside a level. An empty
   matrix keeps one empty level. *)
let compile (l : Csc.t) : compiled =
  let n = l.Csc.ncols in
  let level_ptr, level_cols =
    if n = 0 then ([| 0; 0 |], [||])
    else Sympiler_symbolic.Dep_graph.level_order ~window:n l
  in
  let nlevels = Array.length level_ptr - 1 in
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
    sched = Stages.schedule ~order:level_cols l;
  }

(* The dense-RHS solve visits every column: 2*nnz - n flops. *)
let record_solve (c : compiled) =
  let n = c.l.Csc.ncols in
  let nnz = c.l.Csc.colptr.(n) in
  Metrics.inc Metrics.flops ((2 * nnz) - n);
  Metrics.inc Metrics.nnz_touched nnz

(* Levels narrower than this run inline: a pool dispatch cannot pay off.
   Inline or split, a row gets the same operations, so the threshold
   never changes results. *)
let par_min_width = 64

(* A plan owns the dense solution buffer, the cost-balanced per-level
   partitions, and a preallocated pool worker, so steady-state solves
   allocate nothing — sequential or parallel. [lv] is the dispatch
   argument the worker reads; it and [part]/[task] are exposed so the
   bench harness can drive the same slices through a spawn-per-call
   baseline. *)
type plan = {
  c : compiled;
  x : float array; (* plan-owned solution *)
  ndomains : int;
  part : int array array; (* per level: ndomains+1 boundaries into level_cols *)
  mutable lv : int; (* level being dispatched *)
  task : int -> unit; (* preallocated pool worker *)
}

(* [ndomains] defaults to the pool's size — the library's single sizing
   decision, [Pool.default_size] (SYMPILER_NDOMAINS override, else
   [Domain.recommended_domain_count]). *)
let make_plan ?ndomains (c : compiled) : plan =
  let nd =
    match ndomains with Some k -> max 1 k | None -> Pool.default_size ()
  in
  let rp = c.sched.Stages.row_ptr in
  let part =
    Array.init c.nlevels (fun lv ->
        let lo = c.level_ptr.(lv) in
        let b =
          Partition.balanced
            ~ntasks:(c.level_ptr.(lv + 1) - lo)
            ~nparts:nd
            ~cost:(fun k ->
              let i = c.level_cols.(lo + k) in
              float_of_int (rp.(i + 1) - rp.(i) + 1))
        in
        Array.map (fun k -> lo + k) b)
  in
  let rec p =
    {
      c;
      x = Array.make c.l.Csc.ncols 0.0;
      ndomains = nd;
      part;
      lv = 0;
      task =
        (fun w ->
          let b = p.part.(p.lv) in
          Stages.lower_range_ip p.c.l p.c.sched ~lo:b.(w) ~hi:b.(w + 1) p.x);
    }
  in
  p

(* Solve the plan's buffer in place (b already loaded into p.x). *)
let run_plan (p : plan) : unit =
  let c = p.c in
  if p.ndomains <= 1 then Stages.lower_sched_ip c.l c.sched p.x
  else
    for lv = 0 to c.nlevels - 1 do
      let lo = c.level_ptr.(lv) and hi = c.level_ptr.(lv + 1) in
      if hi - lo < par_min_width then
        Stages.lower_range_ip c.l c.sched ~lo ~hi p.x
      else begin
        p.lv <- lv;
        Pool.run ~nworkers:p.ndomains p.task
      end
    done;
  record_solve c

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

(* One-shot: a fresh plan, whose buffer is the result. *)
let solve ?ndomains (c : compiled) (b : float array) : float array =
  solve_ip (make_plan ?ndomains c) b

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
