open Sympiler_sparse
open Sympiler_symbolic
open Sympiler_runtime

(* Level-set parallel supernodal Cholesky on the persistent domain pool —
   the shared-memory direction of the paper's conclusion, realized the way
   its ParSy follow-on does: the supernodal dependency DAG (supernode s
   depends on every descendant in its update schedule) is levelized at
   compile time, and each level's target supernodes factor in parallel
   through [Pool.run]'s level barrier.

   Left-looking makes this race-free without atomics: while processing a
   target supernode the engine writes only that supernode's own panel and
   reads descendant panels finalized at earlier levels, so partitioning a
   level's targets across domains partitions the writes. Because every
   target runs the exact same per-supernode operation sequence as the
   sequential engine, the factor is bitwise-identical for any domain count
   and any partition. *)

type compiled = {
  sym : Cholesky_supernodal.Sympiler.compiled;
  nlevels : int;
  level_ptr : int array;
  level_sn : int array; (* supernodes ordered by level, ascending inside *)
  cost : float array; (* per-supernode symbolic flop estimate *)
}

(* Levelize a compiled supernodal handle: level(s) = 1 + max level over
   schedule dependencies; ascending s visits descendants first since
   updates flow forward. The per-supernode costs come from the symbolic
   counts^2 flop model — the input to the plan's cost-balanced partitions. *)
let levelize (sym : Cholesky_supernodal.Sympiler.compiled) : compiled =
  let an = sym.Cholesky_supernodal.Sympiler.an in
  let sn = an.Cholesky_supernodal.sn in
  let nsuper = Supernodes.nsuper sn in
  let level = Array.make nsuper 0 in
  Array.iteri
    (fun s ups ->
      Array.iter
        (fun (u : Cholesky_supernodal.update) ->
          if level.(s) < level.(u.Cholesky_supernodal.d) + 1 then
            level.(s) <- level.(u.Cholesky_supernodal.d) + 1)
        ups)
    sym.Cholesky_supernodal.Sympiler.schedule;
  let nlevels = if nsuper = 0 then 0 else 1 + Array.fold_left max 0 level in
  let counts = Array.make (nlevels + 1) 0 in
  Array.iter (fun lv -> counts.(lv) <- counts.(lv) + 1) level;
  let _ = Utils.cumsum counts in
  let level_ptr = Array.copy counts in
  let next = Array.sub counts 0 (max 0 nlevels) in
  let level_sn = Array.make nsuper 0 in
  for s = 0 to nsuper - 1 do
    level_sn.(next.(level.(s))) <- s;
    next.(level.(s)) <- next.(level.(s)) + 1
  done;
  let lp = an.Cholesky_supernodal.l_colptr in
  let col_counts =
    Array.init an.Cholesky_supernodal.n (fun j -> lp.(j + 1) - lp.(j))
  in
  let colfl = Fill_pattern.col_flops col_counts in
  let cost = Array.make nsuper 0.0 in
  for s = 0 to nsuper - 1 do
    for j = sn.Supernodes.sn_ptr.(s) to sn.Supernodes.sn_ptr.(s + 1) - 1 do
      cost.(s) <- cost.(s) +. colfl.(j)
    done
  done;
  { sym; nlevels; level_ptr; level_sn; cost }

let compile (a_lower : Csc.t) : compiled =
  levelize (Cholesky_supernodal.Sympiler.compile a_lower)

(* Process one target supernode (panel init, scheduled updates, panel
   factorization) with the specialized kernels and a caller-provided
   relpos scratch and update buffer (one of each per domain). *)
let process_target (c : compiled) (a_lower : Csc.t) (lx : float array)
    (relpos : int array) (wbuf : float array) s =
  let an = c.sym.Cholesky_supernodal.Sympiler.an in
  Cholesky_supernodal.init_panel_from_a an a_lower lx relpos s;
  let ups = c.sym.Cholesky_supernodal.Sympiler.schedule.(s) in
  for i = 0 to Array.length ups - 1 do
    Cholesky_supernodal.apply_update_generic an lx relpos ~s ups.(i) wbuf
  done;
  Cholesky_supernodal.factor_panel_specialized an lx s

(* Levels narrower than this run inline: a pool dispatch cannot pay off. *)
let par_min_width = 8

(* A plan owns the factor values, one relpos scratch and one update
   buffer per domain, the cost-balanced per-level partitions, and a
   preallocated worker closure, so repeated [factor_ip] calls allocate
   nothing — parallel or not (the pool's steady state is allocation-free
   too). The [lv]/[a_lower] fields are the dispatch arguments the closure
   reads; [part] and [task] are exposed so the bench harness can drive the
   same chunks through a spawn-per-call baseline. *)
type plan = {
  c : compiled;
  lx : float array; (* values of L, plan-owned *)
  relpos : int array array; (* per-domain row-offset scratch *)
  wbuf : float array array; (* per-domain update buffer *)
  l : Csc.t; (* factor view over [lx] *)
  ndomains : int;
  part : int array array; (* per level: ndomains+1 chunk boundaries *)
  mutable lv : int; (* level being dispatched *)
  mutable a_lower : Csc.t; (* input of the call in flight *)
  task : int -> unit; (* preallocated pool worker *)
}

(* [ndomains] defaults to the pool's size — the library's single sizing
   decision, [Pool.default_size] (SYMPILER_NDOMAINS override, else
   [Domain.recommended_domain_count]). *)
let make_plan ?ndomains (c : compiled) : plan =
  let nd =
    match ndomains with Some k -> max 1 k | None -> Pool.default_size ()
  in
  let an = c.sym.Cholesky_supernodal.Sympiler.an in
  let lx = Array.make an.Cholesky_supernodal.nnz_l 0.0 in
  let l = Cholesky_supernodal.factor_view an lx in
  let part =
    Array.init c.nlevels (fun lv ->
        let lo = c.level_ptr.(lv) in
        let w = c.level_ptr.(lv + 1) - lo in
        let b =
          Partition.balanced ~ntasks:w ~nparts:nd ~cost:(fun t ->
              c.cost.(c.level_sn.(lo + t)))
        in
        (* Shift the in-level boundaries to absolute level_sn indices. *)
        Array.map (fun t -> lo + t) b)
  in
  let wlen =
    Cholesky_supernodal.max_update_size
      c.sym.Cholesky_supernodal.Sympiler.schedule
  in
  let rec p =
    {
      c;
      lx;
      relpos =
        Array.init nd (fun _ -> Array.make an.Cholesky_supernodal.n 0);
      wbuf = Array.init nd (fun _ -> Array.make wlen 0.0);
      l;
      ndomains = nd;
      part;
      lv = 0;
      a_lower = l (* placeholder until the first call *);
      task =
        (fun w ->
          let b = p.part.(p.lv) in
          for t = b.(w) to b.(w + 1) - 1 do
            process_target p.c p.a_lower p.lx p.relpos.(w) p.wbuf.(w)
              p.c.level_sn.(t)
          done);
    }
  in
  p

let factor_ip_body (p : plan) (a_lower : Csc.t) : unit =
  let c = p.c in
  p.a_lower <- a_lower;
  for lv = 0 to c.nlevels - 1 do
    let lo = c.level_ptr.(lv) and hi = c.level_ptr.(lv + 1) in
    if p.ndomains <= 1 || hi - lo < par_min_width then
      for t = lo to hi - 1 do
        process_target c a_lower p.lx p.relpos.(0) p.wbuf.(0)
          c.level_sn.(t)
      done
    else begin
      p.lv <- lv;
      Pool.run ~nworkers:p.ndomains p.task
    end
  done;
  p.a_lower <- p.l (* do not root the input between calls *)

(* Spanned entry point: single-bool no-op when tracing is off; the [try]
   keeps the span stack balanced across [Not_positive_definite]. *)
let factor_ip (p : plan) (a_lower : Csc.t) : unit =
  Sympiler_trace.Trace.begin_span "factor_ip.cholesky_parallel";
  (try factor_ip_body p a_lower
   with e ->
     Sympiler_trace.Trace.end_span ();
     raise e);
  Sympiler_trace.Trace.end_span ()

(* One-shot allocating wrapper (fresh plan = fresh factor arrays). *)
let factor ?ndomains (c : compiled) (a_lower : Csc.t) : Csc.t =
  let p = make_plan ?ndomains c in
  factor_ip p a_lower;
  p.l

(* Schedule validation for tests: every update dependency crosses levels
   forward. *)
let valid_schedule (c : compiled) : bool =
  let nsuper = Array.length c.level_sn in
  let level_of = Array.make nsuper 0 in
  for lv = 0 to c.nlevels - 1 do
    for t = c.level_ptr.(lv) to c.level_ptr.(lv + 1) - 1 do
      level_of.(c.level_sn.(t)) <- lv
    done
  done;
  let ok = ref true in
  Array.iteri
    (fun s ups ->
      Array.iter
        (fun (u : Cholesky_supernodal.update) ->
          if level_of.(u.Cholesky_supernodal.d) >= level_of.(s) then ok := false)
        ups)
    c.sym.Cholesky_supernodal.Sympiler.schedule;
  !ok
