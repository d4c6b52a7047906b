open Sympiler_sparse
open Sympiler_symbolic
module Metrics = Sympiler_metrics.Metrics

(* Supernodal left-looking Cholesky. One engine serves two roles:

   - [Cholmod]: the library baseline. Symbolic analysis (etree, counts,
     pattern, supernodes) runs once, but the numeric phase still performs
     the residual symbolic work the paper attributes to CHOLMOD — it
     transposes A and discovers the descendant-supernode update lists with
     linked-list bookkeeping — and its dense sub-kernels are generic
     runtime-parameterized loops that materialize a GEMM buffer and scatter
     it (the BLAS calling convention).

   - [Sympiler]: the VS-Block executor. The update schedule, row offsets and
     gather maps are all baked in at compile time; the numeric phase applies
     each update as one dense product into a work buffer scattered once
     (the order the emitted C follows, so the two engines agree bit for
     bit), and the low-level variant factors each panel with the merged
     contiguous kernel and peels width-1 supernodes to a scalar path (the
     specialized small kernels of §4.2).

   L is stored in plain CSC whose column patterns come from symbolic
   factorization; within a supernode the patterns nest, so each panel is a
   jagged dense block addressed by offsets (see [Dense_blas]). Because the
   rows of a descendant that land at-or-below a target supernode form a
   contiguous suffix of its below-block, all kernels run on contiguous
   ranges. *)

type analysis = {
  n : int;
  sn : Supernodes.t;
  l_colptr : int array;
  l_rowind : int array;
  parent : int array;
  nb : int array; (* below-block height per supernode *)
  flops : float;
  nnz_l : int;
}

(* One descendant update: supernode [d] contributes to the current target
   starting at index [first] of d's below-block; the first [t] of its
   remaining [m] rows land in the target's diagonal block. *)
type update = { d : int; first : int; t : int; m : int }

(* The panel geometry of supernodes [sn] over the column pattern of L. *)
let of_supernodes ~sn ~parent ~counts ~l_colptr ~l_rowind : analysis =
  let n = Array.length counts in
  let nb =
    Array.init (Supernodes.nsuper sn) (fun s ->
        counts.(sn.Supernodes.sn_ptr.(s)) - Supernodes.width sn s)
  in
  {
    n;
    sn;
    l_colptr;
    l_rowind;
    parent;
    nb;
    flops = Fill_pattern.flops_of_counts counts;
    nnz_l = l_colptr.(n);
  }

let analyze ?max_width (a_lower : Csc.t) : analysis =
  let fill = Fill_pattern.analyze a_lower in
  let counts = fill.Fill_pattern.counts and parent = fill.Fill_pattern.parent in
  of_supernodes
    ~sn:(Supernodes.detect_etree ?max_width ~counts ~parent ())
    ~parent ~counts ~l_colptr:fill.Fill_pattern.l_colptr
    ~l_rowind:fill.Fill_pattern.l_rowind

(* The analysis of a factor pattern alone (a simplicial handle's L, rows
   ascending with the diagonal first): the column counts are the column
   lengths and the etree parent of column j is its first below-diagonal
   row, so no fill analysis runs again. *)
let of_pattern ~(l_colptr : int array) ~(l_rowind : int array) : analysis =
  let n = Array.length l_colptr - 1 in
  let counts = Array.init n (fun j -> l_colptr.(j + 1) - l_colptr.(j)) in
  let parent =
    Array.init n (fun j ->
        if counts.(j) > 1 then l_rowind.(l_colptr.(j) + 1) else -1)
  in
  of_supernodes
    ~sn:(Supernodes.detect_etree ~counts ~parent ())
    ~parent ~counts ~l_colptr ~l_rowind

(* Index into l_rowind where supernode s's below-block row list begins. *)
let below_rows_start an s =
  let c0 = an.sn.Supernodes.sn_ptr.(s) in
  an.l_colptr.(c0) + (an.sn.Supernodes.sn_ptr.(s + 1) - c0)

(* Precompute the full update schedule: for each descendant d, split its
   below-block rows into runs by target supernode. Each target's updates
   come in ascending descendant order. *)
let compute_schedule (an : analysis) : update array array =
  let nsuper = Supernodes.nsuper an.sn in
  let schedule = Array.make nsuper [] in
  for d = 0 to nsuper - 1 do
    let start = below_rows_start an d in
    let nb = an.nb.(d) in
    let first = ref 0 in
    while !first < nb do
      let s = an.sn.Supernodes.col_to_sn.(an.l_rowind.(start + !first)) in
      let c1 = an.sn.Supernodes.sn_ptr.(s + 1) in
      let t = ref 0 in
      while !first + !t < nb && an.l_rowind.(start + !first + !t) < c1 do
        incr t
      done;
      schedule.(s) <-
        { d; first = !first; t = !t; m = nb - !first } :: schedule.(s);
      first := !first + !t
    done
  done;
  Array.map (fun ups -> Array.of_list (List.rev ups)) schedule

(* The work buffer a schedule's largest update needs ([m * t] entries). *)
let max_update_size (schedule : update array array) =
  Array.fold_left
    (Array.fold_left (fun acc u -> max acc (u.m * u.t)))
    1 schedule

(* ---------------- Shared numeric building blocks ---------------- *)

(* Scatter A's column values into the (zeroed) panel of supernode s.
   relpos.(r) = offset of row r within the panel rows. *)
let init_panel_from_a an (a_lower : Csc.t) (lx : float array)
    (relpos : int array) s =
  let c0 = an.sn.Supernodes.sn_ptr.(s)
  and c1 = an.sn.Supernodes.sn_ptr.(s + 1) in
  let lp = an.l_colptr in
  for idx = 0 to (c1 - c0) + an.nb.(s) - 1 do
    relpos.(an.l_rowind.(lp.(c0) + idx)) <- idx
  done;
  for j = c0 to c1 - 1 do
    Array.fill lx lp.(j) (lp.(j + 1) - lp.(j)) 0.0;
    for p = a_lower.Csc.colptr.(j) to a_lower.Csc.colptr.(j + 1) - 1 do
      let i = a_lower.Csc.rowind.(p) in
      if i >= j then
        lx.(lp.(j) + relpos.(i) - (j - c0)) <- a_lower.Csc.values.(p)
    done
  done

(* The update of every executor (CHOLMOD-style): one dense product into a
   work buffer, W(mm, tt) = sum over the columns j of d, ascending, of
   Ld(first+mm, j) * Ld(first+tt, j) (a zero Ld(first+tt, j) skipped), then
   one scatter-subtract of W into the target panel. The emitted C forms
   the same sums in the same order. *)
let apply_update_generic an (lx : float array) (relpos : int array) ~s u
    (wbuf : float array) =
  let d0 = an.sn.Supernodes.sn_ptr.(u.d)
  and d1 = an.sn.Supernodes.sn_ptr.(u.d + 1) in
  let c0 = an.sn.Supernodes.sn_ptr.(s) in
  let lp = an.l_colptr in
  let m = u.m and t = u.t in
  Array.fill wbuf 0 (m * t) 0.0;
  (* W(mm, tt) = sum over cols j of d of Ld(first+mm, j) * Ld(first+tt, j). *)
  for j = d0 to d1 - 1 do
    let base = lp.(j) + (d1 - j) + u.first in
    for tt = 0 to t - 1 do
      let ltop = lx.(base + tt) in
      if ltop <> 0.0 then begin
        let out = tt * m in
        for mm = tt to m - 1 do
          wbuf.(out + mm) <- wbuf.(out + mm) +. (lx.(base + mm) *. ltop)
        done
      end
    done
  done;
  (* Assembly: subtract W from the target panel. *)
  let rows = below_rows_start an u.d + u.first in
  for tt = 0 to t - 1 do
    let k = an.l_rowind.(rows + tt) in
    let col = lp.(k) - (k - c0) in
    let out = tt * m in
    for mm = tt to m - 1 do
      let r = an.l_rowind.(rows + mm) in
      lx.(col + relpos.(r)) <- lx.(col + relpos.(r)) -. wbuf.(out + mm)
    done
  done

let factor_panel_generic an (lx : float array) s =
  let c0 = an.sn.Supernodes.sn_ptr.(s)
  and c1 = an.sn.Supernodes.sn_ptr.(s + 1) in
  Dense_blas.potrf_jagged an.l_colptr lx ~c0 ~c1;
  if an.nb.(s) > 0 then
    Dense_blas.trsm_jagged an.l_colptr lx ~c0 ~c1 ~nb:an.nb.(s)

(* Panel factorization used by the library baseline: the merged contiguous
   kernel models a well-tuned BLAS potrf/trsm pair. *)
let factor_panel_blas an (lx : float array) s =
  let c0 = an.sn.Supernodes.sn_ptr.(s)
  and c1 = an.sn.Supernodes.sn_ptr.(s + 1) in
  Dense_blas.panel_factor_fused an.l_colptr lx ~c0 ~c1 ~nb:an.nb.(s)

(* Low-level-transformed panel factorization: peel single-column supernodes
   into the scalar sqrt/scale path, fused kernel otherwise. *)
let factor_panel_specialized an (lx : float array) s =
  let c0 = an.sn.Supernodes.sn_ptr.(s)
  and c1 = an.sn.Supernodes.sn_ptr.(s + 1) in
  if c1 - c0 = 1 then Dense_blas.potrf_w1 an.l_colptr lx ~c0 ~nb:an.nb.(s)
  else Dense_blas.panel_factor_fused an.l_colptr lx ~c0 ~c1 ~nb:an.nb.(s)

(* A work buffer for any update: m is at most a below-block height, t at
   most a supernode width (the baseline discovers its updates at numeric
   time, so it cannot size by the schedule). *)
let max_update_buf an =
  let nsuper = Supernodes.nsuper an.sn in
  let maxnb = Array.fold_left max 1 an.nb in
  let maxw = ref 1 in
  for s = 0 to nsuper - 1 do
    maxw := max !maxw (Supernodes.width an.sn s)
  done;
  maxnb * !maxw

let record_factor an =
  Metrics.inc Metrics.flops (int_of_float an.flops);
  Metrics.inc Metrics.nnz_touched an.nnz_l

(* The factor view a plan hands out: its values and the analysis' own
   column pattern, which no kernel writes. *)
let factor_view an lx =
  Csc.create ~nrows:an.n ~ncols:an.n ~colptr:an.l_colptr ~rowind:an.l_rowind
    ~values:lx

(* The CHOLMOD baseline's result owns a copy of the pattern, as the
   library's does. *)
let finish an lx =
  record_factor an;
  Csc.create ~nrows:an.n ~ncols:an.n ~colptr:(Array.copy an.l_colptr)
    ~rowind:(Array.copy an.l_rowind) ~values:lx

(* ------------------------- CHOLMOD baseline ------------------------- *)

module Cholmod = struct
  type t = analysis

  let analyze = analyze

  (* Numeric phase: transposes A (residual symbolic work, §4.2), maintains
     descendant lists with link/relink bookkeeping, uses generic kernels. *)
  let factor (an : t) (a_lower : Csc.t) : Csc.t =
    let nsuper = Supernodes.nsuper an.sn in
    (* The transpose both libraries compute inside their numeric phase to
       reach A's upper triangle (paper §4.2); the supernodal panel scatter
       below reads the lower part directly, so only the cost matters. *)
    let upper = Csc.transpose a_lower in
    ignore (Csc.nnz upper);
    let lx = Array.make an.nnz_l 0.0 in
    let relpos = Array.make an.n 0 in
    let wbuf = Array.make (max_update_buf an) 0.0 in
    (* head.(s): first descendant currently filed under target s. *)
    let head = Array.make nsuper (-1) in
    let next = Array.make nsuper (-1) in
    let pos = Array.make nsuper 0 in
    let file d idx =
      let s = an.sn.Supernodes.col_to_sn.(an.l_rowind.(below_rows_start an d + idx)) in
      next.(d) <- head.(s);
      head.(s) <- d
    in
    for s = 0 to nsuper - 1 do
      init_panel_from_a an a_lower lx relpos s;
      let c1 = an.sn.Supernodes.sn_ptr.(s + 1) in
      (* Walk and consume the descendant list discovered at numeric time. *)
      let d = ref head.(s) in
      while !d <> -1 do
        let dn = next.(!d) in
        let first = pos.(!d) in
        let start = below_rows_start an !d in
        let t = ref 0 in
        while first + !t < an.nb.(!d) && an.l_rowind.(start + first + !t) < c1 do
          incr t
        done;
        apply_update_generic an lx relpos ~s
          { d = !d; first; t = !t; m = an.nb.(!d) - first }
          wbuf;
        pos.(!d) <- first + !t;
        if pos.(!d) < an.nb.(!d) then file !d pos.(!d);
        d := dn
      done;
      factor_panel_blas an lx s;
      pos.(s) <- 0;
      if an.nb.(s) > 0 then file s 0
    done;
    finish an lx
end

(* ------------------------- Sympiler executor ------------------------- *)

module Sympiler = struct
  type compiled = {
    an : analysis;
    schedule : update array array; (* per target supernode, in order *)
    specialized : bool; (* apply low-level transformations *)
  }

  let of_analysis ?(specialized = true) (an : analysis) : compiled =
    { an; schedule = compute_schedule an; specialized }

  (* "Compile time": symbolic analysis + full update schedule. *)
  let compile ?max_width ?specialized (a_lower : Csc.t) : compiled =
    of_analysis ?specialized (analyze ?max_width a_lower)

  (* A plan owns every numeric workspace the factorization needs — the
     factor's values array, the row-offset scratch and the update buffer,
     sized by the schedule's largest update — plus a CSC view [l] of the
     factor whose
     values array IS the plan's [lx]. Creating the plan pays all
     allocation once; [factor_ip] then runs with zero allocation in steady
     state, which is what amortizes inspection across the paper's
     "many numeric executions" scenarios (Newton steps, active-set
     iterations) without GC pressure proportional to nnz(L) per run. *)
  type plan = {
    c : compiled;
    lx : float array; (* values of L, plan-owned *)
    relpos : int array; (* panel row-offset scratch *)
    wbuf : float array; (* update buffer *)
    l : Csc.t; (* factor view over [lx]; refreshed in place by factor_ip *)
  }

  let make_plan (c : compiled) : plan =
    let an = c.an in
    let lx = Array.make an.nnz_l 0.0 in
    let relpos = Array.make an.n 0 in
    let wbuf = Array.make (max_update_size c.schedule) 0.0 in
    { c; lx; relpos; wbuf; l = factor_view an lx }

  (* Numeric phase: no transpose, no list maintenance — just arithmetic
     driven by the baked-in schedule, writing into the plan's storage. *)
  let factor_ip_body (p : plan) (a_lower : Csc.t) : unit =
    let c = p.c in
    let an = c.an in
    let nsuper = Supernodes.nsuper an.sn in
    let lx = p.lx in
    let relpos = p.relpos in
    let wbuf = p.wbuf in
    for s = 0 to nsuper - 1 do
      init_panel_from_a an a_lower lx relpos s;
      let ups = c.schedule.(s) in
      for i = 0 to Array.length ups - 1 do
        apply_update_generic an lx relpos ~s ups.(i) wbuf
      done;
      if c.specialized then factor_panel_specialized an lx s
      else factor_panel_generic an lx s
    done;
    record_factor an

  (* Spanned entry point: the begin/end pair is a single-bool no-op while
     tracing is disabled, so the steady state stays allocation-free; the
     [try] keeps the span stack balanced across [Not_positive_definite]. *)
  let factor_ip (p : plan) (a_lower : Csc.t) : unit =
    Sympiler_trace.Trace.begin_span "factor_ip.cholesky_supernodal";
    (try factor_ip_body p a_lower
     with e ->
       Sympiler_trace.Trace.end_span ();
       raise e);
    Sympiler_trace.Trace.end_span ()

  (* One-shot allocating wrapper: a fresh plan per call keeps the original
     value semantics (every factor owns its values). *)
  let factor (c : compiled) (a_lower : Csc.t) : Csc.t =
    let p = make_plan c in
    factor_ip p a_lower;
    p.l
end
