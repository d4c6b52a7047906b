open Sympiler_sparse
open Sympiler_symbolic
module Metrics = Sympiler_metrics.Metrics

(* Non-supernodal (simplicial) sparse Cholesky, A = L L^T, A given by its
   lower-triangular part in CSC form.

   Two variants:
   - [Eigen]-like baseline: the symbolic phase ("analyzePattern") computes
     only the elimination tree and column counts; the numeric phase, like
     Eigen's SimplicialLLT, still transposes A and recomputes every row
     pattern with an etree up-traversal — the coupled symbolic work the
     paper calls out in §4.2.
   - [Decoupled] Sympiler variant (the Cholesky VI-Prune baseline of
     Figure 7): row patterns (prune-sets), the full pattern of L, and a
     transpose gather map are all precomputed, so the numeric phase touches
     numbers only. *)

exception Not_positive_definite = Dense_blas.Not_positive_definite

(* ------------------------- Eigen-like baseline ------------------------- *)

module Eigen = struct
  type analysis = {
    n : int;
    parent : int array;
    l_colptr : int array; (* storage allocation for L *)
  }

  (* Symbolic phase: etree + column counts (allocation only). *)
  let analyze (a_lower : Csc.t) : analysis =
    let n = a_lower.Csc.ncols in
    let parent = Etree.compute a_lower in
    let upper = Csc.transpose a_lower in
    let work = Ereach.make_workspace n in
    let counts = Array.make (n + 1) 0 in
    for k = 0 to n - 1 do
      let row = Ereach.row_pattern ~upper ~parent ~work k in
      counts.(k) <- counts.(k) + 1;
      Array.iter (fun j -> counts.(j) <- counts.(j) + 1) row
    done;
    let l_colptr = counts in
    let _ = Utils.cumsum l_colptr in
    { n; parent; l_colptr }

  (* Numeric phase: up-looking factorization. Recomputes the transpose of A
     and every row pattern (mark/stack up-traversals), as Eigen does. *)
  let factor (an : analysis) (a_lower : Csc.t) : Csc.t =
    let n = an.n in
    let parent = an.parent in
    let upper = Csc.transpose a_lower (* numeric-phase transpose *) in
    let lp = Array.copy an.l_colptr in
    let nnz_l = lp.(n) in
    let li = Array.make nnz_l 0 in
    let lx = Array.make nnz_l 0.0 in
    let nzcount = Array.make n 0 in
    let x = Array.make n 0.0 in
    let mark = Array.make n (-1) in
    let stack = Array.make n 0 in
    let pstack = Array.make n 0 in
    for k = 0 to n - 1 do
      (* Scatter column k of the upper triangle and build the row pattern
         stack (topological order) by climbing the etree. *)
      let top = ref n in
      let d = ref 0.0 in
      mark.(k) <- k;
      for p = upper.Csc.colptr.(k) to upper.Csc.colptr.(k + 1) - 1 do
        let i = upper.Csc.rowind.(p) in
        if i <= k then begin
          if i = k then d := upper.Csc.values.(p)
          else begin
            x.(i) <- upper.Csc.values.(p);
            let len = ref 0 in
            let j = ref i in
            while !j <> -1 && !j < k && mark.(!j) <> k do
              pstack.(!len) <- !j;
              incr len;
              mark.(!j) <- k;
              j := parent.(!j)
            done;
            while !len > 0 do
              decr len;
              decr top;
              stack.(!top) <- pstack.(!len)
            done
          end
        end
      done;
      (* Sparse up-looking solve along the pattern. *)
      for t = !top to n - 1 do
        let j = stack.(t) in
        let lkj = x.(j) /. lx.(lp.(j)) in
        x.(j) <- 0.0;
        for p = lp.(j) + 1 to lp.(j) + nzcount.(j) - 1 do
          x.(li.(p)) <- x.(li.(p)) -. (lx.(p) *. lkj)
        done;
        d := !d -. (lkj *. lkj);
        let p = lp.(j) + nzcount.(j) in
        li.(p) <- k;
        lx.(p) <- lkj;
        nzcount.(j) <- nzcount.(j) + 1
      done;
      if !d <= 0.0 then raise (Not_positive_definite k);
      li.(lp.(k)) <- k;
      lx.(lp.(k)) <- sqrt !d;
      nzcount.(k) <- 1
    done;
    Csc.create ~nrows:n ~ncols:n ~colptr:lp ~rowind:li ~values:lx
end

(* -------------------- Decoupled (Sympiler) variant --------------------- *)

(* The inspection sets of an up-looking factorization, shared by the
   decoupled Cholesky below and LDL^T: one fill analysis, whose row lists
   are the prune-sets and whose column pattern is L's storage, and the
   transpose gather map of lower(A). Built once, read in place. A caller
   holding lower(A)'s upper triangle (the facade's permutation builds it)
   passes it, and both read it: no transpose here, and none in the fill
   analysis. The kernels only gather through it, so the order of the rows
   within one of its columns does not matter. *)
type up_looking = {
  fill : Fill_pattern.t;
  up_colptr : int array;
  up_rowind : int array;
  up_map : int array; (* gather map into a_lower.values *)
}

let up_looking ?fill ?upper (a_lower : Csc.t) : up_looking =
  let who = "Cholesky_ref.up_looking" in
  let u =
    match upper with
    | Some (u : Csc.Unsafe.upper_pattern) ->
        let n = a_lower.Csc.ncols in
        if
          Array.length u.up_colptr <> n + 1
          || u.up_colptr.(n) <> Array.length a_lower.Csc.rowind
        then invalid_arg (who ^ ": upper triangle does not match lower(A)");
        u
    | None -> Csc.Unsafe.(upper_pattern (check_lower ~who a_lower))
  in
  let fill = match fill with Some f -> f | None -> Fill_pattern.of_upper u in
  {
    fill;
    up_colptr = u.up_colptr;
    up_rowind = u.up_rowind;
    up_map = Lazy.force u.up_map;
  }

(* A factor view over plan-owned values and the analysis' own column
   pattern (no kernel writes a pattern array, so none is copied). *)
let l_over (fill : Fill_pattern.t) (lx : float array) : Csc.t =
  Csc.create ~nrows:fill.Fill_pattern.n ~ncols:fill.Fill_pattern.n
    ~colptr:fill.Fill_pattern.l_colptr ~rowind:fill.Fill_pattern.l_rowind
    ~values:lx

module Decoupled = struct
  type compiled = { up : up_looking; flops : float }

  (* "Compile time": full symbolic factorization + transpose gather map.
     [fill] lets callers share an already-computed symbolic analysis. *)
  let compile ?fill ?upper (a_lower : Csc.t) : compiled =
    let up = up_looking ?fill ?upper a_lower in
    { up; flops = Fill_pattern.flops up.fill }

  (* A plan owns the factor values, the per-column fill cursors, and the
     sparse accumulator, plus a CSC view [l] over those values; repeated
     [factor_ip] calls then allocate nothing. *)
  type plan = {
    c : compiled;
    lx : float array; (* values of L, plan-owned *)
    nzcount : int array; (* per-column fill cursor *)
    x : float array; (* sparse accumulator (all-zero between calls) *)
    l : Csc.t; (* factor view over [lx] *)
  }

  let make_plan (c : compiled) : plan =
    let f = c.up.fill in
    let n = f.Fill_pattern.n in
    let lx = Array.make (Fill_pattern.nnz_l f) 0.0 in
    { c; lx; nzcount = Array.make n 0; x = Array.make n 0.0; l = l_over f lx }

  (* Numeric phase: identical arithmetic to [Eigen.factor] but with zero
     symbolic work — no transpose, no etree traversals, no pattern stacks:
     the reach function and matrix transpose are gone from the numeric
     code, exactly as §4.2 describes. *)
  let factor_ip_body (p : plan) (a_lower : Csc.t) : unit =
    let up = p.c.up in
    let f = up.fill in
    let n = f.Fill_pattern.n in
    let av = a_lower.Csc.values in
    let lp = f.Fill_pattern.l_colptr in
    let li = f.Fill_pattern.l_rowind in
    let rp = f.Fill_pattern.row_ptr and ri = f.Fill_pattern.row_ind in
    let uc = up.up_colptr and ur = up.up_rowind and um = up.up_map in
    let lx = p.lx in
    let nzcount = p.nzcount in
    let x = p.x in
    (* The accumulator is all-zero after a completed run, but a prior run
       aborted by [Not_positive_definite] leaves it dirty; the fills make
       the plan reusable after any outcome, allocation-free. *)
    Array.fill nzcount 0 n 0;
    Array.fill x 0 n 0.0;
    for k = 0 to n - 1 do
      (* Gather column k of the upper triangle through the precomputed map. *)
      let d = ref 0.0 in
      for p = uc.(k) to uc.(k + 1) - 1 do
        let i = ur.(p) in
        if i = k then d := av.(um.(p))
        else if i < k then x.(i) <- av.(um.(p))
      done;
      for t = rp.(k) to rp.(k + 1) - 1 do
        let j = ri.(t) in
        let lkj = x.(j) /. lx.(lp.(j)) in
        x.(j) <- 0.0;
        for p = lp.(j) + 1 to lp.(j) + nzcount.(j) - 1 do
          x.(li.(p)) <- x.(li.(p)) -. (lx.(p) *. lkj)
        done;
        d := !d -. (lkj *. lkj);
        let p = lp.(j) + nzcount.(j) in
        lx.(p) <- lkj;
        nzcount.(j) <- nzcount.(j) + 1
      done;
      if !d <= 0.0 then raise (Not_positive_definite k);
      lx.(lp.(k)) <- sqrt !d;
      nzcount.(k) <- 1
    done;
    Metrics.inc Metrics.flops (int_of_float p.c.flops);
    Metrics.inc Metrics.nnz_touched lp.(n)

  (* Spanned entry point: single-bool no-op when tracing is off; the [try]
     keeps the span stack balanced across [Not_positive_definite]. *)
  let factor_ip (p : plan) (a_lower : Csc.t) : unit =
    Sympiler_trace.Trace.begin_span "factor_ip.cholesky_simplicial";
    (try factor_ip_body p a_lower
     with e ->
       Sympiler_trace.Trace.end_span ();
       raise e);
    Sympiler_trace.Trace.end_span ()

  (* One-shot allocating wrapper (fresh plan = fresh factor arrays). *)
  let factor (c : compiled) (a_lower : Csc.t) : Csc.t =
    let p = make_plan c in
    factor_ip p a_lower;
    p.l
end

(* Dense-oracle-friendly wrapper: factor with the Eigen baseline. *)
let factor_simple (a_lower : Csc.t) : Csc.t =
  Eigen.factor (Eigen.analyze a_lower) a_lower

(* A x = b in place given the factor L: the forward and backward sweeps
   of [Stages], which give [Trisolve_ref]'s (the timed Figure 1
   baselines) bitwise on finite data, counted as both sweeps' work. *)
let solve_ip (l : Csc.t) (x : float array) : unit =
  Stages.solve_pair_ip l x;
  let n = l.Csc.ncols and nnz = l.Csc.colptr.(l.Csc.ncols) in
  Metrics.inc Metrics.flops (2 * ((2 * nnz) - n));
  Metrics.inc Metrics.nnz_touched (2 * nnz)

let solve_with_factor (l : Csc.t) (b : float array) : float array =
  let x = Array.copy b in
  solve_ip l x;
  x
