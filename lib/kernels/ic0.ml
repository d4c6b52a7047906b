open Sympiler_sparse
module Metrics = Sympiler_metrics.Metrics

(* Incomplete Cholesky with zero fill, IC(0): the factor keeps exactly the
   pattern of lower(A). One of the §3.3 methods whose symbolic needs (the
   dependence-graph machinery, static patterns) Sympiler's inspectors
   already cover. Used as a preconditioner in the CG example.

   Left-looking column algorithm restricted to A's pattern: identical
   arithmetic to full Cholesky except updates landing outside the pattern
   are dropped. On a matrix whose exact factor has no fill (e.g. a
   tridiagonal matrix) IC(0) equals the exact factor. *)

exception Not_positive_definite = Dense_blas.Not_positive_definite

(* Positions of L(j, r): for the update pass we need, per column j, the
   list of columns r < j with A(j, r) <> 0 — i.e. the row pattern of
   lower(A) — together with the position of that entry. Precomputed from
   the transpose, making the numeric phase decoupled (Sympiler-style). *)
type compiled = {
  n : int;
  colptr : int array;
  rowind : int array;
  (* Flattened row lists: for row j, [row_ptr.(j), row_ptr.(j+1)) indexes
     (row_col, row_pos): the columns r < j with A(j,r) <> 0 and the storage
     position of that entry. *)
  row_ptr : int array;
  row_col : int array;
  row_pos : int array;
  flops : int;
}

let compile (a_lower : Csc.t) : compiled =
  let n = a_lower.Csc.ncols in
  (* The executors read column j's pivot at its first stored entry: an
     empty column has none, and reading one would run past the factor. *)
  for j = 0 to n - 1 do
    if a_lower.Csc.colptr.(j) = a_lower.Csc.colptr.(j + 1) then
      raise (Not_positive_definite j)
  done;
  let row_ptr = Array.make (n + 1) 0 in
  (* A direct loop, not [Csc.iter]: its callback takes each value as a
     boxed float, an allocation per entry on every compile. *)
  for j = 0 to n - 1 do
    for p = a_lower.Csc.colptr.(j) to a_lower.Csc.colptr.(j + 1) - 1 do
      let i = a_lower.Csc.rowind.(p) in
      if i > j then row_ptr.(i) <- row_ptr.(i) + 1
    done
  done;
  let _ = Utils.cumsum row_ptr in
  let nrow = row_ptr.(n) in
  let row_col = Array.make (max 1 nrow) 0 in
  let row_pos = Array.make (max 1 nrow) 0 in
  let next = Array.make n 0 in
  Array.blit row_ptr 0 next 0 n;
  for j = 0 to n - 1 do
    for p = a_lower.Csc.colptr.(j) to a_lower.Csc.colptr.(j + 1) - 1 do
      let i = a_lower.Csc.rowind.(p) in
      if i > j then begin
        row_col.(next.(i)) <- j;
        row_pos.(next.(i)) <- p;
        next.(i) <- next.(i) + 1
      end
    done
  done;
  (* Structure-driven operation count: updates attempted per prune-set
     column plus the sqrt/divide pass. The IC(0) dropping rule makes the
     executed count value-dependent; this is its pattern bound, so it is
     counted once here and credited per factorization. *)
  let colptr = a_lower.Csc.colptr in
  let flops = ref 0 in
  for j = 0 to n - 1 do
    for q = row_ptr.(j) to row_ptr.(j + 1) - 1 do
      flops := !flops + (2 * (colptr.(row_col.(q) + 1) - row_pos.(q)))
    done;
    flops := !flops + (colptr.(j + 1) - colptr.(j))
  done;
  {
    n;
    colptr;
    rowind = a_lower.Csc.rowind;
    row_ptr;
    row_col;
    row_pos;
    flops = !flops;
  }

(* A plan owns the factor values, the dense position map, and a CSC view
   [l] over those values and the compiled pattern's own arrays (no kernel
   writes them); repeated [factor_ip] calls allocate nothing. *)
type plan = {
  c : compiled;
  lx : float array; (* values of L, plan-owned *)
  pos : int array; (* dense row -> position map (-1 between columns) *)
  l : Csc.t; (* factor view over [lx] *)
}

let make_plan (c : compiled) : plan =
  let n = c.n in
  let lx = Array.make c.colptr.(n) 0.0 in
  let l =
    Csc.create ~nrows:n ~ncols:n ~colptr:c.colptr ~rowind:c.rowind ~values:lx
  in
  { c; lx; pos = Array.make n (-1); l }

(* Numeric IC(0) factorization; values of [a_lower] may change between
   calls as long as the pattern matches the compiled one. *)
let factor_ip_body (p : plan) (a_lower : Csc.t) : unit =
  let c = p.c in
  let n = c.n in
  let lp = c.colptr and li = c.rowind in
  let lx = p.lx in
  Array.blit a_lower.Csc.values 0 lx 0 lp.(n);
  (* Dense map row -> position in the current column, for pattern-limited
     scattering. A run aborted by [Not_positive_definite] leaves stale
     entries behind; the fill makes the plan reusable after any outcome. *)
  let pos = p.pos in
  Array.fill pos 0 n (-1);
  for j = 0 to n - 1 do
    (* Update column j by every column r with L(j, r) <> 0. *)
    for p = lp.(j) to lp.(j + 1) - 1 do
      pos.(li.(p)) <- p
    done;
    for q = c.row_ptr.(j) to c.row_ptr.(j + 1) - 1 do
      let r = c.row_col.(q) in
      let ljr = lx.(c.row_pos.(q)) in
      if ljr <> 0.0 then
        (* Subtract ljr * L(j:n, r), keeping only entries inside column
           j's pattern (the IC(0) dropping rule). *)
        let start = c.row_pos.(q) in
        for t = start to lp.(r + 1) - 1 do
          let i = li.(t) in
          if pos.(i) >= 0 then lx.(pos.(i)) <- lx.(pos.(i)) -. (lx.(t) *. ljr)
        done
    done;
    let d = lx.(lp.(j)) in
    if d <= 0.0 then raise (Not_positive_definite j);
    let djj = sqrt d in
    lx.(lp.(j)) <- djj;
    for p = lp.(j) + 1 to lp.(j + 1) - 1 do
      lx.(p) <- lx.(p) /. djj
    done;
    for p = lp.(j) to lp.(j + 1) - 1 do
      pos.(li.(p)) <- -1
    done
  done;
  Metrics.inc Metrics.flops c.flops;
  Metrics.inc Metrics.nnz_touched lp.(n)

(* Spanned entry point: single-bool no-op when tracing is off; the [try]
   keeps the span stack balanced across [Not_positive_definite]. *)
let factor_ip (p : plan) (a_lower : Csc.t) : unit =
  Sympiler_trace.Trace.begin_span "factor_ip.ic0";
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

(* Convenience: compile + factor in one call. *)
let factorize (a_lower : Csc.t) : Csc.t = factor (compile a_lower) a_lower
