open Sympiler_sparse
module Metrics = Sympiler_metrics.Metrics

(* Incomplete LU with zero fill, ILU(0): the factors keep exactly the
   pattern of A (L strictly below the diagonal with implicit unit diagonal,
   U on and above it, both stored in A's CSR-like row structure). §5 of the
   paper singles out ILU(0) as the kind of static-index-array kernel earlier
   inspector-executor work handles; here it is driven by the same
   compile-time position maps as the rest of the library.

   The algorithm is the classic IKJ ("row-wise") variant: for each row i,
   eliminate with rows k < i that appear in row i's pattern, dropping any
   update that falls outside the pattern. *)

exception Zero_pivot of int

type compiled = {
  n : int;
  (* Row-major view of A's pattern: CSR arrays plus, per row entry, the
     position of the diagonal entry of that column's row (for pivots). *)
  rowptr : int array;
  colind : int array; (* sorted ascending within each row *)
  diag : int array; (* diag.(i) = index into colind/values of entry (i,i) *)
  csc_map : int array; (* values gather map from the CSC input *)
  flops : int; (* pattern bound on one factorization's operations *)
}

let compile (a : Csc.t) : compiled =
  let n = a.Csc.ncols in
  (* CSR of A = CSC of A^T with a gather map. *)
  let rowptr, colind, csc_map = Csc.transpose_map a in
  let diag = Array.make n (-1) in
  for i = 0 to n - 1 do
    for p = rowptr.(i) to rowptr.(i + 1) - 1 do
      if colind.(p) = i then diag.(i) <- p
    done;
    if diag.(i) < 0 then raise (Zero_pivot i)
  done;
  (* Pattern bound, as for IC(0): per row, each eliminating k < i costs a
     divide plus up to 2*|U(k, k+1:)| update ops. *)
  let flops = ref 0 in
  for i = 0 to n - 1 do
    for p = rowptr.(i) to rowptr.(i + 1) - 1 do
      let k = colind.(p) in
      if k < i then flops := !flops + 1 + (2 * (rowptr.(k + 1) - diag.(k) - 1))
    done
  done;
  { n; rowptr; colind; diag; csc_map; flops = !flops }

(* Numeric ILU(0). Returns the combined factor in CSR storage: entries of
   row i with column < i are L(i,:) (unit diagonal implicit), the rest is
   U(i,:). *)
type factors = {
  c : compiled;
  values : float array; (* CSR values of L\U *)
}

(* A plan owns the combined factor's values and the dense position map, so
   repeated [factor_ip] calls allocate nothing. *)
type plan = {
  c : compiled;
  pos : int array; (* dense column -> row-entry map (-1 between rows) *)
  f : factors; (* factor view over the plan's values *)
}

let make_plan (c : compiled) : plan =
  {
    c;
    pos = Array.make c.n (-1);
    f = { c; values = Array.make c.rowptr.(c.n) 0.0 };
  }

let factor_ip_body (p : plan) (a : Csc.t) : unit =
  let c = p.c in
  let v = p.f.values in
  let av = a.Csc.values in
  for q = 0 to Array.length v - 1 do
    v.(q) <- av.(c.csc_map.(q))
  done;
  (* pos.(j) = index of column j within the current row, or -1. A run
     aborted by [Zero_pivot] leaves stale entries behind; the fill makes
     the plan reusable after any outcome. *)
  let pos = p.pos in
  Array.fill pos 0 c.n (-1);
  for i = 0 to c.n - 1 do
    let lo = c.rowptr.(i) and hi = c.rowptr.(i + 1) in
    for p = lo to hi - 1 do
      pos.(c.colind.(p)) <- p
    done;
    (* Eliminate with each k < i present in row i. *)
    for p = lo to hi - 1 do
      let k = c.colind.(p) in
      if k < i then begin
        let piv = v.(c.diag.(k)) in
        if piv = 0.0 then raise (Zero_pivot k);
        let lik = v.(p) /. piv in
        v.(p) <- lik;
        (* subtract lik * U(k, j) for j > k, restricted to row i's pattern *)
        for q = c.diag.(k) + 1 to c.rowptr.(k + 1) - 1 do
          let j = c.colind.(q) in
          if pos.(j) >= 0 then v.(pos.(j)) <- v.(pos.(j)) -. (lik *. v.(q))
        done
      end
    done;
    for p = lo to hi - 1 do
      pos.(c.colind.(p)) <- -1
    done
  done;
  Metrics.inc Metrics.flops c.flops;
  Metrics.inc Metrics.nnz_touched c.rowptr.(c.n)

(* Spanned entry point: single-bool no-op when tracing is off; the [try]
   keeps the span stack balanced across [Zero_pivot]. *)
let factor_ip (p : plan) (a : Csc.t) : unit =
  Sympiler_trace.Trace.begin_span "factor_ip.ilu0";
  (try factor_ip_body p a
   with e ->
     Sympiler_trace.Trace.end_span ();
     raise e);
  Sympiler_trace.Trace.end_span ()

(* One-shot allocating wrapper (fresh plan = fresh factor values). *)
let factor (c : compiled) (a : Csc.t) : factors =
  let p = make_plan c in
  factor_ip p a;
  p.f

let factorize (a : Csc.t) : factors = factor (compile a) a

(* Apply the preconditioner: solve (L U) x = b with the ILU(0) factors. *)
let solve (f : factors) (b : float array) : float array =
  let c = f.c and v = f.values in
  let x = Array.copy b in
  (* forward: L has implicit unit diagonal, row-wise *)
  for i = 0 to c.n - 1 do
    let s = ref x.(i) in
    for p = c.rowptr.(i) to c.diag.(i) - 1 do
      s := !s -. (v.(p) *. x.(c.colind.(p)))
    done;
    x.(i) <- !s
  done;
  (* backward: U rows *)
  for i = c.n - 1 downto 0 do
    let s = ref x.(i) in
    for p = c.diag.(i) + 1 to c.rowptr.(i + 1) - 1 do
      s := !s -. (v.(p) *. x.(c.colind.(p)))
    done;
    x.(i) <- !s /. v.(c.diag.(i))
  done;
  x

(* On a matrix whose LU factors have no fill, ILU(0) is exact: used by the
   tests (e.g. tridiagonal). *)
