open Sympiler_sparse
open Sympiler_symbolic

(* LDL^T factorization: A = L D L^T with unit-diagonal L and diagonal D.
   Handles symmetric *indefinite* (but factorizable without pivoting)
   matrices that plain Cholesky rejects — one of the "other matrix methods"
   of §3.3 whose symbolic analysis (etree + row patterns) is exactly the
   Cholesky inspector's. The decoupled numeric phase below is the
   up-looking algorithm of Davis's LDL package driven entirely by
   precomputed prune-sets. *)

exception Zero_pivot of int

(* The symbolic phase is Cholesky's: the same up-looking inspection sets,
   built by the same function. *)
type compiled = Cholesky_ref.up_looking = {
  fill : Fill_pattern.t;
  up_colptr : int array;
  up_rowind : int array;
  up_map : int array; (* transpose gather map, computed symbolically *)
}

type factors = {
  l : Csc.t; (* unit lower triangular; unit diagonal stored explicitly *)
  d : float array;
}

let compile ?upper (a_lower : Csc.t) : compiled =
  Cholesky_ref.up_looking ?upper a_lower

(* A plan owns the factor storage (shared with the [factors] view) and the
   numeric scratch, so repeated [factor_ip] calls allocate nothing. *)
type plan = {
  c : compiled;
  lx : float array; (* values of L, plan-owned *)
  nzcount : int array; (* per-column fill cursor *)
  y : float array; (* sparse accumulator (all-zero between calls) *)
  f : factors; (* factor view over [lx] and the plan's [d] *)
}

let make_plan (c : compiled) : plan =
  let n = c.fill.Fill_pattern.n in
  let lx = Array.make (Fill_pattern.nnz_l c.fill) 0.0 in
  let l = Cholesky_ref.l_over c.fill lx in
  {
    c;
    lx;
    nzcount = Array.make n 0;
    y = Array.make n 0.0;
    f = { l; d = Array.make n 0.0 };
  }

(* Numeric phase: up-looking, no symbolic work. Row k solves
   L(0:k-1,0:k-1) D y = A(0:k-1,k) along the precomputed pattern. *)
let factor_ip_body (p : plan) (a_lower : Csc.t) : unit =
  let c = p.c in
  let f = c.fill in
  let n = f.Fill_pattern.n in
  let av = a_lower.Csc.values in
  let lp = f.Fill_pattern.l_colptr in
  let li = f.Fill_pattern.l_rowind in
  let rp = f.Fill_pattern.row_ptr and ri = f.Fill_pattern.row_ind in
  let uc = c.up_colptr and ur = c.up_rowind and um = c.up_map in
  let lx = p.lx in
  let d = p.f.d in
  let nzcount = p.nzcount in
  let y = p.y in
  (* The accumulator is all-zero after a completed run, but a prior run
     aborted by [Zero_pivot] leaves it dirty; the fills make the plan
     reusable after any outcome, allocation-free. *)
  Array.fill nzcount 0 n 0;
  Array.fill y 0 n 0.0;
  for k = 0 to n - 1 do
    let dk = ref 0.0 in
    for p = uc.(k) to uc.(k + 1) - 1 do
      let i = ur.(p) in
      if i = k then dk := av.(um.(p))
      else if i < k then y.(i) <- av.(um.(p))
    done;
    for t = rp.(k) to rp.(k + 1) - 1 do
      let j = ri.(t) in
      let yj = y.(j) in
      y.(j) <- 0.0;
      let lkj = yj /. d.(j) in
      (* subtract L(:,j) * yj from the sparse accumulator *)
      for p = lp.(j) + 1 to lp.(j) + nzcount.(j) - 1 do
        y.(li.(p)) <- y.(li.(p)) -. (lx.(p) *. yj)
      done;
      dk := !dk -. (lkj *. yj);
      let p = lp.(j) + nzcount.(j) in
      lx.(p) <- lkj;
      nzcount.(j) <- nzcount.(j) + 1
    done;
    if !dk = 0.0 then raise (Zero_pivot k);
    d.(k) <- !dk;
    lx.(lp.(k)) <- 1.0;
    nzcount.(k) <- 1
  done

(* Spanned entry point: single-bool no-op when tracing is off; the [try]
   keeps the span stack balanced across [Zero_pivot]. *)
let factor_ip (p : plan) (a_lower : Csc.t) : unit =
  Sympiler_trace.Trace.begin_span "factor_ip.ldlt";
  (try factor_ip_body p a_lower
   with e ->
     Sympiler_trace.Trace.end_span ();
     raise e);
  Sympiler_trace.Trace.end_span ()

(* One-shot allocating wrapper (fresh plan = fresh factor arrays). *)
let factor (c : compiled) (a_lower : Csc.t) : factors =
  let p = make_plan c in
  factor_ip p a_lower;
  p.f

let factorize (a_lower : Csc.t) : factors = factor (compile a_lower) a_lower

(* Solve A x = b: forward (unit L; its stored diagonal divides exactly),
   diagonal scale, backward (L^T). *)
let solve (f : factors) (b : float array) : float array =
  let x = Array.copy b in
  Stages.lower_ip f.l x;
  Stages.diag_ip f.d x;
  Stages.ltrans_ip f.l x;
  x
