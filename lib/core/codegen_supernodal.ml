open Sympiler_sparse
open Sympiler_kernels
module Pretty_c = Sympiler_ir.Pretty_c

(* Direct C emission for the supernodal (VS-Block) executor of Cholesky
   and LDL^T. The paper's VS-Block lowering is heavily domain-specific
   ("the synthesized loops/instructions in the lowering phase contain
   information about the block location", §2.3.2), so rather than going
   through the generic AST this emitter writes the supernodal
   left-looking loop nest by hand. Every inspection set — supernode
   boundaries, the update schedule, L's pattern — is an argument, so the
   text is one per kernel shape: Cholesky (a square root per pivot) or
   LDL^T (the updates scaled by D, no square root), natural or reading
   natural-order input through the ordering's gather map [amap]. Numeric
   inputs (Ax), outputs (Lx, and D for LDL^T) and the update buffer (W)
   are the only values it touches. Each descendant update forms the sums
   of [Cholesky_supernodal.apply_update_generic] in the same order, a
   column of W at a time, and scatters each entry once; a width-1
   descendant subtracts each entry's W value, [0.0 + l * ltop], straight
   into the target. Each panel column is factored as contiguous axpys in
   the order of [Dense_blas.panel_factor_fused] (LDL^T:
   [Cholesky_supernodal.factor_panel_ldlt]). So the factor equals the
   OCaml executor's ([Cholesky_supernodal.Sympiler], with the diagonal
   for LDL^T) bit for bit. *)

let template =
  {|#include <math.h>

/* The three dense loops of the supernodal kernel, out of line: cc then
   vectorizes each loop once, which keeps the kernel's compile time down. */
__attribute__((noinline)) static void sn_axpy(int n, double a,
  const double *restrict x, double *restrict y) {
  for (int i = 0; i < n; i++) y[i] += x[i] * a;
}

__attribute__((noinline)) static void sn_axpy_sub(int n, double a,
  const double *restrict x, double *restrict y) {
  for (int i = 0; i < n; i++) y[i] -= x[i] * a;
}

__attribute__((noinline)) static void sn_div(int n, double d,
  double *restrict y) {
  for (int i = 0; i < n; i++) y[i] /= d;
}

/* ${kname}: generated by Sympiler for one kernel shape;
   the supernode partition, the update schedule and the pattern of L are
   passed as arguments. Ax: values of lower(A)${read}; Lx: output factor
   values (size Lp[n])${dout}; relpos: workspace of size n; W: workspace of
   the largest updM. Returns -1 on success, j when the pivot at column j
   is ${bad}. */
int ${kname}(int nsuper, const int *restrict Ap,
  const int *restrict Ai, const int *restrict Lp, const int *restrict Li,
  const int *restrict snPtr, const int *restrict snBelow,
  const int *restrict schedPtr, const int *restrict updD,
  const int *restrict updFirst, const int *restrict updT,
  const int *restrict updM,${amap} int *restrict relpos,
  const double *restrict Ax, double *restrict Lx,${dparam} double *restrict W) {
  for (int s = 0; s < nsuper; s++) {
    int c0 = snPtr[s], c1 = snPtr[s + 1], nb = snBelow[s];
    /* panel row offsets and initialization from A */
    for (int idx = 0; idx < c1 - c0 + nb; idx++) relpos[Li[Lp[c0] + idx]] = idx;
    for (int j = c0; j < c1; j++) {
      for (int p = Lp[j]; p < Lp[j + 1]; p++) Lx[p] = 0.0;
      for (int p = Ap[j]; p < Ap[j + 1]; p++) {
        int i = Ai[p];
        if (i >= j) Lx[Lp[j] + relpos[i] - (j - c0)] = ${ax};
      }
    }
    /* descendant updates (the schedule computed at compile time): column
       tt of W = L(rows, d) ${dd}L(row tt, d)^T summed over d's columns in
       order, then scatter-subtracted into the target once */
    for (int q = schedPtr[s]; q < schedPtr[s + 1]; q++) {
      int d = updD[q], first = updFirst[q], t = updT[q], m = updM[q];
      int d0 = snPtr[d], d1 = snPtr[d + 1];
      const int *rows = Li + Lp[d0] + (d1 - d0) + first;
      if (d1 == d0 + 1) {
        /* a width-1 descendant skips W: each entry subtracts the value
           W would hold, 0.0 + l[mm] * ltop */
        const double *l = Lx + Lp[d0] + 1 + first;
        for (int tt = 0; tt < t; tt++) {
          double ltop = l[tt]${scale_d0};
          if (ltop == 0.0) continue;
          int k = rows[tt];
          double *col = Lx + Lp[k] - (k - c0);
          for (int mm = tt; mm < m; mm++)
            col[relpos[rows[mm]]] -= 0.0 + l[mm] * ltop;
        }
        continue;
      }
      for (int tt = 0; tt < t; tt++) {
        for (int mm = tt; mm < m; mm++) W[mm] = 0.0;
        for (int j = d0; j < d1; j++) {
          const double *lj = Lx + Lp[j] + (d1 - j) + first;
          double ltop = lj[tt]${scale_j};
          if (ltop != 0.0) sn_axpy(m - tt, ltop, lj + tt, W + tt);
        }
        int k = rows[tt];
        double *col = Lx + Lp[k] - (k - c0);
        for (int mm = tt; mm < m; mm++) col[relpos[rows[mm]]] -= W[mm];
      }
    }
    /* dense panel factorization, left-looking by column: ${panel} */
    for (int j = c0; j < c1; j++) {
      double *lj = Lx + Lp[j];
      int len = c1 - j + nb;
      for (int k = c0; k < j; k++) {
        const double *lk = Lx + Lp[k] + (j - k);
        double a = lk[0]${scale_k};
        if (a != 0.0) sn_axpy_sub(len, a, lk, lj);
      }
${pivot}
      sn_div(len - 1, djj, lj + 1);
    }
  }
  return -1;
}
|}

let kname ~ldlt =
  if ldlt then "ldlt_supernodal_kernel" else "cholesky_supernodal_kernel"

let text ~ordered ~ldlt =
  let b = Buffer.create 4096 in
  Buffer.add_substitute b
    (function
      | "kname" -> kname ~ldlt
      | "read" -> if ordered then ", read through amap" else ""
      | "amap" -> if ordered then "\n  const int *restrict amap," else ""
      | "ax" -> if ordered then "Ax[amap[p]]" else "Ax[p]"
      | "dout" -> if ldlt then "; D: output diagonal of D (size n)" else ""
      | "dparam" -> if ldlt then "\n  double *restrict D," else ""
      | "bad" -> if ldlt then "exactly zero" else "not positive"
      | "dd" -> if ldlt then "D(d) " else ""
      | "scale_d0" -> if ldlt then " * D[d0]" else ""
      | "scale_j" -> if ldlt then " * D[j]" else ""
      | "scale_k" -> if ldlt then " * D[k]" else ""
      | "panel" ->
          if ldlt then
            "a dense LDL^T of\n       the diagonal block and the scaled \
             solve below it in one contiguous pass"
          else
            "potrf on the\n       diagonal block and trsm below it in one \
             contiguous pass"
      | "pivot" ->
          if ldlt then
            "      if (lj[0] == 0.0) return j;\n\
            \      double djj = lj[0];\n\
            \      D[j] = djj;\n\
            \      lj[0] = 1.0;"
          else
            "      if (lj[0] <= 0.0) return j;\n\
            \      double djj = sqrt(lj[0]);\n\
            \      lj[0] = djj;"
      | v -> invalid_arg ("Codegen_supernodal.text: " ^ v))
    template;
  Buffer.contents b

let shaped ~ldlt (c : Cholesky_supernodal.Sympiler.compiled) (a_lower : Csc.t)
    (omap : int array option) : Pretty_c.shaped =
  let an = c.Cholesky_supernodal.Sympiler.an in
  let sn = an.Cholesky_supernodal.sn in
  let nsuper = Sympiler_symbolic.Supernodes.nsuper sn in
  (* Flatten the update schedule; W holds one column of the tallest
     update. *)
  let sched = c.Cholesky_supernodal.Sympiler.schedule in
  let wlen =
    Array.fold_left
      (Array.fold_left (fun acc (u : Cholesky_supernodal.update) ->
           max acc u.Cholesky_supernodal.m))
      1 sched
  in
  let sched_ptr = Array.make (nsuper + 1) 0 in
  for s = 0 to nsuper - 1 do
    sched_ptr.(s + 1) <- sched_ptr.(s) + Array.length sched.(s)
  done;
  let nupd = sched_ptr.(nsuper) in
  let upd_d = Array.make nupd 0 in
  let upd_first = Array.make nupd 0 in
  let upd_t = Array.make nupd 0 in
  let upd_m = Array.make nupd 0 in
  for s = 0 to nsuper - 1 do
    Array.iteri
      (fun i (u : Cholesky_supernodal.update) ->
        let q = sched_ptr.(s) + i in
        upd_d.(q) <- u.Cholesky_supernodal.d;
        upd_first.(q) <- u.Cholesky_supernodal.first;
        upd_t.(q) <- u.Cholesky_supernodal.t;
        upd_m.(q) <- u.Cholesky_supernodal.m)
      sched.(s)
  done;
  let data =
    [
      ("Ap", a_lower.Csc.colptr);
      ("Ai", a_lower.Csc.rowind);
      ("Lp", an.Cholesky_supernodal.l_colptr);
      ("Li", an.Cholesky_supernodal.l_rowind);
      ("snPtr", sn.Sympiler_symbolic.Supernodes.sn_ptr);
      ("snBelow", an.Cholesky_supernodal.nb);
      ("schedPtr", sched_ptr);
      ("updD", upd_d);
      ("updFirst", upd_first);
      ("updT", upd_t);
      ("updM", upd_m);
    ]
    @ Codegen_static.amap_data omap
  in
  let n = an.Cholesky_supernodal.n in
  let kname = kname ~ldlt in
  let statics = [ ("int", "relpos", n); ("double", "W", wlen) ] in
  {
    Pretty_c.kname;
    text = text ~ordered:(omap <> None) ~ldlt;
    n = nsuper;
    data;
    iwork = [ n ];
    fwork = [ wlen ];
    entry =
      Some
        (if ldlt then
           Pretty_c.entry
             ~signature:
               "int ldlt_factor(const double *restrict ax, double *restrict lx,\n\
               \                double *restrict d)"
             ~statics ~ret:true ~kname ~n:nsuper ~data
             [ "relpos"; "ax"; "lx"; "d"; "W" ]
         else
           Pretty_c.entry
             ~signature:
               "void cholesky_supernodal(const double *restrict Ax, double \
                *restrict Lx)"
             ~statics ~ret:false ~kname ~n:nsuper ~data
             [ "relpos"; "Ax"; "Lx"; "W" ]);
  }

let to_c c a_lower = Pretty_c.artifact (shaped ~ldlt:false c a_lower None)
