open Sympiler_sparse
open Sympiler_kernels
module Pretty_c = Sympiler_ir.Pretty_c

(* Direct C emission for the supernodal (VS-Block) Cholesky executor. The
   paper's VS-Block lowering is heavily domain-specific ("the synthesized
   loops/instructions in the lowering phase contain information about the
   block location", §2.3.2), so rather than going through the generic AST
   this emitter writes the supernodal left-looking loop nest by hand. Every
   inspection set — supernode boundaries, the update schedule, L's
   pattern — is an argument, so the text is one per kernel shape
   (natural, or reading natural-order input through the ordering's gather
   map [amap]); numeric inputs (Ax) and outputs (Lx) are the only values
   it touches. *)

let text ~ordered =
  Printf.sprintf
    {|#include <math.h>

/* cholesky_supernodal_kernel: generated by Sympiler for one kernel shape;
   the supernode partition, the update schedule and the pattern of L are
   passed as arguments. Ax: values of lower(A)%s; Lx: output factor values
   (size Lp[n]); relpos: workspace of size n. Returns -1 on success, j
   when the pivot at column j is not positive. */
int cholesky_supernodal_kernel(int nsuper, const int *restrict Ap,
  const int *restrict Ai, const int *restrict Lp, const int *restrict Li,
  const int *restrict snPtr, const int *restrict snBelow,
  const int *restrict schedPtr, const int *restrict updD,
  const int *restrict updFirst, const int *restrict updT,
  const int *restrict updM,%s int *restrict relpos,
  const double *restrict Ax, double *restrict Lx) {
  for (int s = 0; s < nsuper; s++) {
    int c0 = snPtr[s], c1 = snPtr[s + 1], w = c1 - c0, nb = snBelow[s];
    /* panel row offsets and initialization from A */
    for (int idx = 0; idx < w + nb; idx++) relpos[Li[Lp[c0] + idx]] = idx;
    for (int j = c0; j < c1; j++) {
      for (int p = Lp[j]; p < Lp[j + 1]; p++) Lx[p] = 0.0;
      for (int p = Ap[j]; p < Ap[j + 1]; p++) {
        int i = Ai[p];
        if (i >= j) Lx[Lp[j] + relpos[i] - (j - c0)] = %s;
      }
    }
    /* descendant updates (the schedule computed at compile time) */
    for (int q = schedPtr[s]; q < schedPtr[s + 1]; q++) {
      int d = updD[q], first = updFirst[q], t = updT[q], m = updM[q];
      int d0 = snPtr[d], d1 = snPtr[d + 1];
      int rows = Lp[d0] + (d1 - d0) + first;
      for (int tt = 0; tt < t; tt++) {
        int k = Li[rows + tt];
        int col = Lp[k] - (k - c0);
        for (int j = d0; j < d1; j++) {
          int base = Lp[j] + (d1 - j) + first;
          double ltop = Lx[base + tt];
          if (ltop != 0.0) {
            #pragma GCC ivdep
            for (int mm = tt; mm < m; mm++)
              Lx[col + relpos[Li[rows + mm]]] -= Lx[base + mm] * ltop;
          }
        }
      }
    }
    /* dense panel factorization: potrf on the diagonal block, trsm below */
    for (int j = c0; j < c1; j++) {
      int base = Lp[j];
      double dd = Lx[base];
      for (int k = c0; k < j; k++) {
        double v = Lx[Lp[k] + (j - k)];
        dd -= v * v;
      }
      if (dd <= 0.0) return j;
      double djj = sqrt(dd);
      Lx[base] = djj;
      for (int i = j + 1; i < c1; i++) {
        double sum = Lx[base + i - j];
        for (int k = c0; k < j; k++)
          sum -= Lx[Lp[k] + (i - k)] * Lx[Lp[k] + (j - k)];
        Lx[base + i - j] = sum / djj;
      }
      int bj = Lp[j] + (c1 - j);
      for (int k = c0; k < j; k++) {
        double lkj = Lx[Lp[k] + (j - k)];
        int bk = Lp[k] + (c1 - k);
        #pragma GCC ivdep
        for (int tt2 = 0; tt2 < nb; tt2++) Lx[bj + tt2] -= Lx[bk + tt2] * lkj;
      }
      #pragma GCC ivdep
      for (int tt2 = 0; tt2 < nb; tt2++) Lx[bj + tt2] /= djj;
    }
  }
  return -1;
}
|}
    (if ordered then ", read through amap" else "")
    (if ordered then "\n  const int *restrict amap," else "")
    (if ordered then "Ax[amap[p]]" else "Ax[p]")

let shaped (c : Cholesky_supernodal.Sympiler.compiled) (a_lower : Csc.t)
    (omap : int array option) : Pretty_c.shaped =
  let an = c.Cholesky_supernodal.Sympiler.an in
  let sn = an.Cholesky_supernodal.sn in
  let nsuper = Sympiler_symbolic.Supernodes.nsuper sn in
  (* Flatten the update schedule. *)
  let sched = c.Cholesky_supernodal.Sympiler.schedule in
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
  {
    Pretty_c.kname = "cholesky_supernodal_kernel";
    text = text ~ordered:(omap <> None);
    n = nsuper;
    data;
    iwork = [ n ];
    fwork = [];
    entry =
      Pretty_c.entry
        ~signature:
          "void cholesky_supernodal(const double *restrict Ax, double \
           *restrict Lx)"
        ~statics:[ ("int", "relpos", n) ]
        ~ret:false ~kname:"cholesky_supernodal_kernel" ~n:nsuper ~data
        [ "relpos"; "Ax"; "Lx" ];
  }

let to_c c a_lower = Pretty_c.artifact (shaped c a_lower None)
