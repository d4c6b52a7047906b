open Sympiler_sparse
open Sympiler_kernels
module Pretty_c = Sympiler_ir.Pretty_c

(* C emission for the "other matrix methods" of §3.3 (LDL^T, LU, IC0,
   ILU0). Each kernel mirrors its OCaml [factor_ip_body] line by line and
   takes every index array the symbolic phase computed as an argument, so
   the emitted numeric phase contains no symbolic work and its text is one
   per kernel shape: every pattern shares one compiled object. Pivot
   failures return the failing index, success returns -1.

   Ordered handles take natural-order input. LU and IC(0) read their input
   in place, so they have an ordered variant that reads it through the
   ordering's gather map [amap]; LDL^T and ILU(0) already read it through
   a gather map, into which the ordering is composed. *)

(* Input value [idx] of a kernel that reads [ax] in place. *)
let ax ~ordered idx =
  if ordered then Printf.sprintf "ax[amap[%s]]" idx
  else Printf.sprintf "ax[%s]" idx

let amap ~ordered = if ordered then "\n  const int *restrict amap," else ""

(* [map] followed by the ordering's gather map, when there is one. *)
let compose (omap : int array option) (map : int array) =
  match omap with None -> map | Some o -> Array.map (fun q -> o.(q)) map

let amap_data (omap : int array option) =
  Option.fold ~none:[] ~some:(fun o -> [ ("amap", o) ]) omap

let header kernel =
  Printf.sprintf
    "/* Sympiler-generated %s,\n\
    \   one kernel shape: the sparsity pattern is passed as arguments. */\n"
    kernel

let ldlt_text =
  header "LDL^T factorization"
  ^ {|/* ax: values of lower(A), read through umap; lx: values of L; d: the
   diagonal. Returns -1 on success, k on a zero pivot at column k. */
int ldlt_kernel(int n, const int *restrict lp, const int *restrict li,
  const int *restrict up, const int *restrict ui, const int *restrict umap,
  const int *restrict rp_ptr, const int *restrict rp_ind,
  int *restrict nzcount, const double *restrict ax, double *restrict lx,
  double *restrict d, double *restrict y) {
  for (int i = 0; i < n; i++) { nzcount[i] = 0; y[i] = 0.0; }
  for (int k = 0; k < n; k++) {
    double dk = 0.0;
    for (int p = up[k]; p < up[k + 1]; p++) {
      int i = ui[p];
      if (i == k) dk = ax[umap[p]];
      else if (i < k) y[i] = ax[umap[p]];
    }
    for (int t = rp_ptr[k]; t < rp_ptr[k + 1]; t++) {
      int j = rp_ind[t];
      double yj = y[j];
      y[j] = 0.0;
      double lkj = yj / d[j];
      /* row indices within a column are distinct: the scatter is safe */
#pragma GCC ivdep
      for (int p = lp[j] + 1; p < lp[j] + nzcount[j]; p++)
        y[li[p]] -= lx[p] * yj;
      dk -= lkj * yj;
      lx[lp[j] + nzcount[j]] = lkj;
      nzcount[j]++;
    }
    if (dk == 0.0) return k;
    d[k] = dk;
    lx[lp[k]] = 1.0;
    nzcount[k] = 1;
  }
  return -1;
}
|}

let ldlt (c : Ldlt.compiled) (omap : int array option) : Pretty_c.shaped =
  let module F = Sympiler_symbolic.Fill_pattern in
  let f = c.Ldlt.fill in
  let n = f.F.n in
  let data =
    [
      ("lp", f.F.l_colptr);
      ("li", f.F.l_rowind);
      ("up", c.Ldlt.up_colptr);
      ("ui", c.Ldlt.up_rowind);
      ("umap", compose omap c.Ldlt.up_map);
      ("rp_ptr", f.F.row_ptr);
      ("rp_ind", f.F.row_ind);
    ]
  in
  {
    kname = "ldlt_kernel";
    text = ldlt_text;
    n;
    data;
    iwork = [ n ];
    fwork = [ n ];
    entry =
      Some
        (Pretty_c.entry
          ~signature:
            "int ldlt_factor(const double *restrict ax, double *restrict lx,\n\
            \                double *restrict d)"
          ~statics:[ ("int", "nzcount", n); ("double", "y", n) ]
          ~ret:true ~kname:"ldlt_kernel" ~n ~data
          [ "nzcount"; "ax"; "lx"; "d"; "y" ]);
  }

let lu_text ~ordered =
  header "LU factorization (Gilbert-Peierls, static pattern)"
  ^ Printf.sprintf
      {|/* ax: values of A (CSC, the compiled pattern)%s;
   lx/ux: values of L/U. Returns -1 on success, j on a zero pivot at
   column j. */
int lu_kernel(int n, const int *restrict ap, const int *restrict ai,
  const int *restrict lp, const int *restrict li, const int *restrict up,
  const int *restrict ui,%s const double *restrict ax,
  double *restrict lx, double *restrict ux, double *restrict x) {
  for (int i = 0; i < n; i++) x[i] = 0.0;
  for (int j = 0; j < n; j++) {
    for (int q = ap[j]; q < ap[j + 1]; q++) x[ai[q]] = %s;
    int uhi = up[j + 1] - 1;
    for (int p = up[j]; p < uhi; p++) {
      int k = ui[p];
      double xk = x[k];
      ux[p] = xk;
      x[k] = 0.0;
      if (xk != 0.0)
        /* row indices within a column are distinct: the scatter is safe */
#pragma GCC ivdep
        for (int q = lp[k] + 1; q < lp[k + 1]; q++) x[li[q]] -= lx[q] * xk;
    }
    double ujj = x[j];
    if (ujj == 0.0) return j;
    ux[uhi] = ujj;
    x[j] = 0.0;
    lx[lp[j]] = 1.0;
#pragma GCC ivdep
    for (int q = lp[j] + 1; q < lp[j + 1]; q++) {
      lx[q] = x[li[q]] / ujj;
      x[li[q]] = 0.0;
    }
  }
  return -1;
}
|}
      (if ordered then ", read through amap" else "")
      (amap ~ordered) (ax ~ordered "q")

let lu (c : Lu.Sympiler.compiled) (a : Csc.t) (omap : int array option) :
    Pretty_c.shaped =
  let n = c.Lu.Sympiler.n in
  let data =
    [
      ("ap", a.Csc.colptr);
      ("ai", a.Csc.rowind);
      ("lp", c.Lu.Sympiler.l_colptr);
      ("li", c.Lu.Sympiler.l_rowind);
      ("up", c.Lu.Sympiler.u_colptr);
      ("ui", c.Lu.Sympiler.u_rowind);
    ]
    @ amap_data omap
  in
  {
    kname = "lu_kernel";
    text = lu_text ~ordered:(omap <> None);
    n;
    data;
    iwork = [];
    fwork = [ n ];
    entry =
      Some
        (Pretty_c.entry
          ~signature:
            "int lu_factor(const double *restrict ax, double *restrict lx,\n\
            \              double *restrict ux)"
          ~statics:[ ("double", "x", n) ]
          ~ret:true ~kname:"lu_kernel" ~n ~data
          [ "ax"; "lx"; "ux"; "x" ]);
  }

let ic0_text ~ordered =
  "#include <math.h>\n" ^ header "incomplete Cholesky IC(0)"
  ^ Printf.sprintf
      {|/* ax: values of lower(A)%s;
   lx: values of the IC(0) factor (same pattern). Returns -1 on success,
   j when the pivot at column j is not positive. */
int ic0_kernel(int n, const int *restrict lp, const int *restrict li,
  const int *restrict rp, const int *restrict rc, const int *restrict rq,%s
  int *restrict pos, const double *restrict ax, double *restrict lx) {
#pragma GCC ivdep
  for (int q = 0; q < lp[n]; q++) lx[q] = %s;
  for (int i = 0; i < n; i++) pos[i] = -1;
  for (int j = 0; j < n; j++) {
    for (int p = lp[j]; p < lp[j + 1]; p++) pos[li[p]] = p;
    for (int q = rp[j]; q < rp[j + 1]; q++) {
      int r = rc[q];
      double ljr = lx[rq[q]];
      if (ljr != 0.0)
        /* pos[] positions within a column are distinct: the scatter is safe */
#pragma GCC ivdep
        for (int t = rq[q]; t < lp[r + 1]; t++)
          if (pos[li[t]] >= 0) lx[pos[li[t]]] -= lx[t] * ljr;
    }
    double dj = lx[lp[j]];
    if (dj <= 0.0) return j;
    double s = sqrt(dj);
    lx[lp[j]] = s;
#pragma GCC ivdep
    for (int p = lp[j] + 1; p < lp[j + 1]; p++) lx[p] /= s;
    for (int p = lp[j]; p < lp[j + 1]; p++) pos[li[p]] = -1;
  }
  return -1;
}
|}
      (if ordered then ", read through amap" else "")
      (amap ~ordered) (ax ~ordered "q")

let ic0 (c : Ic0.compiled) (omap : int array option) : Pretty_c.shaped =
  let n = c.Ic0.n in
  let data =
    [
      ("lp", c.Ic0.colptr);
      ("li", c.Ic0.rowind);
      ("rp", c.Ic0.row_ptr);
      ("rc", c.Ic0.row_col);
      ("rq", c.Ic0.row_pos);
    ]
    @ amap_data omap
  in
  {
    kname = "ic0_kernel";
    text = ic0_text ~ordered:(omap <> None);
    n;
    data;
    iwork = [ n ];
    fwork = [];
    entry =
      Some
        (Pretty_c.entry
          ~signature:
            "int ic0_factor(const double *restrict ax, double *restrict \
             lx)"
          ~statics:[ ("int", "pos", n) ]
          ~ret:true ~kname:"ic0_kernel" ~n ~data [ "pos"; "ax"; "lx" ]);
  }

let ilu0_text =
  header "incomplete LU ILU(0)"
  ^ {|/* ax: values of A, read through cmap; v: CSR values of L\U.
   Returns -1 on success, k on a zero pivot in row k. */
int ilu0_kernel(int n, const int *restrict rp, const int *restrict ci,
  const int *restrict dg, const int *restrict cmap, int *restrict pos,
  const double *restrict ax, double *restrict v) {
#pragma GCC ivdep
  for (int q = 0; q < rp[n]; q++) v[q] = ax[cmap[q]];
  for (int i = 0; i < n; i++) pos[i] = -1;
  for (int i = 0; i < n; i++) {
    for (int p = rp[i]; p < rp[i + 1]; p++) pos[ci[p]] = p;
    for (int p = rp[i]; p < rp[i + 1]; p++) {
      int k = ci[p];
      if (k < i) {
        double piv = v[dg[k]];
        if (piv == 0.0) return k;
        double lik = v[p] / piv;
        v[p] = lik;
        /* pos[] positions within a row are distinct: the scatter is safe */
#pragma GCC ivdep
        for (int q = dg[k] + 1; q < rp[k + 1]; q++)
          if (pos[ci[q]] >= 0) v[pos[ci[q]]] -= lik * v[q];
      }
    }
    for (int p = rp[i]; p < rp[i + 1]; p++) pos[ci[p]] = -1;
  }
  return -1;
}
|}

let ilu0 (c : Ilu0.compiled) (omap : int array option) : Pretty_c.shaped =
  let n = c.Ilu0.n in
  let data =
    [
      ("rp", c.Ilu0.rowptr);
      ("ci", c.Ilu0.colind);
      ("dg", c.Ilu0.diag);
      ("cmap", compose omap c.Ilu0.csc_map);
    ]
  in
  {
    kname = "ilu0_kernel";
    text = ilu0_text;
    n;
    data;
    iwork = [ n ];
    fwork = [];
    entry =
      Some
        (Pretty_c.entry
          ~signature:
            "int ilu0_factor(const double *restrict ax, double *restrict \
             v)"
          ~statics:[ ("int", "pos", n) ]
          ~ret:true ~kname:"ilu0_kernel" ~n ~data [ "pos"; "ax"; "v" ]);
  }
