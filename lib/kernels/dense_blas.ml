(* Dense micro-kernels operating directly on the jagged CSC panels of a
   supernode (our stand-in for the OpenBLAS routines the paper links, plus
   the specialized small kernels Sympiler generates instead of BLAS calls).

   Supernode layout within plain CSC storage of L: a supernode covers
   columns [c0, c1); column j's entries start at colptr.(j) with the
   diagonal first, then the rest of the dense diagonal block (rows j+1 ..
   c1-1), then nb shared below-block rows identical across the supernode.
   Element (i, j) of the diagonal block lives at colptr.(j) + (i - j); the
   t-th below-block element of column j at colptr.(j) + (c1 - j) + t. *)

(* ---- Generic kernels (runtime-parameterized loops, "BLAS-like") ---- *)

(* Forward-solve the dense diagonal block of a supernode against x. *)
let diag_solve_generic (colptr : int array) (lx : float array) ~c0 ~c1
    (x : float array) =
  for j = c0 to c1 - 1 do
    let base = colptr.(j) in
    let xj = x.(j) /. lx.(base) in
    x.(j) <- xj;
    for i = j + 1 to c1 - 1 do
      x.(i) <- x.(i) -. (lx.(base + i - j) *. xj)
    done
  done

(* tmp <- tmp + B * x[c0..c1) where B is the below-block panel (nb rows). *)
let below_gemv_generic (colptr : int array) (lx : float array) ~c0 ~c1 ~nb
    (x : float array) (tmp : float array) =
  for j = c0 to c1 - 1 do
    let base = colptr.(j) + (c1 - j) in
    let xj = x.(j) in
    if xj <> 0.0 then
      for t = 0 to nb - 1 do
        tmp.(t) <- tmp.(t) +. (lx.(base + t) *. xj)
      done
  done

(* ---- Specialized kernels (what Sympiler's low-level transformations
   generate for small fixed supernode widths: fully unrolled over columns,
   column values held in locals). ---- *)

let below_gemv_w2 colptr (lx : float array) ~c0 ~nb (x : float array) tmp =
  let b0 = colptr.(c0) + 2 and b1 = colptr.(c0 + 1) + 1 in
  let x0 = x.(c0) and x1 = x.(c0 + 1) in
  for t = 0 to nb - 1 do
    tmp.(t) <- tmp.(t) +. (lx.(b0 + t) *. x0) +. (lx.(b1 + t) *. x1)
  done

let below_gemv_w3 colptr (lx : float array) ~c0 ~nb (x : float array) tmp =
  let b0 = colptr.(c0) + 3
  and b1 = colptr.(c0 + 1) + 2
  and b2 = colptr.(c0 + 2) + 1 in
  let x0 = x.(c0) and x1 = x.(c0 + 1) and x2 = x.(c0 + 2) in
  for t = 0 to nb - 1 do
    tmp.(t) <-
      tmp.(t) +. (lx.(b0 + t) *. x0) +. (lx.(b1 + t) *. x1)
      +. (lx.(b2 + t) *. x2)
  done

let below_gemv_w4 colptr (lx : float array) ~c0 ~nb (x : float array) tmp =
  let b0 = colptr.(c0) + 4
  and b1 = colptr.(c0 + 1) + 3
  and b2 = colptr.(c0 + 2) + 2
  and b3 = colptr.(c0 + 3) + 1 in
  let x0 = x.(c0)
  and x1 = x.(c0 + 1)
  and x2 = x.(c0 + 2)
  and x3 = x.(c0 + 3) in
  for t = 0 to nb - 1 do
    tmp.(t) <-
      tmp.(t) +. (lx.(b0 + t) *. x0) +. (lx.(b1 + t) *. x1)
      +. (lx.(b2 + t) *. x2) +. (lx.(b3 + t) *. x3)
  done

(* Width-dispatched below-block GEMV: unrolled code for narrow supernodes
   (the common case the paper notes BLAS handles poorly), generic loop
   otherwise. *)
let below_gemv_specialized colptr lx ~c0 ~c1 ~nb x tmp =
  match c1 - c0 with
  | 2 -> below_gemv_w2 colptr lx ~c0 ~nb x tmp
  | 3 -> below_gemv_w3 colptr lx ~c0 ~nb x tmp
  | 4 -> below_gemv_w4 colptr lx ~c0 ~nb x tmp
  | _ -> below_gemv_generic colptr lx ~c0 ~c1 ~nb x tmp

(* ---- In-place dense Cholesky of a supernode's diagonal block stored in
   jagged CSC (column j starts at its diagonal). ---- *)

(* The one non-positive-pivot exception: Cholesky_ref,
   Cholesky_leftlooking, Ic0 and Rank_update rebind it. *)
exception Not_positive_definite of int

(* Factor the (c1-c0)^2 diagonal block; returns unit, mutating lx. *)
let potrf_jagged (colptr : int array) (lx : float array) ~c0 ~c1 =
  for j = c0 to c1 - 1 do
    let base = colptr.(j) in
    (* d = L(j,j) - sum_k L(j,k)^2 over k in [c0, j): those values live in
       earlier columns of the block at offset (j - k). *)
    let d = ref lx.(base) in
    for k = c0 to j - 1 do
      let v = lx.(colptr.(k) + (j - k)) in
      d := !d -. (v *. v)
    done;
    if !d <= 0.0 then raise (Not_positive_definite j);
    let djj = sqrt !d in
    lx.(base) <- djj;
    for i = j + 1 to c1 - 1 do
      let s = ref lx.(base + i - j) in
      for k = c0 to j - 1 do
        s := !s -. (lx.(colptr.(k) + (i - k)) *. lx.(colptr.(k) + (j - k)))
      done;
      lx.(base + i - j) <- !s /. djj
    done
  done

(* Triangular solve of the below-block against the freshly factored diagonal
   block: B <- B * L_diag^{-T}, column by column (dense TRSM). *)
let trsm_jagged (colptr : int array) (lx : float array) ~c0 ~c1 ~nb =
  for j = c0 to c1 - 1 do
    let base_j = colptr.(j) + (c1 - j) in
    let djj = lx.(colptr.(j)) in
    (* Subtract contributions of earlier columns of the block. *)
    for k = c0 to j - 1 do
      let lkj = lx.(colptr.(k) + (j - k)) in
      if lkj <> 0.0 then begin
        let base_k = colptr.(k) + (c1 - k) in
        for t = 0 to nb - 1 do
          lx.(base_j + t) <- lx.(base_j + t) -. (lx.(base_k + t) *. lkj)
        done
      end
    done;
    for t = 0 to nb - 1 do
      lx.(base_j + t) <- lx.(base_j + t) /. djj
    done
  done

(* Merged panel factorization (potrf + trsm in one left-looking pass) with
   fully contiguous inner loops — the specialized dense kernel Sympiler
   generates instead of calling BLAS potrf/trsm on jagged storage. *)
let panel_factor_fused (colptr : int array) (lx : float array) ~c0 ~c1 ~nb =
  for j = c0 to c1 - 1 do
    let base_j = colptr.(j) in
    let len = c1 - j + nb in
    for k = c0 to j - 1 do
      let base_k = colptr.(k) + (j - k) in
      let ljk = lx.(base_k) in
      if ljk <> 0.0 then
        (* Subtract ljk * L(j:end, k) from L(j:end, j): both ranges are
           contiguous in the jagged panel layout. *)
        for i = 0 to len - 1 do
          lx.(base_j + i) <- lx.(base_j + i) -. (lx.(base_k + i) *. ljk)
        done
    done;
    let d = lx.(base_j) in
    if d <= 0.0 then raise (Not_positive_definite j);
    let djj = sqrt d in
    lx.(base_j) <- djj;
    for i = 1 to len - 1 do
      lx.(base_j + i) <- lx.(base_j + i) /. djj
    done
  done

(* Specialized single-column factorization (width-1 supernode): sqrt and
   scale, the peeled fast path. *)
let potrf_w1 (colptr : int array) (lx : float array) ~c0 ~nb =
  let base = colptr.(c0) in
  let d = lx.(base) in
  if d <= 0.0 then raise (Not_positive_definite c0);
  let djj = sqrt d in
  lx.(base) <- djj;
  for t = 1 to nb do
    lx.(base + t) <- lx.(base + t) /. djj
  done

