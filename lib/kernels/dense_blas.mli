(** Dense micro-kernels operating on the jagged CSC panels of supernodes —
    the stand-in for the OpenBLAS routines the paper links against, plus
    the specialized small kernels Sympiler generates instead of BLAS calls
    (§4.2: "instead of being handicapped by the performance of BLAS
    routines, it generates specialized and highly-efficient codes for small
    dense sub-kernels").

    Panel layout: a supernode covering columns [\[c0, c1)] stores, for each
    column [j], the diagonal first, then the rest of the dense diagonal
    block (rows [j+1 .. c1-1]), then [nb] shared below-block rows identical
    across the supernode. Element [(i, j)] of the diagonal block is at
    [colptr.(j) + (i - j)]; the [t]-th below-block element of column [j] at
    [colptr.(j) + (c1 - j) + t]. *)

exception Not_positive_definite of int
(** A non-positive pivot at the given column: the one exception of every
    Cholesky kernel, IC(0) and a rejected downdate ({!Cholesky_ref},
    {!Cholesky_leftlooking}, {!Ic0} and {!Rank_update} rebind it), so one
    handler catches them all. *)

val diag_solve_generic :
  int array -> float array -> c0:int -> c1:int -> float array -> unit
(** Forward-solve the dense diagonal block of a supernode against [x]
    (generic runtime-parameterized loops). *)

val below_gemv_generic :
  int array ->
  float array ->
  c0:int ->
  c1:int ->
  nb:int ->
  float array ->
  float array ->
  unit
(** [tmp <- tmp + B * x(c0..c1)] where B is the below-block panel. *)

val below_gemv_w2 :
  int array -> float array -> c0:int -> nb:int -> float array -> float array -> unit
(** Fully unrolled width-2 below-block GEMV (specialized kernel). *)

val below_gemv_w3 :
  int array -> float array -> c0:int -> nb:int -> float array -> float array -> unit

val below_gemv_w4 :
  int array -> float array -> c0:int -> nb:int -> float array -> float array -> unit

val below_gemv_specialized :
  int array ->
  float array ->
  c0:int ->
  c1:int ->
  nb:int ->
  float array ->
  float array ->
  unit
(** Width-dispatched below-block GEMV: unrolled code for narrow supernodes
    (the case the paper notes BLAS handles poorly), generic loop
    otherwise. *)

val potrf_jagged : int array -> float array -> c0:int -> c1:int -> unit
(** In-place dense Cholesky of a supernode's diagonal block (generic,
    strided inner loops — the "BLAS-call on jagged storage" model). *)

val trsm_jagged : int array -> float array -> c0:int -> c1:int -> nb:int -> unit
(** Triangular solve of the below-block against the factored diagonal
    block, [B <- B L^{-T}]. *)

val panel_factor_fused :
  int array -> float array -> c0:int -> c1:int -> nb:int -> unit
(** Merged panel factorization (potrf + trsm in one left-looking pass) with
    fully contiguous inner loops — the specialized dense kernel Sympiler
    emits instead of separate BLAS calls. *)

val potrf_w1 : int array -> float array -> c0:int -> nb:int -> unit
(** Peeled width-1 panel: scalar sqrt + column scale. *)
