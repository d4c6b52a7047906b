open Sympiler_sparse

(** The Sympiler phase pipeline of Figure 2: symbolic inspection, lowering,
    inspector-guided transformations, low-level transformations, code
    generation. Produces both the transformed kernel AST (executable
    through {!Interp}) and the final C source. Benchmarks use the native
    executors in [Sympiler_kernels]; this pipeline is the compiler
    itself. *)

type result = {
  kernel : Ast.kernel;
  c_code : string;
  inspectors : string list;  (** human-readable inspector descriptions *)
  tmp_size : int;  (** required scratch size for the [tmp] parameter *)
}

val trisolve :
  ?vs_block:bool ->
  ?vi_prune:bool ->
  ?low_level:bool ->
  Csc.t ->
  Vector.sparse ->
  result
(** Build the triangular-solve kernel with any subset of the three
    transformation layers (defaults: all three, VS-Block before VI-Prune as
    §4.2 prefers). The low-level layer peels the width-1 blocks of the
    VS-Block loop, or, without VS-Block, the reach-set columns with more
    than two entries (Figure 1e). *)

val trisolve_shaped : vs_block:bool -> Csc.t -> Vector.sparse -> Pretty_c.shaped
(** [trisolve_shaped ~vs_block l b]: the native engine's form of the
    {!trisolve} kernel with all three layers ([vs_block] as given: the
    handle's own decision). Its text is the kernel's file, which holds the
    pattern, then [int trisolve_native(int n, Lx, x[, tmp])], returning
    -1: no pattern data, one output ([x]), the VS-Block [tmp] as its float
    workspace when the kernel has one, and no artifact ([entry = None]). *)

val cholesky_kernel : ?low_level:bool -> ordered:bool -> unit -> Ast.kernel
(** The left-looking Cholesky kernel of one shape ({!Build.lower_cholesky}
    then, by default, the low-level passes): the same for every pattern. *)

val cholesky_shaped :
  Ast.kernel ->
  ?amap:int array ->
  Csc.t ->
  lp:int array ->
  li:int array ->
  row_ptr:int array ->
  row_set:int array ->
  Pretty_c.shaped
(** [cholesky_shaped k ?amap a_lower ~lp ~li ~row_ptr ~row_set]: the one
    builder from a pattern to its Cholesky kernel. It binds the
    {!cholesky_kernel} [k] to the {!Build.cholesky_data} of lower(A)'s
    pattern, L's pattern and L's packed row patterns, plus [amap] (the
    ordering's gather map; given exactly when [k] is the ordered kernel,
    [Invalid_argument] otherwise). The text adds [cholesky_checked],
    which runs the kernel and returns the first column whose diagonal is
    not positive, or -1; the entry is [void cholesky(double *restrict Ax,
    double *restrict Lx, double *restrict f)]. *)

val cholesky : ?low_level:bool -> Csc.t -> result
(** The left-looking Cholesky kernel, VI-Pruned at lowering (the paper's
    Figure 7 baseline); the low-level stage applies distribution, scalar
    replacement and constant propagation. One fill analysis feeds the
    inspector and {!cholesky_shaped}; [c_code] is the
    {!Pretty_c.artifact} of its result. *)

val run_trisolve : result -> Csc.t -> Vector.sparse -> float array
(** Interpreter-backed execution (tests/examples). *)

val run_cholesky : Ast.kernel -> Pretty_c.shaped -> float array -> float array
(** [run_cholesky k s ax]: interpreter-backed numeric factorization of the
    values [ax] (natural order when [k] is the ordered kernel) by the
    {!cholesky_kernel} [k] on the pattern of [s] ({!cholesky_shaped});
    returns the Lx value array for that pattern. *)
