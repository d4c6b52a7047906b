open Sympiler_sparse

(** Lowering (Figure 2a): turn a numerical method plus a specific sparsity
    structure into the initial annotated AST. The triangular solve's
    pattern arrays (colptr / rowind) become compile-time constants of the
    kernel; only numeric values remain its runtime parameters. Cholesky's
    pattern arrays are parameters. *)

val lower_trisolve : Csc.t -> Ast.kernel
(** The forward-substitution loop nest, annotated with the VI-Prune and
    VS-Block sites. Parameters: [Lx] (factor values), [x] (b in, solution
    out). *)

val lower_cholesky : ordered:bool -> Ast.kernel
(** Left-looking sparse Cholesky (the pseudo-code of the paper's Figure 4)
    with VI-Prune already applied, as in the paper's Figure 7 baseline:
    the update loop iterates the precomputed prune-sets, and every entry
    position (including [rowPos], the position of L(j,r) in column r) is
    precomputed. The kernel takes all of it as parameters, so it is one
    kernel for every pattern: [n], the {!cholesky_data} arrays, [amap]
    when [ordered] (the kernel then reads [Ax[amap[p]]], natural-order
    input through the ordering's gather map), then [Ax], [Lx] (out) and
    [f] (zeroed workspace of size n, zero again on return). *)

val cholesky_data :
  Csc.t ->
  lp:int array ->
  li:int array ->
  row_ptr:int array ->
  row_set:int array ->
  (string * int array) list
(** [cholesky_data a_lower ~lp ~li ~row_ptr ~row_set]: the pattern
    arguments of {!lower_cholesky} (named, in parameter order) from
    lower(A)'s pattern, L's pattern and L's packed row patterns (row [j]'s
    columns, ascending, at [row_set.(row_ptr.(j)) ..
    row_set.(row_ptr.(j+1) - 1)]). *)
