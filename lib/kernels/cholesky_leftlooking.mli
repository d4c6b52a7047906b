open Sympiler_sparse
open Sympiler_symbolic

(** Left-looking column Cholesky — the paper's Figure 4 pseudo-code as a
    native decoupled executor: gather [f = A(:,j)], subtract the
    contributions of the prune-set columns (VI-Prune's inspection set),
    take the square root of the diagonal, scale. All symbolic data —
    including [row_pos], the position of L(j,r) inside column r — is baked
    in at compile time. Cross-checked in the tests against the up-looking
    executor and the AST pipeline that lowers the same algorithm. *)

exception Not_positive_definite of int
(** The same exception as {!Dense_blas.Not_positive_definite}. *)

type compiled = {
  n : int;
  l_colptr : int array;
  l_rowind : int array;
  row_ptr : int array;
  row_set : int array;
  row_pos : int array;
  flops : float;
}

val compile : ?fill:Fill_pattern.t -> Csc.t -> compiled
val factor : compiled -> Csc.t -> Csc.t
val factorize : Csc.t -> Csc.t
