open Sympiler_sparse
open Sympiler_kernels

(** Direct C emission for the supernodal (VS-Block) executor of Cholesky
    and LDL^T. The VS-Block lowering is heavily domain-specific (§2.3.2),
    so instead of the generic AST this emitter writes the supernodal
    left-looking loop nest by hand. Every inspection set — supernode
    boundaries, the update schedule, L's pattern — is an argument of the
    kernel, so its text is one per kernel shape. Generated files compile
    with [gcc -O2 -lm]; the test suite runs them and compares factors
    bit-for-bit with the OCaml executor. *)

val shaped :
  ldlt:bool ->
  Cholesky_supernodal.Sympiler.compiled ->
  Csc.t ->
  int array option ->
  Sympiler_ir.Pretty_c.shaped
(** [shaped ~ldlt compiled a_lower omap]: the kernel bound to one compiled
    handle. Its size argument is the supernode count; it returns -1, or
    the first column whose pivot is not positive (Cholesky) or exactly
    zero ([ldlt]: the kernel then writes the unit L and the diagonal of
    D, the outputs of {!Sympiler_kernels.Cholesky_supernodal.Sympiler}'s
    [factor_ip ~d], bit for bit). With the ordering's gather map [omap],
    the kernel reads natural-order input through it. The artifact's entry
    is [void cholesky_supernodal(const double *restrict Ax, double
    *restrict Lx)], or for LDL^T the simplicial kernel's [int
    ldlt_factor(ax, lx, d)]. *)

val to_c : Cholesky_supernodal.Sympiler.compiled -> Csc.t -> string
(** [to_c compiled a_lower]: the complete C translation unit
    ({!Sympiler_ir.Pretty_c.artifact} of the natural Cholesky kernel). *)
