open Sympiler_sparse
open Sympiler_kernels

(** C emission for the simplicial up-looking kernel of the symmetric
    families (Cholesky and LDL^T) and for the other §3.3 methods (LU,
    IC0, ILU0). Each kernel mirrors the corresponding OCaml
    [factor_ip_body] and takes the symbolic index arrays as arguments, so
    its text is one per kernel shape and the emitted numeric phase
    contains no symbolic work; it returns -1 on success and the failing
    column/row on a pivot failure. Each function binds the kernel to one
    compiled handle: the [int array option] is the ordering's gather map
    of an ordered handle (the kernel then takes natural-order input),
    [None] on a natural one. *)

val amap_data : int array option -> (string * int array) list
(** The ordering's gather map as the trailing [amap] data array of a
    kernel that reads its input in place ([[]] on a natural handle). *)

val up_looking :
  cholesky:bool ->
  Cholesky_ref.up_looking ->
  int array option ->
  Sympiler_ir.Pretty_c.shaped
(** The up-looking kernel over one handle's inspection sets, in one of
    two shapes: LDL^T ([cholesky = false]; outputs [lx] and [d]), or
    Cholesky, [Cholesky_ref.Decoupled]'s loop (output [lx]; a pivot that
    is not positive fails), whose factor equals the OCaml plan's bit for
    bit. It reads lower(A) through the upper triangle's gather map with
    the ordering composed in, so natural and ordered handles share one
    text per shape. *)

val lu :
  Lu.Sympiler.compiled -> Csc.t -> int array option -> Sympiler_ir.Pretty_c.shaped
(** Needs A's pattern besides the compiled handle (the factorization
    scatters A's columns; the handle stores only the factor patterns). *)

val ic0 : Ic0.compiled -> int array option -> Sympiler_ir.Pretty_c.shaped
val ilu0 : Ilu0.compiled -> int array option -> Sympiler_ir.Pretty_c.shaped
