open Sympiler_sparse
open Sympiler_kernels

(** C emission for the §3.3 "other matrix methods" (LDL^T, LU, IC0,
    ILU0). Each kernel mirrors the corresponding OCaml [factor_ip_body]
    and takes the symbolic index arrays as arguments, so its text is one
    per kernel shape and the emitted numeric phase contains no symbolic
    work; it returns -1 on success and the failing column/row on a pivot
    failure. Each function binds the kernel to one compiled handle: the
    [int array option] is the ordering's gather map of an ordered handle
    (the kernel then takes natural-order input), [None] on a natural
    one. *)

val amap_data : int array option -> (string * int array) list
(** The ordering's gather map as the trailing [amap] data array of a
    kernel that reads its input in place ([[]] on a natural handle). *)

val ldlt : Ldlt.compiled -> int array option -> Sympiler_ir.Pretty_c.shaped

val lu :
  Lu.Sympiler.compiled -> Csc.t -> int array option -> Sympiler_ir.Pretty_c.shaped
(** Needs A's pattern besides the compiled handle (the factorization
    scatters A's columns; the handle stores only the factor patterns). *)

val ic0 : Ic0.compiled -> int array option -> Sympiler_ir.Pretty_c.shaped
val ilu0 : Ilu0.compiled -> int array option -> Sympiler_ir.Pretty_c.shaped
