(** C code generation — the final lowering stage. Compile-time constant
    arrays (matrix pattern, inspection sets) are emitted as static data,
    so each generated file is self-contained, specialized to one sparsity
    structure, and its function manipulates numeric values only.
    [Vectorize] annotations become [#pragma GCC ivdep].

    A kernel may instead take its pattern as [Int_array] parameters
    ([const int *restrict]): its text is then the same for every pattern
    of one kernel {e shape}, and {!artifact} binds it to one pattern's
    data. *)

val expr_str : Ast.expr -> string
val lvalue_str : Ast.lvalue -> string

val const_array : Buffer.t -> string * int array -> unit
(** [static const int name[len] = {...};] — the one literal-array emitter
    (an empty array is emitted as one zero entry). *)

val params_to_c : Ast.kernel -> string
(** The kernel's C parameter list, comma-separated. *)

val function_to_c : Ast.kernel -> string
(** The kernel's C function alone: no header, no constant arrays. *)

val kernel_to_c : Ast.kernel -> string
(** The kernel as a complete C translation unit ([#include <math.h>],
    static const arrays, one function). Generated files compile with
    [gcc -O2 -lm]; the test suite verifies this and compares outputs
    against the interpreter bit-for-bit. *)

(** A kernel of one shape bound to one pattern: what the native engine
    compiles (the text, once per shape) and runs (the data, per handle),
    and what a factor family's [c_code] prints. The kernel function
    [kname] takes, in order, the size argument, the [data] arrays, the int
    workspaces, the input values, the output arrays, then the float
    workspaces, and returns -1 or a failing pivot index. *)
type shaped = {
  kname : string;  (** the kernel function [text] defines *)
  text : string;
      (** C defining [kname]: no pattern data, so one text per shape *)
  n : int;  (** the size argument of [kname] *)
  data : (string * int array) list;
      (** the pattern arrays, named and in parameter order *)
  iwork : int list;  (** lengths of the int workspaces after the data *)
  fwork : int list;  (** lengths of the float workspaces after the factors *)
  entry : string option;
      (** a C entry with the artifact's public name and signature, calling
          the kernel on the [data] arrays by name; [None] for a text that
          holds its own pattern (the triangular solve), which has no
          artifact *)
}

val entry :
  signature:string ->
  ?statics:(string * string * int) list ->
  ret:bool ->
  kname:string ->
  n:int ->
  data:(string * int array) list ->
  string list ->
  string
(** [entry ~signature ~statics ~ret ~kname ~n ~data args]: a {!shaped}
    [entry] — [signature], then one [static ty name[len]] workspace per
    [statics] entry, then [kname(n, <data names>, args)], returned when
    [ret]. *)

val artifact : shaped -> string
(** A self-contained translation unit: the kernel text, then the data as
    [static const] arrays, then the entry ([Invalid_argument] when there
    is none). *)
