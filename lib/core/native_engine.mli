(** Facade-side glue for the native kernel engine: the one path every
    native plan runs.

    A plan's native kernel is a {!Sympiler_ir.Pretty_c.shaped}. A factor
    family's is C text that is one per kernel {e shape} (family × variant
    × whether it reads natural-order input through the ordering's gather
    map), bound to one handle's pattern arrays; the triangular solve's
    text holds its own pattern (the IR kernel with its inspection sets as
    constants), so it has no pattern arrays. This module appends the
    uniform [sympiler_kernel] entry to the text, compiles and loads it
    through {!Sympiler_native.Native} (the cache keys on the text, so
    every pattern of a factor shape shares one object), and owns what a
    plan passes to it: the handle's pattern arrays as int32 Bigarrays and
    the plan's workspaces, built by {!load}. The input values and the
    plan's output arrays are passed as they are, with no copy. *)

module Native = Sympiler_native.Native

type exec = {
  nk : Native.kernel;
  n : int;  (** the kernel's size argument *)
  mutable x : float array;
      (** the input values of the latest call (zeros before the first) *)
  f : float array array;
      (** the plan's output arrays, then the plan's float workspaces *)
  ix : Native.ints array;
      (** the handle's pattern arrays, then the plan's int workspaces *)
}
(** A loaded kernel and the operands of a plan's calls. *)

val load :
  Sympiler_ir.Pretty_c.shaped ->
  inputs:int ->
  outputs:float array array ->
  exec option
(** Compile/load the kernel's text, copy its pattern arrays to int32
    Bigarrays and allocate the plan's workspaces; [outputs] are the plan's
    own output arrays (written in place by every call), [inputs] the
    length of the zero input bound before the first call. [None] means
    the native engine is unavailable (no C compiler, a failed compile, or
    an OCaml runtime without flat float arrays) — callers fall back to
    the OCaml executor. Raises [Invalid_argument] when a pattern entry
    does not fit in a C [int]. *)

val call : exec -> int
(** Run the kernel on [x] and the plan's arrays; returns its code (-1 =
    ok, [>= 0] = failing pivot index). Allocation-free. *)
