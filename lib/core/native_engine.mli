(** Facade-side glue for the native kernel engine.

    A factor family's native kernel is a {!Sympiler_ir.Pretty_c.shaped}:
    C text that is one per kernel {e shape} (family × variant × whether it
    reads natural-order input through the ordering's gather map), bound to
    one handle's pattern arrays. This module appends the uniform
    [sympiler_kernel] entry to the text, compiles and loads it through
    {!Sympiler_native.Native} (the cache keys on the text, so every
    pattern of a shape shares one object), and owns what a plan passes to
    it: the handle's pattern arrays as int32 Bigarrays and the plan's
    workspaces, built by {!load}. The input values and the plan's factor
    arrays are passed as they are, with no copy.

    The triangular solve's code text depends on its pattern; it keeps the
    four-buffer [sympiler_entry] trampoline ({!load_buffers}). *)

module Native = Sympiler_native.Native

type exec = {
  nk : Native.kernel;
  n : int;  (** the kernel's size argument *)
  mutable x : float array;
      (** the input values of the latest call (zeros before the first) *)
  f : float array array;
      (** the plan's factor arrays, then the plan's float workspaces *)
  ix : Native.ints array;
      (** the handle's pattern arrays, then the plan's int workspaces *)
}
(** A loaded kernel and the operands of a plan's calls. *)

val load :
  Sympiler_ir.Pretty_c.shaped ->
  inputs:int ->
  outputs:float array array ->
  exec option
(** Compile/load the kernel's shape, copy its pattern arrays to int32
    Bigarrays and allocate the plan's workspaces; [outputs] are the plan's
    factor arrays (written in place by every call), [inputs] the number
    of input values. [None] means the native engine is unavailable (no C
    compiler, a failed compile, or an OCaml runtime without flat float
    arrays) — callers fall back to the OCaml executor. Raises
    [Invalid_argument] when a pattern entry does not fit in a C [int]. *)

val call : exec -> int
(** Run the kernel on [x] and the plan's arrays; returns its code (-1 =
    ok, [>= 0] = failing pivot index). Allocation-free. *)

(** {2 The four-buffer trampoline} *)

type buf = Native.buf

type buffers = {
  bk : Native.kernel;
  bufs : buf array;  (** four slots; unused ones alias {!Native.dummy} *)
}

val load_buffers : kname:string -> buf array -> string -> buffers option
(** [load_buffers ~kname bufs source]: [source] compiled with a
    [sympiler_entry] that passes the first [Array.length bufs] (at most 4)
    buffers to the void kernel [kname]. *)

val call_buffers : buffers -> int
(** Run the kernel on its buffers. Allocation-free. *)

val scatter : buf -> int array -> float array -> unit
(** [scatter b idx v] writes [v.(t)] at [b.{idx.(t)}] for every [t]
    (sparse scatter; bounds-checked on the indices; allocation-free). *)

val fill0_at : buf -> int array -> unit
(** Zero the listed positions only (bounds-checked; allocation-free). *)

val gather : buf -> int array -> float array -> unit
(** [gather b idx dst] copies [b.{i}] to [dst.(i)] for every [i] in
    [idx] (bounds-checked; allocation-free). *)
