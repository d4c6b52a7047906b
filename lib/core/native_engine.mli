(** Facade-side glue for the native kernel engine: wraps an emitted C
    translation unit behind the uniform [sympiler_entry] ABI, compiles and
    loads it through {!Sympiler_native.Native}, and owns the Bigarray
    buffers the trampoline passes to the kernel.

    The per-family wiring (which buffer slot is which kernel argument, how
    a non-negative return code maps back to the family's pivot exception)
    stays in the facade; this module only knows "a kernel of up to four
    [double *] arguments". *)

module Native = Sympiler_native.Native

type buf = Native.buf

type exec = {
  nk : Native.kernel;
  b0 : buf;
  b1 : buf;
  b2 : buf;
  b3 : buf;
}
(** A loaded kernel plus its plan-owned argument buffers (unused slots
    alias {!Native.dummy}). *)

val wrapper : kname:string -> nargs:int -> int_return:bool -> string
(** The uniform entry point appended to an emitted translation unit:
    [int sympiler_entry(double *b0, …, double *b3)] forwarding the first
    [nargs] buffers to [kname]. Kernels returning [int] (the §3.3 factor
    kernels' failing-pivot index) pass their code through; [void] kernels
    return -1 ("no failure"). *)

val load :
  pattern_key:int ->
  family:string ->
  kname:string ->
  nargs:int ->
  int_return:bool ->
  sizes:int array ->
  string ->
  exec option
(** Wrap [source], compile/load it keyed by [pattern_key] + [family] (the
    source text, flags, and compiler identity are folded in by
    {!Native.load}), and allocate one zeroed buffer per entry of [sizes]
    (at most 4; missing or zero entries get the shared dummy). [None]
    means the native engine is unavailable — callers fall back to the
    OCaml executor. *)

val call : exec -> int
(** Run the kernel on its buffers; returns the kernel's code (-1 = ok,
    [>= 0] = failing pivot index). Allocation-free. *)

val blit_in : float array -> buf -> unit
(** Copy an OCaml float array into a buffer (lengths must match the
    buffer's size prefix; allocation-free). *)

val blit_out : buf -> float array -> unit
(** Copy a buffer back into an OCaml float array. *)

val fill0 : buf -> unit
(** Zero a buffer (allocation-free). *)

val scatter : buf -> int array -> float array -> unit
(** [scatter b idx v] writes [v.(t)] at [b.{idx.(t)}] for every [t]
    (sparse scatter; bounds-checked on the indices; allocation-free). *)

val fill0_at : buf -> int array -> unit
(** Zero the listed positions only (bounds-checked; allocation-free).
    The sparse counterpart of {!fill0} for kernels whose touched set is
    known symbolically, e.g. a trisolve's reach-set. *)

val gather : buf -> int array -> float array -> unit
(** [gather b idx dst] copies [b.{i}] to [dst.(i)] for every [i] in
    [idx] (bounds-checked; allocation-free). *)
