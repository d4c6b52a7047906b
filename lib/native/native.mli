(** The native kernel engine: compile Sympiler-emitted C into a shared
    object, resolve its entry point through [dlopen]/[dlsym], and cache
    compiled objects on disk so a steady-state cache hit never re-invokes
    the C compiler.

    This module is deliberately family-agnostic: it knows nothing about
    trisolve or Cholesky, only about "a C translation unit exporting one
    entry point, compiled with {!default_cflags}", and two calling
    conventions for that entry:

    {[
      int sympiler_kernel(int n, double *x, double *const *f, int *const *ix);
      int sympiler_entry(double *b0, double *b1, double *b2, double *b3);
    ]}

    Every plan's kernel, of every family and the triangular solve, is a
    [sympiler_kernel] run by {!run}, which takes OCaml float arrays and
    int32 Bigarrays without copying them. The per-family glue (which
    emitted source, which array goes in which slot, how a non-negative
    return maps to a pivot exception) lives in the facade's
    [Native_engine]. [sympiler_entry] ({!call} on four Bigarray buffers)
    serves only the repository benchmark's machine-ceiling probes. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A C-layout float64 Bigarray, the argument type of {!call} (the
    ceiling probes). Its payload lives outside the OCaml heap, so the stub
    can hand the raw pointer to the kernel without pinning. *)

type ints = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A C-layout int32 Bigarray: the pattern arrays and int workspaces of
    {!run}, read by the kernel as [int *]. *)

type origin =
  | Compiled  (** the C compiler ran for this load *)
  | Disk_cache  (** a previously compiled [.so] was dlopened, no compile *)
  | Memory_cache  (** the already-loaded kernel was returned, no dlopen *)

type kernel = {
  fn : nativeint;  (** the resolved entry point's function pointer *)
  so_path : string;  (** the shared object backing [fn] *)
  origin : origin;  (** how the {e first} load of this key was served *)
  compile_seconds : float;
      (** wall-clock cost of cc + dlopen + dlsym for that first load
          ([Compiled]), or of dlopen + dlsym alone ([Disk_cache]) *)
}

type stats = {
  compiles : int;  (** loads that ran the C compiler *)
  disk_hits : int;  (** loads served by dlopening a cached [.so] *)
  memory_hits : int;  (** loads served from the in-process kernel table *)
  fallbacks : int;  (** loads that returned [None] *)
}

val cc : unit -> string option
(** The C compiler the engine would use: [$SYMPILER_CC] when set (even a
    bare command name; [None] when it names nothing executable — the hook
    for forcing fallback in tests), otherwise the first of [cc], [gcc],
    [clang] found on [$PATH]. Re-read on every call, so tests can flip the
    environment. *)

val available : unit -> bool
(** [cc () <> None]. *)

val compiler_identity : string -> string
(** Version-stamped identity of one compiler executable (path plus the
    first line of [--version]), memoized per path. Part of every cache
    key: upgrading the compiler invalidates the on-disk objects. *)

val cache_dir : unit -> string
(** The on-disk object cache: [$SYMPILER_NATIVE_CACHE] when set, else
    [$XDG_CACHE_HOME/sympiler-native], else [$HOME/.cache/sympiler-native],
    else [<tmpdir>/sympiler-native]. Created on demand. *)

val default_cflags : string list
(** [-O3 -march=native -ffp-contract=off -fPIC -shared]: full optimization
    with FMA contraction disabled, so the compiled kernel performs exactly
    the emitted operation sequence and factors stay bit-comparable to the
    OCaml executors. *)

val load : ?key:int -> entry:string -> string -> kernel option
(** [load ~entry source] returns the entry point of [source] compiled as a
    shared object with {!default_cflags} (retried once without
    [-march=native] when that fails), or [None] when no C compiler is
    available or the compile/load failed (each such fallback bumps a
    counter and emits a one-time note; callers are expected to fall back
    to the OCaml executor).

    The cache key is a content hash of [source], [entry], the flags and
    {!compiler_identity}, folded into [key] (a caller salt, default 0) —
    so any change to the emitted code, the flags, or the toolchain
    compiles a fresh object, while an identical source is served from
    cache whoever asks: first from the in-process table (no dlopen), then
    from the on-disk [.so] (no compile). A compile writes the source and
    the object under names unique to it, then renames the object into
    place, so processes compiling one key at once do not interfere. *)

val call : kernel -> buf -> buf -> buf -> buf -> int
(** Invoke a [sympiler_entry] kernel on the raw data of four buffers (pass
    {!dummy} for unused slots). Allocation-free. Only the machine-ceiling
    probes of the repository benchmark call it; no plan does. *)

val run : kernel -> int -> float array -> float array array -> ints array -> int
(** [run k n x f ix] invokes a [sympiler_kernel] entry on the payloads of
    [x], of each array of [f] (at most 8) and of each Bigarray of [ix] (at
    most 16; [Invalid_argument] otherwise). Float arrays are flat, so the
    kernel reads and writes them in place: nothing is copied, and the
    call allocates nothing, so no GC moves them while it runs. The kernel
    must stay within the arrays' lengths, and the runtime must have flat
    float arrays (the default configuration; the caller checks). *)

val dummy : buf
(** A shared 1-element buffer for unused {!call} slots. *)

val stats : unit -> stats

val reset_stats : unit -> unit
(** Zero the counters (tests). *)

val clear_memory_cache : unit -> unit
(** Drop the in-process kernel table, forcing the next [load] of each key
    back to the on-disk cache (tests of the disk tier). Already-resolved
    kernels stay valid: shared objects are never dlclosed. *)
