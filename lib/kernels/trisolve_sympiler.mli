open Sympiler_sparse
open Sympiler_symbolic

(** Sympiler's triangular-solve executors (the generated code of
    Figure 1e): the reach-set, supernodes, supernode sequence, and the
    block-vs-column strategy decision are all computed once at compile time
    and baked into a {!compiled} value whose numeric routines contain no
    symbolic work.

    Every OCaml plan runs the reach-set executor (VI-Prune alone); the
    VS-Block decision picks the lowering of the emitted C
    ({!Sympiler_ir.Pipeline.trisolve}), whose dense block loops are where
    VS-Block pays. The three block variants mirror the stacked bars of
    Figure 6 — VS-Block alone, VS-Block + VI-Prune, and the full pipeline
    with low-level transformations — and [solve_full] is the reference a
    VS-Block kernel of the emitted C is held to. *)

type compiled = {
  l : Csc.t;
  reach : int array;  (** reach-set, sorted ascending (a dependence order) *)
  sn : Supernodes.t;  (** block-set (VS-Block inspection set) *)
  sn_sequence : int array;  (** supernodes hit by the reach-set, ascending *)
  all_sn : int array;  (** every supernode (for the VS-Block-only variant) *)
  max_below : int;  (** max below-block height, sizes each plan's scratch *)
  flops : float;  (** useful numeric flops of the pruned solve *)
  columnwise : bool;
      (** the VS-Block decision, declined: the emitted C and {!solve_full}
          process the reach-set column by column instead of block by block
          — taken when supernodes are too narrow or block processing would
          waste too much work on unreached columns (the paper's VS-Block
          profitability threshold, §4.2) *)
  written : int array;
      (** the columns of the supernodes hit by the reach-set, ascending:
          every entry {!solve_reach_ip}, {!solve_full_ip} or the emitted C
          writes (the reach-set itself when [columnwise]) *)
  decisions : Sympiler_trace.Trace.decision list;
      (** the transformation decision log behind [columnwise]: VS-Block
          (fired/declined with the measured average reached-supernode
          width) and VI-Prune (with the pruned-iteration ratio) *)
}
(** Nothing here is written by a solve: every array a solve writes
    belongs to a {!plan}. *)

val vs_block_width : float
(** 1.6: the minimum average width of reached supernodes for VS-Block. *)

val vs_block_waste : float
(** 0.1: the most extra flops, from unreached columns inside hit
    supernodes, that VS-Block may add. *)

val compile : Csc.t -> Vector.sparse -> compiled
(** Symbolic inspection + planning for [L x = b] with the given RHS
    pattern. Numeric values of L and b are free to change afterwards.
    VS-Block is declined ([columnwise]) below {!vs_block_width} or above
    {!vs_block_waste}. *)

(** {2 Plans}

    A plan owns the dense solution buffer and the block scratch, so
    steady-state solves allocate nothing and plans of one compiled
    pattern may run on different domains at once: create once per
    compiled pattern, then call {!solve_ip} as many times as values
    change. *)

type plan = {
  c : compiled;
  x : float array;  (** plan-owned solution *)
  tmp : float array;  (** plan-owned block scratch, [max_below] long *)
}

val make_plan : compiled -> plan

val solve_reach_ip : plan -> float array -> unit
(** [solve_reach_ip p x]: [x] holds b on entry, the solution on exit.
    VI-Prune alone: the flat column loop over the reach-set, what every
    OCaml plan runs. *)

val solve_vs_block_ip : plan -> float array -> unit
(** [solve_vs_block_ip p x]: [x] holds b on entry, the solution on exit;
    the block scratch is [p]'s. VS-Block only: every supernode, generic
    block kernels. *)

val solve_vs_vi_ip : plan -> float array -> unit
(** VS-Block + VI-Prune: only supernodes hit by the reach-set. *)

val solve_full_ip : plan -> float array -> unit
(** Full Figure 1e pipeline: + peeled width-1 path, specialized narrow
    kernels, or {!solve_reach_ip} when compilation chose [columnwise]:
    the operation order of the emitted C. *)

val solve_reach : compiled -> Vector.sparse -> float array
val solve_vs_block : compiled -> Vector.sparse -> float array
val solve_vs_vi : compiled -> Vector.sparse -> float array

val solve_full : compiled -> Vector.sparse -> float array
(** The one-shot solves: each runs on a fresh plan and returns its
    solution buffer. *)

val load_rhs : plan -> Vector.sparse -> unit
(** Zero the [written] entries of the plan's solution buffer and scatter
    [b] into it: the input half of {!solve_ip}, which an executor that
    solves in the same buffer (the native kernel) shares. The rest of the
    buffer stays zero as long as only {!solve_ip} and that kernel write
    it. Raises [Invalid_argument] when [b]'s dimension is not the
    pattern's. *)

val solve_ip : plan -> Vector.sparse -> float array
(** Numeric-only solve into the plan's buffer with {!solve_reach_ip};
    returns that buffer (valid until the next [solve_ip] on the same plan,
    and not to be written by the caller). [b] must have the compiled
    pattern's dimension; zero allocation in steady state. *)
