open Sympiler_sparse
open Sympiler_kernels
module Fill = Sympiler_symbolic.Fill_pattern
module Supernodes = Sympiler_symbolic.Supernodes
module Trace = Sympiler_trace.Trace

(* Sparse Cholesky as a factor family: VI-Prune's simplicial executor on
   one fill analysis, and the VS-Block decision of the emitted C.
   [Sympiler.Cholesky] is the {!Factor.Make} instance over this module,
   and a [Pipeline]'s Cholesky stage runs it too, so the decision is
   taken in one place; LDL^T ([Families.Ldlt]) takes it through the same
   function, [vs_block], on the same fill analysis.

   VS-Block runs only where dense block loops pay: in the emitted C,
   whose supernodal kernel beats its simplicial one once the work sits in
   wide supernodes, and not in OCaml, whose supernodal executor loses to
   the simplicial one on every pattern measured (EXPERIMENTS.md, A1). So
   the OCaml plan always runs the simplicial executor, and the native
   plan runs the supernodal kernel when the decision fired. *)

type variant = Supernodal | Simplicial

type compiled = {
  simp : Cholesky_ref.Decoupled.compiled;
  supernodal : bool;  (* the VS-Block decision *)
  flops : float;
  nnz_l : int;
  decisions : Trace.decision list;
}

type kplan = Cholesky_ref.Decoupled.plan

type output = Csc.t

let name = "cholesky"
let lower = true

(* Minimum flop-weighted supernode width (Supernodes.flop_weighted_width)
   for the emitted supernodal C to beat the emitted up-looking simplicial
   C: the crossover measured in EXPERIMENTS.md (A1), for Cholesky and
   LDL^T alike (random_banded 500/30 AMD, width 5.8, loses by 2% and
   32%). *)
let native_width = 6.0

(* Minimum predicted flops for the same: below it the supernodal kernel's
   per-supernode set-up outweighs its dense loops whatever the width. The
   LDL^T shape sets it: AMD-ordered 5-point grids up to 30 x 30 (0.187
   Mflop) lose by 3-14% there, 31 x 31 (0.227 Mflop) and larger win
   (A1). *)
let native_min_flops = 200e3

(* The VS-Block decision of the emitted C, one rule for both symmetric
   families: the supernodal kernel when the flop-weighted width of the
   fill's supernodes and its predicted flops reach the crossover, unless
   [simplicial] pinned the simplicial kernel (the width is then not
   measured, [nan]). Returns the decision and the [vi-prune] and
   [vs-block] records, each also emitted as a trace decision. *)
let vs_block (opts : Options.t) (fill : Fill.t) : bool * Trace.decision list =
  let n = fill.Fill.n in
  let nnz_l = Fill.nnz_l fill in
  let width =
    if opts.Options.simplicial then Float.nan
    else
      let counts = fill.Fill.counts in
      Supernodes.flop_weighted_width ~counts
        (Supernodes.detect_etree ~counts ~parent:fill.Fill.parent ())
  in
  let supernodal =
    width >= native_width && Fill.flops fill >= native_min_flops
  in
  (* VI-Prune always fires: the prune-sets are baked into every kernel.
     Its measured quantity is the fraction of the dense n*(n-1)/2
     candidate updates the pattern removed. *)
  let d_vi =
    {
      Trace.pass = "vi-prune";
      fired = true;
      metric = "pruned_iteration_ratio";
      value =
        (if n < 2 then 0.0
         else
           1.0
           -. float_of_int (nnz_l - n)
              /. (float_of_int n *. float_of_int (n - 1) /. 2.0));
      threshold = 0.0;
    }
  in
  let d_vs =
    {
      Trace.pass = "vs-block";
      fired = supernodal;
      metric = "flop_weighted_width";
      value = width;
      threshold = native_width;
    }
  in
  Trace.decision d_vi;
  Trace.decision d_vs;
  (supernodal, [ d_vi; d_vs ])

let variant (c : compiled) = if c.supernodal then Supernodal else Simplicial

(* The fill analysis and the simplicial executor's gather map both read
   the compiled pattern's upper triangle; the decision reads the cheap
   supernode statistics of the same fill. *)
let compile (opts : Options.t) (cp : Compile_common.compiled_pattern) :
    compiled =
  let upper = Lazy.force cp.Compile_common.upper in
  let fill = Fill.of_upper upper in
  let supernodal, decisions = vs_block opts fill in
  {
    simp =
      Cholesky_ref.Decoupled.compile ~fill ~upper cp.Compile_common.pattern;
    supernodal;
    flops = Fill.flops fill;
    nnz_l = Fill.nnz_l fill;
    decisions;
  }

(* The one option the decision reads. *)
let key (o : Options.t) = [| Bool.to_int o.Options.simplicial |]

(* The supernodal executor over a fill's own L pattern, built at plan time
   with no second fill analysis: its partition and schedule are the ones
   a supernodal compile of the pattern builds, so its factor is the
   emitted supernodal C's, bit for bit (LDL^T's too, with the
   diagonal). *)
let supernodal_executor (f : Fill.t) : Cholesky_supernodal.Sympiler.compiled =
  Cholesky_supernodal.Sympiler.of_analysis
    (Cholesky_supernodal.of_pattern ~l_colptr:f.Fill.l_colptr
       ~l_rowind:f.Fill.l_rowind)

let make_plan (c : compiled) : kplan = Cholesky_ref.Decoupled.make_plan c.simp
let factor_ip = Cholesky_ref.Decoupled.factor_ip
let view (p : kplan) : Csc.t = p.Cholesky_ref.Decoupled.l

let factor (c : compiled) (a_lower : Csc.t) : Csc.t =
  Cholesky_ref.Decoupled.factor c.simp a_lower

let flops (c : compiled) = c.flops
let nnz_l (c : compiled) = c.nnz_l
let decisions (c : compiled) = c.decisions

(* The supernodal kernel where the decision fired, else the up-looking
   simplicial kernel: the OCaml plan's loop, so that native plan equals
   it bit for bit. Both write the CSC arrays of the OCaml plan's
   factor. *)
let native (c : compiled) (pattern : Csc.t) (omap : int array option) =
  let up = c.simp.Cholesky_ref.Decoupled.up in
  if c.supernodal then
    Codegen_supernodal.shaped ~ldlt:false
      (supernodal_executor up.Cholesky_ref.fill)
      pattern omap
  else Codegen_static.up_looking ~cholesky:true up omap

let outputs (p : kplan) = [| (view p).Csc.values |]
let operands (p : kplan) = Factor.L (view p)

(* The fill's L structure. *)
let sweep_l (c : compiled) _ =
  let f = c.simp.Cholesky_ref.Decoupled.up.Cholesky_ref.fill in
  Some
    (Factor.positional
       {
         Csc.nrows = f.Fill.n;
         ncols = f.Fill.n;
         colptr = f.Fill.l_colptr;
         rowind = f.Fill.l_rowind;
         values = [||];
       })

let pivot j = Cholesky_ref.Not_positive_definite j

(* Rank updates (§3.3): the update plan borrows the plan's factor view, so
   updates and refactors stay coherent without copying; every full
   refactor refreshes the incremental-refactor diff baseline. *)
type updown = Rank_update.plan

let updown (p : kplan) (pattern : Csc.t) =
  Rank_update.make_plan ~a_pattern:pattern (view p)

let refactored (rk : updown) (a_lower : Csc.t) =
  Rank_update.note_refactor rk a_lower.Csc.values
