open Sympiler_sparse
open Sympiler_kernels
module Fill = Sympiler_symbolic.Fill_pattern
module Supernodes = Sympiler_symbolic.Supernodes
module Trace = Sympiler_trace.Trace

(* Sparse Cholesky as a factor family: VI-Prune's simplicial executor on
   one fill analysis, and the VS-Block decision of the emitted C.
   [Sympiler.Cholesky] is the {!Factor.Make} instance over this module,
   and a [Pipeline]'s Cholesky stage runs it too, so the decision is
   taken in one place.

   VS-Block runs only where dense block loops pay: in the emitted C,
   whose supernodal kernel beats its simplicial one once the work sits in
   wide supernodes, and not in OCaml, whose supernodal executor loses to
   the simplicial one on every pattern measured (EXPERIMENTS.md, A1). So
   the sequential OCaml plan always runs the simplicial executor; the
   native plan runs the supernodal kernel, and a plan with [ndomains] the
   level-parallel supernodal executor, when the decision fired. *)

type variant = Supernodal | Simplicial

type compiled = {
  simp : Cholesky_ref.Decoupled.compiled;
  supernodal : bool;  (* the VS-Block decision *)
  flops : float;
  nnz_l : int;
  decisions : Trace.decision list;
}

type kplan =
  | PSimp of Cholesky_ref.Decoupled.plan
  | PPar of Cholesky_parallel.plan

type output = Csc.t

let name = "cholesky"
let lower = true

(* Minimum flop-weighted supernode width (Supernodes.flop_weighted_width)
   for the emitted supernodal C to beat the emitted simplicial C: the
   crossover measured in EXPERIMENTS.md (A1). *)
let native_width = 6.0

(* Minimum predicted flops for the same: below it the supernodal kernel's
   per-supernode set-up outweighs its dense loops whatever the width (the
   21 x 21 and 22 x 22 AMD grids, 0.057 and 0.069 Mflop, lose by 20%; the
   23 x 23 one, 0.081 Mflop, breaks even; A1). *)
let native_min_flops = 75e3

let variant (c : compiled) = if c.supernodal then Supernodal else Simplicial

(* The fill analysis and the simplicial executor's gather map both read
   the compiled pattern's upper triangle; the decision reads the cheap
   supernode statistics of the same fill. [simplicial] pins the simplicial
   kernel without measuring. *)
let compile (opts : Options.t) (cp : Compile_common.compiled_pattern) :
    compiled =
  let upper = Lazy.force cp.Compile_common.upper in
  let fill = Fill.of_upper upper in
  let a_lower = cp.Compile_common.pattern in
  let n = a_lower.Csc.ncols in
  let nnz_l = Fill.nnz_l fill in
  let flops = Fill.flops fill in
  let width =
    if opts.Options.simplicial then Float.nan (* pinned: never measured *)
    else
      let counts = fill.Fill.counts in
      Supernodes.flop_weighted_width ~counts
        (Supernodes.detect_etree ~counts ~parent:fill.Fill.parent ())
  in
  let supernodal = width >= native_width && flops >= native_min_flops in
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
  {
    simp = Cholesky_ref.Decoupled.compile ~fill ~upper a_lower;
    supernodal;
    flops;
    nnz_l;
    decisions = [ d_vi; d_vs ];
  }

(* The one option the decision reads. *)
let key (o : Options.t) = [| Bool.to_int o.Options.simplicial |]

(* The supernodal executor over the handle's own L pattern, built at plan
   time with no second fill analysis: its partition and schedule are the
   ones a supernodal compile of the pattern builds, so its factor is the
   emitted supernodal C's, bit for bit. *)
let supernodal_executor (c : compiled) :
    Cholesky_supernodal.Sympiler.compiled =
  let f = c.simp.Cholesky_ref.Decoupled.up.Cholesky_ref.fill in
  Cholesky_supernodal.Sympiler.of_analysis
    (Cholesky_supernodal.of_pattern ~l_colptr:f.Fill.l_colptr
       ~l_rowind:f.Fill.l_rowind)

(* [?ndomains] where the decision fired: levelize the supernode DAG
   (plan-time inspection) and run levels on the persistent domain pool,
   with the sequential executor's operation sequence per target
   supernode — factors are bitwise-identical for any domain count.
   Elsewhere the simplicial column code, which has no level schedule,
   ignores [ndomains]. *)
let make_plan ?ndomains (c : compiled) : kplan =
  match ndomains with
  | Some nd when c.supernodal ->
      PPar
        (Cholesky_parallel.make_plan ~ndomains:nd
           (Cholesky_parallel.levelize (supernodal_executor c)))
  | _ -> PSimp (Cholesky_ref.Decoupled.make_plan c.simp)

let factor_ip (p : kplan) (a_lower : Csc.t) : unit =
  match p with
  | PSimp p -> Cholesky_ref.Decoupled.factor_ip p a_lower
  | PPar p -> Cholesky_parallel.factor_ip p a_lower

let view : kplan -> Csc.t = function
  | PSimp p -> p.Cholesky_ref.Decoupled.l
  | PPar p -> p.Cholesky_parallel.l

let factor (c : compiled) (a_lower : Csc.t) : Csc.t =
  Cholesky_ref.Decoupled.factor c.simp a_lower

let flops (c : compiled) = c.flops
let nnz_l (c : compiled) = c.nnz_l
let decisions (c : compiled) = c.decisions

(* The supernodal kernel where the decision fired, else the left-looking
   simplicial kernel of the IR pipeline over the handle's own pattern
   arrays: its prune-sets are the row patterns the up-looking OCaml
   executor iterates. Both write the CSC arrays of the OCaml plan's
   factor. *)
let native (c : compiled) (pattern : Csc.t) (omap : int array option) =
  if c.supernodal then
    Codegen_supernodal.shaped (supernodal_executor c) pattern omap
  else
    let module P = Sympiler_ir.Pipeline in
    let f = c.simp.Cholesky_ref.Decoupled.up.Cholesky_ref.fill in
    P.cholesky_shaped
      (P.cholesky_kernel ~ordered:(omap <> None) ())
      ?amap:omap pattern ~lp:f.Fill.l_colptr ~li:f.Fill.l_rowind
      ~row_ptr:f.Fill.row_ptr ~row_set:f.Fill.row_ind

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
