open Sympiler_sparse
open Sympiler_kernels
module Fill = Sympiler_symbolic.Fill_pattern
module Supernodes = Sympiler_symbolic.Supernodes
module Trace = Sympiler_trace.Trace

(* Sparse Cholesky as a factor family: the inspector-guided strategy
   decision (VI-Prune always, VS-Block by the paper's §4.2 threshold on the
   supernode statistics of one fill analysis) and the three executors it
   chooses between — supernodal, simplicial, and the level-parallel
   supernodal one. [Sympiler.Cholesky] is the {!Factor.Make} instance over
   this module, and [Pipeline] calls {!compile_fill} on its shared
   analysis, so the decision is taken in one place.

   VS-Block is decided per executor. The handle's decision picks the OCaml
   executor. The emitted C runs dense loops that the OCaml ones do not, so
   a native plan of a simplicial handle runs the supernodal kernel when
   the work sits in wide supernodes ({!native_upgrade}), unless the caller
   pinned the variant. *)

type variant = Supernodal | Simplicial

type kernel =
  | Sup of Cholesky_supernodal.Sympiler.compiled
  | Simp of Cholesky_ref.Decoupled.compiled

type compiled = {
  kernel : kernel;
  pinned : bool;
      (* the caller fixed the variant ([simplicial], or an explicit
         threshold): native plans follow it too *)
  flops : float;
  nnz_l : int;
  decisions : Trace.decision list;
}

type kplan =
  | PSup of Cholesky_supernodal.Sympiler.plan
  | PSimp of Cholesky_ref.Decoupled.plan
  | PPar of Cholesky_parallel.plan

type output = Csc.t

let name = "cholesky"
let lower = true

(* Minimum average supernode width for VS-Block to pay off in the OCaml
   executors. *)
let default_threshold = 2.0

(* Minimum flop-weighted supernode width (Supernodes.flop_weighted_width)
   for the emitted supernodal C to beat the emitted simplicial C: the
   crossover measured in EXPERIMENTS.md (A1). *)
let native_width = 6.0

let variant (c : compiled) =
  match c.kernel with Sup _ -> Supernodal | Simp _ -> Simplicial

(* The variant decision is taken on the cheap supernode statistics of
   [fill] before any variant-specific planning is built. *)
let compile_fill ~(opts : Options.t) (fill : Fill.t) (a_lower : Csc.t) :
    compiled =
  let n = a_lower.Csc.ncols in
  let nnz_l = fill.Fill.l_pattern.Csc.colptr.(n) in
  let threshold =
    Option.value opts.Options.vs_block_threshold ~default:default_threshold
  in
  let go_supernodal, avg_width =
    if opts.Options.simplicial then (false, Float.nan (* forced: never measured *))
    else
      let sn =
        Supernodes.detect_etree ~counts:fill.Fill.counts ~parent:fill.Fill.parent
          ()
      in
      let w = Supernodes.avg_width sn in
      (w >= threshold, w)
  in
  (* VI-Prune always fires: the prune-sets are baked into both variants.
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
      fired = go_supernodal;
      metric = "avg_supernode_width";
      value = avg_width;
      threshold;
    }
  in
  Trace.decision d_vi;
  Trace.decision d_vs;
  {
    kernel =
      (if go_supernodal then Sup (Cholesky_supernodal.Sympiler.compile ~fill a_lower)
       else Simp (Cholesky_ref.Decoupled.compile ~fill a_lower));
    pinned =
      opts.Options.simplicial || Option.is_some opts.Options.vs_block_threshold;
    flops = Fill.flops fill;
    nnz_l;
    decisions = [ d_vi; d_vs ];
  }

let compile (opts : Options.t) (a_lower : Csc.t) : compiled =
  compile_fill ~opts (Fill.analyze a_lower) a_lower

(* The two options the decision reads. *)
let key (o : Options.t) =
  Array.append
    (Options.fp_threshold o.Options.vs_block_threshold)
    [| Bool.to_int o.Options.simplicial |]

(* [?ndomains] on a supernodal handle: levelize the already-compiled
   supernode DAG (plan-time inspection, no re-analysis) and run levels on
   the persistent domain pool, with the sequential executor's operation
   sequence per target supernode — factors are bitwise-identical for any
   domain count. The simplicial column code has no level schedule, so
   [ndomains] is ignored there. *)
let make_plan ?ndomains (c : compiled) : kplan =
  match (c.kernel, ndomains) with
  | Sup s, Some nd ->
      PPar
        (Cholesky_parallel.make_plan ~ndomains:nd
           (Cholesky_parallel.levelize s))
  | Sup s, None -> PSup (Cholesky_supernodal.Sympiler.make_plan s)
  | Simp s, _ -> PSimp (Cholesky_ref.Decoupled.make_plan s)

let factor_ip (p : kplan) (a_lower : Csc.t) : unit =
  match p with
  | PSup p -> Cholesky_supernodal.Sympiler.factor_ip p a_lower
  | PSimp p -> Cholesky_ref.Decoupled.factor_ip p a_lower
  | PPar p -> Cholesky_parallel.factor_ip p a_lower

let view : kplan -> Csc.t = function
  | PSup p -> p.Cholesky_supernodal.Sympiler.l
  | PSimp p -> p.Cholesky_ref.Decoupled.l
  | PPar p -> p.Cholesky_parallel.l

let factor (c : compiled) (a_lower : Csc.t) : Csc.t =
  match c.kernel with
  | Sup s -> Cholesky_supernodal.Sympiler.factor s a_lower
  | Simp s -> Cholesky_ref.Decoupled.factor s a_lower

let flops (c : compiled) = c.flops
let nnz_l (c : compiled) = c.nnz_l
let decisions (c : compiled) = c.decisions

(* The supernodal analysis of an unpinned simplicial handle's own L
   pattern when its flop-weighted width reaches [native_width]: built at
   native plan time from the column pattern, with no second fill
   analysis. *)
let native_upgrade (c : compiled) : Cholesky_supernodal.analysis option =
  match c.kernel with
  | Simp s when not c.pinned ->
      let module D = Cholesky_ref.Decoupled in
      let an =
        Cholesky_supernodal.of_pattern ~l_colptr:s.D.l_colptr
          ~l_rowind:s.D.l_rowind
      in
      if Cholesky_supernodal.flop_weighted_width an >= native_width then Some an
      else None
  | _ -> None

(* The kernel a native plan of the handle runs. *)
let native_variant (c : compiled) =
  match c.kernel with
  | Sup _ -> Supernodal
  | Simp _ -> if native_upgrade c = None then Simplicial else Supernodal

(* The supernodal kernel, or the left-looking simplicial kernel of the IR
   pipeline over the compiled handle's own pattern arrays: its prune-sets
   are the row patterns the up-looking OCaml executor iterates. Both write
   the same CSC arrays, so an upgraded simplicial plan's factor is the
   OCaml plan's [lx]. *)
let native (c : compiled) (pattern : Csc.t) (omap : int array option) =
  match (c.kernel, native_upgrade c) with
  | Sup s, _ -> Codegen_supernodal.shaped s pattern omap
  | Simp _, Some an ->
      Codegen_supernodal.shaped
        (Cholesky_supernodal.Sympiler.of_analysis an)
        pattern omap
  | Simp s, None ->
      let module P = Sympiler_ir.Pipeline in
      let module D = Cholesky_ref.Decoupled in
      P.cholesky_shaped
        (P.cholesky_kernel ~ordered:(omap <> None) ())
        ?amap:omap pattern ~lp:s.D.l_colptr ~li:s.D.l_rowind
        ~row_ptr:s.D.rp_ptr ~row_set:s.D.rp_ind

let outputs (p : kplan) = [| (view p).Csc.values |]

let pivot j = Cholesky_ref.Not_positive_definite j

(* Rank updates (§3.3): the update plan borrows the plan's factor view, so
   updates and refactors stay coherent without copying; every full
   refactor refreshes the incremental-refactor diff baseline. *)
type updown = Rank_update.plan

let updown (p : kplan) (pattern : Csc.t) =
  Rank_update.make_plan ~a_pattern:pattern (view p)

let refactored (rk : updown) (a_lower : Csc.t) =
  Rank_update.note_refactor rk a_lower.Csc.values
