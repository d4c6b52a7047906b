open Sympiler_sparse
open Sympiler_kernels
open Compile_common

(* The four §3.3 factor families as {!Factor.FAMILY} instances around
   their kernels (Cholesky's is [Cholesky_family]). [Sympiler] applies
   {!Factor.Make} to each, and a [Pipeline]'s factor stage compiles, plans
   and factors through them. *)

module Ldlt = struct
  module K = Sympiler_kernels.Ldlt

  let name = "ldlt"
  let lower = true

  type compiled = K.compiled
  type kplan = K.plan
  type output = K.factors

  (* Rank-update state (GGMS C1): borrows the plan's factor views. *)
  type updown = Rank_update.ldlt_plan

  let compile _ (cp : compiled_pattern) =
    K.compile ~upper:(Lazy.force cp.upper) cp.pattern

  let key _ = [||]
  let make_plan ?ndomains:_ = K.make_plan
  let factor_ip = K.factor_ip
  let view (p : kplan) = p.K.f
  let factor = K.factor
  let flops _ = Float.nan
  let nnz_l (c : compiled) = Sympiler_symbolic.Fill_pattern.nnz_l c.K.fill
  let decisions _ = []

  let native c _ omap = Codegen_static.ldlt c omap
  let outputs (p : kplan) = [| p.K.lx; p.K.f.K.d |]
  let pivot rc = K.Zero_pivot rc
  let updown (p : kplan) _ = Rank_update.make_ldlt_plan p.K.f.K.l p.K.f.K.d
  let refactored _ _ = ()
  let operands (p : kplan) = Factor.L_d (p.K.f.K.l, p.K.f.K.d)

  let sweep_l (c : compiled) _ =
    Some (Factor.positional (Sympiler_symbolic.Fill_pattern.l_view c.K.fill))
end

module Lu = struct
  module K = Sympiler_kernels.Lu

  let name = "lu"
  let lower = false

  type compiled = K.Sympiler.compiled
  type kplan = K.Sympiler.plan
  type output = K.factors

  include Factor.No_updown

  let compile _ (cp : compiled_pattern) = K.Sympiler.compile cp.pattern
  let key _ = [||]
  let make_plan ?ndomains:_ = K.Sympiler.make_plan
  let factor_ip = K.Sympiler.factor_ip
  let view (p : kplan) = p.K.Sympiler.f
  let factor = K.Sympiler.factor
  let flops (c : compiled) = c.K.Sympiler.flops

  let nnz_l (c : compiled) =
    c.K.Sympiler.l_colptr.(c.K.Sympiler.n) + c.K.Sympiler.u_colptr.(c.K.Sympiler.n)

  let decisions _ = []

  let native = Codegen_static.lu
  let outputs (p : kplan) = [| p.K.Sympiler.lx; p.K.Sympiler.ux |]
  let pivot rc = K.Zero_pivot rc
  let operands (p : kplan) = Factor.L_u (p.K.Sympiler.f.K.l, p.K.Sympiler.f.K.u)
  let sweep_l _ _ = None
end

module Ic0 = struct
  module K = Sympiler_kernels.Ic0

  let name = "ic0"
  let lower = true

  type compiled = K.compiled
  type kplan = K.plan
  type output = Csc.t

  include Factor.No_updown

  let compile _ (cp : compiled_pattern) = K.compile cp.pattern
  let key _ = [||]
  let make_plan ?ndomains:_ = K.make_plan
  let factor_ip = K.factor_ip
  let view (p : kplan) = p.K.l
  let factor = K.factor
  let flops (c : compiled) = float_of_int c.K.flops
  let nnz_l (c : compiled) = c.K.colptr.(c.K.n)
  let decisions _ = []

  let native c _ omap = Codegen_static.ic0 c omap
  let outputs (p : kplan) = [| p.K.lx |]
  let pivot rc = K.Not_positive_definite rc
  let operands (p : kplan) = Factor.L p.K.l

  (* L keeps the compiled pattern. When every column stores its diagonal,
     the compile's row lists are exactly the positional ones, so the sweep
     schedule takes them instead of building its own. *)
  let sweep_l (c : compiled) (pattern : Csc.t) =
    if c.K.row_ptr.(c.K.n) + c.K.n <> Csc.nnz pattern then
      Some (Factor.positional pattern)
    else
      Some
        ( pattern,
          fun ~order ->
            {
              Stages.order;
              row_ptr = c.K.row_ptr;
              row_col = c.K.row_col;
              row_pos = c.K.row_pos;
            } )
end

module Ilu0 = struct
  module K = Sympiler_kernels.Ilu0

  let name = "ilu0"
  let lower = false

  type compiled = K.compiled
  type kplan = K.plan
  type output = K.factors

  include Factor.No_updown

  let compile _ (cp : compiled_pattern) = K.compile cp.pattern
  let key _ = [||]
  let make_plan ?ndomains:_ = K.make_plan
  let factor_ip = K.factor_ip
  let view (p : kplan) = p.K.f
  let factor = K.factor
  let flops (c : compiled) = float_of_int c.K.flops
  let nnz_l (c : compiled) = c.K.rowptr.(c.K.n)
  let decisions _ = []

  let native c _ omap = Codegen_static.ilu0 c omap
  let outputs (p : kplan) = [| p.K.f.K.values |]
  let pivot rc = K.Zero_pivot rc
  let operands (p : kplan) = Factor.Csr_lu p.K.f
  let sweep_l _ _ = None
end
