open Sympiler_sparse
open Sympiler_symbolic

(* The Sympiler phase pipeline of Figure 2: symbolic inspection, lowering,
   inspector-guided transformations, low-level transformations, code
   generation. Produces both the transformed kernel AST (executable through
   [Interp]) and the final C source.

   Every pass opens a trace span: inspector runs "symbolic.inspect", AST
   work a "codegen:<pass>" span per pass — so `sympiler_cli --trace`
   attributes compile time to individual passes. The transformation passes
   also record decision events (fired/declined plus the measured quantity
   that drove the choice) for `sympiler explain` and trace exports. *)

module Trace = Sympiler_trace.Trace

let inspect f = Trace.with_span "symbolic.inspect" f

(* Pruned-iteration ratio of a VI-Prune set over an n-iteration loop:
   fraction of iterations the transformation removed. *)
let pruned_ratio ~n kept =
  if n = 0 then 0.0 else 1.0 -. (float_of_int kept /. float_of_int n)

type result = {
  kernel : Ast.kernel;
  c_code : string;
  inspectors : string list; (* human-readable inspector descriptions *)
  tmp_size : int; (* required scratch size for the "tmp" parameter, if any *)
}

(* Triangular solve: choose any of the three transformation layers; the
   defaults build the full Figure 1e pipeline. VS-Block is applied before
   VI-Prune, the ordering §4.2 finds superior. *)
let trisolve ?(vs_block = true) ?(vi_prune = true) ?(low_level = true)
    (l : Csc.t) (b : Vector.sparse) : result =
  Trace.with_span "pipeline.trisolve" @@ fun () ->
  let kernel =
    Trace.with_span "codegen:lower" (fun () -> Build.lower_trisolve l)
  in
  let inspectors = ref [] in
  let kernel, tmp_size, prune_set, peel =
    if vs_block then begin
      let insp = Inspector.trisolve_vs_block l in
      inspectors := Inspector.describe insp :: !inspectors;
      let sn =
        match inspect insp.Inspector.run with
        | Inspector.Block_set sn -> sn
        | _ -> assert false
      in
      Trace.decision
        {
          Trace.pass = "vs-block";
          fired = true;
          metric = "avg_supernode_width";
          value = Supernodes.avg_width sn;
          threshold = 0.0;
        };
      let kernel =
        Trace.with_span "codegen:vs-block" (fun () ->
            Vs_block.apply_trisolve l sn kernel)
      in
      (* Prune set over blocks: supernodes hit by the reach-set. *)
      let insp2 = Inspector.trisolve_vi_prune l b in
      inspectors := Inspector.describe insp2 :: !inspectors;
      let reach =
        match inspect insp2.Inspector.run with
        | Inspector.Prune_set r -> r
        | _ -> assert false
      in
      let hit = Array.make (Supernodes.nsuper sn) false in
      Array.iter (fun j -> hit.(sn.Supernodes.col_to_sn.(j)) <- true) reach;
      let seq = ref [] in
      for s = Supernodes.nsuper sn - 1 downto 0 do
        if hit.(s) then seq := s :: !seq
      done;
      let prune_set = Array.of_list !seq in
      Trace.decision
        {
          Trace.pass = "vi-prune";
          fired = vi_prune;
          metric = "pruned_iteration_ratio";
          value = pruned_ratio ~n:(Supernodes.nsuper sn) (Array.length prune_set);
          threshold = 0.0;
        };
      (* Peel width-1 blocks: they reduce to the scalar column update.
         Wider blocks keep the loop, whose bounds stay variables. *)
      let peel =
        if low_level then
          List.filter
            (fun pos -> Supernodes.width sn prune_set.(pos) = 1)
            (List.init (Array.length prune_set) Fun.id)
        else []
      in
      (kernel, Vs_block.max_below l sn, prune_set, peel)
    end
    else begin
      let insp = Inspector.trisolve_vi_prune l b in
      inspectors := Inspector.describe insp :: !inspectors;
      let reach =
        match inspect insp.Inspector.run with
        | Inspector.Prune_set r -> r
        | _ -> assert false
      in
      Trace.decision
        {
          Trace.pass = "vs-block";
          fired = false;
          metric = "avg_supernode_width";
          value = Float.nan (* declined by configuration: never measured *);
          threshold = 0.0;
        };
      Trace.decision
        {
          Trace.pass = "vi-prune";
          fired = vi_prune;
          metric = "pruned_iteration_ratio";
          value = pruned_ratio ~n:l.Csc.ncols (Array.length reach);
          threshold = 0.0;
        };
      (* Figure 1e peels reach-set iterations whose column count exceeds
         2. *)
      let peel =
        if low_level then
          Vi_prune.peel_positions ~col_nnz:(Csc.col_nnz l) ~threshold:2 reach
        else []
      in
      (kernel, 0, reach, peel)
    end
  in
  let kernel =
    if vi_prune then
      Trace.with_span "codegen:vi-prune" (fun () ->
          Vi_prune.apply ~set_name:"pruneSet" ~peel ~vectorize:low_level
            prune_set kernel)
    else kernel
  in
  let kernel =
    if low_level then
      Trace.with_span "codegen:low-level" (fun () -> Lowlevel.apply kernel)
    else kernel
  in
  {
    kernel;
    c_code =
      Trace.with_span "codegen:emit" (fun () -> Pretty_c.kernel_to_c kernel);
    inspectors = List.rev !inspectors;
    tmp_size;
  }

(* Cholesky: the lowered code is already VI-Pruned (prune-sets precomputed
   by [Build.cholesky_data], matching the paper's Figure 7 baseline); the
   low-level stage applies scalar replacement and distribution. The kernel
   takes its pattern as arguments, so its text is one per shape: natural,
   or [ordered] (reading its input through the ordering's gather map). *)
let cholesky_kernel ?(low_level = true) ~ordered () : Ast.kernel =
  let kernel =
    Trace.with_span "codegen:lower" (fun () -> Build.lower_cholesky ~ordered)
  in
  if low_level then
    Trace.with_span "codegen:low-level" (fun () -> Lowlevel.apply kernel)
  else kernel

(* The one builder from a pattern to its Cholesky kernel: [k] bound to
   the arrays [Build.cholesky_data] derives from lower(A), L's pattern and
   L's packed row patterns, plus [amap] for an ordered kernel. The text is
   the kernel, then a checked form of it that reports the first column
   whose diagonal is not positive: where the OCaml executors raise
   [Not_positive_definite] (a NaN diagonal counts too). Both leave [f]
   zeroed. The artifact's entry keeps the kernel's historical name and
   void signature. *)
let cholesky_shaped (k : Ast.kernel) ?amap (a_lower : Csc.t) ~lp ~li ~row_ptr
    ~row_set : Pretty_c.shaped =
  if List.mem_assoc "amap" k.Ast.params <> Option.is_some amap then
    invalid_arg "Pipeline.cholesky_shaped: amap does not match the kernel";
  let n = a_lower.Csc.ncols in
  let data =
    Build.cholesky_data a_lower ~lp ~li ~row_ptr ~row_set
    @ Option.fold ~none:[] ~some:(fun m -> [ ("amap", m) ]) amap
  in
  let text =
    Printf.sprintf
      "#include <math.h>\n\n\
       /* %s: left-looking simplicial Cholesky (VI-Pruned), generated by\n\
      \   Sympiler for one kernel shape; the sparsity pattern is passed as\n\
      \   arguments. */\n\
       %s\n\
       /* The kernel, then the first column whose diagonal is not positive,\n\
      \   or -1. */\n\
       int cholesky_checked(%s) {\n\
      \  %s(%s);\n\
      \  for (int j = 0; j < n; j++)\n\
      \    if (!(Lx[Lp[j]] > 0.0)) return j;\n\
      \  return -1;\n\
       }\n"
      k.Ast.kname (Pretty_c.function_to_c k) (Pretty_c.params_to_c k)
      k.Ast.kname
      (String.concat ", " (List.map fst k.Ast.params))
  in
  let entry =
    Pretty_c.entry
      ~signature:
        "void cholesky(double *restrict Ax, double *restrict Lx, double \
         *restrict f)"
      ~ret:false ~kname:k.Ast.kname ~n ~data [ "Ax"; "Lx"; "f" ]
  in
  {
    Pretty_c.kname = "cholesky_checked";
    text;
    n;
    data;
    iwork = [];
    fwork = [ n ];
    entry = Some entry;
  }

(* The solve's kernel file already holds its pattern as constants, so the
   shaped form carries no pattern data and no artifact entry; the
   adapter only puts the kernel's arguments in the native engine's
   order (size, input Lx, output x, float workspace tmp). *)
let trisolve_shaped ~vs_block (l : Csc.t) (b : Vector.sparse) :
    Pretty_c.shaped =
  let r = trisolve ~vs_block l b in
  let k = r.kernel in
  let text =
    Printf.sprintf
      "%s\n\
       /* The native engine's entry: the input is Lx, the output x. */\n\
       int trisolve_native(int n, %s) {\n\
      \  (void)n;\n\
      \  %s(%s);\n\
      \  return -1;\n\
       }\n"
      r.c_code (Pretty_c.params_to_c k) k.Ast.kname
      (String.concat ", " (List.map fst k.Ast.params))
  in
  {
    Pretty_c.kname = "trisolve_native";
    text;
    n = l.Csc.ncols;
    data = [];
    iwork = [];
    fwork = (if List.mem_assoc "tmp" k.Ast.params then [ r.tmp_size ] else []);
    entry = None;
  }

let cholesky ?low_level (a_lower : Csc.t) : result =
  Trace.with_span "pipeline.cholesky" @@ fun () ->
  let fill = Fill_pattern.analyze a_lower in
  let insp = Inspector.cholesky_vi_prune fill in
  (* The prune-sets iterate nnz(L) - n row entries instead of the dense
     n*(n-1)/2 candidate updates of the unpruned loop nest. *)
  let n = fill.Fill_pattern.n in
  let dense_updates = n * (n - 1) / 2 in
  Trace.decision
    {
      Trace.pass = "vi-prune";
      fired = true;
      metric = "pruned_iteration_ratio";
      value = pruned_ratio ~n:dense_updates (Fill_pattern.nnz_l fill - n);
      threshold = 0.0;
    };
  let kernel = cholesky_kernel ?low_level ~ordered:false () in
  let shaped =
    cholesky_shaped kernel a_lower ~lp:fill.Fill_pattern.l_colptr
      ~li:fill.Fill_pattern.l_rowind ~row_ptr:fill.Fill_pattern.row_ptr
      ~row_set:fill.Fill_pattern.row_ind
  in
  {
    kernel;
    c_code =
      Trace.with_span "codegen:emit" (fun () -> Pretty_c.artifact shaped);
    inspectors = [ Inspector.describe insp ];
    tmp_size = 0;
  }

(* ---- Interpreter-backed execution of pipeline results (used by tests
   and examples; benchmarks use the native executors in
   [Sympiler_kernels]). ---- *)

let run_trisolve (r : result) (l : Csc.t) (b : Vector.sparse) : float array =
  let x = Vector.sparse_to_dense b in
  let args =
    [
      ("Lx", Interp.VFloatArr l.Csc.values);
      ("x", Interp.VFloatArr x);
      ("tmp", Interp.VFloatArr (Array.make (max 1 r.tmp_size) 0.0));
    ]
  in
  Interp.run_kernel r.kernel args;
  x

let run_cholesky (k : Ast.kernel) (s : Pretty_c.shaped) (ax : float array) :
    float array =
  let n = s.Pretty_c.n in
  let lx = Array.make (List.assoc "Lp" s.Pretty_c.data).(n) 0.0 in
  let args =
    [
      ("n", Interp.VInt n);
      ("Ax", Interp.VFloatArr ax);
      ("Lx", Interp.VFloatArr lx);
      ("f", Interp.VFloatArr (Array.make n 0.0));
    ]
    @ List.map (fun (name, a) -> (name, Interp.VIntArr a)) s.Pretty_c.data
  in
  Interp.run_kernel k args;
  lx
