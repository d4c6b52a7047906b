open Sympiler_sparse
open Sympiler_kernels
module Pl = Sympiler.Pipeline
module Dep_graph = Sympiler_symbolic.Dep_graph

(* Level-ordered triangular sweeps. The scheduled executors must equal the
   column sweeps bit for bit under any topological order (NaN, infinities
   and signed zeros included); the pipeline must select them exactly where
   its structural rule says and, when it does, keep fused == staged; and
   every Stages entry point must reject a wrong-length vector by name. *)

(* ---- shapes ---- *)

let lower_of_cols n (cols : int -> (int * float) list) : Csc.t =
  let tr = Triplet.create ~nrows:n ~ncols:n () in
  for j = 0 to n - 1 do
    List.iter (fun (i, v) -> Triplet.add tr i j v) (cols j)
  done;
  Csc.of_triplet tr

let diagonal n = lower_of_cols n (fun j -> [ (j, 2.0 +. float_of_int j) ])

(* Column 0 reaches every row: one dependence, then n-1 independent rows. *)
let arrowhead n =
  lower_of_cols n (fun j ->
      if j = 0 then List.init n (fun i -> (i, if i = 0 then 4.0 else 0.5))
      else [ (j, 3.0) ])

let tridiagonal n =
  lower_of_cols n (fun j ->
      (j, 4.0) :: (if j + 1 < n then [ (j + 1, -1.0) ] else []))

let grid_lower ?(stencil = `Five) side =
  Csc.lower (Generators.grid2d ~stencil side side)

(* ---- the law: scheduled sweeps == column sweeps, bit for bit ---- *)

let specials = [| Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0 |]

(* Replace about a fifth of the entries by NaN, +-Inf or +-0.0. *)
let sprinkle rng (v : float array) =
  Array.map
    (fun x ->
      if Random.State.int rng 5 = 0 then
        specials.(Random.State.int rng (Array.length specials))
      else x)
    v

let gen_case : (Csc.t * float array) QCheck.Gen.t =
  QCheck.Gen.(
    let* shape = int_range 0 6 in
    let* size = int_range 1 40 in
    let* l =
      match shape with
      | 0 | 1 -> Helpers.gen_lower
      | 2 -> return (diagonal 0)
      | 3 -> return (diagonal 1)
      | 4 -> return (diagonal size)
      | 5 -> return (arrowhead size)
      | _ -> return (tridiagonal size)
    in
    let* seed = int_range 0 10000 in
    let* special = bool in
    let rng = Random.State.make [| seed |] in
    let n = l.Csc.ncols in
    let x = Array.init n (fun _ -> Random.State.float rng 2.0 -. 1.0) in
    if special then
      return ({ l with Csc.values = sprinkle rng l.Csc.values }, sprinkle rng x)
    else return (l, x))

let arb_case =
  QCheck.make
    ~print:(fun (l, _) ->
      Printf.sprintf "lower n=%d nnz=%d" l.Csc.ncols (Csc.nnz l))
    gen_case

let sweep_pairs =
  [
    (Stages.lower_ip, Stages.lower_sched_ip);
    (Stages.ltrans_ip, Stages.ltrans_sched_ip);
    (Stages.solve_pair_ip, Stages.solve_pair_sched_ip);
  ]

let qcheck_sched_is_column =
  Helpers.qtest ~count:200
    "scheduled sweeps == column sweeps (bitwise) for any window" arb_case
    (fun (l, x) ->
      let n = l.Csc.ncols in
      List.for_all
        (fun window ->
          let _, order = Dep_graph.level_order ~window l in
          let s = Stages.schedule ~order l in
          Dep_graph.is_topological l order
          && List.for_all
               (fun (column, scheduled) ->
                 let xc = Array.copy x and xs = Array.copy x in
                 column l xc;
                 scheduled l s xs;
                 Helpers.same_bits xc xs)
               sweep_pairs)
        [ max 1 n; 1; 3; 7 ])

(* Oracle for one run: every column's level as the longest path to it
   (relaxed to a fixpoint, which needs no argument about column order),
   then the columns sorted by (level, index). *)
let oracle_levels (l : Csc.t) : int array * int array =
  let n = l.Csc.ncols in
  let level = Array.make n 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    Csc.iter l (fun i j _ ->
        if i > j && level.(i) < level.(j) + 1 then begin
          level.(i) <- level.(j) + 1;
          changed := true
        end)
  done;
  let nlevels = if n = 0 then 0 else 1 + Array.fold_left max 0 level in
  let level_ptr = Array.make (nlevels + 1) 0 in
  Array.iter (fun d -> level_ptr.(d + 1) <- level_ptr.(d + 1) + 1) level;
  for d = 1 to nlevels do
    level_ptr.(d) <- level_ptr.(d) + level_ptr.(d - 1)
  done;
  let order = List.sort compare (List.init n (fun j -> (level.(j), j))) in
  (level_ptr, Array.of_list (List.map snd order))

(* The windowed oracle: the run oracle on each diagonal block of [window]
   columns, shifted back to global indices and concatenated. *)
let oracle_window ~window (l : Csc.t) : int array * int array =
  let n = l.Csc.ncols in
  let ptrs = ref [] and orders = ref [] in
  let b = ref 0 in
  while !b < n do
    let lo = !b in
    let hi = min n (lo + window) in
    let block =
      lower_of_cols (hi - lo) (fun j ->
          let acc = ref [] in
          Csc.iter_col l (lo + j) (fun i v ->
              if i < hi then acc := (i - lo, v) :: !acc);
          !acc)
    in
    let ptr, order = oracle_levels block in
    let starts = Array.sub ptr 0 (Array.length ptr - 1) in
    ptrs := Array.map (fun p -> p + lo) starts :: !ptrs;
    orders := Array.map (fun j -> j + lo) order :: !orders;
    b := hi
  done;
  ( Array.concat (List.rev ([| n |] :: !ptrs)),
    Array.concat (List.rev !orders) )

let test_level_order_oracle () =
  List.iter
    (fun (name, l) ->
      List.iter
        (fun window ->
          let ptr, order = Dep_graph.level_order ~window l in
          let ptr', order' = oracle_window ~window l in
          let what = Printf.sprintf "%s, window %d" name window in
          Alcotest.(check (array int)) (what ^ ": order") order' order;
          Alcotest.(check (array int)) (what ^ ": level_ptr") ptr' ptr)
        [ max 1 l.Csc.ncols; 1; 3; 7; 64 ])
    [
      ("grid 30", grid_lower 30);
      ("grid9 12", grid_lower ~stencil:`Nine 12);
      ("tridiagonal", tridiagonal 50);
      ("arrowhead", arrowhead 20);
      ("figure 1", Helpers.figure1_l);
      ("random", Generators.random_lower ~seed:3 ~n:70 ~density:0.1 ());
      ("empty", diagonal 0);
    ];
  (* the one-window order is the global level schedule *)
  let level_ptr, _ = Dep_graph.level_order ~window:100 (grid_lower 10) in
  Alcotest.(check int) "grid 10x10: 19 levels" 20 (Array.length level_ptr)

(* ---- the pipeline rule: which chains it selects ---- *)

let sweep_decision t =
  match
    List.filter
      (fun d -> d.Sympiler.Trace.pass = "level-sweep")
      (Pl.decisions t)
  with
  | [ d ] -> d
  | ds ->
      Alcotest.failf "expected one level-sweep decision, got %d"
        (List.length ds)

let selected t = (sweep_decision t).Sympiler.Trace.fired

let test_pinned_decisions () =
  let ic0 = Pl.factor_solve `Ic0 and chol = Pl.factor_solve `Cholesky in
  let factorless = Pl.of_stages [ Pl.Lower_solve; Pl.Upper_solve ] in
  List.iter
    (fun (name, dag, m) ->
      Alcotest.(check bool) (name ^ " is level-swept") true
        (selected (Pl.compile dag m)))
    [
      ("IC(0), natural 5-point 40x40", ic0, grid_lower 40);
      ("IC(0), natural 5-point 28x28", ic0, grid_lower 28);
      ("IC(0), natural 9-point 30x30", ic0, grid_lower ~stencil:`Nine 30);
      ("IC(0), natural 5-point 300x300", ic0, grid_lower 300);
      ("factorless lower(grid 40)", factorless, grid_lower 40);
    ];
  List.iter
    (fun (name, dag, m) ->
      Alcotest.(check bool) (name ^ " keeps the column sweeps") false
        (selected (Pl.compile dag m)))
    [
      ("tridiagonal chain", factorless, tridiagonal 200);
      ("IC(0) tridiagonal", ic0, tridiagonal 200);
      ("filled Cholesky, natural grid 20", chol, grid_lower 20);
      ( "clique chain",
        ic0,
        Csc.lower
          (Generators.clique_chain ~seed:3 ~n:120 ~clique:10 ~overlap:3 ()) );
      ( "LU (no CSC L sweep)",
        Pl.factor_solve `Lu,
        Generators.grid2d ~stencil:`Five 20 20 );
      ("no triangular stage", Pl.stage Pl.Spmv, grid_lower 20);
    ];
  List.iter
    (fun (p : Sympiler.Suite.prepared) ->
      List.iter
        (fun (fam, dag) ->
          let t = Pl.compile dag p.Sympiler.Suite.a_lower in
          let d = sweep_decision t in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s keeps the column sweeps (share %.3f)"
               p.Sympiler.Suite.name fam d.Sympiler.Trace.value)
            false d.Sympiler.Trace.fired)
        [ ("cholesky", chol); ("ic0", ic0) ])
    (Sympiler.Suite.all ())

(* ---- fused == staged where the rule selects ---- *)

let rhs n = Array.init n (fun i -> cos (float_of_int (3 * i)))

let test_selected_fused_is_staged () =
  let al = grid_lower 40 in
  let n = al.Csc.ncols in
  let b = rhs n in
  List.iter
    (fun (name, stages, m) ->
      let t = Pl.compile (Pl.of_stages stages) m in
      Alcotest.(check bool) (name ^ ": selected") true (selected t);
      let p = Pl.plan t in
      let xf = Array.copy (Pl.execute_ip p ~a:m b) in
      Helpers.bitwise (name ^ ": fused == staged") xf
        (Pl.staged_execute_ip p ~a:m b);
      let xf' = Array.copy (Pl.execute_ip p b) in
      Helpers.bitwise (name ^ ": apply-only fused == staged") xf'
        (Pl.staged_execute_ip p b))
    [
      ("IC(0)", [ Pl.Factor `Ic0; Pl.Solve ], al);
      ("Spmv then IC(0)", [ Pl.Spmv; Pl.Factor `Ic0; Pl.Solve ], al);
      ( "IC(0), split sweeps",
        [ Pl.Factor `Ic0; Pl.Lower_solve; Pl.Spmv; Pl.Upper_solve ],
        al );
      ("factorless lower(grid)", [ Pl.Lower_solve; Pl.Upper_solve ], al);
      ( "factorless, split sweeps",
        [ Pl.Lower_solve; Pl.Spmv; Pl.Upper_solve ],
        al );
    ];
  (* the factorless chain also equals the column-sweep oracle *)
  let t = Pl.compile (Pl.of_stages [ Pl.Lower_solve; Pl.Upper_solve ]) al in
  let y = Array.copy b in
  Stages.lower_ip al y;
  Stages.ltrans_ip al y;
  Helpers.bitwise "factorless level sweep == Stages oracle" y
    (Pl.execute_ip (Pl.plan t) b)

(* Two selected IC(0) shapes beyond the basic grid: a grid wider than one
   2048-column window, and a pattern whose column 5 stores no diagonal.
   There the IC(0) row lists (entries below the diagonal) differ from the
   sweep's positional ones (entries past each column's head), so the
   pipeline must build its own. Positive values keep that column's pivot,
   its first stored entry, positive. *)
let test_ic0_shapes () =
  let no_diag =
    let g = grid_lower 40 in
    let dropped = Csc.filter g (fun i j _ -> not (i = 5 && j = 5)) in
    { dropped with Csc.values = Array.map Float.abs dropped.Csc.values }
  in
  List.iter
    (fun (name, al) ->
      let t = Pl.compile (Pl.factor_solve `Ic0) al in
      Alcotest.(check bool) (name ^ ": selected") true (selected t);
      let p = Pl.plan t in
      let b = rhs al.Csc.ncols in
      let xf = Array.copy (Pl.execute_ip p ~a:al b) in
      Helpers.bitwise (name ^ ": fused == staged") xf
        (Pl.staged_execute_ip p ~a:al b))
    [
      ("60x60, two windows", grid_lower 60);
      ("no diagonal in column 5", no_diag);
    ]

(* ---- Stages entry points reject wrong lengths by name ---- *)

let raises_named name f =
  let prefix = "Stages." ^ name ^ ":" in
  let ok =
    try
      f ();
      false
    with Invalid_argument msg ->
      String.length msg >= String.length prefix
      && String.sub msg 0 (String.length prefix) = prefix
  in
  Alcotest.(check bool) (name ^ " rejects a wrong length by name") true ok

let test_stage_lengths () =
  let a = Generators.grid2d ~stencil:`Five 4 4 in
  let n = a.Csc.ncols in
  let l = Ic0.factorize (Csc.lower a) in
  let u = Csc.transpose l in
  let ilu = Ilu0.factorize a in
  let rowptr = ilu.Ilu0.c.Ilu0.rowptr and colind = ilu.Ilu0.c.Ilu0.colind in
  let diag = ilu.Ilu0.c.Ilu0.diag and v = ilu.Ilu0.values in
  let s = Stages.schedule ~order:(snd (Dep_graph.level_order ~window:n l)) l in
  let short = { s with Stages.order = Array.sub s.Stages.order 0 3 } in
  let ones k = Array.make k 1.0 in
  (* [dot] first: at a build without the checks, it only reads *)
  List.iter
    (fun (name, f) -> raises_named name f)
    [
      ("dot", fun () -> ignore (Stages.dot [| 1.; 2.; 3. |] [| 1. |]));
      ("spmv_into", fun () -> Stages.spmv_into a (ones n) (ones 3));
      ("spmv_into", fun () -> Stages.spmv_into a (ones 3) (ones n));
      ( "axpy2_ip",
        fun () -> Stages.axpy2_ip ~alpha:1.0 (ones 3) (ones n) (ones n) (ones n)
      );
      ( "axpy2_ip",
        fun () -> Stages.axpy2_ip ~alpha:1.0 (ones n) (ones n) (ones n) (ones 3)
      );
      ("lower_ip", fun () -> Stages.lower_ip l (ones 3));
      ("ltrans_ip", fun () -> Stages.ltrans_ip l (ones 3));
      ("solve_pair_ip", fun () -> Stages.solve_pair_ip l (ones 3));
      ("upper_ip", fun () -> Stages.upper_ip u (ones 3));
      ("diag_ip", fun () -> Stages.diag_ip (ones n) (ones 3));
      ( "csr_lower_unit_ip",
        fun () -> Stages.csr_lower_unit_ip ~rowptr ~colind ~diag v (ones 3) );
      ( "csr_upper_ip",
        fun () -> Stages.csr_upper_ip ~rowptr ~colind ~diag v (ones 3) );
      ( "csr_upper_ip",
        fun () -> Stages.csr_upper_ip ~rowptr ~colind ~diag [| 1.0 |] (ones n)
      );
      ( "csr_upper_ip",
        fun () ->
          Stages.csr_upper_ip ~rowptr:(Array.sub rowptr 0 3) ~colind ~diag v
            (ones n) );
      ("lower_sched_ip", fun () -> Stages.lower_sched_ip l s (ones 3));
      ( "lower_range_ip",
        fun () -> Stages.lower_range_ip l s ~lo:0 ~hi:n (ones 3) );
      ( "lower_range_ip",
        fun () -> Stages.lower_range_ip l s ~lo:2 ~hi:(n + 1) (ones n) );
      ( "lower_range_ip",
        fun () -> Stages.lower_range_ip l s ~lo:(-1) ~hi:2 (ones n) );
      ("lower_range_ip", fun () -> Stages.lower_range_ip l s ~lo:3 ~hi:2 (ones n));
      ( "lower_range_ip",
        fun () -> Stages.lower_range_ip l short ~lo:0 ~hi:1 (ones n) );
      ("ltrans_sched_ip", fun () -> Stages.ltrans_sched_ip l s (ones 3));
      ( "solve_pair_sched_ip",
        fun () -> Stages.solve_pair_sched_ip l s (ones 3) );
      ("lower_sched_ip", fun () -> Stages.lower_sched_ip l short (ones n));
      ("schedule", fun () -> ignore (Stages.schedule ~order:[| 0 |] l));
    ]

let suite =
  [
    qcheck_sched_is_column;
    Alcotest.test_case "windowed level order = per-window oracle" `Quick
      test_level_order_oracle;
    Alcotest.test_case "pinned level-sweep decisions" `Quick
      test_pinned_decisions;
    Alcotest.test_case "selected pipelines: fused == staged" `Quick
      test_selected_fused_is_staged;
    Alcotest.test_case "IC(0): two windows, a missing diagonal" `Quick
      test_ic0_shapes;
    Alcotest.test_case "Stages entry points check lengths" `Quick
      test_stage_lengths;
  ]
