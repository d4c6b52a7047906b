open Sympiler_sparse
open Sympiler_symbolic

(* Symbolic analysis: reach sets, elimination trees, postorder, ereach,
   fill patterns, column counts, supernodes, inspectors. *)

(* ---- dependence graph / reach ---- *)

let test_figure1_reach () =
  let l = Helpers.figure1_l in
  let r = Dep_graph.reach l Helpers.figure1_beta in
  let sorted = Array.copy r in
  Array.sort compare sorted;
  Alcotest.(check (array int))
    "paper's reach set {1,6,7,8,9,10} (1-based)" Helpers.figure1_reach_sorted
    sorted;
  Alcotest.(check bool) "topological" true (Dep_graph.is_topological l r)

let test_reach_empty_beta () =
  let l = Helpers.figure1_l in
  Alcotest.(check (array int)) "empty beta" [||] (Dep_graph.reach l [||])

let test_reach_full_when_chain () =
  (* Bidiagonal chain: reach from {0} is everything. *)
  let n = 12 in
  let tr = Triplet.create ~nrows:n ~ncols:n () in
  for j = 0 to n - 1 do
    Triplet.add tr j j 1.0;
    if j + 1 < n then Triplet.add tr (j + 1) j (-1.0)
  done;
  let l = Csc.of_triplet tr in
  let r = Dep_graph.reach l [| 0 |] in
  Alcotest.(check int) "reaches all" n (Array.length r)

let prop_reach_matches_naive =
  Helpers.qtest "reach = naive graph reachability" Helpers.arb_lower_with_rhs
    (fun (l, b) ->
      let r = Dep_graph.reach l b.Vector.indices in
      let sorted = Array.copy r in
      Array.sort compare sorted;
      sorted = Dep_graph.reach_naive l b.Vector.indices
      && Dep_graph.is_topological l r)

let prop_reach_covers_solution_pattern =
  Helpers.qtest "solution nonzeros lie inside the reach set"
    Helpers.arb_lower_with_rhs (fun (l, b) ->
      let r = Dep_graph.reach l b.Vector.indices in
      let inset = Array.make l.Csc.ncols false in
      Array.iter (fun j -> inset.(j) <- true) r;
      let x = Helpers.oracle_lower_solve l (Vector.sparse_to_dense b) in
      Array.for_all (fun ok -> ok) (Array.mapi (fun i xi -> xi = 0.0 || inset.(i)) x))

(* ---- elimination tree ---- *)

let prop_etree_matches_naive =
  Helpers.qtest "etree = naive filled-graph parents" Helpers.arb_spd (fun a ->
      let al = Csc.lower a in
      Etree.compute al = Etree.compute_naive al)

let prop_etree_parent_above =
  Helpers.qtest "parent j > j or root" Helpers.arb_spd (fun a ->
      let parent = Etree.compute (Csc.lower a) in
      Array.for_all (fun ok -> ok)
        (Array.mapi (fun j p -> p = -1 || p > j) parent))

let test_etree_known_chain () =
  (* Tridiagonal: etree is the chain j -> j+1. *)
  let a = Generators.banded ~seed:1 ~n:8 ~band:1 () in
  let parent = Etree.compute (Csc.lower a) in
  Alcotest.(check (array int)) "chain" [| 1; 2; 3; 4; 5; 6; 7; -1 |] parent

let test_etree_children_roots () =
  let a = Generators.grid2d ~stencil:`Five 4 4 in
  let parent = Etree.compute (Csc.lower a) in
  let nchild = Etree.n_children parent in
  let total = Array.fold_left ( + ) 0 nchild in
  let nroots = List.length (Etree.roots parent) in
  Alcotest.(check int) "children + roots = n" 16 (total + nroots);
  let depth = Etree.depths parent in
  Array.iteri
    (fun j p ->
      if p >= 0 then
        Alcotest.(check int) "child deeper" (depth.(p) + 1) depth.(j))
    parent

let prop_postorder_valid =
  Helpers.qtest "postorder is a valid forest postorder" Helpers.arb_spd
    (fun a ->
      let parent = Etree.compute (Csc.lower a) in
      Postorder.is_valid parent (Postorder.compute parent))

(* ---- ereach / fill pattern / counts ---- *)

let prop_ereach_matches_naive =
  Helpers.qtest ~count:40 "ereach row pattern = naive symbolic row"
    Helpers.arb_spd (fun a ->
      let al = Csc.lower a in
      let n = al.Csc.ncols in
      let parent = Etree.compute al in
      let upper = Csc.transpose al in
      let work = Ereach.make_workspace n in
      let ok = ref true in
      for k = 0 to n - 1 do
        let fast = Ereach.row_pattern ~upper ~parent ~work k in
        let slow = Ereach.row_pattern_naive al k in
        if fast <> slow then ok := false
      done;
      !ok)

let prop_fill_matches_children_union =
  Helpers.qtest ~count:40 "fill pattern = equation (1) oracle" Helpers.arb_spd
    (fun a ->
      let al = Csc.lower a in
      let fill = Fill_pattern.analyze al in
      Csc.pattern_equal (Fill_pattern.l_view fill)
        (Fill_pattern.pattern_by_children al))

let prop_counts_consistent =
  Helpers.qtest "counts.(j) = nnz(L(:,j))" Helpers.arb_spd (fun a ->
      let fill = Fill_pattern.analyze (Csc.lower a) in
      Array.for_all (fun ok -> ok)
        (Array.mapi
           (fun j c -> c = Csc.col_nnz (Fill_pattern.l_view fill) j)
           fill.Fill_pattern.counts))

(* The counts-only pass shares its walk with the full analysis and must
   agree with it: same etree, same column counts, hence the same nnz(L)
   and flop model. Structured SPD patterns, random lower patterns, and
   random symmetric permutations of both. *)
let prop_col_counts_match_analyze =
  Helpers.qtest ~count:200 "col_counts = analyze parent and counts"
    (QCheck.make
       ~print:(fun l ->
         Printf.sprintf "lower n=%d nnz=%d" l.Csc.ncols (Csc.nnz l))
       QCheck.Gen.(
         let* al = oneof [ map Csc.lower Helpers.gen_spd; Helpers.gen_lower ] in
         let* seed = int_range 0 10000 in
         let* permute = bool in
         return
           (if permute then
              fst
                (Perm.permute_lower
                   (Perm.random (Utils.Rng.create seed) al.Csc.ncols)
                   al)
            else al)))
    (fun al ->
      let f = Fill_pattern.analyze al in
      let parent, counts = Fill_pattern.col_counts al in
      parent = f.Fill_pattern.parent
      && counts = f.Fill_pattern.counts
      && Fill_pattern.flops_of_counts counts = Fill_pattern.flops f)

let prop_fill_contains_a =
  Helpers.qtest "L pattern contains lower(A)" Helpers.arb_spd (fun a ->
      let al = Csc.lower a in
      let fill = Fill_pattern.analyze al in
      let ok = ref true in
      let l = Fill_pattern.l_view fill in
      Csc.iter al (fun i j _ -> if not (Csc.mem l i j) then ok := false);
      !ok)

(* The analysis' row lists are exactly the strictly-lower rows of its
   column pattern, ascending (the transpose without the diagonal), its
   counts are the column lengths, and [col_counts] agrees. *)
let rows_are_transpose (al : Csc.t) =
  let f = Fill_pattern.analyze al in
  let n = f.Fill_pattern.n in
  let lp = f.Fill_pattern.l_colptr and li = f.Fill_pattern.l_rowind in
  let row_ptr = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    for p = lp.(j) + 1 to lp.(j + 1) - 1 do
      row_ptr.(li.(p) + 1) <- row_ptr.(li.(p) + 1) + 1
    done
  done;
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  let row_ind = Array.make row_ptr.(n) 0 in
  let next = Array.sub row_ptr 0 n in
  for j = 0 to n - 1 do
    for p = lp.(j) + 1 to lp.(j + 1) - 1 do
      let i = li.(p) in
      row_ind.(next.(i)) <- j;
      next.(i) <- next.(i) + 1
    done
  done;
  let parent, counts = Fill_pattern.col_counts al in
  Array.length lp = n + 1
  && Array.length li = lp.(n)
  && row_ptr = f.Fill_pattern.row_ptr
  && row_ind = f.Fill_pattern.row_ind
  && Array.init n (fun j -> lp.(j + 1) - lp.(j)) = f.Fill_pattern.counts
  && counts = f.Fill_pattern.counts
  && parent = f.Fill_pattern.parent

let prop_rows_are_transpose =
  Helpers.qtest "row lists = transpose of the column pattern"
    Helpers.arb_spd (fun a -> rows_are_transpose (Csc.lower a))

(* The same on the suite's patterns, n = 0 and n = 1, and natural-order
   grid2d 50x50, whose 122,549 row entries are over four times the row
   buffer's starting capacity (4 nnz(lower(A)) = 29,600): the buffer
   grows by doubling, and a growth that mishandled the filled prefix once
   crashed the old packed store's builder. *)
let test_rows_are_transpose_fixed () =
  let one v =
    Csc.create ~nrows:1 ~ncols:1 ~colptr:[| 0; 1 |] ~rowind:[| 0 |]
      ~values:[| v |]
  in
  let grid = Csc.lower (Generators.grid2d ~stencil:`Five 50 50) in
  let f = Fill_pattern.analyze grid in
  Alcotest.(check bool)
    "grid2d 50x50 rows exceed the starting capacity fourfold" true
    (Array.length f.Fill_pattern.row_ind >= 4 * (4 * Csc.nnz grid));
  List.iter
    (fun (name, al) ->
      Alcotest.(check bool) name true (rows_are_transpose al))
    ([
       ("n=0", Csc.zero ~nrows:0 ~ncols:0);
       ("n=1", one 2.0);
       ("n=1 no entries", Csc.zero ~nrows:1 ~ncols:1);
       ("grid2d 50x50", grid);
     ]
    @ List.map
        (fun (p : Sympiler.Suite.prepared) ->
          (p.Sympiler.Suite.name, p.Sympiler.Suite.a_lower))
        (Sympiler.Suite.all ()))

let test_fill_flops_positive () =
  let fill = Fill_pattern.analyze (Csc.lower (Generators.grid2d ~stencil:`Five 5 5)) in
  Alcotest.(check bool) "flops > n" true (Fill_pattern.flops fill > 25.0)

(* ---- supernodes ---- *)

let prop_supernodes_exact_valid =
  Helpers.qtest "exact supernodes validate structurally" Helpers.arb_spd
    (fun a ->
      let fill = Fill_pattern.analyze (Csc.lower a) in
      let l = Fill_pattern.l_view fill in
      let sn = Supernodes.detect_exact l in
      Supernodes.validate_against l sn)

let prop_supernodes_etree_equals_exact_rule =
  (* The paper's etree+counts rule must agree with the pattern-based node
     equivalence wherever the only-child condition holds; on Cholesky
     factors the etree rule is at least as conservative, so every etree
     supernode must validate against the pattern. *)
  Helpers.qtest "etree-rule supernodes validate against the pattern"
    Helpers.arb_spd (fun a ->
      let fill = Fill_pattern.analyze (Csc.lower a) in
      let sn =
        Supernodes.detect_etree ~counts:fill.Fill_pattern.counts
          ~parent:fill.Fill_pattern.parent ()
      in
      Supernodes.validate_against (Fill_pattern.l_view fill) sn)

let test_supernodes_partition () =
  let fill = Fill_pattern.analyze (Csc.lower (Generators.block_tridiagonal ~seed:4 ~nblocks:4 ~block:5 ())) in
  let sn =
    Supernodes.detect_etree ~counts:fill.Fill_pattern.counts
      ~parent:fill.Fill_pattern.parent ()
  in
  let n = fill.Fill_pattern.n in
  Alcotest.(check int) "covers all columns" n
    sn.Supernodes.sn_ptr.(Supernodes.nsuper sn);
  Alcotest.(check bool) "block structure found" true
    (Supernodes.avg_width sn >= 4.0);
  Array.iteri
    (fun j s ->
      Alcotest.(check bool) "col_to_sn consistent" true
        (sn.Supernodes.sn_ptr.(s) <= j && j < sn.Supernodes.sn_ptr.(s + 1)))
    sn.Supernodes.col_to_sn

let test_supernodes_max_width () =
  let a = Generators.random_spd_dense ~seed:6 30 in
  let fill = Fill_pattern.analyze (Csc.lower a) in
  let sn =
    Supernodes.detect_etree ~max_width:4 ~counts:fill.Fill_pattern.counts
      ~parent:fill.Fill_pattern.parent ()
  in
  Array.iter
    (fun w -> Alcotest.(check bool) "width capped" true (w <= 4))
    (Supernodes.widths sn)

let test_supernodes_dense_is_one_block () =
  let a = Generators.random_spd_dense ~seed:6 20 in
  let fill = Fill_pattern.analyze (Csc.lower a) in
  let sn =
    Supernodes.detect_etree ~counts:fill.Fill_pattern.counts
      ~parent:fill.Fill_pattern.parent ()
  in
  Alcotest.(check int) "dense matrix = single supernode" 1 (Supernodes.nsuper sn)

(* ---- inspector framework ---- *)

let test_inspectors_run () =
  let l = Helpers.figure1_l in
  let b = { Vector.n = 10; indices = Helpers.figure1_beta; values = [| 1.0; 1.0 |] } in
  (match (Inspector.trisolve_vi_prune l b).Inspector.run () with
  | Inspector.Prune_set r ->
      Alcotest.(check int) "reach size" 6 (Array.length r)
  | _ -> Alcotest.fail "wrong inspection set");
  (match (Inspector.trisolve_vs_block l).Inspector.run () with
  | Inspector.Block_set sn ->
      Alcotest.(check bool) "some blocks" true (Supernodes.nsuper sn > 0)
  | _ -> Alcotest.fail "wrong inspection set");
  let fill = Fill_pattern.analyze (Csc.lower (Generators.grid2d ~stencil:`Five 4 4)) in
  (match (Inspector.cholesky_vi_prune fill).Inspector.run () with
  | Inspector.Prune_sets (ptr, ind) ->
      Alcotest.(check int) "one prune set per row" 16 (Array.length ptr - 1);
      Alcotest.(check bool) "the analysis' own lists" true
        (ptr == fill.Fill_pattern.row_ptr && ind == fill.Fill_pattern.row_ind)
  | _ -> Alcotest.fail "wrong inspection set");
  match (Inspector.cholesky_vs_block fill).Inspector.run () with
  | Inspector.Block_set _ -> ()
  | _ -> Alcotest.fail "wrong inspection set"

let test_inspector_descriptions () =
  let l = Helpers.figure1_l in
  let b = { Vector.n = 10; indices = Helpers.figure1_beta; values = [| 1.0; 1.0 |] } in
  let d = Inspector.describe (Inspector.trisolve_vi_prune l b) in
  Alcotest.(check bool) "non-empty description" true (String.length d > 10)

(* ---- no per-row garbage in the fill walk ---- *)

(* Rows of 8 and 40 entries: the insertion-sort and the quicksort paths. *)
let test_sort_int_range_no_alloc () =
  List.iter
    (fun len ->
      let a = Array.init len (fun i -> (7919 * (i + 3)) land 1023) in
      let expect = Array.copy a in
      Array.sort compare expect;
      Utils.sort_int_range a 0 len;
      Alcotest.(check (array int)) (Printf.sprintf "%d entries sorted" len)
        expect a;
      let w0 = Gc.minor_words () in
      for c = 1 to 1_600 do
        for i = 0 to len - 1 do
          a.(i) <- (c * 7919 * (i + 3)) land 1023
        done;
        Utils.sort_int_range a 0 len
      done;
      Alcotest.(check int)
        (Printf.sprintf "minor words of 1,600 sorts of %d entries" len)
        0
        (int_of_float (Gc.minor_words () -. w0)))
    [ 8; 40 ]

(* Everything [analyze] returns is large enough for the major heap, so
   the minor words it allocates are its per-call constants alone. *)
let test_fill_walk_no_per_row_alloc () =
  let al = Csc.lower (Generators.grid2d ~stencil:`Five 40 40) in
  let w0 = Gc.minor_words () in
  let f = Fill_pattern.analyze al in
  let words = int_of_float (Gc.minor_words () -. w0) in
  Alcotest.(check bool)
    (Printf.sprintf "analyze of grid2d 40x40: %d minor words < 100" words)
    true (words < 100);
  Alcotest.(check int) "nnz(L)" (Fill_pattern.nnz_l f)
    (Array.fold_left ( + ) 0 f.Fill_pattern.counts)

let suite =
  [
    ("figure 1 reach set", `Quick, test_figure1_reach);
    ("reach of empty beta", `Quick, test_reach_empty_beta);
    ("reach of chain", `Quick, test_reach_full_when_chain);
    prop_reach_matches_naive;
    prop_reach_covers_solution_pattern;
    prop_etree_matches_naive;
    prop_etree_parent_above;
    ("etree of tridiagonal chain", `Quick, test_etree_known_chain);
    ("etree children/roots/depths", `Quick, test_etree_children_roots);
    prop_postorder_valid;
    prop_ereach_matches_naive;
    prop_fill_matches_children_union;
    prop_counts_consistent;
    prop_col_counts_match_analyze;
    prop_fill_contains_a;
    prop_rows_are_transpose;
    ( "row lists = transpose: fixed patterns",
      `Quick,
      test_rows_are_transpose_fixed );
    ("fill flops positive", `Quick, test_fill_flops_positive);
    prop_supernodes_exact_valid;
    prop_supernodes_etree_equals_exact_rule;
    ("supernode partition", `Quick, test_supernodes_partition);
    ("supernode max width", `Quick, test_supernodes_max_width);
    ("dense = one supernode", `Quick, test_supernodes_dense_is_one_block);
    ("inspectors run", `Quick, test_inspectors_run);
    ("inspector descriptions", `Quick, test_inspector_descriptions);
    ("sort_int_range allocates nothing", `Quick, test_sort_int_range_no_alloc);
    ( "fill walk: no per-row allocation",
      `Quick,
      test_fill_walk_no_per_row_alloc );
  ]
