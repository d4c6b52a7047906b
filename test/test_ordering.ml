open Sympiler_sparse
open Sympiler_symbolic
open Helpers

(* Ordering-aware compilation: the orderings themselves (validity on
   adversarial graphs, AMD's fill quality against the exact-degree greedy
   oracle) and the facade's ?ordering stage (bitwise identity against
   manual pre-permutation across every kernel family, zero-allocation
   ordered steady state, cache keying, and `Given validation). *)

(* Shorthand for the unified compile signature. *)
let w o = Sympiler.Options.make ~ordering:o ()
let wc o = Sympiler.Options.make ~ordering:o ~cache:true ()

let orderings =
  [
    ("rcm", Ordering.rcm);
    ("amd", Ordering.amd);
    ("min_degree", Ordering.min_degree);
  ]

let nnz_l (a : Csc.t) : int =
  Fill_pattern.nnz_l (Fill_pattern.analyze (Csc.lower a))

(* ---- permutation validity on adversarial graph shapes ---- *)

let test_valid_perms () =
  let structures =
    [
      ("multigrid (disconnected)", scrambled_multigrid ());
      ("star+ring (dense row)", star_ring 50);
      ("empty 0x0", Csc.zero ~nrows:0 ~ncols:0);
      ("diagonal (edgeless)", Csc.identity 30);
    ]
    @ spd_zoo ()
  in
  List.iter
    (fun (sname, a) ->
      List.iter
        (fun (oname, f) ->
          let p = f a in
          Alcotest.(check int)
            (Printf.sprintf "%s %s length" sname oname)
            a.Csc.ncols (Array.length p);
          Alcotest.(check bool)
            (Printf.sprintf "%s %s valid" sname oname)
            true (Perm.is_valid p))
        orderings)
    structures

let prop_valid_perms =
  qtest ~count:60 "orderings are bijections (random spd)" arb_spd (fun a ->
      List.for_all
        (fun (_, f) ->
          let p = f a in
          Array.length p = a.Csc.ncols && Perm.is_valid p)
        orderings)

(* ---- AMD fill quality vs the greedy exact-degree oracle ---- *)

(* nnz(L) under the exact-degree greedy oracle ([Ordering.min_degree]) on
   each raw suite matrix. The oracle is quadratic-ish and takes about 40 s
   over the suite, so its fill is recorded here, like the AMD golden
   fingerprints below, and AMD's is computed afresh. *)
let greedy_nnz_l_suite =
  [
    ("cbuckle", 32608);
    ("Pres_Poisson", 37991);
    ("gyro", 49923);
    ("gyro_k", 49866);
    ("Dubcova2", 38269);
    ("msc23052", 94375);
    ("thermomech_dM", 99042);
    ("Dubcova3", 162019);
    ("parabolic_fem", 176695);
    ("ecology2", 221032);
    ("tmt_sym", 307625);
  ]

let amd_nnz_l a = nnz_l (Perm.symmetric_permute (Ordering.amd a) a)

(* AMD's fill stays within 1.25x of the greedy oracle's: on the small
   structural zoo and the adversarial shapes (with a small absolute slack
   for the tiny matrices, where one extra entry swings the ratio), and on
   the eleven suite matrices against their recorded oracle fill. *)
let test_amd_fill_tolerance () =
  let cases =
    [ ("multigrid", scrambled_multigrid ()); ("star+ring", star_ring 50) ]
    @ spd_zoo ()
  in
  List.iter
    (fun (name, a) ->
      let fa = amd_nnz_l a in
      let fm = nnz_l (Perm.symmetric_permute (Ordering.min_degree a) a) in
      Alcotest.(check bool)
        (Printf.sprintf "%s amd %d vs greedy %d" name fa fm)
        true
        (float_of_int fa <= (1.25 *. float_of_int fm) +. 8.0))
    cases;
  List.iter
    (fun (g : Generators.problem) ->
      let name = g.Generators.name in
      let fa = amd_nnz_l (Lazy.force g.Generators.matrix) in
      let fm = List.assoc name greedy_nnz_l_suite in
      Alcotest.(check bool)
        (Printf.sprintf "%s amd %d vs greedy %d" name fa fm)
        true
        (float_of_int fa <= 1.25 *. float_of_int fm))
    Generators.suite

(* On the suite problems standing in for meshes and grids (the ones
   Suite.prepare reorders), AMD fills less than the natural order of the
   raw matrix. *)
let test_amd_beats_natural_on_meshes () =
  let meshes =
    List.filter
      (fun (sp : Sympiler.Suite.prepared) -> sp.Sympiler.Suite.ordering <> "natural")
      (Sympiler.Suite.all ())
  in
  Alcotest.(check int) "six mesh problems" 6 (List.length meshes);
  List.iter
    (fun (sp : Sympiler.Suite.prepared) ->
      let name = sp.Sympiler.Suite.name in
      let a = Lazy.force (Generators.problem_by_name name).Generators.matrix in
      let fa = amd_nnz_l a and fn = nnz_l a in
      Alcotest.(check bool)
        (Printf.sprintf "%s amd %d < natural %d" name fa fn)
        true (fa < fn))
    meshes

(* ---- ordered compile = manual pre-permutation, bitwise, per family ---- *)

(* The contract under test: an ordered handle takes natural-order values
   and must produce exactly (bitwise) the factors that compiling the
   manually permuted input yields. *)

let perm_of (ord : Sympiler.applied_ordering) n =
  match ord.Sympiler.o_perm with Some p -> p | None -> Perm.identity n

let permuted_lower p (al : Csc.t) : Csc.t =
  let pl, map = Perm.permute_lower p al in
  Array.iteri (fun q m -> pl.Csc.values.(q) <- al.Csc.values.(m)) map;
  pl

(* A small grid, and suite problem 2 (a mesh, AMD-ordered again). *)
let test_bitwise_cholesky () =
  List.iter
    (fun (name, al) ->
      let h = Sympiler.Cholesky.compile ~opts:(w `Amd) al in
      let pl =
        permuted_lower (perm_of h.Sympiler.Cholesky.ord al.Csc.ncols) al
      in
      let manual =
        let hm = Sympiler.Cholesky.compile pl in
        Sympiler.Cholesky.factor hm pl
      in
      let via_plan =
        Sympiler.Cholesky.execute_ip (Sympiler.Cholesky.plan h) al
      in
      let via_factor = Sympiler.Cholesky.factor h al in
      Alcotest.(check bool)
        (name ^ ": plan bitwise") true
        (via_plan.Csc.values = manual.Csc.values);
      Alcotest.(check bool)
        (name ^ ": factor bitwise") true
        (via_factor.Csc.values = manual.Csc.values))
    [
      ("grid 8x8", Csc.lower (Generators.grid2d ~stencil:`Five 8 8));
      ("Pres_Poisson", (Sympiler.Suite.problem 2).Sympiler.Suite.a_lower);
    ]

let test_bitwise_ldlt () =
  let al =
    Csc.lower (Generators.block_tridiagonal ~seed:4 ~nblocks:5 ~block:6 ())
  in
  let h = Sympiler.Ldlt.compile ~opts:(w `Amd) al in
  let pl = permuted_lower (perm_of h.Sympiler.Ldlt.ord al.Csc.ncols) al in
  let manual = Sympiler.Ldlt.factor (Sympiler.Ldlt.compile pl) pl in
  let got = Sympiler.Ldlt.execute_ip (Sympiler.Ldlt.plan h) al in
  Alcotest.(check bool)
    "L bitwise" true
    (got.Sympiler_kernels.Ldlt.l.Csc.values
    = manual.Sympiler_kernels.Ldlt.l.Csc.values);
  Alcotest.(check bool)
    "D bitwise" true
    (got.Sympiler_kernels.Ldlt.d = manual.Sympiler_kernels.Ldlt.d)

let test_bitwise_ic0 () =
  let al = Csc.lower (Generators.grid2d ~stencil:`Nine 7 7) in
  let h = Sympiler.Ic0.compile ~opts:(w `Amd) al in
  let pl = permuted_lower (perm_of h.Sympiler.Ic0.ord al.Csc.ncols) al in
  let manual = Sympiler.Ic0.factor (Sympiler.Ic0.compile pl) pl in
  let got = Sympiler.Ic0.execute_ip (Sympiler.Ic0.plan h) al in
  Alcotest.(check bool) "IC(0) bitwise" true (got.Csc.values = manual.Csc.values)

let permuted_full p (a : Csc.t) : Csc.t =
  let pa, map = Perm.permute_pattern p a in
  Array.iteri (fun q m -> pa.Csc.values.(q) <- a.Csc.values.(m)) map;
  pa

let test_bitwise_lu () =
  let a = Generators.grid2d ~stencil:`Five 7 7 in
  let h = Sympiler.Lu.compile ~opts:(w `Amd) a in
  let pa = permuted_full (perm_of h.Sympiler.Lu.ord a.Csc.ncols) a in
  let manual = Sympiler.Lu.factor (Sympiler.Lu.compile pa) pa in
  let got = Sympiler.Lu.execute_ip (Sympiler.Lu.plan h) a in
  Alcotest.(check bool)
    "L bitwise" true
    (got.Sympiler_kernels.Lu.l.Csc.values
    = manual.Sympiler_kernels.Lu.l.Csc.values);
  Alcotest.(check bool)
    "U bitwise" true
    (got.Sympiler_kernels.Lu.u.Csc.values
    = manual.Sympiler_kernels.Lu.u.Csc.values)

let test_bitwise_ilu0 () =
  let a = Generators.grid2d ~stencil:`Nine 6 6 in
  let h = Sympiler.Ilu0.compile ~opts:(w `Amd) a in
  let pa = permuted_full (perm_of h.Sympiler.Ilu0.ord a.Csc.ncols) a in
  let manual = Sympiler.Ilu0.factor (Sympiler.Ilu0.compile pa) pa in
  let got = Sympiler.Ilu0.execute_ip (Sympiler.Ilu0.plan h) a in
  Alcotest.(check bool)
    "ILU(0) bitwise" true
    (got.Sympiler_kernels.Ilu0.values = manual.Sympiler_kernels.Ilu0.values)

let test_bitwise_trisolve_given () =
  (* Trisolve needs a dependence-respecting relabeling: the etree
     postorder of L's pattern keeps P L P^T lower triangular. *)
  let l = figure1_l in
  let b = { Vector.n = 10; indices = figure1_beta; values = [| 1.0; 2.0 |] } in
  let post = Postorder.compute (Etree.compute l) in
  let h = Sympiler.Trisolve.compile ~opts:(w (`Given post)) (l, b) in
  let x_ord = Sympiler.Trisolve.solve h b in
  let x_plan = Sympiler.Trisolve.execute_ip (Sympiler.Trisolve.plan h) b in
  (* Manual pre-permutation of the whole system. *)
  let pl = permuted_lower post l in
  let pinv = Perm.inverse post in
  let pairs =
    Array.mapi (fun t i -> (pinv.(i), b.Vector.values.(t))) b.Vector.indices
  in
  Array.sort compare pairs;
  let pb =
    {
      Vector.n = 10;
      indices = Array.map fst pairs;
      values = Array.map snd pairs;
    }
  in
  let xp = Sympiler.Trisolve.solve (Sympiler.Trisolve.compile (pl, pb)) pb in
  let x_manual = Array.make 10 0.0 in
  Array.iteri (fun k old -> x_manual.(old) <- xp.(k)) post;
  Alcotest.(check bool) "solve bitwise" true (x_ord = x_manual);
  Alcotest.(check bool) "plan bitwise" true (x_plan = x_manual);
  (* And the relabeled solve agrees with the natural-order one. *)
  let x_nat = Sympiler.Trisolve.solve (Sympiler.Trisolve.compile (l, b)) b in
  check_close "vs natural" x_nat x_ord

let test_trisolve_rejects_breaking_ordering () =
  (* Reversal turns a non-diagonal lower-triangular L strictly upper:
     must be rejected, not silently mis-solved. *)
  let l = figure1_l in
  let b = { Vector.n = 10; indices = figure1_beta; values = [| 1.0; 1.0 |] } in
  let rev = Array.init 10 (fun k -> 9 - k) in
  match Sympiler.Trisolve.compile ~opts:(w (`Given rev)) (l, b) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "triangularity-breaking ordering accepted"

(* ---- ordered solves stay correct ---- *)

let test_ordered_cholesky_solve () =
  List.iter
    (fun (name, a) ->
      let al = Csc.lower a in
      let n = a.Csc.ncols in
      let rng = Utils.Rng.create 17 in
      let b = Array.init n (fun _ -> Utils.Rng.float_range rng (-1.0) 1.0) in
      let x_nat = Sympiler.Cholesky.solve (Sympiler.Cholesky.compile al) al b in
      List.iter
        (fun (oname, o) ->
          let h = Sympiler.Cholesky.compile ~opts:(w o) al in
          let x = Sympiler.Cholesky.solve h al b in
          check_close ~eps:1e-6 (Printf.sprintf "%s %s" name oname) x_nat x)
        [ ("rcm", `Rcm); ("amd", `Amd); ("min-degree", `Min_degree) ])
    [
      List.nth (spd_zoo ()) 0;
      List.nth (spd_zoo ()) 3;
      ("multigrid", scrambled_multigrid ());
    ]

let prop_ordered_solve =
  qtest ~count:40 "ordered cholesky solve matches natural (random spd)"
    arb_spd (fun a ->
      let al = Csc.lower a in
      let n = a.Csc.ncols in
      let rng = Utils.Rng.create 23 in
      let b = Array.init n (fun _ -> Utils.Rng.float_range rng (-1.0) 1.0) in
      let x_nat =
        Sympiler.Cholesky.solve (Sympiler.Cholesky.compile al) al b
      in
      let x_amd =
        Sympiler.Cholesky.solve (Sympiler.Cholesky.compile ~opts:(w `Amd) al) al b
      in
      close ~eps:1e-6 x_nat x_amd)

(* ---- zero allocation on the ordered steady path ---- *)

let test_ordered_zero_alloc () =
  List.iter
    (fun (name, al) ->
      let p =
        Sympiler.Cholesky.plan (Sympiler.Cholesky.compile ~opts:(w `Amd) al)
      in
      ignore (Sympiler.Cholesky.execute_ip p al);
      let w0 = Gc.minor_words () in
      for _ = 1 to 20 do
        ignore (Sympiler.Cholesky.execute_ip p al)
      done;
      let words = int_of_float (Gc.minor_words () -. w0) in
      Alcotest.(check int) (name ^ ": ordered cholesky minor words") 0 words)
    [
      ("grid 10x10", Csc.lower (Generators.grid2d ~stencil:`Five 10 10));
      ("Pres_Poisson", (Sympiler.Suite.problem 2).Sympiler.Suite.a_lower);
    ];
  (* Ordered trisolve steady path likewise. *)
  let l = figure1_l in
  let b = { Vector.n = 10; indices = figure1_beta; values = [| 1.0; 2.0 |] } in
  let post = Postorder.compute (Etree.compute l) in
  let tp =
    Sympiler.Trisolve.plan
      (Sympiler.Trisolve.compile ~opts:(w (`Given post)) (l, b))
  in
  ignore (Sympiler.Trisolve.execute_ip tp b);
  let w0 = Gc.minor_words () in
  for _ = 1 to 20 do
    ignore (Sympiler.Trisolve.execute_ip tp b)
  done;
  let words = int_of_float (Gc.minor_words () -. w0) in
  Alcotest.(check int) "ordered trisolve minor words" 0 words

(* ---- the cache key carries the ordering ---- *)

let test_cache_keyed_on_ordering () =
  let al = Csc.lower (Generators.grid2d ~stencil:`Five 6 6) in
  Sympiler.Cholesky.cache_clear ();
  let h_nat = Sympiler.Cholesky.compile ~opts:Sympiler.Options.cached al in
  let h_amd = Sympiler.Cholesky.compile ~opts:(wc `Amd) al in
  Alcotest.(check bool) "natural vs amd distinct" false (h_nat == h_amd);
  let h_amd' = Sympiler.Cholesky.compile ~opts:(wc `Amd) al in
  Alcotest.(check bool) "amd hit physically equal" true (h_amd == h_amd');
  (* `Given with the same permutation AMD chose is a distinct key (the
     fingerprint spells out the permutation), but compiles fine. *)
  let p = perm_of h_amd.Sympiler.Cholesky.ord al.Csc.ncols in
  let h_given = Sympiler.Cholesky.compile ~opts:(wc (`Given p)) al in
  Alcotest.(check bool) "given vs amd distinct" false (h_amd == h_given);
  Alcotest.(check int)
    "given = amd analysis" h_amd.Sympiler.Cholesky.nnz_l
    h_given.Sympiler.Cholesky.nnz_l

(* ---- `Given validation and degenerate sizes through every family ---- *)

let test_given_validation () =
  let a = Generators.grid2d ~stencil:`Five 4 4 in
  let al = Csc.lower a in
  let b =
    { Vector.n = 16; indices = [| 0; 5 |]; values = [| 1.0; 1.0 |] }
  in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: invalid permutation accepted" name
  in
  let bad_perms =
    [ ("wrong length", [| 0; 1; 2 |]); ("not a bijection", Array.make 16 0) ]
  in
  List.iter
    (fun (pname, p) ->
      expect_invalid ("cholesky " ^ pname) (fun () ->
          Sympiler.Cholesky.compile ~opts:(w (`Given p)) al);
      expect_invalid ("ldlt " ^ pname) (fun () ->
          Sympiler.Ldlt.compile ~opts:(w (`Given p)) al);
      expect_invalid ("ic0 " ^ pname) (fun () ->
          Sympiler.Ic0.compile ~opts:(w (`Given p)) al);
      expect_invalid ("lu " ^ pname) (fun () ->
          Sympiler.Lu.compile ~opts:(w (`Given p)) a);
      expect_invalid ("ilu0 " ^ pname) (fun () ->
          Sympiler.Ilu0.compile ~opts:(w (`Given p)) a);
      expect_invalid ("trisolve " ^ pname) (fun () ->
          Sympiler.Trisolve.compile ~opts:(w (`Given p)) (al, b));
      expect_invalid ("symmetric_permute " ^ pname) (fun () ->
          Perm.symmetric_permute p a))
    bad_perms

let test_degenerate_sizes () =
  (* 0x0 and 1x1 through the ordered path of every family. *)
  let z = Csc.zero ~nrows:0 ~ncols:0 in
  let hz = Sympiler.Cholesky.compile ~opts:(w (`Given [||])) z in
  Alcotest.(check int) "0x0 nnz_l" 0 hz.Sympiler.Cholesky.nnz_l;
  let one = Csc.of_dense [| [| 4.0 |] |] in
  let l1 =
    Sympiler.Cholesky.factor
      (Sympiler.Cholesky.compile ~opts:(w `Amd) one)
      one
  in
  check_close "1x1 cholesky" [| 2.0 |] l1.Csc.values;
  let f1 =
    Sympiler.Ldlt.factor
      (Sympiler.Ldlt.compile ~opts:(w (`Given [| 0 |])) one)
      one
  in
  check_close "1x1 ldlt d" [| 4.0 |] f1.Sympiler_kernels.Ldlt.d;
  let lu1 =
    Sympiler.Lu.factor (Sympiler.Lu.compile ~opts:(w `Rcm) one) one
  in
  check_close "1x1 lu u" [| 4.0 |] lu1.Sympiler_kernels.Lu.u.Csc.values;
  let ic1 =
    Sympiler.Ic0.factor (Sympiler.Ic0.compile ~opts:(w `Min_degree) one) one
  in
  check_close "1x1 ic0" [| 2.0 |] ic1.Csc.values;
  let ilu1 =
    Sympiler.Ilu0.factor (Sympiler.Ilu0.compile ~opts:(w `Amd) one) one
  in
  check_close "1x1 ilu0" [| 4.0 |] ilu1.Sympiler_kernels.Ilu0.values;
  let b1 = { Vector.n = 1; indices = [| 0 |]; values = [| 3.0 |] } in
  let x1 =
    Sympiler.Trisolve.solve
      (Sympiler.Trisolve.compile ~opts:(w (`Given [| 0 |])) (one, b1))
      b1
  in
  check_close "1x1 trisolve" [| 0.75 |] x1

(* The CSR adjacency behind RCM's O(nnz) sweeps must agree with the
   list-based view on every graph shape, including disconnected and
   edgeless ones. *)
let test_adjacency_csr_matches_lists () =
  List.iter
    (fun (name, (a : Csc.t)) ->
      let ptr, ind = Ordering.adjacency_csr a in
      let lists = Ordering.adjacency a in
      let n = a.Csc.ncols in
      Alcotest.(check int) (name ^ " ptr length") (n + 1) (Array.length ptr);
      for v = 0 to n - 1 do
        let csr = Array.to_list (Array.sub ind ptr.(v) (ptr.(v + 1) - ptr.(v))) in
        if csr <> lists.(v) then
          Alcotest.failf "%s: vertex %d CSR/list adjacency mismatch" name v
      done)
    [
      ("multigrid (disconnected)", scrambled_multigrid ());
      ("star+ring (dense row)", star_ring 50);
      ("diagonal (edgeless)", Csc.identity 30);
      ("grid2d", Generators.grid2d ~stencil:`Nine 7 6);
    ]

(* ---- golden AMD fingerprints ---- *)

(* The AMD permutation feeds every ordered preparation in [Suite] and
   every committed benchmark figure, so its output is pinned exactly: an
   FNV hash of the permutation and of the [Perm.permute_lower] gather map
   on every Table 2 stand-in and on seeded draws of the generator families
   the churn benchmark workload assembles (two draws each). A change to
   AMD's containers must leave both hashes alone; a deliberate change to
   the algorithm re-records them and says so. *)
let golden_instances () : (string * Csc.t Lazy.t) list =
  let suite =
    List.map
      (fun (p : Generators.problem) -> (p.Generators.name, p.Generators.matrix))
      Generators.suite
  in
  let rng = Utils.Rng.create 2017 in
  let ri lo hi = lo + Utils.Rng.int rng (hi - lo + 1) in
  let draws =
    List.concat_map
      (fun _ ->
        (* Sequential lets: the draw order is part of the fixture. *)
        let nx = ri 30 45 in
        let ny = ri 30 45 in
        let mx = ri 30 45 in
        let my = ri 30 45 in
        let s = Utils.Rng.int rng 1_000_000 in
        let n_rb = ri 1000 2000 in
        let band = ri 15 30 in
        let n_cc = ri 600 1000 in
        let clique = ri 16 24 in
        let overlap = ri 4 8 in
        let nblocks = ri 30 50 in
        let block = ri 10 16 in
        [
          ( Printf.sprintf "grid2d five %dx%d" nx ny,
            lazy (Generators.grid2d ~stencil:`Five nx ny) );
          ( Printf.sprintf "grid2d nine %dx%d" mx my,
            lazy (Generators.grid2d ~stencil:`Nine mx my) );
          ( Printf.sprintf "random_banded seed %d n %d band %d" s n_rb band,
            lazy
              (Generators.random_banded ~seed:s ~n:n_rb ~band ~density:0.08 ())
          );
          ( Printf.sprintf "clique_chain seed %d n %d clique %d overlap %d" s
              n_cc clique overlap,
            lazy (Generators.clique_chain ~seed:s ~n:n_cc ~clique ~overlap ()) );
          ( Printf.sprintf "block_tridiagonal seed %d %dx%d" s nblocks block,
            lazy (Generators.block_tridiagonal ~seed:s ~nblocks ~block ()) );
        ])
      [ 1; 2 ]
  in
  suite @ draws

let fingerprint (a : Csc.t) : int * int =
  let p = Ordering.amd a in
  let _, map = Perm.permute_lower p (Csc.lower a) in
  (Csc.hash_fold_int_array 0 p, Csc.hash_fold_int_array 0 map)

let golden_fingerprints =
  [
    ("cbuckle", (0x168257d257a5e088, 0x382bfdd3452899b0));
    ("Pres_Poisson", (0x282519c47e7c23ea, 0x2e0a6105dfb0fd79));
    ("gyro", (0x2115b5bb47f6d292, 0xa876bb97f1766c3));
    ("gyro_k", (0x1ad493948c396f3a, 0x2edf6076dd71bc85));
    ("Dubcova2", (0x187039a0d830d660, 0x277421c4e44bb4a));
    ("msc23052", (0x1408647b8e0adb7c, 0x10d79798125528f0));
    ("thermomech_dM", (0x172c107187177d68, 0x3bb3217daf8b996f));
    ("Dubcova3", (0x1fab77d0cca9c210, 0x1d43db611c18d057));
    ("parabolic_fem", (0xaac242f68b3a100, 0x2868110fae7e418c));
    ("ecology2", (0x154e085a4b29f31c, 0x1837f92e1429714a));
    ("tmt_sym", (0x3bdd5a928276dd86, 0x166d56e05b10ed23));
    ("grid2d five 33x34", (0x2814e21f6e909ee3, 0x3ca5a472b972836));
    ("grid2d nine 33x41", (0x3febf4d22b8174a1, 0x2949da8d9a5f1079));
    ("random_banded seed 85131 n 1040 band 18", (0xd6f971b4914ca86, 0x3b4bf09811132bc6));
    ("clique_chain seed 85131 n 886 clique 18 overlap 6", (0xfacd9ca0dd0a0f5, 0x32b7cb25da50c919));
    ("block_tridiagonal seed 85131 42x15", (0x20bb0337ba9929e3, 0x18fee1b2684e3661));
    ("grid2d five 35x31", (0x1ac10d4101516a35, 0x3cdfd88fc08388bb));
    ("grid2d nine 32x41", (0x2464ee63113a3d2c, 0x2379b72e6d665698));
    ("random_banded seed 291117 n 1409 band 23", (0x34027464637793ef, 0x28c5c2fc1a8d74e));
    ("clique_chain seed 291117 n 681 clique 19 overlap 4", (0x364f359e9d349d8b, 0x15838bb2e4cbd13b));
    ("block_tridiagonal seed 291117 39x10", (0x2031538d16733031, 0x36423a19101dd785));
  ]

let test_amd_golden_fingerprints () =
  List.iter
    (fun (name, a) ->
      let hp, hm = fingerprint (Lazy.force a) in
      match List.assoc_opt name golden_fingerprints with
      | None -> Alcotest.failf "%s: no golden fingerprint recorded" name
      | Some (ep, em) ->
          if hp <> ep then
            Alcotest.failf "%s: AMD permutation hash 0x%x, expected 0x%x" name
              hp ep;
          if hm <> em then
            Alcotest.failf "%s: permute_lower map hash 0x%x, expected 0x%x"
              name hm em)
    (golden_instances ())

let suite =
  [
    ("orderings valid on adversarial graphs", `Quick, test_valid_perms);
    ("adjacency CSR matches list view", `Quick, test_adjacency_csr_matches_lists);
    prop_valid_perms;
    ("amd fill within tolerance of greedy", `Quick, test_amd_fill_tolerance);
    ("amd beats natural on the suite meshes", `Quick, test_amd_beats_natural_on_meshes);
    ("ordered cholesky bitwise vs manual", `Quick, test_bitwise_cholesky);
    ("ordered ldlt bitwise vs manual", `Quick, test_bitwise_ldlt);
    ("ordered ic0 bitwise vs manual", `Quick, test_bitwise_ic0);
    ("ordered lu bitwise vs manual", `Quick, test_bitwise_lu);
    ("ordered ilu0 bitwise vs manual", `Quick, test_bitwise_ilu0);
    ( "ordered trisolve (`Given postorder) bitwise",
      `Quick,
      test_bitwise_trisolve_given );
    ( "trisolve rejects triangularity-breaking ordering",
      `Quick,
      test_trisolve_rejects_breaking_ordering );
    ("ordered cholesky solve correct", `Quick, test_ordered_cholesky_solve);
    prop_ordered_solve;
    ("ordered steady path allocation-free", `Quick, test_ordered_zero_alloc);
    ("cache keyed on ordering", `Quick, test_cache_keyed_on_ordering);
    ("`Given validation across families", `Quick, test_given_validation);
    ("degenerate sizes through ordered path", `Quick, test_degenerate_sizes);
    ("amd golden fingerprints", `Quick, test_amd_golden_fingerprints);
  ]
