open Sympiler_sparse
open Sympiler_kernels

(* Facade-boundary laws every family shares: a steady-state [execute_ip]
   allocates nothing for each factor family × engine × ordering; a
   malformed input raises [Invalid_argument] from the facade before any
   kernel reads it, and the plan then gives bit for bit what a fresh plan
   gives; the compilation cache keys on exactly the options a family
   consumes; the emitted C is pinned by golden digests. *)

module S = Sympiler

(* The facade families whose pattern and input are one lower(A) or square
   matrix, plus their one-shot [factor]. *)
module type FAMILY = sig
  include S.KERNEL with type pattern = Csc.t and type input = Csc.t

  val factor : t -> Csc.t -> output
end

type family = {
  name : string;
  input : Csc.t;
  build :
    S.engine ->
    S.ordering ->
    (Csc.t -> unit) * (Csc.t -> float array) * (Csc.t -> float array);
      (* a fresh plan's [execute_ip] discarding its view, the same call
         copying the factor values out, and the handle's one-shot
         [factor] values *)
}

let family (type o) ?vs_block_threshold ?simplicial name input
    (module F : FAMILY with type output = o) (vals : o -> float array) =
  let build engine ordering =
    let opts = S.Options.make ~ordering ?vs_block_threshold ?simplicial () in
    let t = F.compile ~opts input in
    let p = F.plan ~engine t in
    ( (fun a -> ignore (F.execute_ip p a : o)),
      (fun a -> Array.copy (vals (F.execute_ip p a))),
      fun a -> vals (F.factor t a) )
  in
  { name; input; build }

let spd = Generators.grid2d ~stencil:`Five 8 8
let spd_lower = Csc.lower spd

let factor_families =
  [
    family "ldlt" spd_lower
      (module S.Ldlt)
      (fun f -> Array.append f.Ldlt.l.Csc.values f.Ldlt.d);
    family "lu" spd
      (module S.Lu)
      (fun f -> Array.append f.Lu.l.Csc.values f.Lu.u.Csc.values);
    family "ic0" spd_lower (module S.Ic0) (fun l -> l.Csc.values);
    family "ilu0" spd (module S.Ilu0) (fun f -> f.Ilu0.values);
  ]

let cholesky_families =
  [
    family ~vs_block_threshold:0.0 "cholesky-supernodal" spd_lower
      (module S.Cholesky)
      (fun l -> l.Csc.values);
    family ~simplicial:true "cholesky-simplicial" spd_lower
      (module S.Cholesky)
      (fun l -> l.Csc.values);
  ]

let engines : (string * S.engine) list =
  [ ("ocaml", `Ocaml); ("native", `Native) ]

let orderings : (string * S.ordering) list =
  [ ("natural", `Natural); ("amd", `Amd) ]

(* Every (engine, ordering) combination, labelled. *)
let combos f =
  List.iter
    (fun (en, engine) ->
      List.iter
        (fun (on, ordering) ->
          f (Printf.sprintf "%s/%s" en on) engine ordering)
        orderings)
    engines

let minor_words_per_call (f : unit -> unit) =
  f ();
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 50 do
    f ()
  done;
  (Gc.minor_words () -. w0) /. 50.0

(* ------------------------- zero allocation ------------------------- *)

(* Native plans keep the suite's [< 1.0] convention (a native request that
   fell back to OCaml has no kernel to call, and the OCaml rows pin 0).
   Every row runs with the metrics switch off and on. *)
let check_zero_alloc name engine f =
  Helpers.switch_off_and_on @@ fun switch ->
  let w = minor_words_per_call f in
  let msg =
    Printf.sprintf "%s, %s: %.2f minor words/execute_ip" name switch w
  in
  if engine = `Ocaml then Alcotest.(check bool) msg true (w = 0.0)
  else Alcotest.(check bool) msg true (w < 1.0)

let test_zero_alloc () =
  List.iter
    (fun fam ->
      combos (fun label engine ordering ->
          let exec, _, _ = fam.build engine ordering in
          check_zero_alloc (fam.name ^ " " ^ label) engine (fun () ->
              exec fam.input)))
    (factor_families @ cholesky_families);
  let b = Generators.sparse_rhs ~seed:5 ~n:spd_lower.Csc.ncols ~fill:0.1 () in
  let t = S.Trisolve.compile (spd_lower, b) in
  List.iter
    (fun (en, engine) ->
      let p = S.Trisolve.plan ~engine t in
      check_zero_alloc ("trisolve " ^ en ^ "/natural") engine (fun () ->
          ignore (S.Trisolve.execute_ip p b : float array)))
    engines

(* ------------------------- malformed input ------------------------- *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The call must be rejected by the facade ("Sympiler.…" message), not by
   a kernel bounds check or not at all. *)
let expect_rejected msg f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" msg
  | exception Invalid_argument m when starts_with ~prefix:"Sympiler." m -> ()
  | exception e -> Alcotest.failf "%s: raised %s" msg (Printexc.to_string e)

let with_values (a : Csc.t) values = { a with Csc.values }

let malformed (a : Csc.t) =
  let v = a.Csc.values in
  [
    ("short", with_values a (Array.sub v 0 (Array.length v - 1)));
    ("long", with_values a (Array.append v [| 1.0 |]));
  ]

(* A first call on other values leaves state a stale-buffer bug would
   leak into the call after the rejected one. *)
let test_malformed_factor_input () =
  List.iter
    (fun fam ->
      let other = with_values fam.input (Array.map (( *. ) 2.0) fam.input.Csc.values) in
      combos (fun label engine ordering ->
          List.iter
            (fun (kind, bad) ->
              let msg = Printf.sprintf "%s %s %s" fam.name label kind in
              let exec, exec_vals, factor_vals = fam.build engine ordering in
              exec other;
              expect_rejected (msg ^ " execute_ip") (fun () -> exec bad);
              expect_rejected (msg ^ " factor") (fun () -> factor_vals bad);
              let got = exec_vals fam.input in
              let _, fresh, _ = fam.build engine ordering in
              Alcotest.(check bool)
                (msg ^ ": next call = fresh plan, bitwise")
                true
                (got = fresh fam.input))
            (malformed fam.input)))
    (factor_families @ cholesky_families)

let test_malformed_cholesky_solve () =
  List.iter
    (fun (on, ordering) ->
      let t =
        S.Cholesky.compile ~opts:(S.Options.make ~ordering ()) spd_lower
      in
      let b = Array.make spd.Csc.ncols 1.0 in
      List.iter
        (fun (kind, bad) ->
          expect_rejected
            (Printf.sprintf "cholesky solve %s %s" on kind)
            (fun () -> S.Cholesky.solve t bad b))
        (malformed spd_lower);
      expect_rejected
        (Printf.sprintf "cholesky solve %s short b" on)
        (fun () -> S.Cholesky.solve t spd_lower (Array.sub b 1 (Array.length b - 1))))
    orderings

(* Trisolve: a natural and an etree-postordered handle (an ordering that
   keeps L lower triangular), each RHS defect on its own. *)
let test_malformed_trisolve_rhs () =
  let l = S.Cholesky.factor (S.Cholesky.compile spd_lower) spd_lower in
  let n = l.Csc.ncols in
  let b = Generators.sparse_rhs ~seed:94 ~n ~fill:0.1 () in
  let other = { b with Vector.values = Array.map (( *. ) 3.0) b.Vector.values } in
  let nb = Array.length b.Vector.indices in
  let set_index i =
    let idx = Array.copy b.Vector.indices in
    idx.(nb - 1) <- i;
    { b with Vector.indices = idx }
  in
  let bad =
    [
      ("dimension", { b with Vector.n = n + 1 });
      ("index count", { b with Vector.indices = Array.sub b.Vector.indices 0 (nb - 1) });
      ("value count", { b with Vector.values = Array.sub b.Vector.values 0 (nb - 1) });
      ("index = n", set_index n);
      ("index = -1", set_index (-1));
    ]
  in
  let postorder =
    Sympiler_symbolic.Postorder.compute (Sympiler_symbolic.Etree.compute l)
  in
  List.iter
    (fun (on, ordering) ->
      let t =
        S.Trisolve.compile ~opts:(S.Options.make ~ordering ()) (l, b)
      in
      List.iter
        (fun (en, engine) ->
          List.iter
            (fun (kind, bb) ->
              let msg = Printf.sprintf "trisolve %s/%s %s" en on kind in
              let p = S.Trisolve.plan ~engine t in
              ignore (S.Trisolve.execute_ip p other : float array);
              expect_rejected (msg ^ " execute_ip") (fun () ->
                  S.Trisolve.execute_ip p bb);
              expect_rejected (msg ^ " solve") (fun () -> S.Trisolve.solve t bb);
              let got = Array.copy (S.Trisolve.execute_ip p b) in
              Alcotest.(check bool)
                (msg ^ ": next call = fresh plan, bitwise")
                true
                (got = S.Trisolve.execute_ip (S.Trisolve.plan ~engine t) b))
            bad)
        engines;
      expect_rejected ("trisolve solve_ip short x " ^ on) (fun () ->
          S.Trisolve.solve_ip t (Array.make (n - 1) 1.0)))
    [ ("natural", `Natural); ("postorder", `Given postorder) ]

(* ---------------------------- cache keys ---------------------------- *)

let vs_block_width (t : S.Cholesky.t) =
  (List.find (fun d -> d.S.Trace.pass = "vs-block") t.S.Cholesky.decisions)
    .S.Trace.value

(* Two thresholds closer than any coarse quantization, straddling the
   measured average supernode width: the cached compile must decide
   VS-Block exactly as an uncached one does. *)
let test_threshold_key_exact () =
  let al =
    Csc.lower (Generators.clique_chain ~n:120 ~clique:10 ~overlap:3 ())
  in
  let w = vs_block_width (S.Cholesky.compile al) in
  let opts th = S.Options.make ~vs_block_threshold:th () in
  let c = S.Plan_cache.create () in
  let at_w = S.Cholesky.compile ~cache:c ~opts:(opts w) al in
  Alcotest.(check bool) "threshold w: supernodal" true
    (S.Cholesky.variant at_w = S.Cholesky.Supernodal);
  let above = w +. ldexp 1.0 (-13) in
  let cached = S.Cholesky.compile ~cache:c ~opts:(opts above) al in
  let uncached = S.Cholesky.compile ~opts:(opts above) al in
  Alcotest.(check bool) "threshold w + 2^-13: simplicial uncached" true
    (S.Cholesky.variant uncached = S.Cholesky.Simplicial);
  Alcotest.(check bool) "cached compile decides as the uncached one" true
    (S.Cholesky.variant cached = S.Cholesky.variant uncached);
  Alcotest.(check int) "two misses, no hit" 0 (S.Plan_cache.stats c).S.Plan_cache.hits

(* Options a family never reads must not split its cache: the second
   compile hits and returns the first handle, physically equal. *)
let test_ignored_options_share_entry () =
  let ignored =
    [
      ("simplicial", S.Options.make ~simplicial:true ());
      ("vs_block_threshold", S.Options.make ~vs_block_threshold:0.5 ());
    ]
  in
  let check_shared (type h) name (compile : ?cache:h S.Plan_cache.t -> ?opts:S.Options.t -> unit -> h) =
    List.iter
      (fun (field, opts) ->
        let c = S.Plan_cache.create () in
        let h1 = compile ~cache:c ~opts:S.Options.cached () in
        let h2 = compile ~cache:c ~opts () in
        Alcotest.(check bool)
          (Printf.sprintf "%s ignores %s: same handle" name field)
          true (h1 == h2))
      ignored
  in
  let fam (type h) name (module F : FAMILY with type t = h) input =
    check_shared name (fun ?cache ?opts () -> F.compile ?cache ?opts input)
  in
  fam "ldlt" (module S.Ldlt) spd_lower;
  fam "lu" (module S.Lu) spd;
  fam "ic0" (module S.Ic0) spd_lower;
  fam "ilu0" (module S.Ilu0) spd;
  let l = S.Cholesky.factor (S.Cholesky.compile spd_lower) spd_lower in
  let b = Generators.sparse_rhs ~seed:5 ~n:l.Csc.ncols ~fill:0.1 () in
  let c = S.Plan_cache.create () in
  let h1 = S.Trisolve.compile ~cache:c ~opts:S.Options.cached (l, b) in
  let h2 =
    S.Trisolve.compile ~cache:c
      ~opts:(S.Options.make ~cache:true ~simplicial:true ())
      (l, b)
  in
  Alcotest.(check bool) "trisolve ignores simplicial: same handle" true
    (h1 == h2)

(* ------------------------- golden C digests ------------------------- *)

(* [Digest.string] of [c_code] for every suite problem under eleven
   variants: Cholesky with default options, forced simplicial,
   AMD-ordered, and threshold 1e9; LDL^T, IC(0), LU and ILU(0); and three
   pipeline DAGs (Cholesky, IC(0), SpMV then Cholesky). The eight factor
   variants were re-recorded when their C became a kernel per shape
   followed by the handle's data; the pipeline digests are unchanged
   since Cholesky moved onto [Factor.Make]. The default and AMD Cholesky
   digests of every handle whose native kernel is the supernodal one
   were re-recorded when that kernel took the buffered update and
   simplicial handles with wide supernodes began to run it; the forced
   simplicial and threshold-1e9 variants pin the simplicial kernel. *)
let golden_c_digests =
  [
    ( 1,
      [ "7dd12cb6762b21562225373974139307"; "b363345ecb9d805231025946758c1db3";
        "24e1db117d17602f0b5b42dc4d9ac718"; "b363345ecb9d805231025946758c1db3";
        "a65b4d9e732b37cf6f1a02ee1120e829"; "020a2a8d6541bb8883c61a09816696e9";
        "de156338d23eb40f954e1844a237cfb1"; "9a2088294ada8de63904b1589dfd9378";
        "df32f2c2ca6429e975906193c6107382"; "df32f2c2ca6429e975906193c6107382";
        "0517ee4dbad10757987e2b815d0f88af" ] );
    ( 2,
      [ "185304dd124cb42d125ffc5f3e4f0f7a"; "f60e9d1a66af79a84c644b8361dc7a2a";
        "184af03f143dc93cd0413ca202b345a3"; "f60e9d1a66af79a84c644b8361dc7a2a";
        "0dcd47bf395dabd33df3d410bdfbe15d"; "27926d163a5daa522ddb3e6dd0beb82f";
        "bc761876c41461d67c4261c74942fbc5"; "1ab867f6bca67ab3962e3e71b5445e63";
        "d6aa9f5199f813bb35029e5acf9e856d"; "d8986aa784d121338bf35eeb0e6a60f2";
        "d31f661690f3ea509e373e00e349bd98" ] );
    ( 3,
      [ "d0feceaedbb5efd2715e7e8c5e0aef72"; "d0feceaedbb5efd2715e7e8c5e0aef72";
        "b43d6c442346af9a7c45af857bd8ef35"; "d0feceaedbb5efd2715e7e8c5e0aef72";
        "892d5daa484909deb028f79a622e242d"; "916cbc177335ee39233dff397539acee";
        "950f162968bd9314dbeb3863bdca219a"; "1fb6d9f5de0e4f75b2c6a76d55ead434";
        "d056a0952cb92253f216b8ebf7a2019b"; "4b94e11286715e042fe04afe84539470";
        "3de852df889e3b731c25a2796f7af386" ] );
    ( 4,
      [ "48f18407d3abe311defaffb18e2e083c"; "48f18407d3abe311defaffb18e2e083c";
        "5637671de0614be52861655a3c860212"; "48f18407d3abe311defaffb18e2e083c";
        "de300ee5b802a711c46496d05c37c0b2"; "0e16f90e7eb928208599f5225ebdf29d";
        "b87fb3b95f3639c6413586f8d3e9fca6"; "2a3fa76ba1fddf55e43f9dc82427c6b9";
        "fdabf6f9f4ff9ffd92feddbe167436e3"; "ba72a295fa06a0530015945a80f07f4d";
        "ca20cbb8203222c0c2b491279c7e5e45" ] );
    ( 5,
      [ "c09856d59a892c890a44d1ddcb38c3c4"; "c7a3fb93582c2e240829500be9f74fdc";
        "bb3258ed535ce24ba93b022405341e33"; "c7a3fb93582c2e240829500be9f74fdc";
        "ac5dc924a1b0ef6c6619d03db8779159"; "70127ed6f3e29567ff493e4818452235";
        "f7f645460fd43be7ddf615f15f5b963e"; "060c131bc0a875540f3e570064c62bca";
        "19a20d659caff4ab065166bd714ba05c"; "5ec1e5f8f514c76fe16a7beec597badc";
        "a3473bf8a915d678beaf4f3a6175c67a" ] );
    ( 6,
      [ "922455c7c8561803aaf5823bd86a4bf5"; "096d4226037ae8eab90f5802b693d406";
        "b03dacb101e7afaa390220d3aeae56be"; "096d4226037ae8eab90f5802b693d406";
        "5a86a5c4a1fe49f15b5a9f6823a43468"; "8ef893712e97bc476ce2d236bd2ee468";
        "c32b0e83d25d52dd873f1d719fb485d9"; "a44996cb332f2303213938a0abaa922e";
        "11812574765eaf4df7b8da65c5286b81"; "11812574765eaf4df7b8da65c5286b81";
        "7b2121b40689dd70fd084a710b854f9e" ] );
    ( 7,
      [ "7945a15a38f4a333c678b89fa269e2ff"; "7945a15a38f4a333c678b89fa269e2ff";
        "d82474c9bdb821c611961ea90865a280"; "7945a15a38f4a333c678b89fa269e2ff";
        "c10183c85c8e8299f0d69e99d000ed24"; "ba9f7c60ae2e44c8d337b62b954d4cb4";
        "97365ab053eff173297d05a5e2c9653a"; "073557a5dcbb5218a734e618129515ab";
        "84b4daa241f6e2e0dd2d32313e2c9143"; "08adf98c747c032f755a0646202cf360";
        "239df54f199987358cc637fdadcf828a" ] );
    ( 8,
      [ "0870a93973cc5f120af1f2b66e71f678"; "a89da224086be6230fbd41e5f61353b1";
        "d5cc25b847bc05558c0fe4eff1ada517"; "a89da224086be6230fbd41e5f61353b1";
        "63c7e3ea18f7357787f13e9c3b3641f5"; "c56b26bf30a1ca0d560dff31edfd9428";
        "49e152e7d3ad5a8db18b72fdc560419c"; "c301b8405e004abc8e4b63a22c52e011";
        "d56294d2b8dca5b9cfb8f68b98a8ed2f"; "f1f5e2bbdfc942f2d5dc282705511729";
        "2e0d156f693bd13c050a421144447eae" ] );
    ( 9,
      [ "6e6a1399b5aab72cc89fec847b88446e"; "20825f3a46e7733f2ea4b71eeedf3e11";
        "650ef05b54ed906ee07b7bb4067535a3"; "20825f3a46e7733f2ea4b71eeedf3e11";
        "9eba0657831af640b2f5a696fd63a8b6"; "f78257735833f079566ffd9575a662c9";
        "43921f0f0a9fc09314186f13bb8a2184"; "7e235af10e4674a4d9ffa35ba4e7c28d";
        "7eff85f72abd0f0effa62f0a0962110e"; "606767d1ad4f6b6587c3cf923cdfbad2";
        "040a89934207f018e7a3dc5ba0b4d78a" ] );
    ( 10,
      [ "2e41e32db1ed8c119ae3a671a4ae57c0"; "1a7e856b676b8df910af585216c8d2a7";
        "095e57cf9cbf283906ebc8851b764612"; "1a7e856b676b8df910af585216c8d2a7";
        "176ce7d3f48a7b0ab7d95c2c709f871f"; "faf8bc48647bec9eb9ca803ca0ea76aa";
        "27fb7c7eb0f8f7136fe0f2597a715ddc"; "29c43aac5a5f105f5801388410e019d8";
        "b43d7d0642c30a89d5c0b9f5d0a3cc57"; "52bc824fdcdc6eefcb8a6efb9bd0bf1a";
        "62a86938831b361f02ec41ed942622c7" ] );
    ( 11,
      [ "3f7086ce1fadebfa00f44c5b3d52b125"; "f4374c9101fd27102e2ea24913bb7fc4";
        "193de6361cb2664948b8edb095aa2188"; "f4374c9101fd27102e2ea24913bb7fc4";
        "e1b76c4bfe2aa6704b76ce21ac2af3a3"; "def08f905d267acbce950d730ad2ea2a";
        "9ba99d583b862279f97627f3c185e533"; "50df62dc2f58be9623a3ff959c4274bf";
        "ddaa54ebf4ceac3f78826d6667456612"; "a1cd156f6ade8c167dac40a9cacfffac";
        "4b23f3adfe66001ddad189be8f5331a8" ] );
  ]

let golden_variants (p : S.Suite.prepared) =
  let al = p.S.Suite.a_lower and a = p.S.Suite.a_full in
  let chol opts () = S.Cholesky.c_code (S.Cholesky.compile ~opts al) in
  let pl dag x () =
    S.Pipeline.c_code (S.Pipeline.compile (S.Pipeline.of_stages dag) x)
  in
  [
    ("cholesky", chol S.Options.default);
    ("cholesky simplicial", chol (S.Options.make ~simplicial:true ()));
    ("cholesky amd", chol (S.Options.make ~ordering:`Amd ()));
    ("cholesky threshold 1e9", chol (S.Options.make ~vs_block_threshold:1e9 ()));
    ("ldlt", fun () -> S.Ldlt.c_code (S.Ldlt.compile al));
    ("ic0", fun () -> S.Ic0.c_code (S.Ic0.compile al));
    ("lu", fun () -> S.Lu.c_code (S.Lu.compile a));
    ("ilu0", fun () -> S.Ilu0.c_code (S.Ilu0.compile a));
    ("pipeline cholesky", pl [ S.Pipeline.Factor `Cholesky; S.Pipeline.Solve ] al);
    ("pipeline ic0", pl [ S.Pipeline.Factor `Ic0; S.Pipeline.Solve ] al);
    ( "pipeline spmv+cholesky",
      pl [ S.Pipeline.Spmv; S.Pipeline.Factor `Cholesky; S.Pipeline.Solve ] al );
  ]

(* The facade and the pipeline take one VS-Block decision: same fired
   flag and same measured width, bit for bit. *)
let test_golden_c_digests () =
  List.iter
    (fun (id, digests) ->
      let p = S.Suite.problem id in
      List.iter2
        (fun (variant, emit) want ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s c_code digest" p.S.Suite.name variant)
            want
            (Digest.to_hex (Digest.string (emit ()))))
        (golden_variants p) digests;
      let vs ds = List.find (fun d -> d.S.Trace.pass = "vs-block") ds in
      let f = vs (S.Cholesky.compile p.S.Suite.a_lower).S.Cholesky.decisions in
      let pl =
        vs
          (S.Pipeline.decisions
             (S.Pipeline.compile (S.Pipeline.factor_solve `Cholesky)
                p.S.Suite.a_lower))
      in
      Alcotest.(check bool)
        (p.S.Suite.name ^ ": facade and pipeline decide VS-Block alike")
        true
        (f.S.Trace.fired = pl.S.Trace.fired
        && Int64.bits_of_float f.S.Trace.value
           = Int64.bits_of_float pl.S.Trace.value))
    golden_c_digests

let suite =
  [
    ("factor families zero allocation", `Slow, test_zero_alloc);
    ("malformed factor input rejected", `Slow, test_malformed_factor_input);
    ("malformed cholesky solve rejected", `Quick, test_malformed_cholesky_solve);
    ("malformed trisolve rhs rejected", `Slow, test_malformed_trisolve_rhs);
    ("threshold cache key is exact", `Quick, test_threshold_key_exact);
    ("ignored options share a cache entry", `Quick, test_ignored_options_share_entry);
    ("golden c_code digests, one VS-Block decision", `Slow, test_golden_c_digests);
  ]
