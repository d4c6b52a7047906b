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
   variants, recorded before Cholesky moved onto [Factor.Make]: Cholesky
   with default options, forced simplicial, AMD-ordered, and threshold
   1e9; LDL^T, IC(0), LU and ILU(0); and three pipeline DAGs (Cholesky,
   IC(0), SpMV then Cholesky). *)
let golden_c_digests =
  [
    ( 1,
      [ "da5a1df0375386c39da04b0c379de17c"; "9880d7ff55cd8c1fdecbf14b25d3ce9a";
        "955b8aa8b8a34347c735995727dfc7f7"; "9880d7ff55cd8c1fdecbf14b25d3ce9a";
        "6d380031595904418183ca4f0b36a3a7"; "90f9991d01b8a775e8eb1c66b89c653e";
        "ece99f9c8dfd6c1deb5bb5fb614b7302"; "b706cc6ee133588376ec1a48aa7bbaa2";
        "df32f2c2ca6429e975906193c6107382"; "df32f2c2ca6429e975906193c6107382";
        "0517ee4dbad10757987e2b815d0f88af" ] );
    ( 2,
      [ "2727334cd24b904e6bde8b5967a0c5cd"; "2727334cd24b904e6bde8b5967a0c5cd";
        "3f19a8da6d9841b088d0f655930c35a0"; "2727334cd24b904e6bde8b5967a0c5cd";
        "3541a8fc04bf58bd9b6d0fec7701b8ad"; "b1ab2fbbf8eb37a3c37bc114483ba873";
        "01fc10a066f3a6e4027350e8c32dbaa6"; "6c96c7ffe373c4f064589bacd1fe9f39";
        "d6aa9f5199f813bb35029e5acf9e856d"; "d8986aa784d121338bf35eeb0e6a60f2";
        "d31f661690f3ea509e373e00e349bd98" ] );
    ( 3,
      [ "54bd55077f774223d144090e3ac890eb"; "54bd55077f774223d144090e3ac890eb";
        "332588783fc04d9794a0bdcdcdb78787"; "54bd55077f774223d144090e3ac890eb";
        "1a3537101f38ccd60ce87fad3ab34e59"; "07f0d3a78b551444e8766c0123b311ae";
        "fd2cfa9ab89c5b589721bcce3bb15c35"; "b5d73e5fc81a088585c2236ca361fc55";
        "d056a0952cb92253f216b8ebf7a2019b"; "4b94e11286715e042fe04afe84539470";
        "3de852df889e3b731c25a2796f7af386" ] );
    ( 4,
      [ "3b4aa6dcc1f98ec48ea10a80b8416e30"; "3b4aa6dcc1f98ec48ea10a80b8416e30";
        "893c75372dc950678ba973599ee503dd"; "3b4aa6dcc1f98ec48ea10a80b8416e30";
        "985c792975d6cf9c1240a9259589689a"; "6fbb57431df88956ade6ca9b5128cd59";
        "33f70c4679d552626184eb448912ad8f"; "97cf96ad45b9d1d4cac27388ae261d34";
        "fdabf6f9f4ff9ffd92feddbe167436e3"; "ba72a295fa06a0530015945a80f07f4d";
        "ca20cbb8203222c0c2b491279c7e5e45" ] );
    ( 5,
      [ "0cbfc4eef1cf72106937f15fa7082296"; "0cbfc4eef1cf72106937f15fa7082296";
        "301b8203a8af82585580520e4851e2ec"; "0cbfc4eef1cf72106937f15fa7082296";
        "7b26290935cc3d8c5f5aa67dd8c7c5dc"; "a0e68930e931bfc8a76d6f26c7b8e275";
        "96b804fce60630457387882060f71ceb"; "535d5d4e03d97fc0420e65e89de5c6f3";
        "19a20d659caff4ab065166bd714ba05c"; "5ec1e5f8f514c76fe16a7beec597badc";
        "a3473bf8a915d678beaf4f3a6175c67a" ] );
    ( 6,
      [ "bde02b17a10ae5f7c910493198e5ad48"; "192bf55ab1f7139f515d799615641a13";
        "ad16472054d3b5ebfa6661da91275c92"; "192bf55ab1f7139f515d799615641a13";
        "6e17c3adba2e21fd48b469e79d235980"; "cc90b336e7d4139d6219d49e3db4caff";
        "da23d55ec8ceb030e496f6b3be833ffa"; "bacda828a896f9440d725d67ae17912a";
        "11812574765eaf4df7b8da65c5286b81"; "11812574765eaf4df7b8da65c5286b81";
        "7b2121b40689dd70fd084a710b854f9e" ] );
    ( 7,
      [ "54c59bebcf2cbb1c5cef48e86a1c0d35"; "54c59bebcf2cbb1c5cef48e86a1c0d35";
        "08f54c53c58905a4a9b9f423aacf2123"; "54c59bebcf2cbb1c5cef48e86a1c0d35";
        "46d7b0a3d75340414b1c1d96c37d0dea"; "051dbfd891e4210f413bf6ddc8a2bc83";
        "5929b47c338cc9d5067722966c67bb84"; "7cd2b0e91da4bb13a51b04c9402b7e28";
        "84b4daa241f6e2e0dd2d32313e2c9143"; "08adf98c747c032f755a0646202cf360";
        "239df54f199987358cc637fdadcf828a" ] );
    ( 8,
      [ "d01f837872ca3555ef7d45bfc1241687"; "d01f837872ca3555ef7d45bfc1241687";
        "60ea1210b0b2e467d6697b09560b6c98"; "d01f837872ca3555ef7d45bfc1241687";
        "e7f1b9836933fe0e65a969f8a493fa27"; "9131581e216bdb513114c36e569f7cdf";
        "0469da9537644485e92057e62c29f2be"; "befa8c3b98243edf22b6ac180df6e46f";
        "d56294d2b8dca5b9cfb8f68b98a8ed2f"; "f1f5e2bbdfc942f2d5dc282705511729";
        "2e0d156f693bd13c050a421144447eae" ] );
    ( 9,
      [ "5c14c97fb3dd9fc9ddb2305d1bee45b3"; "5c14c97fb3dd9fc9ddb2305d1bee45b3";
        "5ea86a9a808b5fdeed5957e22d77d119"; "5c14c97fb3dd9fc9ddb2305d1bee45b3";
        "76874e9f26543d06cbcce8b7de60a619"; "414249b3057acb708a07dd8fa039f4c7";
        "a006f47541a382fd9e9d891c6ff7b2f2"; "4c6646acb5281c71b4451f0091b72620";
        "7eff85f72abd0f0effa62f0a0962110e"; "606767d1ad4f6b6587c3cf923cdfbad2";
        "040a89934207f018e7a3dc5ba0b4d78a" ] );
    ( 10,
      [ "cd312a81f2791d7edd49edf1a2c378e5"; "cd312a81f2791d7edd49edf1a2c378e5";
        "4d00956d45869600b95a43a724a6be33"; "cd312a81f2791d7edd49edf1a2c378e5";
        "e95237c5e77846c09e31ce0b5a43a318"; "bf1f2b941bc8324938b032a243cc6877";
        "c686a0f18de6f0a233c26b320fa3524c"; "71d8da517f89ff494893fb8af7ecfa17";
        "b43d7d0642c30a89d5c0b9f5d0a3cc57"; "52bc824fdcdc6eefcb8a6efb9bd0bf1a";
        "62a86938831b361f02ec41ed942622c7" ] );
    ( 11,
      [ "2f8bbc29a879e11e8a1885490d6da6f4"; "2f8bbc29a879e11e8a1885490d6da6f4";
        "a35f6419fd8069d4ca3d490590a272d3"; "2f8bbc29a879e11e8a1885490d6da6f4";
        "3f32ab352e4d55bec42d224e582e26bb"; "401fb459d6a01c16b917cc8b6e31fb18";
        "3582f304255085739c71b5390177617c"; "b5f16ca111e06c60b4ead98c1c6ea7ce";
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
