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

let family (type o) ?simplicial name input
    (module F : FAMILY with type output = o) (vals : o -> float array) =
  let build engine ordering =
    let opts = S.Options.make ~ordering ?simplicial () in
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

(* Wide supernodes carrying enough flops: VS-Block fires, natural and
   AMD-ordered, so native plans run the supernodal C (and OCaml plans the
   simplicial executor). *)
let wide_lower =
  Csc.lower (Generators.block_tridiagonal ~seed:4 ~nblocks:15 ~block:20 ())

let cholesky_families =
  [
    family "cholesky-supernodal" wide_lower
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

(* Each defect of the CSC invariant on its own, on lower(A) or on A: a row
   index equal to n, a decreasing colptr, colptr.(n) <> nnz, a short
   rowind, unsorted rows in a column, a duplicated row in a column. *)
let malformed_patterns (a : Csc.t) : (string * Csc.t) list =
  let n = a.Csc.ncols and cp = a.Csc.colptr and ri = a.Csc.rowind in
  let nz = Csc.nnz a in
  (* A column with three entries or more, its rows below the diagonal
     from the second on (so swapping them keeps lower(A) lower). *)
  let j =
    let rec find j = if cp.(j + 1) - cp.(j) >= 3 then j else find (j + 1) in
    find 0
  in
  let p = cp.(j + 1) - 2 in
  let rows f =
    let r = Array.copy ri in
    f r;
    { a with Csc.rowind = r }
  in
  let ptrs f =
    let c = Array.copy cp in
    f c;
    { a with Csc.colptr = c }
  in
  [
    ("row index = n", rows (fun r -> r.(cp.(j + 1) - 1) <- n));
    ("decreasing colptr", ptrs (fun c -> c.(1) <- c.(2) + 1));
    ("colptr.(n) <> nnz", ptrs (fun c -> c.(n) <- nz - 1));
    ("short rowind", { a with Csc.rowind = Array.sub ri 0 (nz - 1) });
    ( "unsorted rows",
      rows (fun r ->
          let t = r.(p) in
          r.(p) <- r.(p + 1);
          r.(p + 1) <- t) );
    ("duplicated row", rows (fun r -> r.(p + 1) <- r.(p)));
  ]

(* Every facade compile rejects each malformed pattern with one
   documented error, before its plan-cache lookup and before any
   unchecked loop reads it. *)
let test_malformed_pattern_compile () =
  let b = Generators.sparse_rhs ~seed:7 ~n:spd_lower.Csc.ncols ~fill:0.1 () in
  let with_opts ordering = S.Options.make ~ordering () in
  let compiles =
    [
      ("cholesky natural", true, fun a -> ignore (S.Cholesky.compile a));
      ( "cholesky amd",
        true,
        fun a -> ignore (S.Cholesky.compile ~opts:(with_opts `Amd) a) );
      ("ldlt", true, fun a -> ignore (S.Ldlt.compile a));
      ( "ldlt amd",
        true,
        fun a -> ignore (S.Ldlt.compile ~opts:(with_opts `Amd) a) );
      ("lu", false, fun a -> ignore (S.Lu.compile a));
      ("lu amd", false, fun a -> ignore (S.Lu.compile ~opts:(with_opts `Amd) a));
      ("ic0", true, fun a -> ignore (S.Ic0.compile a));
      ("ilu0", false, fun a -> ignore (S.Ilu0.compile a));
      ("trisolve", true, fun a -> ignore (S.Trisolve.compile (a, b)));
      ( "pipeline cholesky",
        true,
        fun a ->
          ignore
            (S.Pipeline.compile ~opts:(with_opts `Amd)
               (S.Pipeline.factor_solve `Cholesky) a) );
      ( "pipeline lu",
        false,
        fun a -> ignore (S.Pipeline.compile (S.Pipeline.factor_solve `Lu) a) );
      ( "pipeline cached",
        true,
        fun a ->
          ignore
            (S.Pipeline.compile ~opts:(S.Options.make ~cache:true ())
               (S.Pipeline.factor_solve `Ldlt) a) );
    ]
  in
  List.iter
    (fun (name, lower, compile) ->
      let a = if lower then spd_lower else spd in
      compile a;
      List.iter
        (fun (kind, bad) ->
          expect_rejected (name ^ ": " ^ kind) (fun () -> compile bad))
        (malformed_patterns a))
    compiles

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

(* Options a family never reads must not split its cache: the second
   compile hits and returns the first handle, physically equal. *)
let test_ignored_options_share_entry () =
  let ignored = [ ("simplicial", S.Options.make ~simplicial:true ()) ] in
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
    (h1 == h2);
  (* LDL^T takes Cholesky's VS-Block decision, which [simplicial] pins:
     it reads the option, so the option splits its cache *)
  let c = S.Plan_cache.create () in
  let h1 = S.Ldlt.compile ~cache:c ~opts:S.Options.cached spd_lower in
  let h2 =
    S.Ldlt.compile ~cache:c
      ~opts:(S.Options.make ~cache:true ~simplicial:true ())
      spd_lower
  in
  Alcotest.(check bool) "ldlt reads simplicial: two handles" true (h1 != h2)

(* ------------------------- golden C digests ------------------------- *)

(* [Digest.string] of [c_code] for every suite problem under seven
   variants: Cholesky with default options, forced simplicial and
   AMD-ordered; LDL^T, IC(0), LU and ILU(0). They were re-recorded when
   their C became a kernel per shape followed by the handle's data. The
   default and AMD Cholesky digests of every handle whose native kernel
   is the supernodal one were re-recorded when that kernel took the
   buffered update and simplicial handles with wide supernodes began to
   run it; the forced simplicial variant pins the simplicial kernel.
   They held when the OCaml supernodal compile left the facade: cbuckle
   and msc23052 reach the same supernodal text through the analysis of
   their L. Every Cholesky digest was re-recorded when the simplicial
   kernel became the up-looking loop (one text, natural and ordered) and
   width-1 descendants began to skip the supernodal kernel's update
   buffer, and the LDL^T digest of every handle that takes the VS-Block
   decision when LDL^T began to take it (all but gyro, gyro_k and
   thermomech_dM, whose simplicial LDL^T text did not change). *)
let golden_c_digests =
  [
    ( 1,
      [ "2e425be1f14aec071e65c71d56b4a7ba"; "02a0d05c07ac9e47e048b4485baf93bd";
        "e4f85775317d8c84cf28d9614832adbc"; "2758cac549848e1079e6a657805bdf64";
        "020a2a8d6541bb8883c61a09816696e9"; "de156338d23eb40f954e1844a237cfb1";
        "9a2088294ada8de63904b1589dfd9378" ] );
    ( 2,
      [ "658dac542af4697a79b6d95ea1083e5e"; "9bb7a24095c15ad710c0ea74d1269bad";
        "83122183293ca14c48c3931c8f710cd4"; "1d4915c9556fa64d4e11c8a69fe5c052";
        "27926d163a5daa522ddb3e6dd0beb82f"; "bc761876c41461d67c4261c74942fbc5";
        "1ab867f6bca67ab3962e3e71b5445e63" ] );
    ( 3,
      [ "12310eaf2948e50feb3f1ed9b0bb091d"; "12310eaf2948e50feb3f1ed9b0bb091d";
        "062bf5ab04c34dfdf4aabf6fde077ab9"; "892d5daa484909deb028f79a622e242d";
        "916cbc177335ee39233dff397539acee"; "950f162968bd9314dbeb3863bdca219a";
        "1fb6d9f5de0e4f75b2c6a76d55ead434" ] );
    ( 4,
      [ "a4649e05a99638d1f573fc547f9129b9"; "a4649e05a99638d1f573fc547f9129b9";
        "f904d2c138567d4e5c3309c75db3e37a"; "de300ee5b802a711c46496d05c37c0b2";
        "0e16f90e7eb928208599f5225ebdf29d"; "b87fb3b95f3639c6413586f8d3e9fca6";
        "2a3fa76ba1fddf55e43f9dc82427c6b9" ] );
    ( 5,
      [ "3615b1543e375e762f7162bda2698a6f"; "42c081671ade9b9ea65def3b8f3a691a";
        "7fa4fd06c155328c565e1e09e0532b28"; "4d583767e1a7a09921e7cad12e0626dd";
        "70127ed6f3e29567ff493e4818452235"; "f7f645460fd43be7ddf615f15f5b963e";
        "060c131bc0a875540f3e570064c62bca" ] );
    ( 6,
      [ "67a6196f9d5378f961ba56eb8247e197"; "e0f98f90d9d8f6a497f29457c13acd82";
        "fd5e21cbd24f018a5e6575667aebe52c"; "323421826a2cb3d4c38cfb6e651a0cfc";
        "8ef893712e97bc476ce2d236bd2ee468"; "c32b0e83d25d52dd873f1d719fb485d9";
        "a44996cb332f2303213938a0abaa922e" ] );
    ( 7,
      [ "bdabd1715dafd9c29e687682073d3bb3"; "bdabd1715dafd9c29e687682073d3bb3";
        "bb5b39efdac914fa02f2841adc1d38dc"; "c10183c85c8e8299f0d69e99d000ed24";
        "ba9f7c60ae2e44c8d337b62b954d4cb4"; "97365ab053eff173297d05a5e2c9653a";
        "073557a5dcbb5218a734e618129515ab" ] );
    ( 8,
      [ "7727eea9846399fcc8b22e50d249d9f1"; "8baa5e39e513cb318c6ae906729cb68e";
        "45e1ec1f08bf9d4b7299fc0b473c4ad5"; "2b3e4b00b9a83ca64504161faa48cddb";
        "c56b26bf30a1ca0d560dff31edfd9428"; "49e152e7d3ad5a8db18b72fdc560419c";
        "c301b8405e004abc8e4b63a22c52e011" ] );
    ( 9,
      [ "f77c2378c87deaf9a02966f6f9c8680a"; "ce2278095bc751beec1a82795566376b";
        "84ff456c3cc21c38f27d2dcd919d9aa9"; "8de994ae6962f65fb78ce89fb36efd55";
        "f78257735833f079566ffd9575a662c9"; "43921f0f0a9fc09314186f13bb8a2184";
        "7e235af10e4674a4d9ffa35ba4e7c28d" ] );
    ( 10,
      [ "541f5ad464b98d209d3a7f10bf26eb74"; "91089fa8b6c7f35f82f0a4e8dab8758d";
        "3a328c757f3e8366d1801a1409139edc"; "66e8ddbff1c3b048f0200e4fde7a7bf8";
        "faf8bc48647bec9eb9ca803ca0ea76aa"; "27fb7c7eb0f8f7136fe0f2597a715ddc";
        "29c43aac5a5f105f5801388410e019d8" ] );
    ( 11,
      [ "744bbd956b2c2e913b753067d04b291c"; "a6422eea2fcc1dedad599975c4d96ae5";
        "4f9918dfc3c3565c29ebcd1f0d3bf1d3"; "a4f1ca228969c029cd8c82cde555c6b7";
        "def08f905d267acbce950d730ad2ea2a"; "9ba99d583b862279f97627f3c185e533";
        "50df62dc2f58be9623a3ff959c4274bf" ] );
  ]

let golden_variants (p : S.Suite.prepared) =
  let al = p.S.Suite.a_lower and a = p.S.Suite.a_full in
  let chol opts () = S.Cholesky.c_code (S.Cholesky.compile ~opts al) in
  [
    ("cholesky", chol S.Options.default);
    ("cholesky simplicial", chol (S.Options.make ~simplicial:true ()));
    ("cholesky amd", chol (S.Options.make ~ordering:`Amd ()));
    ("ldlt", fun () -> S.Ldlt.c_code (S.Ldlt.compile al));
    ("ic0", fun () -> S.Ic0.c_code (S.Ic0.compile al));
    ("lu", fun () -> S.Lu.c_code (S.Lu.compile a));
    ("ilu0", fun () -> S.Ilu0.c_code (S.Ilu0.compile a));
  ]

(* The facade and the pipeline take one VS-Block decision: same fired
   flag and same measured width, bit for bit; so does LDL^T, which takes
   Cholesky's decision, in the facade and in the pipeline. *)
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
      let pipeline family =
        vs
          (S.Pipeline.decisions
             (S.Pipeline.compile (S.Pipeline.factor_solve family)
                p.S.Suite.a_lower))
      in
      List.iter
        (fun (who, d) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s decides VS-Block as the Cholesky facade"
               p.S.Suite.name who)
            true
            (f.S.Trace.fired = d.S.Trace.fired
            && Int64.bits_of_float f.S.Trace.value
               = Int64.bits_of_float d.S.Trace.value))
        [
          ("the Cholesky pipeline", pipeline `Cholesky);
          ("the LDL^T facade", vs (S.Ldlt.compile p.S.Suite.a_lower).S.Ldlt.decisions);
          ("the LDL^T pipeline", pipeline `Ldlt);
        ])
    golden_c_digests

(* One VS-Block decision per trisolve handle: on every suite problem
   (its factor, the paper's right-hand side) the emitted C loops over a
   [blockSet] exactly when the handle's [vs-block] decision fired, and
   [explain] names the kernel that C runs. *)
let test_trisolve_c_code_follows_vs_block () =
  List.iter
    (fun (p : S.Suite.prepared) ->
      let al = p.S.Suite.a_lower in
      let l = S.Cholesky.factor (S.Cholesky.compile al) al in
      let t = S.Trisolve.compile (l, S.Suite.rhs_for p) in
      let fired =
        List.exists
          (fun d -> d.S.Trace.pass = "vs-block" && d.S.Trace.fired)
          t.S.Trisolve.decisions
      in
      let c = S.Trisolve.c_code t in
      let has_block_set =
        let key = "blockSet" and m = String.length c in
        let rec go i =
          i + 8 <= m && (String.sub c i 8 = key || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (p.S.Suite.name ^ ": c_code declares blockSet iff VS-Block fired")
        fired has_block_set;
      Alcotest.(check string)
        (p.S.Suite.name ^ ": explain's native_kernel")
        (if fired then "supernodal" else "simplicial")
        (S.Explain.trisolve t).S.Explain.native_kernel)
    (S.Suite.all ())

(* -------------- default OCaml plans: the column executors -------------- *)

(* One draw of each family of the repository benchmark's [churn]
   requests, AMD-ordered as those are. *)
let churn_draws () =
  [
    ("grid2d 9-point 38x41", Generators.grid2d ~stencil:`Nine 38 41);
    ( "random_banded 1500/22",
      Generators.random_banded ~seed:11 ~n:1500 ~band:22 ~density:0.08 () );
    ( "clique_chain 800/20/6",
      Generators.clique_chain ~seed:12 ~n:800 ~clique:20 ~overlap:6 () );
    ( "block_tridiagonal 40x13",
      Generators.block_tridiagonal ~seed:13 ~nblocks:40 ~block:13 () );
  ]

(* VS-Block runs only in the emitted C: the default OCaml plan, the
   one-shot solve and the pipeline's Cholesky stage give what the
   simplicial handle gives, bit for bit, wherever the native rule sends
   the C. *)
let test_default_cholesky_simplicial () =
  let cases =
    List.map
      (fun (p : S.Suite.prepared) ->
        (p.S.Suite.name, `Natural, p.S.Suite.a_lower))
      (S.Suite.all ())
    @ List.map
        (fun (name, a) -> (name ^ " amd", `Amd, Csc.lower a))
        (churn_draws ())
  in
  List.iter
    (fun (name, ordering, al) ->
      let compile simplicial =
        S.Cholesky.compile ~opts:(S.Options.make ~ordering ~simplicial ()) al
      in
      let d = compile false and s = compile true in
      let values t =
        Array.copy (S.Cholesky.execute_ip (S.Cholesky.plan t) al).Csc.values
      in
      Helpers.bitwise (name ^ ": default plan = simplicial plan") (values s)
        (values d);
      let b =
        Array.init al.Csc.ncols (fun i ->
            1.0 +. (0.1 *. float_of_int (i mod 7)))
      in
      let x = S.Cholesky.solve s al b in
      Helpers.bitwise (name ^ ": default solve = simplicial solve") x
        (S.Cholesky.solve d al b);
      let pl =
        S.Pipeline.compile ~opts:(S.Options.make ~ordering ())
          (S.Pipeline.factor_solve `Cholesky)
          al
      in
      Helpers.bitwise (name ^ ": pipeline's Cholesky stage = simplicial solve")
        x
        (S.Pipeline.execute_ip (S.Pipeline.plan pl) ~a:al b))
    cases

(* [Digest] of the IEEE bits (16 hex digits per entry) of the column solve
   of each suite problem's simplicial factor and the paper's right-hand
   side, recorded from handles that declined VS-Block. *)
let column_solve_digests =
  [
    (1, "1290584059c24580d2379ab962007665");
    (2, "5fd45dddce0501a1e49a0fab4c97be4c");
    (3, "3ef0a4ada0f8326ca5de12130c6f30fc");
    (4, "c0879d4c438977cc883e07fb2c0df2a0");
    (5, "d581d9fe9fb3beec5004dc40c38e6710");
    (6, "ba2a45c8e6c1fe71742203d9eb2e0686");
    (7, "0186edccadc7a935eafaece4f0be70b4");
    (8, "3b19e61500511080d5aa6262dbfb2ead");
    (9, "6935c1a7a9fed069a846792dfac0744d");
    (10, "e081e4fbb013029f18a653c8499066ae");
    (11, "168b19745a12ee56915e46d36b2e5b7f");
  ]

let bits_digest (x : float array) =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (Array.to_list
             (Array.map
                (fun v -> Printf.sprintf "%016Lx" (Int64.bits_of_float v))
                x))))

(* Every OCaml solve runs the reach-set column executor, whatever the
   handle's VS-Block decision: plan, one-shot and in-place solves all give
   the recorded column solve. *)
let test_default_trisolve_columns () =
  List.iter
    (fun (id, want) ->
      let p = S.Suite.problem id in
      let al = p.S.Suite.a_lower in
      let l =
        S.Cholesky.factor
          (S.Cholesky.compile ~opts:(S.Options.make ~simplicial:true ()) al)
          al
      in
      let b = S.Suite.rhs_for p in
      let t = S.Trisolve.compile (l, b) in
      let name = p.S.Suite.name in
      Alcotest.(check string) (name ^ ": plan") want
        (bits_digest (S.Trisolve.execute_ip (S.Trisolve.plan t) b));
      Alcotest.(check string) (name ^ ": solve") want
        (bits_digest (S.Trisolve.solve t b));
      let x = Vector.sparse_to_dense b in
      S.Trisolve.solve_ip t x;
      Alcotest.(check string) (name ^ ": solve_ip") want (bits_digest x))
    column_solve_digests

(* A plan resets only what a solve can write (the columns of the hit
   supernodes): 1,000 solves with changing values on one plan each equal
   a fresh plan's, bit for bit — natural and ordered, column and VS-Block
   handles, both engines, and a factor with negative diagonal entries,
   whose block solve writes -0.0 at the unreached column 0 of the first
   supernode, which the right-hand side [{1, 8}] hits at column 1. *)
let test_trisolve_plan_reuse () =
  let factor a =
    let al = Csc.lower a in
    S.Cholesky.factor (S.Cholesky.compile al) al
  in
  let negated (l : Csc.t) =
    let values = Array.copy l.Csc.values in
    for j = 0 to l.Csc.ncols - 1 do
      let d = l.Csc.colptr.(j) in
      if j mod 2 = 0 then values.(d) <- -.values.(d)
    done;
    { l with Csc.values }
  in
  let blocktri =
    factor (Generators.block_tridiagonal ~seed:4 ~nblocks:5 ~block:6 ())
  in
  let grid = factor (Generators.grid2d ~stencil:`Five 7 7) in
  let postorder l =
    `Given
      (Sympiler_symbolic.Postorder.compute (Sympiler_symbolic.Etree.compute l))
  in
  let engines =
    ("ocaml", `Ocaml)
    :: (if S.Native.available () then [ ("native", `Native) ] else [])
  in
  let rhs (l : Csc.t) =
    Generators.sparse_rhs ~seed:93 ~n:l.Csc.ncols ~fill:0.15 ()
  in
  let partial =
    { Vector.n = 30; indices = [| 1; 8 |]; values = [| 1.0; 2.0 |] }
  in
  List.iter
    (fun (name, l, b, ordering, vs_block) ->
      let t = S.Trisolve.compile ~opts:(S.Options.make ~ordering ()) (l, b) in
      Alcotest.(check bool) (name ^ ": VS-Block decision") vs_block
        (not t.S.Trisolve.compiled.Trisolve_sympiler.columnwise);
      List.iter
        (fun (en, engine) ->
          let p = S.Trisolve.plan ~engine t in
          for k = 1 to 1000 do
            let bk =
              {
                b with
                Vector.values =
                  Array.mapi
                    (fun i v -> v *. sin (float_of_int ((7 * k) + i)))
                    b.Vector.values;
              }
            in
            let got = Array.copy (S.Trisolve.execute_ip p bk) in
            let fresh =
              S.Trisolve.execute_ip (S.Trisolve.plan ~engine t) bk
            in
            if not (Helpers.same_bits got fresh) then
              Alcotest.failf "%s %s: solve %d differs from a fresh plan's" name
                en k
          done)
        engines)
    [
      (let l = Generators.random_lower ~seed:91 ~n:150 ~density:0.07 () in
       ("column", l, rhs l, `Natural, false));
      ("vs-block", blocktri, rhs blocktri, `Natural, true);
      ( "vs-block, negative diagonal",
        negated blocktri,
        partial,
        `Natural,
        true );
      ("ordered column", grid, rhs grid, postorder grid, false);
      ( "ordered vs-block, negative diagonal",
        negated blocktri,
        partial,
        postorder blocktri,
        true );
    ]

let suite =
  [
    ("factor families zero allocation", `Slow, test_zero_alloc);
    ("malformed factor input rejected", `Slow, test_malformed_factor_input);
    ("malformed cholesky solve rejected", `Quick, test_malformed_cholesky_solve);
    ("malformed pattern rejected at compile", `Quick, test_malformed_pattern_compile);
    ("malformed trisolve rhs rejected", `Slow, test_malformed_trisolve_rhs);
    ("ignored options share a cache entry", `Quick, test_ignored_options_share_entry);
    ("golden c_code digests, one VS-Block decision", `Slow, test_golden_c_digests);
    ("trisolve c_code follows the handle's VS-Block", `Slow,
     test_trisolve_c_code_follows_vs_block);
    ("default cholesky plans are simplicial", `Slow,
     test_default_cholesky_simplicial);
    ("default trisolve plans solve by columns", `Slow,
     test_default_trisolve_columns);
    ("trisolve plan reuse = fresh plans", `Slow, test_trisolve_plan_reuse);
  ]
