open Sympiler_sparse
open Sympiler_kernels

(* Facade-boundary laws every family shares: a steady-state [execute_ip]
   allocates nothing for each factor family × engine × ordering; a
   malformed input raises [Invalid_argument] from the facade before any
   kernel reads it, and the plan then gives bit for bit what a fresh plan
   gives; the compilation cache keys on exactly the options a family
   consumes. *)

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
   fell back to OCaml has no kernel to call, and the OCaml rows pin 0). *)
let test_zero_alloc () =
  List.iter
    (fun fam ->
      combos (fun label engine ordering ->
          let exec, _, _ = fam.build engine ordering in
          let w = minor_words_per_call (fun () -> exec fam.input) in
          let msg =
            Printf.sprintf "%s %s: %.2f minor words/execute_ip" fam.name label
              w
          in
          if engine = `Ocaml then Alcotest.(check bool) msg true (w = 0.0)
          else Alcotest.(check bool) msg true (w < 1.0)))
    factor_families

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
    (at_w.S.Cholesky.variant = S.Cholesky.Supernodal);
  let above = w +. ldexp 1.0 (-13) in
  let cached = S.Cholesky.compile ~cache:c ~opts:(opts above) al in
  let uncached = S.Cholesky.compile ~opts:(opts above) al in
  Alcotest.(check bool) "threshold w + 2^-13: simplicial uncached" true
    (uncached.S.Cholesky.variant = S.Cholesky.Simplicial);
  Alcotest.(check bool) "cached compile decides as the uncached one" true
    (cached.S.Cholesky.variant = uncached.S.Cholesky.variant);
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

let suite =
  [
    ("factor families zero allocation", `Slow, test_zero_alloc);
    ("malformed factor input rejected", `Slow, test_malformed_factor_input);
    ("malformed cholesky solve rejected", `Quick, test_malformed_cholesky_solve);
    ("malformed trisolve rhs rejected", `Slow, test_malformed_trisolve_rhs);
    ("threshold cache key is exact", `Quick, test_threshold_key_exact);
    ("ignored options share a cache entry", `Quick, test_ignored_options_share_entry);
  ]
