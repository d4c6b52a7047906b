open Sympiler_sparse
open Sympiler_kernels

(* The native backend: every family's emitted C compiled to a .so and
   raced against the OCaml executor, plus the cache/fallback machinery.

   Differential law: a plan with [~engine:`Native] must produce the same
   values as the default OCaml plan of the same handle — bitwise in practice (the C follows the same operation order
   and is compiled with -ffp-contract=off), checked at 1e-15 relative to
   allow a stray last-bit difference without hiding real divergence. *)

module N = Sympiler.Native
module NE = Sympiler.Native_engine

let require_native () = if not (N.available ()) then Alcotest.skip ()

let check_vals msg (a : float array) (b : float array) =
  Alcotest.(check int) (msg ^ " length") (Array.length a) (Array.length b);
  Alcotest.(check bool)
    (Printf.sprintf "%s (max rel diff %.3g)" msg (Utils.max_rel_diff a b))
    true
    (Utils.max_rel_diff a b <= 1e-15)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* A small slice of the zoo: each distinct pattern costs one cc
   invocation on a cold cache, so keep the per-family set structural,
   not exhaustive (the qcheck laws below add random coverage). *)
let diff_zoo () =
  List.filter
    (fun (name, _) ->
      List.mem name [ "grid5_8x8"; "clique"; "blocktri"; "dense-ish"; "tiny" ])
    (Helpers.spd_zoo ())

(* ---------------- per-family differential checks ---------------- *)

let test_trisolve_native () =
  require_native ();
  let cases =
    [
      (* plain random lower: reach-set code, no VS-Block *)
      ( "random",
        Generators.random_lower ~seed:91 ~n:150 ~density:0.07 (),
        Generators.sparse_rhs ~seed:92 ~n:150 ~fill:0.06 () );
      (* a Cholesky factor: supernodal L so VS-Block (and the tmp
         buffer) participates *)
      ( "supernodal-L",
        (let a = Generators.block_tridiagonal ~seed:4 ~nblocks:5 ~block:6 () in
         let al = Csc.lower a in
         Sympiler.Cholesky.factor (Sympiler.Cholesky.compile al) al),
        Generators.sparse_rhs ~seed:93 ~n:30 ~fill:0.15 () );
    ]
  in
  List.iter
    (fun (name, l, b) ->
      let t = Sympiler.Trisolve.compile (l, b) in
      let po = Sympiler.Trisolve.plan t in
      let pn = Sympiler.Trisolve.plan ~engine:`Native t in
      Alcotest.(check bool) (name ^ ": native loaded") true
        (pn.Sympiler.Trisolve.native <> None);
      (* several executions with fresh values: steady state, not just the
         first call *)
      for round = 1 to 3 do
        let b' =
          {
            b with
            Vector.values =
              Array.map (fun v -> v *. float_of_int round) b.Vector.values;
          }
        in
        let xo = Array.copy (Sympiler.Trisolve.execute_ip po b') in
        let xn = Sympiler.Trisolve.execute_ip pn b' in
        check_vals (Printf.sprintf "%s round %d" name round) xo xn
      done)
    cases

let test_trisolve_native_ordered () =
  require_native ();
  (* ordered handle: the permute-in / permute-out path must wrap the
     native executor exactly as it wraps the OCaml one *)
  let a = Generators.grid2d ~stencil:`Five 7 7 in
  let al = Csc.lower a in
  let l = Sympiler.Cholesky.factor (Sympiler.Cholesky.compile al) al in
  let b = Generators.sparse_rhs ~seed:94 ~n:l.Csc.ncols ~fill:0.1 () in
  let p =
    Sympiler_symbolic.Postorder.compute (Sympiler_symbolic.Etree.compute l)
  in
  let t =
    Sympiler.Trisolve.compile
      ~opts:(Sympiler.Options.make ~ordering:(`Given p) ())
      (l, b)
  in
  let po = Sympiler.Trisolve.plan t in
  let pn = Sympiler.Trisolve.plan ~engine:`Native t in
  Alcotest.(check bool) "native loaded" true
    (pn.Sympiler.Trisolve.native <> None);
  check_vals "ordered trisolve"
    (Array.copy (Sympiler.Trisolve.execute_ip po b))
    (Sympiler.Trisolve.execute_ip pn b)

let cholesky_diff name t al =
  let po = Sympiler.Cholesky.plan t in
  let pn = Sympiler.Cholesky.plan ~engine:`Native t in
  Alcotest.(check bool) (name ^ ": native loaded") true
    (pn.Sympiler.Cholesky.native <> None);
  let lo = Sympiler.Cholesky.execute_ip po al in
  let ln = Sympiler.Cholesky.execute_ip pn al in
  check_vals name lo.Csc.values ln.Csc.values

let test_cholesky_native () =
  require_native ();
  List.iter
    (fun (name, a) ->
      let al = Csc.lower a in
      cholesky_diff name (Sympiler.Cholesky.compile al) al)
    (diff_zoo ());
  (* both variants forced on the same matrix *)
  let al = Csc.lower (Generators.block_tridiagonal ~seed:4 ~nblocks:5 ~block:6 ()) in
  cholesky_diff "forced supernodal"
    (Sympiler.Cholesky.compile
       ~opts:(Sympiler.Options.make ~vs_block_threshold:0.0 ())
       al)
    al;
  cholesky_diff "forced simplicial"
    (Sympiler.Cholesky.compile
       ~opts:(Sympiler.Options.make ~simplicial:true ())
       al)
    al

let test_ldlt_native () =
  require_native ();
  List.iter
    (fun (name, a) ->
      let al = Csc.lower a in
      let t = Sympiler.Ldlt.compile al in
      let po = Sympiler.Ldlt.plan t in
      let pn = Sympiler.Ldlt.plan ~engine:`Native t in
      Alcotest.(check bool) (name ^ ": native loaded") true
        (pn.Sympiler.Ldlt.native <> None);
      let fo = Sympiler.Ldlt.execute_ip po al in
      let fn = Sympiler.Ldlt.execute_ip pn al in
      check_vals (name ^ " L") fo.Ldlt.l.Csc.values fn.Ldlt.l.Csc.values;
      check_vals (name ^ " D") fo.Ldlt.d fn.Ldlt.d)
    (diff_zoo ())

let test_lu_native () =
  require_native ();
  List.iter
    (fun (name, a) ->
      let t = Sympiler.Lu.compile a in
      let po = Sympiler.Lu.plan t in
      let pn = Sympiler.Lu.plan ~engine:`Native t in
      Alcotest.(check bool) (name ^ ": native loaded") true
        (pn.Sympiler.Lu.native <> None);
      let fo = Sympiler.Lu.execute_ip po a in
      let fn = Sympiler.Lu.execute_ip pn a in
      check_vals (name ^ " L") fo.Lu.l.Csc.values fn.Lu.l.Csc.values;
      check_vals (name ^ " U") fo.Lu.u.Csc.values fn.Lu.u.Csc.values)
    (diff_zoo ())

let test_ic0_native () =
  require_native ();
  List.iter
    (fun (name, a) ->
      let al = Csc.lower a in
      let t = Sympiler.Ic0.compile al in
      let po = Sympiler.Ic0.plan t in
      let pn = Sympiler.Ic0.plan ~engine:`Native t in
      Alcotest.(check bool) (name ^ ": native loaded") true
        (pn.Sympiler.Ic0.native <> None);
      let lo = Sympiler.Ic0.execute_ip po al in
      let ln = Sympiler.Ic0.execute_ip pn al in
      check_vals name lo.Csc.values ln.Csc.values)
    (diff_zoo ())

let test_ilu0_native () =
  require_native ();
  List.iter
    (fun (name, a) ->
      let t = Sympiler.Ilu0.compile a in
      let po = Sympiler.Ilu0.plan t in
      let pn = Sympiler.Ilu0.plan ~engine:`Native t in
      Alcotest.(check bool) (name ^ ": native loaded") true
        (pn.Sympiler.Ilu0.native <> None);
      let fo = Sympiler.Ilu0.execute_ip po a in
      let fn = Sympiler.Ilu0.execute_ip pn a in
      check_vals name fo.Ilu0.values fn.Ilu0.values)
    (diff_zoo ())

(* ------------------- random (qcheck) differentials ------------------- *)

let qcheck_cholesky_native =
  Helpers.qtest ~count:12 "cholesky native = ocaml (random SPD)"
    Helpers.arb_spd (fun a ->
      (not (N.available ()))
      ||
      let al = Csc.lower a in
      let t = Sympiler.Cholesky.compile al in
      let lo =
        Sympiler.Cholesky.execute_ip (Sympiler.Cholesky.plan t) al
      in
      let ln =
        Sympiler.Cholesky.execute_ip
          (Sympiler.Cholesky.plan ~engine:`Native t)
          al
      in
      Utils.max_rel_diff lo.Csc.values ln.Csc.values <= 1e-15)

let qcheck_ldlt_native =
  Helpers.qtest ~count:12 "ldlt native = ocaml (random SPD)" Helpers.arb_spd
    (fun a ->
      (not (N.available ()))
      ||
      let al = Csc.lower a in
      let t = Sympiler.Ldlt.compile al in
      let fo = Sympiler.Ldlt.execute_ip (Sympiler.Ldlt.plan t) al in
      let fn =
        Sympiler.Ldlt.execute_ip (Sympiler.Ldlt.plan ~engine:`Native t) al
      in
      Utils.max_rel_diff fo.Ldlt.l.Csc.values fn.Ldlt.l.Csc.values <= 1e-15
      && Utils.max_rel_diff fo.Ldlt.d fn.Ldlt.d <= 1e-15)

(* ----------------------- failure-path semantics ----------------------- *)

let test_native_zero_pivot () =
  require_native ();
  let al = Csc.lower (Generators.grid2d ~stencil:`Five 3 3) in
  let zeros = { al with Csc.values = Array.map (fun _ -> 0.0) al.Csc.values } in
  let t = Sympiler.Ldlt.compile al in
  let pn = Sympiler.Ldlt.plan ~engine:`Native t in
  Alcotest.(check bool) "native loaded" true (pn.Sympiler.Ldlt.native <> None);
  let pivot =
    try
      ignore (Sympiler.Ldlt.execute_ip pn zeros);
      -1
    with Ldlt.Zero_pivot k -> k
  in
  Alcotest.(check int) "native reports the failing pivot" 0 pivot;
  (* the plan stays reusable after the failure *)
  let fo = Sympiler.Ldlt.execute_ip (Sympiler.Ldlt.plan t) al in
  let fn = Sympiler.Ldlt.execute_ip pn al in
  check_vals "reusable after zero pivot (L)" fo.Ldlt.l.Csc.values
    fn.Ldlt.l.Csc.values;
  check_vals "reusable after zero pivot (D)" fo.Ldlt.d fn.Ldlt.d

(* --------------------------- cache accounting --------------------------- *)

let test_so_cache () =
  require_native ();
  Helpers.with_temp_dir (fun dir ->
      Unix.putenv "SYMPILER_NATIVE_CACHE" dir;
      Fun.protect
        ~finally:(fun () -> Unix.putenv "SYMPILER_NATIVE_CACHE" "")
        (fun () ->
          N.clear_memory_cache ();
          N.reset_stats ();
          let al = Csc.lower (Generators.grid2d ~stencil:`Nine 5 5) in
          let t = Sympiler.Ic0.compile al in
          let p1 = Sympiler.Ic0.plan ~engine:`Native t in
          let s1 = N.stats () in
          Alcotest.(check int) "first plan compiles once" 1 s1.N.compiles;
          let p2 = Sympiler.Ic0.plan ~engine:`Native t in
          let s2 = N.stats () in
          Alcotest.(check int) "second plan does not recompile" 1 s2.N.compiles;
          Alcotest.(check int) "second plan is a memory hit" 1 s2.N.memory_hits;
          (match (p1.Sympiler.Ic0.native, p2.Sympiler.Ic0.native) with
          | Some e1, Some e2 ->
              Alcotest.(check bool) "memory hit returns the same kernel" true
                (e1.NE.nk == e2.NE.nk)
          | _ -> Alcotest.fail "native exec missing");
          (* drop the in-process tier: the disk tier must serve the .so
             without re-invoking the compiler *)
          N.clear_memory_cache ();
          let p3 = Sympiler.Ic0.plan ~engine:`Native t in
          let s3 = N.stats () in
          Alcotest.(check int) "disk hit does not recompile" 1 s3.N.compiles;
          Alcotest.(check int) "disk hit counted" 1 s3.N.disk_hits;
          (match p3.Sympiler.Ic0.native with
          | Some e ->
              Alcotest.(check bool) "kernel origin is the disk cache" true
                (e.NE.nk.N.origin = N.Disk_cache)
          | None -> Alcotest.fail "native exec missing");
          (* differential still holds on the disk-loaded kernel *)
          let lo = Sympiler.Ic0.execute_ip (Sympiler.Ic0.plan t) al in
          let ln = Sympiler.Ic0.execute_ip p3 al in
          check_vals "disk-loaded kernel factors" lo.Csc.values ln.Csc.values))

(* ------------------------- steady-state allocation ------------------------- *)

let minor_words_per_call (f : unit -> unit) =
  f ();
  (* warmup: first call may fault pages / lazily initialize *)
  let w0 = Gc.minor_words () in
  for _ = 1 to 50 do
    f ()
  done;
  (Gc.minor_words () -. w0) /. 50.0

let test_native_zero_alloc () =
  require_native ();
  let l = Generators.random_lower ~seed:7 ~n:200 ~density:0.05 () in
  let b = Generators.sparse_rhs ~seed:8 ~n:200 ~fill:0.05 () in
  let tt = Sympiler.Trisolve.compile (l, b) in
  let pt = Sympiler.Trisolve.plan ~engine:`Native tt in
  Alcotest.(check bool) "trisolve native loaded" true
    (pt.Sympiler.Trisolve.native <> None);
  let w = minor_words_per_call (fun () ->
      ignore (Sympiler.Trisolve.execute_ip pt b : float array))
  in
  Alcotest.(check bool)
    (Printf.sprintf "trisolve native allocates nothing (%.2f w/call)" w)
    true (w < 1.0);
  let al = Csc.lower (Generators.grid2d ~stencil:`Five 8 8) in
  let tl = Sympiler.Ldlt.compile al in
  let pl = Sympiler.Ldlt.plan ~engine:`Native tl in
  Alcotest.(check bool) "ldlt native loaded" true
    (pl.Sympiler.Ldlt.native <> None);
  let w = minor_words_per_call (fun () ->
      ignore (Sympiler.Ldlt.execute_ip pl al : Ldlt.factors))
  in
  Alcotest.(check bool)
    (Printf.sprintf "ldlt native allocates nothing (%.2f w/call)" w)
    true (w < 1.0);
  (* Suite problems 1 and 5: trisolve (factor and paper RHS), Cholesky and
     LDL^T through native plans. *)
  List.iter
    (fun id ->
      let sp = Sympiler.Suite.problem id in
      let al = sp.Sympiler.Suite.a_lower in
      let check what native f =
        Alcotest.(check bool)
          (Printf.sprintf "%s %s native loaded" sp.Sympiler.Suite.name what)
          true native;
        let w = minor_words_per_call f in
        Alcotest.(check bool)
          (Printf.sprintf "%s %s native allocates nothing (%.2f w/call)"
             sp.Sympiler.Suite.name what w)
          true (w < 1.0)
      in
      let tc = Sympiler.Cholesky.compile al in
      let pc = Sympiler.Cholesky.plan ~engine:`Native tc in
      check "cholesky" (pc.Sympiler.Cholesky.native <> None) (fun () ->
          ignore (Sympiler.Cholesky.execute_ip pc al : Csc.t));
      let b = Sympiler.Suite.rhs_for sp in
      let tt = Sympiler.Trisolve.compile (Sympiler.Cholesky.factor tc al, b) in
      let pt = Sympiler.Trisolve.plan ~engine:`Native tt in
      check "trisolve" (pt.Sympiler.Trisolve.native <> None) (fun () ->
          ignore (Sympiler.Trisolve.execute_ip pt b : float array));
      let pl = Sympiler.Ldlt.plan ~engine:`Native (Sympiler.Ldlt.compile al) in
      check "ldlt" (pl.Sympiler.Ldlt.native <> None) (fun () ->
          ignore (Sympiler.Ldlt.execute_ip pl al : Ldlt.factors)))
    [ 1; 5 ]

(* ------------------------------ fallback ------------------------------ *)

let test_fallback_no_cc () =
  Unix.putenv "SYMPILER_CC" "/nonexistent/compiler-for-tests";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "SYMPILER_CC" "")
    (fun () ->
      (* a fresh pattern each run would still hit the memory tier from an
         earlier test of this process; drop it so the probe must run *)
      N.clear_memory_cache ();
      N.reset_stats ();
      Alcotest.(check bool) "engine reports unavailable" false (N.available ());
      let al = Csc.lower (Generators.grid2d ~stencil:`Five 4 4) in
      let t = Sympiler.Ic0.compile al in
      let p = Sympiler.Ic0.plan ~engine:`Native t in
      Alcotest.(check bool) "plan fell back to the OCaml executor" true
        (p.Sympiler.Ic0.native = None);
      let s = N.stats () in
      Alcotest.(check bool) "fallback counted" true (s.N.fallbacks >= 1);
      Alcotest.(check int) "nothing compiled" 0 s.N.compiles;
      (* the fallback plan still factors correctly *)
      let lo = Sympiler.Ic0.execute_ip (Sympiler.Ic0.plan t) al in
      let ln = Sympiler.Ic0.execute_ip p al in
      check_vals "fallback factors" lo.Csc.values ln.Csc.values)

let suite =
  [
    ("trisolve native = ocaml", `Slow, test_trisolve_native);
    ("trisolve native ordered", `Slow, test_trisolve_native_ordered);
    ("cholesky native = ocaml", `Slow, test_cholesky_native);
    ("ldlt native = ocaml", `Slow, test_ldlt_native);
    ("lu native = ocaml", `Slow, test_lu_native);
    ("ic0 native = ocaml", `Slow, test_ic0_native);
    ("ilu0 native = ocaml", `Slow, test_ilu0_native);
    qcheck_cholesky_native;
    qcheck_ldlt_native;
    ("native zero pivot", `Slow, test_native_zero_pivot);
    ("so cache accounting", `Slow, test_so_cache);
    ("native zero allocation", `Slow, test_native_zero_alloc);
    ("fallback without cc", `Quick, test_fallback_no_cc);
  ]
