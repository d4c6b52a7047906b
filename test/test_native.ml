open Sympiler_sparse
open Sympiler_kernels

(* The native backend: every family's emitted C compiled to a .so and
   raced against the OCaml executor, plus the cache/fallback machinery.

   Differential law: a plan with [~engine:`Native] must produce the same
   values as the OCaml executor of the same kernel — the handle's default
   OCaml plan, or, where VS-Block fired (which only the C runs), the
   supernodal executor over the handle's L (with the diagonal for LDL^T)
   and the VS-Block solve, called directly. The C follows the same
   operation order and is compiled with -ffp-contract=off, so the law is
   bitwise for every Cholesky and LDL^T kernel and the column solve;
   elsewhere (LU, IC(0), ILU(0), the VS-Block solve) it is checked at
   1e-15 relative, to allow a stray last-bit difference without hiding
   real divergence. *)

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

(* Every factor family, Cholesky twice (its VS-Block rule deciding, and
   pinned simplicial), behind one record: [build ordering engine a]
   compiles [a]'s pattern and makes one plan. [square] families take A,
   the others lower(A). *)
type plan = {
  exec : Csc.t -> unit;  (** [execute_ip], result discarded *)
  values : Csc.t -> float array;  (** [execute_ip], factor values copied *)
  native : NE.exec option;
}

type family = {
  fname : string;
  square : bool;
  exact : bool;  (** native = OCaml bit for bit *)
  build : Sympiler.ordering -> Sympiler.engine -> Csc.t -> plan;
  c_code : Sympiler.ordering -> Csc.t -> string;
}

let family (type o) ?(square = false) ?(exact = false)
    ?(base = Sympiler.Options.default) fname
    (module F : Sympiler.Factor.S with type output = o)
    (vals : o -> float array) =
  let compile ordering a =
    F.compile ~opts:{ base with Sympiler.Options.ordering } a
  in
  {
    fname;
    square;
    exact;
    build =
      (fun ordering engine a ->
        let p = F.plan ~engine (compile ordering a) in
        {
          exec = (fun i -> ignore (F.execute_ip p i : o));
          values = (fun i -> Array.copy (vals (F.execute_ip p i)));
          native = p.F.native;
        });
    c_code = (fun ordering a -> F.c_code (compile ordering a));
  }

module C = Sympiler.Cholesky

let upgraded (t : C.t) = C.(variant t = Supernodal)

(* The caller's values in a handle's compiled order. *)
let compiled_input_of (ord : Sympiler.applied_ordering) (pattern : Csc.t)
    (al : Csc.t) =
  match ord.Sympiler.o_perm with
  | None -> al
  | Some _ ->
      {
        pattern with
        Csc.values = Array.map (fun q -> al.Csc.values.(q)) ord.Sympiler.o_map;
      }

let compiled_input (t : C.t) = compiled_input_of t.C.ord t.C.pattern

(* The supernodal executor over the supernodal analysis of a factor
   pattern [l], as a plan that takes its input in compiled order. *)
let supernodal_of (l : Csc.t) =
  Cholesky_supernodal.Sympiler.make_plan
    (Cholesky_supernodal.Sympiler.of_analysis
       (Cholesky_supernodal.of_pattern ~l_colptr:l.Csc.colptr
          ~l_rowind:l.Csc.rowind))

(* ... over [t]'s L (its pattern read off one factorization of [al]): the
   reference an upgraded native plan follows operation for operation, so
   that law is bitwise. *)
let supernodal_plan (t : C.t) (al : Csc.t) = supernodal_of (C.factor t al)

let supernodal_run sp (t : C.t) (al : Csc.t) =
  Cholesky_supernodal.Sympiler.factor_ip sp (compiled_input t al)

let supernodal_values sp = sp.Cholesky_supernodal.Sympiler.l.Csc.values

(* The OCaml factor values a native Cholesky plan of [t] agrees with on
   [al]: the supernodal executor's where VS-Block fired, else the
   handle's own (simplicial) plan's. *)
let cholesky_oracle (t : C.t) (al : Csc.t) : float array =
  if upgraded t then begin
    let sp = supernodal_plan t al in
    supernodal_run sp t al;
    supernodal_values sp
  end
  else Array.copy (C.execute_ip (C.plan t) al).Csc.values

(* "cholesky"'s OCaml arm is the native kernel's reference whichever way
   the rule went: the supernodal executor where VS-Block fired, the
   handle's own simplicial plan elsewhere. *)
let cholesky_family =
  let plain = family ~exact:true "cholesky" (module C) (fun l -> l.Csc.values) in
  let build ordering engine a =
    let t = C.compile ~opts:(Sympiler.Options.make ~ordering ()) a in
    if engine = `Native || not (upgraded t) then plain.build ordering engine a
    else
      let sp = supernodal_plan t a in
      let exec i = supernodal_run sp t i in
      {
        exec;
        values =
          (fun i ->
            exec i;
            Array.copy (supernodal_values sp));
        native = None;
      }
  in
  { plain with build }

module LD = Sympiler.Ldlt

(* LDL^T takes Cholesky's decision: its [vs-block] record fired. *)
let ldlt_upgraded (t : LD.t) =
  List.exists
    (fun d -> d.Sympiler.Trace.pass = "vs-block" && d.Sympiler.Trace.fired)
    t.LD.decisions

(* The supernodal executor with the diagonal over the supernodal analysis
   of [t]'s L (read off a plan, no factorization): an upgraded native
   LDL^T plan's bitwise reference. [ldlt_supernodal_run] factors [al]
   into it and returns L's values then D, as the "ldlt" families do. *)
let ldlt_supernodal_plan (t : LD.t) =
  let l = (LD.plan t).LD.p.Ldlt.f.Ldlt.l in
  (supernodal_of l, Array.make l.Csc.ncols 0.0)

let ldlt_supernodal_run (sp, d) (t : LD.t) (al : Csc.t) =
  Cholesky_supernodal.Sympiler.factor_ip ~d sp
    (compiled_input_of t.LD.ord t.LD.pattern al);
  Array.append (supernodal_values sp) d

(* "ldlt"'s OCaml arm, like "cholesky"'s: the supernodal executor with the
   diagonal where VS-Block fired, the handle's own plan elsewhere. *)
let ldlt_family ?(base = Sympiler.Options.default) fname =
  let plain =
    family ~exact:true ~base fname (module LD) (fun f ->
        Array.append f.Ldlt.l.Csc.values f.Ldlt.d)
  in
  let build ordering engine a =
    let t = LD.compile ~opts:{ base with Sympiler.Options.ordering } a in
    if engine = `Native || not (ldlt_upgraded t) then
      plain.build ordering engine a
    else
      let sp = ldlt_supernodal_plan t in
      {
        exec = (fun i -> ignore (ldlt_supernodal_run sp t i : float array));
        values = ldlt_supernodal_run sp t;
        native = None;
      }
  in
  { plain with build }

let families =
  [
    cholesky_family;
    family ~exact:true "cholesky simplicial"
      ~base:(Sympiler.Options.make ~simplicial:true ())
      (module Sympiler.Cholesky)
      (fun l -> l.Csc.values);
    ldlt_family "ldlt";
    ldlt_family ~base:(Sympiler.Options.make ~simplicial:true ())
      "ldlt simplicial";
    family ~square:true "lu" (module Sympiler.Lu) (fun f ->
        Array.append f.Lu.l.Csc.values f.Lu.u.Csc.values);
    family "ic0" (module Sympiler.Ic0) (fun l -> l.Csc.values);
    family ~square:true "ilu0" (module Sympiler.Ilu0) (fun f -> f.Ilu0.values);
  ]

let input fam a = if fam.square then a else Csc.lower a
let find name = List.find (fun f -> f.fname = name) families

(* The family's law between its native plan and its OCaml arm. *)
let check_family fam msg expected got =
  if fam.exact then Helpers.bitwise msg expected got
  else check_vals msg expected got

(* ---------------- per-family differential checks ---------------- *)

(* What a native solve must give: the OCaml executor of its lowering —
   the VS-Block one, called directly, where the handle's decision fired
   (OCaml plans solve by columns), else the plan's own reach-set
   executor. *)
let trisolve_oracle (t : Sympiler.Trisolve.t) (b : Vector.sparse) =
  let module T = Sympiler.Trisolve in
  let c = t.T.compiled in
  if c.Trisolve_sympiler.columnwise then Array.copy (T.execute_ip (T.plan t) b)
  else
    match t.T.ord.Sympiler.o_perm with
    | None -> Trisolve_sympiler.solve_full c b
    | Some p ->
        let pb =
          {
            b with
            Vector.indices = t.T.b_pattern;
            values = Array.map (fun m -> b.Vector.values.(m)) t.T.ord_b_map;
          }
        in
        let xp = Trisolve_sympiler.solve_full c pb in
        let x = Array.make (Array.length xp) 0.0 in
        Array.iteri (fun k v -> x.(p.(k)) <- v) xp;
        x

(* The law a native solve of [t] keeps against [trisolve_oracle]: bitwise
   for a handle that declined VS-Block, whose C is the OCaml executor's
   column loop in its ascending order; 1e-15 for a VS-Block kernel. *)
let check_solve msg (t : Sympiler.Trisolve.t) expected got =
  if t.Sympiler.Trisolve.compiled.Trisolve_sympiler.columnwise then
    Helpers.bitwise msg expected got
  else check_vals msg expected got

let test_trisolve_native () =
  require_native ();
  let cases =
    [
      (* plain random lower: reach-set code, no VS-Block *)
      ( "random",
        Generators.random_lower ~seed:91 ~n:150 ~density:0.07 (),
        Generators.sparse_rhs ~seed:92 ~n:150 ~fill:0.06 () );
      (* a Cholesky factor: supernodal L so VS-Block (and the tmp
         buffer) participates in the C *)
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
        check_solve
          (Printf.sprintf "%s round %d" name round)
          t (trisolve_oracle t b')
          (Sympiler.Trisolve.execute_ip pn b')
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
  let pn = Sympiler.Trisolve.plan ~engine:`Native t in
  Alcotest.(check bool) "native loaded" true
    (pn.Sympiler.Trisolve.native <> None);
  check_solve "ordered trisolve" t (trisolve_oracle t b)
    (Sympiler.Trisolve.execute_ip pn b)

(* A trisolve handle reads L's values where it holds them: over a
   Cholesky plan's own factor, both engines' plans solve with what an
   in-place refactor wrote there. *)
let test_trisolve_native_refactor () =
  require_native ();
  let al = Csc.lower (Generators.grid2d ~stencil:`Five 12 12) in
  let p = Sympiler.Cholesky.plan (Sympiler.Cholesky.compile al) in
  ignore (Sympiler.Cholesky.execute_ip p al : Csc.t);
  let l = Sympiler.Cholesky.plan_factor p in
  let b = Generators.sparse_rhs ~seed:95 ~n:l.Csc.ncols ~fill:0.1 () in
  let t = Sympiler.Trisolve.compile (l, b) in
  let po = Sympiler.Trisolve.plan t in
  let pn = Sympiler.Trisolve.plan ~engine:`Native t in
  Alcotest.(check bool) "native loaded" true
    (pn.Sympiler.Trisolve.native <> None);
  let before = Array.copy (Sympiler.Trisolve.execute_ip po b) in
  check_solve "before the refactor" t (trisolve_oracle t b)
    (Sympiler.Trisolve.execute_ip pn b);
  (* new values on the same pattern: the diagonal raised by one *)
  let values = Array.copy al.Csc.values in
  for j = 0 to al.Csc.ncols - 1 do
    for q = al.Csc.colptr.(j) to al.Csc.colptr.(j + 1) - 1 do
      if al.Csc.rowind.(q) = j then values.(q) <- values.(q) +. 1.0
    done
  done;
  ignore (Sympiler.Cholesky.execute_ip p { al with Csc.values } : Csc.t);
  let xo = Array.copy (Sympiler.Trisolve.execute_ip po b) in
  let xn = Array.copy (Sympiler.Trisolve.execute_ip pn b) in
  check_solve "after the refactor" t (trisolve_oracle t b) xn;
  List.iter
    (fun (engine, x) ->
      Alcotest.(check bool)
        (engine ^ " plan solves with the refactored factor")
        true
        (Utils.max_rel_diff before x > 1e-3))
    [ ("ocaml", xo); ("native", xn) ]

(* Wide supernodes carrying enough flops: VS-Block fires. *)
let wide_lower () =
  Csc.lower (Generators.block_tridiagonal ~seed:4 ~nblocks:15 ~block:20 ())

let cholesky_diff name t al =
  let lo = cholesky_oracle t al in
  let pn = Sympiler.Cholesky.plan ~engine:`Native t in
  Alcotest.(check bool) (name ^ ": native loaded") true
    (pn.Sympiler.Cholesky.native <> None);
  Helpers.bitwise name lo (Sympiler.Cholesky.execute_ip pn al).Csc.values

let test_cholesky_native () =
  require_native ();
  List.iter
    (fun (name, a) ->
      let al = Csc.lower a in
      cholesky_diff name (Sympiler.Cholesky.compile al) al)
    (diff_zoo ());
  (* both kernels on the same matrix: the rule's, and the pinned one *)
  let al = wide_lower () in
  let t = Sympiler.Cholesky.compile al in
  Alcotest.(check bool) "wide: supernodal" true (upgraded t);
  cholesky_diff "supernodal" t al;
  cholesky_diff "pinned simplicial"
    (Sympiler.Cholesky.compile
       ~opts:(Sympiler.Options.make ~simplicial:true ())
       al)
    al

(* Both LDL^T kernels, bit for bit: the zoo under the rule (its "dense-ish"
   pattern, and the wide block-tridiagonal one, upgrade) and pinned
   simplicial. *)
let test_ldlt_native () =
  require_native ();
  List.iter
    (fun fname ->
      let fam = find fname in
      List.iter
        (fun (name, a) ->
          let al = Csc.lower a in
          let msg = Printf.sprintf "%s %s" fname name in
          let pn = fam.build `Natural `Native al in
          Alcotest.(check bool) (msg ^ ": native loaded") true
            (pn.native <> None);
          Helpers.bitwise msg
            ((fam.build `Natural `Ocaml al).values al)
            (pn.values al))
        (("wide", Generators.block_tridiagonal ~seed:4 ~nblocks:15 ~block:20 ())
        :: diff_zoo ()))
    [ "ldlt"; "ldlt simplicial" ];
  Alcotest.(check bool) "wide: supernodal" true
    (ldlt_upgraded (LD.compile (wide_lower ())))

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
      let lo = cholesky_oracle t al in
      let ln =
        Sympiler.Cholesky.execute_ip
          (Sympiler.Cholesky.plan ~engine:`Native t)
          al
      in
      Helpers.same_bits lo ln.Csc.values)

let qcheck_ldlt_native =
  Helpers.qtest ~count:12 "ldlt native = ocaml (random SPD)" Helpers.arb_spd
    (fun a ->
      (not (N.available ()))
      ||
      let fam = find "ldlt" and al = Csc.lower a in
      Helpers.same_bits
        ((fam.build `Natural `Ocaml al).values al)
        ((fam.build `Natural `Native al).values al))

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
  Helpers.bitwise "reusable after zero pivot (L)" fo.Ldlt.l.Csc.values
    fn.Ldlt.l.Csc.values;
  Helpers.bitwise "reusable after zero pivot (D)" fo.Ldlt.d fn.Ldlt.d

(* An ordered plan's kernel reads the caller's natural-order values
   through the ordering's gather map (or the map composed into its own):
   no OCaml gather, same factors. *)
let test_native_ordered () =
  require_native ();
  List.iter
    (fun fam ->
      List.iter
        (fun (name, a) ->
          let a = input fam a in
          let po = fam.build `Amd `Ocaml a in
          let pn = fam.build `Amd `Native a in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: native loaded" fam.fname name)
            true (pn.native <> None);
          check_family fam
            (Printf.sprintf "%s %s amd" fam.fname name)
            (po.values a) (pn.values a))
        (diff_zoo ()))
    families

(* n = 0 and n = 1 (a stored diagonal of either sign or zero, or none):
   the native plan gives the OCaml plan's factor, or its compile or plan
   raises the OCaml one's exception. *)
let test_native_degenerate () =
  require_native ();
  let one colptr rowind values =
    Csc.create ~nrows:1 ~ncols:1 ~colptr ~rowind ~values
  in
  let cases =
    [
      ( "n=0",
        Csc.create ~nrows:0 ~ncols:0 ~colptr:[| 0 |] ~rowind:[||] ~values:[||]
      );
      ("n=1", one [| 0; 1 |] [| 0 |] [| 4.0 |]);
      ("n=1 negative", one [| 0; 1 |] [| 0 |] [| -1.0 |]);
      ("n=1 zero", one [| 0; 1 |] [| 0 |] [| 0.0 |]);
      ("n=1 no entries", one [| 0; 0 |] [||] [||]);
    ]
  in
  let error e = Error (Printexc.to_string e) in
  List.iter
    (fun fam ->
      List.iter
        (fun (cname, a) ->
          let msg = Printf.sprintf "%s %s" fam.fname cname in
          let outcome engine =
            match fam.build `Natural engine a with
            | exception e -> error e
            | p -> (
                if engine = `Native then
                  Alcotest.(check bool) (msg ^ ": native loaded") true
                    (p.native <> None);
                match p.values a with
                | v -> Ok (Array.map Int64.bits_of_float v)
                | exception e -> error e)
          in
          Alcotest.(check bool)
            (msg ^ ": native = ocaml")
            true
            (outcome `Native = outcome `Ocaml))
        cases)
    families

(* One [Not_positive_definite] for every Cholesky plan: on cbuckle with
   its last diagonal entry negated, the OCaml supernodal executor (called
   directly: "cholesky"'s OCaml arm), the OCaml simplicial plan and both
   native plans raise it at the same column, one handler catches them
   all, and each plan then factors as a fresh one. The kernels' other
   spellings name the same exception. *)
let test_native_cholesky_pivot () =
  require_native ();
  let al = (Sympiler.Suite.problem 1).Sympiler.Suite.a_lower in
  let n = al.Csc.ncols in
  let values = Array.copy al.Csc.values in
  (* lower(A), rows sorted: the diagonal leads its column *)
  let d = al.Csc.colptr.(n - 1) in
  values.(d) <- -.values.(d);
  let bad = { al with Csc.values } in
  List.iter
    (fun (name, engine) ->
      let fam = find name in
      let what =
        name ^ if engine = `Native then " native" else " ocaml"
      in
      let p = fam.build `Natural engine al in
      Alcotest.(check bool) (what ^ ": native loaded") (engine = `Native)
        (p.native <> None);
      let col =
        match p.exec bad with
        | () -> -1
        | exception Dense_blas.Not_positive_definite j -> j
      in
      Alcotest.(check int) (what ^ ": raises at the last column") (n - 1) col;
      Alcotest.(check bool)
        (what ^ ": then factors as a fresh plan, bitwise")
        true
        (Helpers.same_bits (p.values al)
           ((fam.build `Natural engine al).values al)))
    [
      ("cholesky", `Ocaml);
      ("cholesky simplicial", `Ocaml);
      ("cholesky", `Native);
      ("cholesky simplicial", `Native);
    ];
  List.iter
    (fun e ->
      Alcotest.(check bool) (Printexc.to_string e ^ ": one exception") true
        (match raise e with
        | () -> false
        | exception Dense_blas.Not_positive_definite 7 -> true))
    [
      Cholesky_ref.Not_positive_definite 7;
      Cholesky_leftlooking.Not_positive_definite 7;
      Ic0.Not_positive_definite 7;
      Rank_update.Not_positive_definite 7;
    ]

(* The artifact runs the same kernel: each family's [c_code], compiled
   standalone with the engine's optimization flags, factors the input to
   the native plan's arrays bit for bit. The entry takes the input, then
   the first [k] of the plan's factor and workspace arrays. *)
let test_artifact_bitwise () =
  require_native ();
  let cc = Option.get (N.cc ()) in
  let a = Generators.block_tridiagonal ~seed:4 ~nblocks:15 ~block:20 () in
  Helpers.with_temp_dir (fun dir ->
      List.iteri
        (fun case (name, ordering, entry, k) ->
          let fam = find name in
          let a = input fam a in
          let p = fam.build ordering `Native a in
          p.exec a;
          let f = (Option.get p.native).NE.f in
          let buf = Buffer.create 65536 in
          Buffer.add_string buf (fam.c_code ordering a);
          let arr name (v : float array) =
            Printf.bprintf buf "static double %s[%d] = {%s};\n" name
              (max 1 (Array.length v))
              (String.concat ","
                 (Array.to_list (Array.map (Printf.sprintf "%h") v)))
          in
          Buffer.add_string buf "\n#include <stdio.h>\n";
          arr "ax" a.Csc.values;
          let outs = List.init k (fun i -> Printf.sprintf "o%d" i) in
          List.iteri
            (fun i o -> arr o (Array.make (Array.length f.(i)) 0.0))
            outs;
          Printf.bprintf buf "int main(void) {\n  %s(ax, %s);\n" entry
            (String.concat ", " outs);
          List.iteri
            (fun i o ->
              Printf.bprintf buf
                "  for (int i = 0; i < %d; i++) printf(\"%%a\\n\", %s[i]);\n"
                (Array.length f.(i)) o)
            outs;
          Buffer.add_string buf "  return 0;\n}\n";
          let src = Filename.concat dir (Printf.sprintf "a%d.c" case) in
          let exe = Filename.concat dir (Printf.sprintf "a%d" case) in
          Out_channel.with_open_text src (fun oc ->
              Out_channel.output_string oc (Buffer.contents buf));
          let rc =
            Sys.command
              (Printf.sprintf
                 "%s -O3 -march=native -ffp-contract=off -o %s %s -lm"
                 (Filename.quote cc) (Filename.quote exe) (Filename.quote src))
          in
          Alcotest.(check int) (name ^ ": artifact compiles") 0 rc;
          let ic = Unix.open_process_in (Filename.quote exe) in
          let got =
            List.init k (fun i ->
                Array.init (Array.length f.(i)) (fun _ ->
                    float_of_string (input_line ic)))
          in
          ignore (Unix.close_process_in ic);
          List.iteri
            (fun i g ->
              Helpers.bitwise
                (Printf.sprintf "%s artifact array %d = native plan's" name i)
                f.(i) g)
            got)
        [
          ("cholesky", `Natural, "cholesky_supernodal", 1);
          ("cholesky simplicial", `Amd, "cholesky_factor", 1);
          ("ldlt", `Amd, "ldlt_factor", 2);
          ("ldlt simplicial", `Natural, "ldlt_factor", 2);
          ("lu", `Natural, "lu_factor", 2);
          ("ic0", `Amd, "ic0_factor", 1);
          ("ilu0", `Amd, "ilu0_factor", 1);
        ])

(* ---------- VS-Block in the emitted C only: upgraded native plans ---------- *)

let chol_opts ?simplicial ordering =
  Sympiler.Options.make ?simplicial ~ordering ()

(* Handles whose native plans run the supernodal kernel while their OCaml
   plans run the simplicial one: an AMD-ordered grid (flop-weighted width
   12.6, 0.307 Mflop) and a suite mesh problem, natural and ordered. *)
let upgraded_cases () =
  let dub = (Sympiler.Suite.problem 5).Sympiler.Suite.a_lower in
  [
    ("grid2d 34 amd", Csc.lower (Generators.grid2d 34 34), `Amd);
    ("Dubcova2", dub, `Natural);
    ("Dubcova2 amd", dub, `Amd);
  ]

(* ||A x - b|| / (||A|| ||x|| + ||b||) (infinity norms) for [x = solve b]
   on the symmetric matrix whose lower part is [a]. *)
let backward_error_of (solve : float array -> float array) (a : Csc.t) =
  let n = a.Csc.ncols in
  let b = Array.init n (fun i -> 1.0 +. (0.1 *. float_of_int (i mod 7))) in
  let x = solve b in
  let r = Array.map (fun v -> -.v) b in
  let rowsum = Array.make n 0.0 in
  for j = 0 to n - 1 do
    for p = a.Csc.colptr.(j) to a.Csc.colptr.(j + 1) - 1 do
      let i = a.Csc.rowind.(p) and v = a.Csc.values.(p) in
      r.(i) <- r.(i) +. (v *. x.(j));
      rowsum.(i) <- rowsum.(i) +. Float.abs v;
      if i <> j then begin
        r.(j) <- r.(j) +. (v *. x.(i));
        rowsum.(j) <- rowsum.(j) +. Float.abs v
      end
    done
  done;
  let norm v = Array.fold_left (fun m e -> Float.max m (Float.abs e)) 0.0 v in
  norm r /. ((norm rowsum *. norm x) +. norm b)

(* ... for the solve with a Cholesky factor [l]. *)
let backward_error (a : Csc.t) (l : Csc.t) =
  backward_error_of (Cholesky_ref.solve_with_factor l) a

(* The scaled backward-error bound every factor here must meet. *)
let check_backward name which (a : Csc.t) e =
  let bound = 10.0 *. float_of_int a.Csc.ncols *. epsilon_float in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s backward error %.3g <= %.3g" name which e bound)
    true (e <= bound)

(* An upgraded native plan gives, bit for bit, the factor of the OCaml
   supernodal executor over the supernodal analysis of the handle's L,
   called directly; the handle's own (simplicial) OCaml plan is a
   different algorithm, so against it both factors pass the scaled
   backward-error bound. *)
let test_upgraded_bitwise () =
  require_native ();
  List.iter
    (fun (name, al, ordering) ->
      let t = C.compile ~opts:(chol_opts ordering) al in
      Alcotest.(check bool) (name ^ ": supernodal native kernel") true
        (upgraded t);
      let pn = C.plan ~engine:`Native t in
      Alcotest.(check bool) (name ^ ": native loaded") true
        (pn.C.native <> None);
      let ln = Array.copy (C.execute_ip pn al).Csc.values in
      let l = C.factor t al in
      let sup =
        Cholesky_supernodal.Sympiler.of_analysis
          (Cholesky_supernodal.of_pattern ~l_colptr:l.Csc.colptr
             ~l_rowind:l.Csc.rowind)
      in
      let a = compiled_input t al in
      Helpers.bitwise
        (name ^ ": native = the OCaml supernodal executor")
        (Cholesky_supernodal.Sympiler.factor sup a).Csc.values ln;
      let lo = C.execute_ip (C.plan t) al in
      List.iter
        (fun (which, l) -> check_backward name which a (backward_error a l))
        [ ("native", C.plan_factor pn); ("own OCaml plan", lo) ];
      Alcotest.(check bool) (name ^ ": c_code is the supernodal artifact") true
        (contains (C.c_code t) "cholesky_supernodal_kernel"))
    (upgraded_cases ())

(* A pinned variant binds the native plan too. *)
let test_pinned_keep_simplicial () =
  require_native ();
  let al = Csc.lower (Generators.grid2d 34 34) in
  let t = C.compile ~opts:(chol_opts ~simplicial:true `Amd) al in
  Alcotest.(check bool) "simplicial native kernel" true
    (C.variant t = C.Simplicial);
  Alcotest.(check bool) "c_code is the simplicial artifact" false
    (contains (C.c_code t) "cholesky_supernodal_kernel");
  let pn = C.plan ~engine:`Native t in
  Alcotest.(check bool) "native loaded" true (pn.C.native <> None);
  check_vals "simplicial = true"
    (Array.copy (C.execute_ip (C.plan t) al).Csc.values)
    (C.execute_ip pn al).Csc.values

(* Both sides of the rule, AMD-ordered grids: 36 x 18 is below the width
   (5.55); 21 x 21 and 24 x 24 reach it (6.32, 9.0) but are below the
   flop floor (0.057, 0.097 Mflop), where the supernodal C loses; 31 x 31
   clears both (11.35, 0.227 Mflop). *)
let test_upgrade_threshold () =
  List.iter
    (fun (name, al, want) ->
      let t = C.compile ~opts:(chol_opts `Amd) al in
      let r = Sympiler.Explain.cholesky t in
      let vs =
        List.find (fun d -> d.Sympiler.Trace.pass = "vs-block") t.C.decisions
      in
      let fw = r.Sympiler.Explain.flop_weighted_width in
      Alcotest.(check bool)
        (Printf.sprintf "%s: the decision records the width %.2f" name fw)
        true
        (vs.Sympiler.Trace.value = fw && vs.Sympiler.Trace.threshold = 6.0);
      Alcotest.(check string) (name ^ ": native kernel") want
        r.Sympiler.Explain.native_kernel;
      Alcotest.(check string) (name ^ ": variant agrees") want
        (C.variant_name (C.variant t));
      Alcotest.(check bool) (name ^ ": decision agrees") (want = "supernodal")
        vs.Sympiler.Trace.fired;
      Alcotest.(check bool) (name ^ ": c_code agrees") (want = "supernodal")
        (contains (C.c_code t) "cholesky_supernodal_kernel"))
    [
      ("grid2d 36x18", Csc.lower (Generators.grid2d 36 18), "simplicial");
      ("grid2d 21x21", Csc.lower (Generators.grid2d 21 21), "simplicial");
      ("grid2d 24x24", Csc.lower (Generators.grid2d 24 24), "simplicial");
      ("grid2d 31x31", Csc.lower (Generators.grid2d 31 31), "supernodal");
    ]

(* A negated diagonal: the upgraded plan raises at the column the OCaml
   supernodal executor reports, then refactors the original input bit for
   bit. *)
let test_upgraded_pivot () =
  require_native ();
  let al = Csc.lower (Generators.grid2d 34 34) in
  let t = C.compile ~opts:(chol_opts `Amd) al in
  Alcotest.(check bool) "upgraded" true (upgraded t);
  let pn = C.plan ~engine:`Native t in
  Alcotest.(check bool) "native loaded" true (pn.C.native <> None);
  let sp = supernodal_plan t al in
  let values = Array.copy al.Csc.values in
  (* lower(A), rows sorted: the diagonal leads its column *)
  let d = al.Csc.colptr.(300) in
  values.(d) <- -.values.(d);
  let bad = { al with Csc.values } in
  let ocaml_col =
    match supernodal_run sp t bad with
    | () -> -1
    | exception Dense_blas.Not_positive_definite j -> j
  in
  let native_col =
    match C.execute_ip pn bad with
    | _ -> -1
    | exception Dense_blas.Not_positive_definite j -> j
  in
  Alcotest.(check bool) "the OCaml supernodal executor fails" true
    (ocaml_col >= 0);
  Alcotest.(check int) "native raises at the same column" ocaml_col native_col;
  supernodal_run sp t al;
  Helpers.bitwise "then refactors the original input" (supernodal_values sp)
    (C.execute_ip pn al).Csc.values

(* Rank updates and [plan_factor] work on an upgraded plan: the kernels
   share the factor arrays, so an update of the native factor equals
   [Rank_update]'s over the OCaml supernodal executor's factor. *)
let test_upgraded_update () =
  require_native ();
  let al = Csc.lower (Generators.grid2d 34 34) in
  let t = C.compile ~opts:(chol_opts `Amd) al in
  Alcotest.(check bool) "upgraded" true (upgraded t);
  let pn = C.plan ~engine:`Native t in
  let sp = supernodal_plan t al in
  ignore (C.execute_ip pn al : Csc.t);
  supernodal_run sp t al;
  let l0 = sp.Cholesky_supernodal.Sympiler.l in
  Helpers.bitwise "plan_factor" l0.Csc.values (C.plan_factor pn).Csc.values;
  (* a factor column's rows, inside the pattern: in compiled order for
     the executor's factor, mapped back through the permutation for the
     plan's natural-order w *)
  let perm = Option.get t.C.ord.Sympiler.o_perm in
  let l = C.plan_factor pn in
  let j = l.Csc.ncols / 3 in
  let lo = l.Csc.colptr.(j) and hi = l.Csc.colptr.(j + 1) in
  let wi = Array.sub l.Csc.rowind lo (hi - lo) in
  let wv = Array.init (hi - lo) (fun k -> 0.2 *. l.Csc.values.(lo + k)) in
  let pairs = Array.mapi (fun k i -> (perm.(i), wv.(k))) wi in
  Array.sort compare pairs;
  let w =
    {
      Vector.n = l.Csc.ncols;
      indices = Array.map fst pairs;
      values = Array.map snd pairs;
    }
  in
  let rk = Rank_update.make_plan ~a_pattern:t.C.pattern l0 in
  let len = Array.length wi in
  C.update_ip pn ~sigma:0.5 w;
  Rank_update.update_raw rk ~neg:false ~sigma:0.5 wi wv len;
  Alcotest.(check bool) "no escalation" true (pn.C.handle == t);
  Helpers.bitwise "update_ip" l0.Csc.values (C.plan_factor pn).Csc.values;
  C.downdate_ip pn ~sigma:0.5 w;
  Rank_update.update_raw rk ~neg:true ~sigma:0.5 wi wv len;
  Helpers.bitwise "downdate_ip" l0.Csc.values (C.plan_factor pn).Csc.values

(* The same for LDL^T, which takes Cholesky's decision: an upgraded native
   plan gives, bit for bit, L and D of the OCaml supernodal executor with
   the diagonal, and both it and the handle's own (simplicial) OCaml plan
   pass the scaled backward-error bound. *)
let test_upgraded_ldlt_bitwise () =
  require_native ();
  List.iter
    (fun (name, al, ordering) ->
      let t = LD.compile ~opts:(chol_opts ordering) al in
      Alcotest.(check bool) (name ^ ": supernodal native kernel") true
        (ldlt_upgraded t);
      let pn = LD.plan ~engine:`Native t in
      Alcotest.(check bool) (name ^ ": native loaded") true
        (pn.LD.native <> None);
      let fn = LD.execute_ip pn al in
      Helpers.bitwise
        (name ^ ": native = the OCaml supernodal executor with the diagonal")
        (ldlt_supernodal_run (ldlt_supernodal_plan t) t al)
        (Array.append fn.Ldlt.l.Csc.values fn.Ldlt.d);
      let a = compiled_input_of t.LD.ord t.LD.pattern al in
      List.iter
        (fun (which, f) ->
          check_backward name which a (backward_error_of (Ldlt.solve f) a))
        [ ("native", fn); ("own OCaml plan", LD.execute_ip (LD.plan t) al) ];
      Alcotest.(check bool) (name ^ ": c_code is the supernodal artifact") true
        (contains (LD.c_code t) "ldlt_supernodal_kernel"))
    (upgraded_cases ())

(* An exactly zero pivot on an upgraded LDL^T plan: the identity with one
   zero diagonal entry (natural column 300) raises [Ldlt.Zero_pivot] at
   the column the OCaml supernodal executor and the simplicial plan
   report; the plan then refactors the original input bit for bit. An
   indefinite matrix (a grid beside its negation) factors, with negative
   pivots, bit for bit as the OCaml executor does. *)
let test_upgraded_ldlt_pivot () =
  require_native ();
  let al = Csc.lower (Generators.grid2d 34 34) in
  let t = LD.compile ~opts:(chol_opts `Amd) al in
  Alcotest.(check bool) "upgraded" true (ldlt_upgraded t);
  let pn = LD.plan ~engine:`Native t in
  Alcotest.(check bool) "native loaded" true (pn.LD.native <> None);
  let values = Array.map (fun _ -> 0.0) al.Csc.values in
  for j = 0 to al.Csc.ncols - 1 do
    (* lower(A), rows sorted: the diagonal leads its column *)
    if j <> 300 then values.(al.Csc.colptr.(j)) <- 1.0
  done;
  let bad = { al with Csc.values } in
  let col f = match f () with _ -> -1 | exception Ldlt.Zero_pivot k -> k in
  let sp = ldlt_supernodal_plan t in
  let ocaml_col = col (fun () -> ldlt_supernodal_run sp t bad) in
  let native_col = col (fun () -> LD.execute_ip pn bad) in
  Alcotest.(check int) "the OCaml supernodal executor fails at column 300"
    (Perm.inverse (Option.get t.LD.ord.Sympiler.o_perm)).(300) ocaml_col;
  Alcotest.(check int) "native raises at the same column" ocaml_col native_col;
  Alcotest.(check int) "as the simplicial plan does" ocaml_col
    (col (fun () -> LD.execute_ip (LD.plan t) bad));
  let fn = LD.execute_ip pn al in
  Helpers.bitwise "then refactors the original input"
    (ldlt_supernodal_run sp t al)
    (Array.append fn.Ldlt.l.Csc.values fn.Ldlt.d);
  let g = Generators.grid2d 34 34 in
  let ind = Csc.lower (Helpers.block_diag [ g; Csc.map_values g Float.neg ]) in
  let t = LD.compile ~opts:(chol_opts `Amd) ind in
  Alcotest.(check bool) "indefinite: upgraded" true (ldlt_upgraded t);
  let fn = LD.execute_ip (LD.plan ~engine:`Native t) ind in
  Alcotest.(check bool) "indefinite: negative pivots" true
    (Array.exists (fun d -> d < 0.0) fn.Ldlt.d);
  Helpers.bitwise "indefinite: native = the OCaml supernodal executor"
    (ldlt_supernodal_run (ldlt_supernodal_plan t) t ind)
    (Array.append fn.Ldlt.l.Csc.values fn.Ldlt.d);
  let a = compiled_input_of t.LD.ord t.LD.pattern ind in
  check_backward "indefinite" "native" a (backward_error_of (Ldlt.solve fn) a)

(* --------------------------- cache accounting --------------------------- *)

(* Patterns of one shape share one object. The simplicial Cholesky kernel
   reads its input through a gather map with the ordering composed in, so
   a natural and an ordered handle are one shape too. *)
let test_shape_sharing () =
  require_native ();
  Helpers.with_temp_dir (fun dir ->
      Unix.putenv "SYMPILER_NATIVE_CACHE" dir;
      Fun.protect
        ~finally:(fun () -> Unix.putenv "SYMPILER_NATIVE_CACHE" "")
        (fun () ->
          N.clear_memory_cache ();
          N.reset_stats ();
          let simp = find "cholesky simplicial" in
          let grid k = Csc.lower (Generators.grid2d ~stencil:`Five k k) in
          let p1 = simp.build `Natural `Native (grid 5) in
          let p2 = simp.build `Natural `Native (grid 6) in
          let s = N.stats () in
          Alcotest.(check int) "two natural patterns: one compile" 1
            s.N.compiles;
          Alcotest.(check int) "the second is a memory hit" 1 s.N.memory_hits;
          (match (p1.native, p2.native) with
          | Some e1, Some e2 ->
              Alcotest.(check bool) "one kernel" true (e1.NE.nk == e2.NE.nk)
          | _ -> Alcotest.fail "native exec missing");
          ignore (simp.build `Amd `Native (grid 5) : plan);
          Alcotest.(check int) "natural and ordered: one compile" 1
            (N.stats ()).N.compiles))


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

(* The repository benchmark's [refactor] set-up: its five native plans
   (Cholesky on cbuckle, on thermomech_dM pinned simplicial and on an
   AMD-ordered 90 x 90 grid, LDL^T on msc23052, LU on gyro) must load five
   distinct kernel texts, or the set-up fails every request; in a fresh
   cache that is five compiles and no memory hit. *)
let test_refactor_five_kernels () =
  require_native ();
  Helpers.with_temp_dir (fun dir ->
      Unix.putenv "SYMPILER_NATIVE_CACHE" dir;
      Fun.protect
        ~finally:(fun () -> Unix.putenv "SYMPILER_NATIVE_CACHE" "")
        (fun () ->
          N.clear_memory_cache ();
          N.reset_stats ();
          let suite id = Sympiler.Suite.problem id in
          let chol opts al =
            (C.plan ~engine:`Native (C.compile ~opts al)).C.native <> None
          in
          let loaded =
            [
              chol Sympiler.Options.default (suite 1).Sympiler.Suite.a_lower;
              chol (chol_opts ~simplicial:true `Natural)
                (suite 7).Sympiler.Suite.a_lower;
              chol (chol_opts `Amd) (Csc.lower (Generators.grid2d 90 90));
              (Sympiler.Ldlt.plan ~engine:`Native
                 (Sympiler.Ldlt.compile (suite 6).Sympiler.Suite.a_lower))
                .Sympiler.Ldlt.native
              <> None;
              (Sympiler.Lu.plan ~engine:`Native
                 (Sympiler.Lu.compile (suite 3).Sympiler.Suite.a_full))
                .Sympiler.Lu.native
              <> None;
            ]
          in
          Alcotest.(check bool) "five native plans" true
            (List.for_all Fun.id loaded);
          let st = N.stats () in
          Alcotest.(check int) "five compiles" 5 st.N.compiles;
          Alcotest.(check int) "no memory hit" 0 st.N.memory_hits;
          Alcotest.(check int) "no fallback" 0 st.N.fallbacks))

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
    [ 1; 5 ];
  (* the families that read their input in place, and an ordered plan *)
  let a = Generators.grid2d ~stencil:`Five 8 8 in
  List.iter
    (fun (name, ordering) ->
      let fam = find name in
      let a = input fam a in
      let p = fam.build ordering `Native a in
      Alcotest.(check bool) (name ^ " native loaded") true (p.native <> None);
      let w = minor_words_per_call (fun () -> p.exec a) in
      Alcotest.(check bool)
        (Printf.sprintf "%s native allocates nothing (%.2f w/call)" name w)
        true (w < 1.0))
    [
      ("lu", `Natural);
      ("ic0", `Natural);
      ("ilu0", `Natural);
      ("cholesky simplicial", `Amd);
    ];
  (* a simplicial handle whose native plan runs the supernodal kernel *)
  let al = Csc.lower (Generators.grid2d 34 34) in
  let t = C.compile ~opts:(chol_opts `Amd) al in
  let p = C.plan ~engine:`Native t in
  Alcotest.(check bool) "upgraded cholesky native loaded" true
    (upgraded t && p.C.native <> None);
  let w = minor_words_per_call (fun () -> ignore (C.execute_ip p al : Csc.t)) in
  Alcotest.(check bool)
    (Printf.sprintf "upgraded cholesky native allocates nothing (%.2f w/call)" w)
    true (w < 1.0)

(* An ordered handle that a rank update escalated has a compiled pattern
   its ordering's map does not cover, and every native plan of it is
   refused — also after a natural native plan of the escalated pattern
   itself (the handle the escalation compiles through the default cache,
   and copies). *)
let test_escalated_ordered_refused () =
  let module C = Sympiler.Cholesky in
  let b = Generators.grid2d ~stencil:`Five 3 3 in
  let a = Helpers.block_diag [ b; b ] in
  let al = Csc.lower a in
  let opts =
    { Sympiler.Options.default with Sympiler.Options.ordering = `Amd }
  in
  let w =
    { Vector.n = a.Csc.ncols; indices = [| 0; 9 |]; values = [| 1.0; -1.0 |] }
  in
  let escalated () =
    let t = C.compile ~opts al in
    let p = C.plan t in
    ignore (C.execute_ip p al : Csc.t);
    C.update_ip p ~sigma:0.5 w;
    Alcotest.(check bool) "escalated" true (p.C.handle != t);
    p.C.handle
  in
  let natural =
    C.compile
      ~opts:{ opts with Sympiler.Options.ordering = `Natural; cache = true }
      (escalated ()).C.pattern
  in
  let pn = C.plan ~engine:`Native natural in
  (* the identity's values on the pattern: lower(A) leads each column
     with its diagonal *)
  let p = natural.C.pattern in
  let values = Array.make (Csc.nnz p) 0.0 in
  for j = 0 to p.Csc.ncols - 1 do
    values.(p.Csc.colptr.(j)) <- 1.0
  done;
  ignore (C.execute_ip pn { p with Csc.values } : Csc.t);
  Alcotest.(check bool) "native plan of the escalated handle refused" true
    (match C.plan ~engine:`Native (escalated ()) with
    | _ -> false
    | exception Invalid_argument _ -> true)

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
    ("trisolve native after a refactor", `Slow, test_trisolve_native_refactor);
    ("cholesky native = ocaml", `Slow, test_cholesky_native);
    ("ldlt native = ocaml", `Slow, test_ldlt_native);
    ("lu native = ocaml", `Slow, test_lu_native);
    ("ic0 native = ocaml", `Slow, test_ic0_native);
    ("ilu0 native = ocaml", `Slow, test_ilu0_native);
    qcheck_cholesky_native;
    qcheck_ldlt_native;
    ("native = ocaml, AMD-ordered", `Slow, test_native_ordered);
    ("native degenerate sizes", `Slow, test_native_degenerate);
    ("native zero pivot", `Slow, test_native_zero_pivot);
    ("native cholesky pivot", `Slow, test_native_cholesky_pivot);
    ("upgraded native = OCaml supernodal executor, bitwise", `Slow,
     test_upgraded_bitwise);
    ("pinned handles keep the simplicial kernel", `Slow, test_pinned_keep_simplicial);
    ("native kernel on both sides of the width rule", `Quick, test_upgrade_threshold);
    ("upgraded native pivot", `Slow, test_upgraded_pivot);
    ("upgraded native rank updates", `Slow, test_upgraded_update);
    ("upgraded LDL^T native = OCaml supernodal executor, bitwise", `Slow,
     test_upgraded_ldlt_bitwise);
    ("upgraded LDL^T native pivots", `Slow, test_upgraded_ldlt_pivot);
    ("artifact = native plan, bitwise", `Slow, test_artifact_bitwise);
    ("so cache accounting", `Slow, test_so_cache);
    ("one object per kernel shape", `Slow, test_shape_sharing);
    ("refactor set-up: five distinct kernels", `Slow, test_refactor_five_kernels);
    ("native zero allocation", `Slow, test_native_zero_alloc);
    ("escalated ordered handle refused", `Slow, test_escalated_ordered_refused);
    ("fallback without cc", `Quick, test_fallback_no_cc);
  ]
