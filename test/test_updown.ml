open Sympiler_sparse
open Sympiler_kernels
module Metrics = Sympiler_metrics.Metrics
module SC = Sympiler.Cholesky
module SL = Sympiler.Ldlt

(* Rank-1 update/downdate in the plan world: input validation (the silent-
   corruption regression), failed-downdate rollback, zero-allocation steady
   state, the update/downdate inverse law, agreement with from-scratch
   factorization of A + sigma w w^T, path-table memoization counters,
   pattern escalation (which keeps the handle's options and moves the
   latency series to the engine that runs), and incremental
   refactorization. *)

let minor_words_per_call f =
  f ();
  f ();
  let k = 50 in
  let w0 = Gc.minor_words () in
  for _ = 1 to k do
    f ()
  done;
  int_of_float ((Gc.minor_words () -. w0) /. float_of_int k)

(* Dense A + sigma w w^T, as a row-major array for [Csc.of_dense] /
   [Dense] comparisons. *)
let dense_updated (a : Csc.t) ~(sigma : float) (w : Vector.sparse) :
    float array array =
  let n = a.Csc.ncols in
  let d = Array.init n (fun i -> Array.init n (fun j -> Csc.get a i j)) in
  let wi = w.Vector.indices and wv = w.Vector.values in
  for s = 0 to Array.length wi - 1 do
    for t = 0 to Array.length wi - 1 do
      d.(wi.(s)).(wi.(t)) <-
        d.(wi.(s)).(wi.(t)) +. (sigma *. wv.(s) *. wv.(t))
    done
  done;
  d

(* max |L L^T - A'| over the dense reconstruction. *)
let llt_residual (l : Csc.t) (a' : float array array) : float =
  let ld = Dense.of_csc l in
  let prod = Dense.matmul ld (Dense.transpose ld) in
  Dense.max_abs_diff prod (Dense.of_csc (Csc.of_dense a'))

let spd () = Generators.clique_chain ~seed:3 ~n:80 ~clique:8 ~overlap:2 ()

(* A legal natural-order update vector for a natural-order plan: the
   pattern of factor column [j]. *)
let legal_w (p : SC.plan) ~j ~scale =
  Rank_update.vector_like (SC.plan_factor p) ~j ~scale

(* Suite problems 1, 2 and 5 (lower(A)), the larger inputs the steady
   update laws also run on. *)
let suite_lowers () =
  List.map
    (fun id ->
      let p = Sympiler.Suite.problem id in
      (p.Sympiler.Suite.name, p.Sympiler.Suite.a_lower))
    [ 1; 2; 5 ]

(* A factored natural plan on [al] and a legal update vector at column
   n/3. *)
let factored_with_w (al : Csc.t) ~scale =
  let p = SC.plan (SC.compile al) in
  ignore (SC.execute_ip p al : Csc.t);
  (p, legal_w p ~j:(al.Csc.ncols / 3) ~scale)

(* ---- validation: the silent-corruption regression ---- *)

let test_malformed_w_rejected () =
  let a = spd () in
  let al = Csc.lower a in
  let t = SC.compile al in
  let p = SC.plan t in
  ignore (SC.execute_ip p al : Csc.t);
  let before = Array.copy (SC.plan_factor p).Csc.values in
  let expect_invalid msg w =
    Alcotest.(check bool) msg true
      (try
         SC.update_ip p w;
         false
       with Invalid_argument _ -> true);
    Helpers.bitwise (msg ^ ": factor untouched")
      before (SC.plan_factor p).Csc.values
  in
  (* Permuted (unsorted) indices: this used to corrupt L silently — the
     old code read jmin off indices.(0) and walked the wrong path. *)
  expect_invalid "unsorted indices"
    { Vector.n = a.Csc.ncols; indices = [| 7; 2 |]; values = [| 1.0; 1.0 |] };
  expect_invalid "duplicate indices"
    { Vector.n = a.Csc.ncols; indices = [| 3; 3 |]; values = [| 1.0; 1.0 |] };
  expect_invalid "out-of-range index"
    {
      Vector.n = a.Csc.ncols;
      indices = [| 2; a.Csc.ncols |];
      values = [| 1.0; 1.0 |];
    };
  (* The legacy one-shot entry points validate too. *)
  let parent = Rank_update.(ignore check_pattern) in
  ignore parent;
  Alcotest.(check bool) "legacy compile validates" true
    (try
       ignore
         (Rank_update.compile
            ~parent:(Array.make a.Csc.ncols (-1))
            {
              Vector.n = a.Csc.ncols;
              indices = [| 5; 1 |];
              values = [| 1.0; 1.0 |];
            });
       false
     with Invalid_argument _ -> true)

(* ---- update matches a from-scratch factorization ---- *)

let test_update_matches_fresh () =
  let a = spd () in
  let al = Csc.lower a in
  let t = SC.compile al in
  let p = SC.plan t in
  ignore (SC.execute_ip p al : Csc.t);
  let w = legal_w p ~j:10 ~scale:0.4 in
  SC.update_ip p ~sigma:0.7 w;
  let a' = dense_updated a ~sigma:0.7 w in
  Alcotest.(check bool) "L L^T = A + 0.7 w w^T" true
    (llt_residual (SC.plan_factor p) a' < 1e-7);
  (* Columnwise against an independent compile of A'. *)
  let t2 = SC.compile (Csc.lower (Csc.of_dense a')) in
  let l2 = SC.factor t2 (Csc.lower (Csc.of_dense a')) in
  let l = SC.plan_factor p in
  let ok = ref true in
  Csc.iter l (fun i j v ->
      if Float.abs (v -. Csc.get l2 i j) > 1e-7 then ok := false);
  Alcotest.(check bool) "columnwise = fresh compile of A'" true !ok

(* ---- failed downdate is non-destructive ---- *)

let test_downdate_rollback () =
  let a = spd () in
  let al = Csc.lower a in
  let t = SC.compile al in
  let p = SC.plan t in
  ignore (SC.execute_ip p al : Csc.t);
  let w = legal_w p ~j:5 ~scale:1.0 in
  let before = Array.copy (SC.plan_factor p).Csc.values in
  (* A - 10^9 w w^T is wildly indefinite: the downdate must fail. *)
  Alcotest.(check bool) "downdate past PD raises" true
    (try
       SC.downdate_ip p ~sigma:1e9 w;
       false
     with Rank_update.Not_positive_definite _ -> true);
  Helpers.bitwise "factor rolled back bitwise"
    before (SC.plan_factor p).Csc.values;
  (* The plan stays fully usable: a sane downdate then a correct result. *)
  SC.downdate_ip p ~sigma:0.1 w;
  let a' = dense_updated a ~sigma:(-0.1) w in
  Alcotest.(check bool) "post-rollback downdate correct" true
    (llt_residual (SC.plan_factor p) a' < 1e-7);
  List.iter
    (fun (name, al) ->
      let p, w = factored_with_w al ~scale:0.2 in
      let before = Array.copy (SC.plan_factor p).Csc.values in
      Alcotest.(check bool) (name ^ ": downdate past PD raises") true
        (try
           SC.downdate_ip p ~sigma:1e9 w;
           false
         with Rank_update.Not_positive_definite _ -> true);
      Helpers.bitwise (name ^ ": factor rolled back bitwise") before
        (SC.plan_factor p).Csc.values)
    (suite_lowers ())

(* ---- update then equal downdate recovers the factor ---- *)

let prop_update_downdate_roundtrip =
  Helpers.qtest ~count:30 "update; downdate recovers factor (<= 1e-12)"
    Helpers.arb_spd (fun a ->
      let al = Csc.lower a in
      let t = SC.compile al in
      let p = SC.plan t in
      ignore (SC.execute_ip p al : Csc.t);
      let l = SC.plan_factor p in
      let v0 = Array.copy l.Csc.values in
      let j = l.Csc.ncols / 2 in
      let w = legal_w p ~j ~scale:0.3 in
      SC.update_ip p ~sigma:0.9 w;
      SC.downdate_ip p ~sigma:0.9 w;
      let scale =
        Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1.0 v0
      in
      let worst = ref 0.0 in
      Array.iteri
        (fun i v -> worst := Float.max !worst (Float.abs (v -. l.Csc.values.(i))))
        v0;
      !worst <= 1e-12 *. scale)

(* A long canceling stream stays put: 200 update/downdate pairs move no
   factor entry by more than 1e-10 of the largest, on suite problems. *)
let test_canceling_stream_drift () =
  List.iter
    (fun (name, al) ->
      let p, w = factored_with_w al ~scale:0.2 in
      let l = SC.plan_factor p in
      let v0 = Array.copy l.Csc.values in
      for _ = 1 to 200 do
        SC.update_ip p ~sigma:0.5 w;
        SC.downdate_ip p ~sigma:0.5 w
      done;
      let scale =
        Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1.0 v0
      in
      let drift = ref 0.0 in
      Array.iteri
        (fun i v ->
          drift := Float.max !drift (Float.abs (v -. l.Csc.values.(i)) /. scale))
        v0;
      Alcotest.(check bool)
        (Printf.sprintf "%s: drift %.2e after 200 pairs <= 1e-10" name !drift)
        true (!drift <= 1e-10))
    (suite_lowers ())

(* ---- steady-state updates allocate nothing ---- *)

let test_zero_alloc_updates () =
  let a = spd () in
  let al = Csc.lower a in
  let t = SC.compile al in
  let p = SC.plan t in
  ignore (SC.execute_ip p al : Csc.t);
  let w = legal_w p ~j:7 ~scale:0.2 in
  let pair_words p w =
    minor_words_per_call (fun () ->
        SC.update_ip p ~sigma:0.5 w;
        SC.downdate_ip p ~sigma:0.5 w)
  in
  Alcotest.(check int) "minor words per update+downdate pair" 0
    (pair_words p w);
  List.iter
    (fun (name, al) ->
      let p, w = factored_with_w al ~scale:0.2 in
      Alcotest.(check int) (name ^ ": minor words per pair") 0 (pair_words p w))
    (suite_lowers ())

let test_zero_alloc_updates_ordered () =
  let a = spd () in
  let al = Csc.lower a in
  let t = SC.compile ~opts:(Sympiler.Options.make ~ordering:`Amd ()) al in
  let p = SC.plan t in
  ignore (SC.execute_ip p al : Csc.t);
  (* A natural-order w that is legal after permutation: map a permuted
     factor column's pattern back through the permutation. *)
  let perm =
    match t.SC.ord.Sympiler.o_perm with Some pm -> pm | None -> [||]
  in
  let l = SC.plan_factor p in
  let j = l.Csc.ncols / 3 in
  let lo = l.Csc.colptr.(j) and hi = l.Csc.colptr.(j + 1) in
  let pairs =
    Array.init (hi - lo) (fun k ->
        (perm.(l.Csc.rowind.(lo + k)), 0.2 *. l.Csc.values.(lo + k)))
  in
  Array.sort compare pairs;
  let w =
    {
      Vector.n = l.Csc.ncols;
      indices = Array.map fst pairs;
      values = Array.map snd pairs;
    }
  in
  SC.update_ip p ~sigma:0.5 w;
  Alcotest.(check bool) "no escalation for in-pattern ordered w" true
    (p.SC.handle == t);
  let words =
    minor_words_per_call (fun () ->
        SC.update_ip p ~sigma:0.5 w;
        SC.downdate_ip p ~sigma:0.5 w)
  in
  Alcotest.(check int) "minor words per ordered update+downdate pair" 0 words

(* ---- ordered plans: natural-order w, permuted factor ---- *)

let test_ordered_update_correct () =
  let a = Generators.grid2d ~stencil:`Five 7 7 in
  let al = Csc.lower a in
  let t = SC.compile ~opts:(Sympiler.Options.make ~ordering:`Amd ()) al in
  let p = SC.plan t in
  ignore (SC.execute_ip p al : Csc.t);
  let perm =
    match t.SC.ord.Sympiler.o_perm with Some pm -> pm | None -> [||]
  in
  let l = SC.plan_factor p in
  let j = 10 in
  let lo = l.Csc.colptr.(j) and hi = l.Csc.colptr.(j + 1) in
  let pairs =
    Array.init (hi - lo) (fun k ->
        (perm.(l.Csc.rowind.(lo + k)), 0.3 *. l.Csc.values.(lo + k)))
  in
  Array.sort compare pairs;
  let w =
    {
      Vector.n = l.Csc.ncols;
      indices = Array.map fst pairs;
      values = Array.map snd pairs;
    }
  in
  SC.update_ip p ~sigma:0.8 w;
  (* The factor is of P A' P^T: compare the permuted dense product. *)
  let a' = dense_updated a ~sigma:0.8 w in
  let n = a.Csc.ncols in
  let pa' =
    Array.init n (fun i -> Array.init n (fun k -> a'.(perm.(i)).(perm.(k))))
  in
  Alcotest.(check bool) "ordered update: L L^T = P A' P^T" true
    (llt_residual (SC.plan_factor p) pa' < 1e-7)

(* ---- path-table memoization counters ---- *)

let test_path_memoization_counters () =
  Helpers.with_metrics @@ fun () ->
  let a = spd () in
  let al = Csc.lower a in
  let t = SC.compile al in
  let p = SC.plan t in
  ignore (SC.execute_ip p al : Csc.t);
  let w = legal_w p ~j:4 ~scale:0.2 in
  let h0 = Metrics.counter_value Metrics.updown_path_hits
  and m0 = Metrics.counter_value Metrics.updown_path_misses in
  let escalations =
    Helpers.counted Metrics.updown_escalations (fun () ->
        SC.update_ip p ~sigma:0.5 w;
        SC.update_ip p ~sigma:0.5 w;
        SC.downdate_ip p ~sigma:1.0 w)
  in
  Alcotest.(check int) "one path miss (first lookup)" 1
    (Metrics.counter_value Metrics.updown_path_misses - m0);
  Alcotest.(check int) "two path hits (memoized)" 2
    (Metrics.counter_value Metrics.updown_path_hits - h0);
  Alcotest.(check int) "no escalations" 0 escalations

(* ---- escalation: out-of-pattern update recompiles the plan ---- *)

let test_escalation () =
  Helpers.with_metrics @@ fun () ->
  (* Two disconnected grids: an update coupling them can never be inside
     the factor pattern, so it must escalate. *)
  let b = Generators.grid2d ~stencil:`Five 3 3 in
  let a = Helpers.block_diag [ b; b ] in
  let n = a.Csc.ncols in
  let al = Csc.lower a in
  let t = SC.compile al in
  let p = SC.plan t in
  ignore (SC.execute_ip p al : Csc.t);
  let w =
    { Vector.n = n; indices = [| 0; 9 |]; values = [| 1.0; -1.0 |] }
  in
  let escalations =
    Helpers.counted Metrics.updown_escalations (fun () ->
        SC.update_ip p ~sigma:0.5 w)
  in
  Alcotest.(check bool) "escalated (handle swapped)" true (p.SC.handle != t);
  Alcotest.(check int) "escalation counter" 1 escalations;
  let a' = dense_updated a ~sigma:0.5 w in
  Alcotest.(check bool) "escalated factor correct" true
    (llt_residual (SC.plan_factor p) a' < 1e-8);
  (* The escalated plan still accepts the original natural pattern. *)
  ignore (SC.execute_ip p al : Csc.t);
  let a0 = Array.init n (fun i -> Array.init n (fun j -> Csc.get a i j)) in
  Alcotest.(check bool) "post-escalation refactor accepts natural input" true
    (llt_residual (SC.plan_factor p) a0 < 1e-8);
  (* And further in-pattern updates work on the new pattern. *)
  SC.update_ip p ~sigma:0.25 w;
  let a1 = dense_updated a ~sigma:0.25 w in
  Alcotest.(check bool) "post-escalation update correct" true
    (llt_residual (SC.plan_factor p) a1 < 1e-8)

let test_failed_escalation_preserves_plan () =
  let b = Generators.grid2d ~stencil:`Five 3 3 in
  let a = Helpers.block_diag [ b; b ] in
  let al = Csc.lower a in
  let t = SC.compile al in
  let p = SC.plan t in
  ignore (SC.execute_ip p al : Csc.t);
  let before = Array.copy (SC.plan_factor p).Csc.values in
  let w =
    {
      Vector.n = a.Csc.ncols;
      indices = [| 0; 9 |];
      values = [| 1.0; -1.0 |];
    }
  in
  (* Out-of-pattern AND indefinite: the escalation's numeric phase fails
     and the plan must stay exactly as it was. *)
  Alcotest.(check bool) "indefinite escalation raises" true
    (try
       SC.downdate_ip p ~sigma:1e9 w;
       false
     with _ -> true);
  Alcotest.(check bool) "handle kept" true (p.SC.handle == t);
  Helpers.bitwise "factor untouched" before (SC.plan_factor p).Csc.values

(* Two wide-clique blocks: supernodal by default, and an update coupling
   column 0 with column 64 lies outside the factor pattern. *)
let two_cliques () =
  let b = Generators.clique_chain ~n:64 ~clique:16 ~overlap:4 () in
  Helpers.block_diag [ b; b ]

let coupling_w n =
  { Vector.n; indices = [| 0; 64 |]; values = [| 1.0; -1.0 |] }

(* The escalated plan is compiled with the handle's own options: a plan
   that chose (or was forced to) the simplicial variant keeps it. *)
let test_escalation_keeps_options () =
  let a = two_cliques () in
  let al = Csc.lower a in
  let n = a.Csc.ncols in
  let escalated opts =
    let t = SC.compile ~opts al in
    let p = SC.plan t in
    ignore (SC.execute_ip p al : Csc.t);
    SC.update_ip p ~sigma:0.5 (coupling_w n);
    Alcotest.(check bool) "escalated" true (p.SC.handle != t);
    Alcotest.(check bool) "escalated factor correct" true
      (llt_residual (SC.plan_factor p) (dense_updated a ~sigma:0.5 (coupling_w n))
      < 1e-8);
    SC.variant p.SC.handle
  in
  Alcotest.(check bool) "default options stay supernodal" true
    (escalated Sympiler.Options.default = SC.Supernodal);
  Alcotest.(check bool) "forced simplicial stays simplicial" true
    (escalated (Sympiler.Options.make ~simplicial:true ()) = SC.Simplicial);
  Alcotest.(check bool) "threshold 1e9 stays simplicial" true
    (escalated (Sympiler.Options.make ~vs_block_threshold:1e9 ()) = SC.Simplicial)

(* The escalated handle carries its own input map: a fresh plan of it
   takes the caller's original natural pattern and factors it like the
   escalated plan, bit for bit, natural and AMD-ordered alike. *)
let test_escalated_handle_replans () =
  let a = Generators.grid2d ~stencil:`Five 6 6 in
  let al = Csc.lower a in
  let n = a.Csc.ncols in
  let w = { Vector.n; indices = [| 0; n - 1 |]; values = [| 1.0; -1.0 |] } in
  List.iter
    (fun (name, ordering) ->
      let t = SC.compile ~opts:(Sympiler.Options.make ~ordering ()) al in
      let p = SC.plan t in
      ignore (SC.execute_ip p al : Csc.t);
      SC.update_ip p ~sigma:0.5 w;
      Alcotest.(check bool) (name ^ ": escalated") true (p.SC.handle != t);
      let fresh = SC.plan p.SC.handle in
      Helpers.bitwise
        (name ^ ": a fresh plan of the escalated handle factors like it")
        (Array.copy (SC.execute_ip p al).Csc.values)
        (SC.execute_ip fresh al).Csc.values;
      let a0 = Array.init n (fun i -> Array.init n (fun j -> Csc.get a i j)) in
      let l = SC.plan_factor fresh in
      let pa0 =
        match p.SC.handle.SC.ord.Sympiler.o_perm with
        | None -> a0
        | Some q -> Array.init n (fun i -> Array.init n (fun k -> a0.(q.(i)).(q.(k))))
      in
      Alcotest.(check bool) (name ^ ": and the factor is right") true
        (llt_residual l pa0 < 1e-8))
    [ ("natural", `Natural); ("amd", `Amd) ]

(* Escalation drops a native plan to the OCaml executor; its latency
   series follows, so the native series stops counting. *)
let test_escalation_latency_series () =
  if not (Sympiler.Native.available ()) then Alcotest.skip ();
  let module M = Sympiler.Metrics in
  M.enable ();
  M.reset ();
  Fun.protect ~finally:(fun () ->
      M.disable ();
      M.reset ())
  @@ fun () ->
  let a = two_cliques () in
  let al = Csc.lower a in
  let t = SC.compile al in
  let p = SC.plan ~engine:`Native t in
  Alcotest.(check bool) "native plan" true (p.SC.native <> None);
  let native_series = p.SC.m_exec in
  for _ = 1 to 3 do
    ignore (SC.execute_ip p al : Csc.t)
  done;
  SC.update_ip p ~sigma:0.5 (coupling_w a.Csc.ncols);
  Alcotest.(check bool) "escalated to OCaml" true
    (p.SC.handle != t && p.SC.native = None);
  for _ = 1 to 5 do
    ignore (SC.execute_ip p al : Csc.t)
  done;
  Alcotest.(check int) "native series stopped at 3" 3
    (M.snapshot native_series).M.count;
  Alcotest.(check int) "plan_latency counts the 5 later calls" 5
    (SC.plan_latency p).M.count

(* An update vector whose value count differs from its index count is
   rejected by the facade ("Sympiler." message) before anything is
   written, on natural and ordered plans of both updatable families. *)
let test_w_length_mismatch () =
  let a = spd () in
  let al = Csc.lower a in
  let n = a.Csc.ncols in
  let cases =
    [
      ("short", { Vector.n; indices = [| 2; 5; 9 |]; values = [| 0.1; 0.2 |] });
      ( "long",
        { Vector.n; indices = [| 2; 5 |]; values = [| 0.1; 0.2; 0.3 |] } );
    ]
  in
  let families =
    [
      ( "cholesky",
        fun opts ->
          let p = SC.plan (SC.compile ~opts al) in
          ignore (SC.execute_ip p al : Csc.t);
          ( (fun w -> SC.update_ip p w),
            fun () -> Array.copy (SC.plan_factor p).Csc.values ) );
      ( "ldlt",
        fun opts ->
          let p = SL.plan (SL.compile ~opts al) in
          let f = SL.execute_ip p al in
          ( (fun w -> SL.update_ip p w),
            fun () -> Array.append f.Ldlt.l.Csc.values f.Ldlt.d ) );
    ]
  in
  List.iter
    (fun (fam, make) ->
      List.iter
        (fun (on, ordering) ->
          List.iter
            (fun (kind, w) ->
              let msg = Printf.sprintf "%s %s %s values" fam on kind in
              let update, values = make (Sympiler.Options.make ~ordering ()) in
              let before = values () in
              (match update w with
              | () -> Alcotest.failf "%s: accepted" msg
              | exception Invalid_argument m
                when String.starts_with ~prefix:"Sympiler." m ->
                  ()
              | exception e ->
                  Alcotest.failf "%s: raised %s" msg (Printexc.to_string e));
              Helpers.bitwise (msg ^ ": factor untouched") before (values ()))
            cases)
        [ ("natural", `Natural); ("amd", `Amd) ])
    families

(* ---- incremental refactorization ---- *)

(* Copy [al] with every entry of input column [c] scaled. *)
let scale_col (al : Csc.t) (c : int) (s : float) : Csc.t =
  let values = Array.copy al.Csc.values in
  for p = al.Csc.colptr.(c) to al.Csc.colptr.(c + 1) - 1 do
    values.(p) <- values.(p) *. s
  done;
  { al with Csc.values }

let test_refactor_cols_bitwise () =
  let a = Generators.banded ~seed:7 ~n:60 ~band:4 () in
  let al = Csc.lower a in
  let t = SC.compile ~opts:(Sympiler.Options.make ~simplicial:true ()) al in
  let p1 = SC.plan t in
  let p2 = SC.plan t in
  ignore (SC.execute_ip p1 al : Csc.t);
  ignore (SC.execute_ip p2 al : Csc.t);
  (* First incremental call has no baseline: transparent full fallback. *)
  let n = al.Csc.ncols in
  Alcotest.(check int) "no-baseline fallback recomputes all rows" n
    (SC.refactor_cols_ip p1 al);
  (* Localized change: only rows reachable from column 30 recompute. *)
  let al2 = scale_col al 30 1.5 in
  ignore (SC.execute_ip p2 al2 : Csc.t);
  let nrows = SC.refactor_cols_ip p1 al2 in
  Alcotest.(check bool)
    (Printf.sprintf "local change recomputes few rows (%d < %d)" nrows n)
    true (nrows < n);
  Helpers.bitwise "incremental = full refactor (bitwise)"
    (SC.plan_factor p2).Csc.values (SC.plan_factor p1).Csc.values;
  (* Unchanged input: zero rows recomputed. *)
  Alcotest.(check int) "unchanged input recomputes nothing" 0
    (SC.refactor_cols_ip p1 al2);
  (* A rank update invalidates the baseline: next incremental call falls
     back to a full refactor. *)
  let w = legal_w p1 ~j:3 ~scale:0.2 in
  SC.update_ip p1 w;
  Alcotest.(check int) "post-update fallback recomputes all rows" n
    (SC.refactor_cols_ip p1 al2);
  Helpers.bitwise "post-fallback factor matches" (SC.plan_factor p2).Csc.values
    (SC.plan_factor p1).Csc.values;
  (* On suite problems: a one-diagonal bump at column n/2 (it can only
     add definiteness), incremental vs full, bitwise. *)
  List.iter
    (fun (name, al) ->
      let t = SC.compile ~opts:(Sympiler.Options.make ~simplicial:true ()) al in
      let p1 = SC.plan t and p2 = SC.plan t in
      ignore (SC.execute_ip p1 al : Csc.t);
      ignore (SC.refactor_cols_ip p1 al : int);
      let c = al.Csc.ncols / 2 in
      let values = Array.copy al.Csc.values in
      for q = al.Csc.colptr.(c) to al.Csc.colptr.(c + 1) - 1 do
        if al.Csc.rowind.(q) = c then values.(q) <- values.(q) *. 1.5
      done;
      let al2 = { al with Csc.values } in
      ignore (SC.refactor_cols_ip p1 al2 : int);
      ignore (SC.execute_ip p2 al2 : Csc.t);
      Helpers.bitwise (name ^ ": incremental = full refactor (bitwise)")
        (SC.plan_factor p2).Csc.values (SC.plan_factor p1).Csc.values)
    (suite_lowers ())

let test_refactor_cols_supernodal_close () =
  (* Supernodal plans recompute rows with the up-looking kernel: values
     agree to rounding, not bitwise (different operation order). *)
  let a = spd () in
  let al = Csc.lower a in
  let t = SC.compile al in
  let p = SC.plan t in
  ignore (SC.execute_ip p al : Csc.t);
  ignore (SC.refactor_cols_ip p al : int);
  let al2 = scale_col al 12 2.0 in
  ignore (SC.refactor_cols_ip p al2 : int);
  let t2 = SC.compile al in
  let l2 = SC.factor t2 al2 in
  let worst = ref 0.0 in
  Array.iteri
    (fun i v ->
      worst :=
        Float.max !worst (Float.abs (v -. (SC.plan_factor p).Csc.values.(i))))
    l2.Csc.values;
  Alcotest.(check bool) "supernodal incremental within 1e-9" true
    (!worst < 1e-9)

(* ---- LDL^T updates (GGMS C1) ---- *)

let test_ldlt_update_matches_fresh () =
  let a = spd () in
  let al = Csc.lower a in
  let t = SL.compile al in
  let p = SL.plan t in
  let f = SL.execute_ip p al in
  let lu = f.Ldlt.l and d = f.Ldlt.d in
  let v0 = Array.copy lu.Csc.values and d0 = Array.copy d in
  let w = Rank_update.vector_like lu ~j:6 ~scale:0.5 in
  SL.update_ip p ~sigma:0.6 w;
  (* L D L^T = A + 0.6 w w^T *)
  let n = a.Csc.ncols in
  let ld = Dense.of_csc lu in
  let dd = Dense.create n n in
  Array.iteri (fun i v -> Dense.set dd i i v) d;
  let prod = Dense.matmul (Dense.matmul ld dd) (Dense.transpose ld) in
  let a' = dense_updated a ~sigma:0.6 w in
  Alcotest.(check bool) "L D L^T = A + 0.6 w w^T" true
    (Dense.max_abs_diff prod (Dense.of_csc (Csc.of_dense a')) < 1e-7);
  (* Downdate recovers the original factors. *)
  SL.downdate_ip p ~sigma:0.6 w;
  let worst = ref 0.0 in
  Array.iteri
    (fun i v -> worst := Float.max !worst (Float.abs (v -. lu.Csc.values.(i))))
    v0;
  Array.iteri
    (fun i v -> worst := Float.max !worst (Float.abs (v -. d.(i))))
    d0;
  Alcotest.(check bool) "update; downdate recovers LDL^T (<= 1e-10)" true
    (!worst < 1e-10)

let test_ldlt_zero_pivot_rollback () =
  (* d' = d + a p^2 = 4 - 4 = 0 exactly: Zero_pivot, factors rolled back. *)
  let a = Csc.of_dense [| [| 4.0 |] |] in
  let t = SL.compile a in
  let p = SL.plan t in
  let f = SL.execute_ip p a in
  let w = { Vector.n = 1; indices = [| 0 |]; values = [| 2.0 |] } in
  Alcotest.(check bool) "exact zero pivot raises" true
    (try
       SL.downdate_ip p w;
       false
     with Ldlt.Zero_pivot 0 -> true);
  Alcotest.(check (float 0.0)) "pivot rolled back" 4.0 f.Ldlt.d.(0);
  Alcotest.(check (float 0.0)) "L rolled back" 1.0 f.Ldlt.l.Csc.values.(0)

let test_ldlt_zero_alloc () =
  let a = spd () in
  let al = Csc.lower a in
  let t = SL.compile al in
  let p = SL.plan t in
  let f = SL.execute_ip p al in
  let w = Rank_update.vector_like f.Ldlt.l ~j:9 ~scale:0.1 in
  let words =
    minor_words_per_call (fun () ->
        SL.update_ip p ~sigma:0.5 w;
        SL.downdate_ip p ~sigma:0.5 w)
  in
  Alcotest.(check int) "minor words per LDL^T update+downdate pair" 0 words

let suite =
  [
    ("malformed w rejected, factor untouched", `Quick, test_malformed_w_rejected);
    ("update matches fresh factorization", `Quick, test_update_matches_fresh);
    ("failed downdate rolls back", `Quick, test_downdate_rollback);
    prop_update_downdate_roundtrip;
    ("200 canceling pairs drift <= 1e-10 (suite)", `Quick, test_canceling_stream_drift);
    ("zero-alloc steady updates", `Quick, test_zero_alloc_updates);
    ("zero-alloc steady updates (ordered)", `Quick, test_zero_alloc_updates_ordered);
    ("ordered plan update", `Quick, test_ordered_update_correct);
    ("path-table memoization counters", `Quick, test_path_memoization_counters);
    ("escalation on out-of-pattern update", `Quick, test_escalation);
    ( "failed escalation preserves plan",
      `Quick,
      test_failed_escalation_preserves_plan );
    ("escalation keeps the handle's options", `Quick, test_escalation_keeps_options);
    ("escalated handle plans again", `Quick, test_escalated_handle_replans);
    ( "escalation moves the latency series to OCaml",
      `Slow,
      test_escalation_latency_series );
    ("update w length mismatch rejected", `Quick, test_w_length_mismatch);
    ("incremental refactor bitwise (simplicial)", `Quick, test_refactor_cols_bitwise);
    ( "incremental refactor close (supernodal)",
      `Quick,
      test_refactor_cols_supernodal_close );
    ("LDL^T update matches fresh", `Quick, test_ldlt_update_matches_fresh);
    ("LDL^T zero-pivot rollback", `Quick, test_ldlt_zero_pivot_rollback);
    ("LDL^T zero-alloc updates", `Quick, test_ldlt_zero_alloc);
  ]
