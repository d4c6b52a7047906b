open Sympiler_sparse
open Sympiler_kernels
open Sympiler_prof
open Helpers
module Trace = Sympiler_trace.Trace

(* Tests for the instrumentation spine: the one switch Prof and Metrics
   share, the work counters the kernels bump into Metrics (recorded while
   the switch is on, untouched while it is off), phase time as latency
   histogram sums and trace spans, and the JSON/table emitters. *)

let fig1_rhs () =
  { Vector.n = 10; indices = figure1_beta; values = [| 1.0; 1.0 |] }

let spd_lower () =
  Csc.lower (Generators.clique_chain ~seed:3 ~n:120 ~clique:10 ~overlap:3 ())

let value = Metrics.counter_value

(* ---- the switch ---- *)

let test_one_switch () =
  let was_on = Prof.enabled () in
  let agree what =
    Alcotest.(check bool) what (Prof.enabled ()) (Metrics.enabled ())
  in
  Prof.enable ();
  agree "after Prof.enable";
  Metrics.disable ();
  agree "after Metrics.disable";
  Alcotest.(check bool) "Metrics.disable turned Prof off" false
    (Prof.enabled ());
  Metrics.enable ();
  agree "after Metrics.enable";
  Prof.disable ();
  agree "after Prof.disable";
  Alcotest.(check bool) "Prof.disable turned Metrics off" false
    (Metrics.enabled ());
  if was_on then Prof.enable ()

(* ---- phase time: histogram sums and spans ---- *)

(* Time accumulates in the latency histograms: two steady calls add two
   observations and grow the plan's execute series' exact sum. *)
let test_timer_accumulates () =
  let al = spd_lower () in
  let p = Sympiler.Cholesky.plan (Sympiler.Cholesky.compile al) in
  with_metrics @@ fun () ->
  let before = Sympiler.Cholesky.plan_latency p in
  ignore (Sympiler.Cholesky.execute_ip p al : Csc.t);
  ignore (Sympiler.Cholesky.execute_ip p al : Csc.t);
  let after = Sympiler.Cholesky.plan_latency p in
  Alcotest.(check int) "two calls recorded" 2
    (after.Metrics.count - before.Metrics.count);
  Alcotest.(check bool) "sum grew" true (after.Metrics.sum > before.Metrics.sum)

(* A compile nests several symbolic stages, each in its own span, but
   observes the compile histogram once. *)
let test_timer_reentrant () =
  let al = spd_lower () in
  let h =
    Metrics.histogram "sympiler_compile_seconds"
      ~labels:[ ("family", "cholesky"); ("ordering", "amd") ]
  in
  let opts = Sympiler.Options.make ~ordering:`Amd () in
  with_metrics @@ fun () ->
  Trace.reset ();
  Trace.enable ();
  let c0 = (Metrics.snapshot h).Metrics.count in
  ignore (Sympiler.Cholesky.compile ~opts al : Sympiler.Cholesky.t);
  let c1 = (Metrics.snapshot h).Metrics.count in
  let spans = Trace.spans () in
  Trace.disable ();
  Trace.reset ();
  let named p = List.length (List.filter (fun s -> p s.Trace.name) spans) in
  Alcotest.(check int) "one observation per compile" 1 (c1 - c0);
  Alcotest.(check int) "one compile span" 1
    (named (( = ) "compile.cholesky"));
  Alcotest.(check bool) "nested symbolic spans" true
    (named (String.starts_with ~prefix:"symbolic.") >= 2)

(* A numeric call that raises mid-kernel, switch and tracing on, leaves the
   span stack balanced and the plan reusable. *)
let test_timer_exception_safe () =
  let al = spd_lower () in
  let bad = Csc.map_values al (fun v -> -.v) in
  let p = Sympiler.Ic0.plan (Sympiler.Ic0.compile al) in
  with_metrics @@ fun () ->
  Trace.reset ();
  Trace.enable ();
  let raised =
    try
      ignore (Sympiler.Ic0.execute_ip p bad : Csc.t);
      false
    with Ic0.Not_positive_definite _ -> true
  in
  ignore (Sympiler.Ic0.execute_ip p al : Csc.t);
  let spans =
    List.filter (fun s -> s.Trace.name = "factor_ip.ic0") (Trace.spans ())
  in
  Trace.disable ();
  Trace.reset ();
  Alcotest.(check bool) "pivot failure raised" true raised;
  Alcotest.(check int) "both calls' spans closed" 2 (List.length spans);
  Alcotest.(check bool) "the retry's span is a root" true
    (List.for_all (fun s -> s.Trace.depth = 0) spans)

(* Off, a steady call records nothing and returns what it returns on. *)
let test_disabled_is_passthrough () =
  let al = spd_lower () in
  let p = Sympiler.Cholesky.plan (Sympiler.Cholesky.compile al) in
  Metrics.disable ();
  let c0 = (Sympiler.Cholesky.plan_latency p).Metrics.count in
  let f0 = value Metrics.flops in
  let off = Array.copy (Sympiler.Cholesky.execute_ip p al).Csc.values in
  Alcotest.(check int) "no latency recorded" c0
    (Sympiler.Cholesky.plan_latency p).Metrics.count;
  Alcotest.(check int) "no flops counted" f0 (value Metrics.flops);
  let on =
    with_metrics (fun () ->
        Array.copy (Sympiler.Cholesky.execute_ip p al).Csc.values)
  in
  bitwise "same factor with the switch on" off on

(* ---- counters from real kernels ---- *)

let test_trisolve_counters () =
  let l = figure1_l in
  let b = fig1_rhs () in
  with_metrics @@ fun () ->
  let pruned0 = value Metrics.iters_pruned in
  let sn0 = value Metrics.supernodes in
  let c = Trisolve_sympiler.compile l b in
  Alcotest.(check int) "iters pruned = n - |reach|"
    (l.Csc.ncols - Array.length c.Trisolve_sympiler.reach)
    (value Metrics.iters_pruned - pruned0);
  Alcotest.(check bool) "supernodes detected" true
    (value Metrics.supernodes > sn0);
  let x = Vector.sparse_to_dense b in
  let nnz0 = value Metrics.nnz_touched in
  Alcotest.(check int) "solve adds its flops"
    (int_of_float c.Trisolve_sympiler.flops)
    (counted Metrics.flops (fun () ->
         Trisolve_sympiler.solve_full_ip (Trisolve_sympiler.make_plan c) x));
  Alcotest.(check bool) "nnz touched" true (value Metrics.nnz_touched > nnz0)

let test_levels_counter () =
  with_metrics @@ fun () ->
  let levels0 = value Metrics.levels in
  let c = Trisolve_parallel.compile figure1_l in
  Alcotest.(check int) "levels" c.Trisolve_parallel.nlevels
    (value Metrics.levels - levels0);
  Alcotest.(check bool) "max level width" true
    (Metrics.gauge_value Metrics.max_level_width >= 1.0)

let test_counters_untouched_when_disabled () =
  Metrics.disable ();
  let series =
    [
      ("flops", Metrics.flops);
      ("nnz", Metrics.nnz_touched);
      ("pruned", Metrics.iters_pruned);
      ("supernodes", Metrics.supernodes);
      ("levels", Metrics.levels);
    ]
  in
  let before = List.map (fun (_, c) -> value c) series in
  let l = figure1_l in
  let b = fig1_rhs () in
  let c = Trisolve_sympiler.compile l b in
  let x = Vector.sparse_to_dense b in
  Trisolve_sympiler.solve_full_ip (Trisolve_sympiler.make_plan c) x;
  ignore (Trisolve_parallel.compile l);
  List.iter2
    (fun (name, c) v0 -> Alcotest.(check int) name v0 (value c))
    series before

(* IC(0) and ILU(0) count a pattern bound fixed at compile time: one
   factorization adds exactly the handle's flops. *)
let test_incomplete_flops () =
  let al = spd_lower () in
  let a = Csc.add al (Csc.transpose (Csc.strict_lower al)) in
  let check name flops exec =
    Alcotest.(check bool) (name ^ " flops known") true (Float.is_finite flops);
    Alcotest.(check int) (name ^ ": one factor adds the handle's flops")
      (int_of_float flops) (counted Metrics.flops exec)
  in
  let t = Sympiler.Ic0.compile al in
  let p = Sympiler.Ic0.plan t in
  with_metrics @@ fun () ->
  check "ic0" t.Sympiler.Ic0.flops (fun () ->
      ignore (Sympiler.Ic0.execute_ip p al : Csc.t));
  let t = Sympiler.Ilu0.compile a in
  let p = Sympiler.Ilu0.plan t in
  check "ilu0" t.Sympiler.Ilu0.flops (fun () ->
      ignore (Sympiler.Ilu0.execute_ip p a : Ilu0.factors))

(* One [Cholesky.solve] adds the factorization's flops and both sweeps',
   2 (2 nnz(L) - n), on natural and ordered handles, pinned simplicial or
   not, and gives the Figure 1 baseline sweeps' solution bitwise. *)
let test_cholesky_solve_flops () =
  let module C = Sympiler.Cholesky in
  let al = spd_lower () in
  let n = al.Csc.ncols in
  let b = Array.init n (fun i -> float_of_int ((i mod 7) + 1)) in
  with_metrics @@ fun () ->
  List.iter
    (fun (name, opts) ->
      let t = C.compile ~opts al in
      let x = ref [||] in
      Alcotest.(check int)
        (name ^ ": the factor's and both sweeps' flops")
        (int_of_float t.C.flops + (2 * ((2 * t.C.nnz_l) - n)))
        (counted Metrics.flops (fun () -> x := C.solve t al b));
      let l = C.factor t al in
      let perm = t.C.ord.Sympiler.o_perm in
      let y =
        match perm with Some p -> Perm.apply_vec p b | None -> Array.copy b
      in
      Trisolve_ref.naive_ip l y;
      Trisolve_ref.transpose_ip l y;
      let y = match perm with Some p -> Perm.apply_inv_vec p y | None -> y in
      bitwise (name ^ ": the baseline sweeps' solution") y !x)
    [
      ("natural", Sympiler.Options.default);
      ("amd", Sympiler.Options.make ~ordering:`Amd ());
      ( "amd simplicial",
        Sympiler.Options.make ~ordering:`Amd ~simplicial:true () );
    ]

let test_reset () =
  with_metrics @@ fun () ->
  Metrics.inc Metrics.flops 7;
  Metrics.reset ();
  Alcotest.(check int) "counters zeroed" 0 (value Metrics.flops);
  Alcotest.(check bool) "still enabled" true (Prof.enabled ());
  Metrics.inc Metrics.flops 3;
  Alcotest.(check int) "handles survive reset" 3 (value Metrics.flops)

(* ---- emitters ---- *)

let is_infix needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_json_emitter () =
  let open Prof.Json in
  Alcotest.(check string) "escaping" {|{"a\"b\n":[null,true,-3,"x"]}|}
    (to_string (Obj [ ("a\"b\n", List [ Null; Bool true; Int (-3); Str "x" ]) ]));
  Alcotest.(check string) "non-finite floats are null" {|[null,null,0.5]|}
    (to_string (List [ Float nan; Float infinity; Float 0.5 ]));
  with_metrics @@ fun () ->
  Metrics.inc Metrics.flops 12;
  let s = to_string (Metrics.to_json ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json has " ^ needle) true (is_infix needle s))
    [
      {|"counters"|};
      {|"histograms"|};
      {|"name":"sympiler_flops"|};
      Printf.sprintf {|"value":%d|} (value Metrics.flops);
    ]

let test_table_emitter () =
  let al = spd_lower () in
  let p = Sympiler.Cholesky.plan (Sympiler.Cholesky.compile al) in
  with_metrics @@ fun () ->
  ignore (Sympiler.Cholesky.execute_ip p al : Csc.t);
  let t = Metrics.to_table () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("table has " ^ needle) true (is_infix needle t))
    [
      "sympiler_flops";
      string_of_int (value Metrics.flops);
      "sympiler_execute_seconds{";
      "sum=";
    ]

let test_table_alignment () =
  let long = "test_prof_a_very_long_counter_name_for_alignment" in
  let short = "test_prof_s" in
  Metrics.counter long |> ignore;
  Metrics.counter short |> ignore;
  let t = Metrics.to_table () in
  (* Every row pads the name to the widest one: the value column starts at
     the same offset on both rows whatever the name width. *)
  let value_offset name =
    match
      List.find_opt
        (fun l -> String.starts_with ~prefix:(name ^ " ") l)
        (String.split_on_char '\n' t)
    with
    | None -> Alcotest.failf "no table row for %s" name
    | Some row -> String.length row - String.length "0"
  in
  Alcotest.(check int) "aligned value column" (value_offset long)
    (value_offset short)

let suite =
  [
    ("one shared switch", `Quick, test_one_switch);
    ("timer accumulates", `Quick, test_timer_accumulates);
    ("timer reentrant", `Quick, test_timer_reentrant);
    ("timer exception-safe", `Quick, test_timer_exception_safe);
    ("disabled = passthrough", `Quick, test_disabled_is_passthrough);
    ("trisolve counters", `Quick, test_trisolve_counters);
    ("level-set counters", `Quick, test_levels_counter);
    ( "counters untouched when disabled",
      `Quick,
      test_counters_untouched_when_disabled );
    ("IC0/ILU0 flops per factor", `Quick, test_incomplete_flops);
    ("Cholesky.solve counts both sweeps", `Quick, test_cholesky_solve_flops);
    ("reset", `Quick, test_reset);
    ("json emitter", `Quick, test_json_emitter);
    ("table emitter", `Quick, test_table_emitter);
    ("table columns aligned", `Quick, test_table_alignment);
  ]
