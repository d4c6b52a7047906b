open Sympiler_prof
open Sympiler_metrics

(* Tests for the serving-grade metrics layer: registry identity rules,
   histogram fidelity against a sorted-array oracle, domain-safety of the
   sharded cells (directly and through the domain pool), the allocation
   contracts, and OpenMetrics conformance. *)

let with_metrics = Helpers.with_metrics

(* Registered names must be unique per test run: the registry is global
   and registrations survive reset. *)
let fresh =
  let k = ref 0 in
  fun base ->
    incr k;
    Printf.sprintf "test_metrics_%s_%d" base !k

(* ---- registration identity ---- *)

let test_same_identity_same_handle () =
  let name = fresh "identity" in
  let labels = [ ("family", "cholesky"); ("engine", "ocaml") ] in
  let c1 = Metrics.counter name ~labels in
  (* label order must not matter: identity is the sorted label set *)
  let c2 = Metrics.counter name ~labels:(List.rev labels) in
  with_metrics @@ fun () ->
  Metrics.inc c1 3;
  Metrics.inc c2 4;
  Alcotest.(check int) "one series" 7 (Metrics.counter_value c1)

let test_kind_mismatch_rejected () =
  let name = fresh "kind" in
  ignore (Metrics.counter name);
  Alcotest.check_raises "counter re-registered as gauge"
    (Invalid_argument
       (Printf.sprintf "Metrics.gauge: %S already registered as a counter" name))
    (fun () -> ignore (Metrics.gauge name))

let test_bad_names_rejected () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "leading digit" true
    (bad (fun () -> Metrics.counter "9lives"));
  Alcotest.(check bool) "space in name" true
    (bad (fun () -> Metrics.counter "a b"));
  Alcotest.(check bool) "bad label name" true
    (bad (fun () -> Metrics.counter (fresh "lbl") ~labels:[ ("le!", "x") ]));
  Alcotest.(check bool) "dup label" true
    (bad (fun () ->
         Metrics.counter (fresh "dup") ~labels:[ ("a", "1"); ("a", "2") ]))

(* ---- histogram fidelity ---- *)

(* The histogram's percentile must land in (or one bucket off) the bucket
   of the sorted-array nearest-rank quantile, and count/sum/max are exact. *)
let prop_percentiles_vs_oracle =
  Helpers.qtest ~count:60 "histogram percentiles track sorted-array oracle"
    (QCheck.make
       ~print:(fun l ->
         Printf.sprintf "%d samples, max %d" (List.length l)
           (List.fold_left max 0 l))
       QCheck.Gen.(
         let sample =
           let* e = int_range 0 35 in
           let* m = int_range 0 1000 in
           return ((1 lsl e) + m)
         in
         list_size (int_range 1 400) sample))
    (fun samples ->
      let h = Metrics.histogram (fresh "fidelity") in
      with_metrics (fun () -> List.iter (Metrics.observe_ns h) samples);
      let snap = Metrics.snapshot h in
      let sorted = Array.of_list samples in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let oracle q =
        sorted.(min (n - 1)
                  (max 0
                     (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
      in
      let close q est =
        let est_ns = int_of_float ((est *. 1e9) +. 0.5) in
        abs (Metrics.bucket_of_ns est_ns - Metrics.bucket_of_ns (oracle q))
        <= 1
      in
      snap.Metrics.count = n
      && int_of_float ((snap.Metrics.sum *. 1e9) +. 0.5)
         = List.fold_left ( + ) 0 samples
      && int_of_float ((snap.Metrics.max *. 1e9) +. 0.5)
         = Array.fold_left max 0 sorted
      && close 0.50 snap.Metrics.p50
      && close 0.90 snap.Metrics.p90
      && close 0.99 snap.Metrics.p99)

let prop_bucket_geometry =
  Helpers.qtest ~count:200 "bucket_of_ns is monotone and brackets its value"
    QCheck.(make Gen.(int_bound 2_000_000_000))
    (fun v ->
      let b = Metrics.bucket_of_ns v in
      let upper = Metrics.bucket_upper_ns b in
      b >= 0
      && b < Metrics.n_buckets
      && v <= upper
      && (b = 0 || Metrics.bucket_upper_ns (b - 1) < v)
      && Metrics.bucket_of_ns upper = b)

let test_observe_seconds_rounds_to_ns () =
  let h = Metrics.histogram (fresh "seconds") in
  with_metrics @@ fun () ->
  Metrics.observe h 0.001;
  Metrics.observe h (-1.0) (* dropped *);
  Metrics.observe h Float.nan (* dropped *);
  let snap = Metrics.snapshot h in
  Alcotest.(check int) "count" 1 snap.Metrics.count;
  Alcotest.(check int) "sum ns" 1_000_000
    (int_of_float ((snap.Metrics.sum *. 1e9) +. 0.5))

(* ---- domain safety ---- *)

let test_counter_stress_exact_across_domains () =
  let c = Metrics.counter (fresh "stress") in
  let h = Metrics.histogram (fresh "stress_h") in
  let perdom = 50_000 and ndom = 4 in
  with_metrics @@ fun () ->
  let worker () =
    for i = 1 to perdom do
      Metrics.inc c 1;
      Metrics.observe_ns h i
    done
  in
  let doms = Array.init (ndom - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join doms;
  Alcotest.(check int) "no lost increments" (perdom * ndom)
    (Metrics.counter_value c);
  let snap = Metrics.snapshot h in
  Alcotest.(check int) "no lost observations" (perdom * ndom)
    snap.Metrics.count;
  Alcotest.(check int) "exact sum across domains"
    (ndom * (perdom * (perdom + 1) / 2))
    (int_of_float ((snap.Metrics.sum *. 1e9) +. 0.5))

(* Kernel counting sites run on pool workers too: drive the shared flop
   counter through Pool.run on 4 workers and demand the exact total, with
   no merge step at the barrier. *)
let test_inc_exact_through_pool () =
  with_metrics @@ fun () ->
  let perworker = 10_000 in
  let f0 = Metrics.counter_value Metrics.flops in
  Sympiler_runtime.Pool.run ~nworkers:4 (fun _rank ->
      for _ = 1 to perworker do
        Metrics.inc Metrics.flops 1
      done);
  Alcotest.(check int) "every worker increment counted" (4 * perworker)
    (Metrics.counter_value Metrics.flops - f0)

(* ---- allocation contracts ---- *)

let words_per_1k c h =
  Metrics.inc c 1;
  Metrics.observe_ns h 42;
  let w0 = Gc.minor_words () in
  for i = 1 to 1_000 do
    Metrics.inc c 1;
    Metrics.observe_ns h (i * 7)
  done;
  int_of_float (Gc.minor_words () -. w0)

let test_disabled_path_allocates_nothing () =
  let c = Metrics.counter (fresh "alloc") in
  let h = Metrics.histogram (fresh "alloc_h") in
  Metrics.disable ();
  Alcotest.(check int) "disabled records" 0 (words_per_1k c h);
  Alcotest.(check int) "disabled counter stays 0" 0 (Metrics.counter_value c)

let test_enabled_path_allocates_nothing () =
  let c = Metrics.counter (fresh "alloc_on") in
  let h = Metrics.histogram (fresh "alloc_on_h") in
  with_metrics @@ fun () ->
  Alcotest.(check int) "enabled records" 0 (words_per_1k c h)

(* ---- exporters ---- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_openmetrics_escaping () =
  let name = fresh "escape" in
  let c =
    Metrics.counter name
      ~help:"line one\nwith \"quotes\" and \\slashes"
      ~labels:[ ("path", "a\\b\"c\nd") ]
  in
  with_metrics @@ fun () ->
  Metrics.inc c 1;
  let s = Metrics.to_openmetrics () in
  Alcotest.(check bool) "label value escaped" true
    (contains s {|path="a\\b\"c\nd"|});
  Alcotest.(check bool) "help escaped" true
    (contains s {|line one\nwith "quotes" and \\slashes|});
  Alcotest.(check bool) "counter series gets _total" true
    (contains s (name ^ "_total{"));
  match Metrics.lint_openmetrics s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "lint rejected escaped exposition: %s" e

let test_openmetrics_conformance () =
  let c = Metrics.counter (fresh "conf") ~help:"a counter" in
  let g = Metrics.gauge (fresh "conf_g") ~help:"a gauge" in
  let h = Metrics.histogram (fresh "conf_h") ~help:"a histogram" in
  with_metrics @@ fun () ->
  Metrics.inc c 5;
  Metrics.set g 2.5;
  Metrics.observe h 0.003;
  Metrics.observe h 0.8;
  let s = Metrics.to_openmetrics () in
  (match Metrics.lint_openmetrics s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "lint failed: %s" e);
  Alcotest.(check bool) "ends with EOF" true (contains s "# EOF");
  Alcotest.(check bool) "+Inf bucket present" true
    (contains s {|le="+Inf"|});
  (* The linter must actually have teeth. *)
  let broken =
    String.concat ""
      [ "# TYPE x counter\nx_total 1\nx_total{ 2\n# EOF\n" ]
  in
  (match Metrics.lint_openmetrics broken with
  | Ok () -> Alcotest.fail "lint accepted a malformed label block"
  | Error _ -> ());
  let no_eof = "# TYPE y counter\ny_total 1\n" in
  match Metrics.lint_openmetrics no_eof with
  | Ok () -> Alcotest.fail "lint accepted a missing # EOF"
  | Error _ -> ()

let test_json_and_table_exporters () =
  let name = fresh "json" in
  let c = Metrics.counter name ~labels:[ ("k", "v") ] in
  with_metrics @@ fun () ->
  Metrics.inc c 9;
  let j = Prof.Json.to_string (Metrics.to_json ()) in
  Alcotest.(check bool) "json has the series" true
    (contains j (Printf.sprintf {|"name":"%s"|} name));
  Alcotest.(check bool) "json has the value" true (contains j {|"value":9|});
  (match Prof.Json.of_string j with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "snapshot json does not re-parse: %s" e);
  let t = Metrics.to_table () in
  Alcotest.(check bool) "table has the series" true
    (contains t (name ^ "{k=\"v\"}"))

(* ---- Prof.Json.of_string (the perf_gate parser) ---- *)

let test_json_parser_fixed_cases () =
  let ok s expected =
    match Prof.Json.of_string s with
    | Ok v ->
        Alcotest.(check string)
          (Printf.sprintf "parse %s" s)
          expected (Prof.Json.to_string v)
    | Error e -> Alcotest.failf "parse %s failed: %s" s e
  in
  ok {|{"a":1,"b":[true,null,-2.5e2]}|} {|{"a":1,"b":[true,null,-250]}|};
  ok {|"A\n\\"|} {|"A\n\\"|};
  ok "  [ ]  " "[]";
  let bad s =
    match Prof.Json.of_string s with
    | Ok _ -> Alcotest.failf "parser accepted %s" s
    | Error _ -> ()
  in
  bad "{";
  bad "[1,]";
  bad {|{"a":1} trailing|}

let prop_json_roundtrip =
  Helpers.qtest ~count:100 "Json.of_string inverts Json.to_string"
    (QCheck.make
       ~print:(fun j -> Prof.Json.to_string j)
       QCheck.Gen.(
         let scalar =
           oneof
             [
               return Prof.Json.Null;
               map (fun b -> Prof.Json.Bool b) bool;
               map (fun i -> Prof.Json.Int i) (int_range (-1000000) 1000000);
               map (fun s -> Prof.Json.Str s) (string_size (int_range 0 12));
             ]
         in
         let json =
           fix (fun self depth ->
               if depth = 0 then scalar
               else
                 oneof
                   [
                     scalar;
                     map
                       (fun l -> Prof.Json.List l)
                       (list_size (int_range 0 4) (self (depth - 1)));
                     map
                       (fun kvs -> Prof.Json.Obj kvs)
                       (list_size (int_range 0 4)
                          (pair
                             (string_size ~gen:(char_range 'a' 'z')
                                (int_range 1 6))
                             (self (depth - 1))));
                   ])
         in
         json 3))
    (fun j ->
      let s = Prof.Json.to_string j in
      match Prof.Json.of_string s with
      | Ok j' -> Prof.Json.to_string j' = s
      | Error _ -> false)

(* ---- facade integration ---- *)

let test_plan_latency_populates () =
  let open Sympiler_sparse in
  let a = Generators.grid2d ~stencil:`Five 8 8 in
  let al = Csc.lower a in
  let h = Sympiler.Cholesky.compile al in
  let p = Sympiler.Cholesky.plan h in
  with_metrics @@ fun () ->
  for _ = 1 to 5 do
    ignore (Sympiler.Cholesky.execute_ip p al)
  done;
  let lat = Sympiler.Cholesky.plan_latency p in
  Alcotest.(check bool) "count grew" true (lat.Metrics.count >= 5);
  Alcotest.(check bool) "p50 positive" true (lat.Metrics.p50 > 0.0);
  Alcotest.(check bool) "max >= p50 bucket lower bound" true
    (lat.Metrics.max > 0.0)

let suite =
  [
    Alcotest.test_case "same identity, same handle" `Quick
      test_same_identity_same_handle;
    Alcotest.test_case "kind mismatch rejected" `Quick
      test_kind_mismatch_rejected;
    Alcotest.test_case "bad names rejected" `Quick test_bad_names_rejected;
    prop_percentiles_vs_oracle;
    prop_bucket_geometry;
    Alcotest.test_case "observe drops negatives and NaN" `Quick
      test_observe_seconds_rounds_to_ns;
    Alcotest.test_case "4-domain counter stress is exact" `Quick
      test_counter_stress_exact_across_domains;
    Alcotest.test_case "inc exact through pool" `Quick
      test_inc_exact_through_pool;
    Alcotest.test_case "disabled path allocates nothing" `Quick
      test_disabled_path_allocates_nothing;
    Alcotest.test_case "enabled path allocates nothing" `Quick
      test_enabled_path_allocates_nothing;
    Alcotest.test_case "openmetrics escaping" `Quick test_openmetrics_escaping;
    Alcotest.test_case "openmetrics conformance + linter teeth" `Quick
      test_openmetrics_conformance;
    Alcotest.test_case "json + table exporters" `Quick
      test_json_and_table_exporters;
    Alcotest.test_case "json parser fixed cases" `Quick
      test_json_parser_fixed_cases;
    prop_json_roundtrip;
    Alcotest.test_case "plan latency histogram populates" `Quick
      test_plan_latency_populates;
  ]
