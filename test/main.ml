let () =
  Alcotest.run "sympiler"
    [
      ("sparse", Test_sparse.suite);
      ("io+generators+ordering", Test_io_generators.suite);
      ("symbolic", Test_symbolic.suite);
      ("kernels", Test_kernels.suite);
      ("plans", Test_plans.suite);
      ("extensions", Test_extensions.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("ir", Test_ir.suite);
      ("api", Test_api.suite);
      ("prof", Test_prof.suite);
      ("metrics", Test_metrics.suite);
      ("trace", Test_trace.suite);
      ("parallel", Test_parallel.suite);
      ("ordering-stage", Test_ordering.suite);
      ("pipeline", Test_pipeline.suite);
      ("sweeps", Test_sweeps.suite);
      ("native", Test_native.suite);
      ("updown", Test_updown.suite);
      ("regressions", Test_regressions.suite);
      ("facade", Test_facade.suite);
    ]
