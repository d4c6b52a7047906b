#!/bin/sh
# Tier-1 verification: build, test suite, dune-file formatting.
# Run from the repository root. Mirrors what reviewers run locally.
set -eu
cd "$(dirname "$0")/.."

echo "== C compiler check =="
# The gcc round-trip tests and the native backend need a C compiler. The
# test suite skips those groups visibly when none exists, but CI must not
# silently lose that coverage: require cc/gcc/clang (or $SYMPILER_CC)
# unless SYMPILER_ALLOW_NO_CC=1 explicitly waives it — then the waived
# gates print an explicit "skipped: no cc" line instead of passing.
have_cc=1
if [ -n "${SYMPILER_CC:-}" ]; then
  command -v "$SYMPILER_CC" > /dev/null 2>&1 || have_cc=0
else
  command -v cc > /dev/null 2>&1 || command -v gcc > /dev/null 2>&1 \
    || command -v clang > /dev/null 2>&1 || have_cc=0
fi
if [ "$have_cc" = "0" ]; then
  if [ "${SYMPILER_ALLOW_NO_CC:-0}" = "1" ]; then
    echo "skipped: no cc (SYMPILER_ALLOW_NO_CC=1 set; round-trip and native gates will skip)"
  else
    echo "FAIL: no C compiler (cc/gcc/clang on PATH, or \$SYMPILER_CC)." >&2
    echo "      Set SYMPILER_ALLOW_NO_CC=1 to waive explicitly." >&2
    exit 1
  fi
fi

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== dune runtest, kernels bounds-checked =="
# The kernels build with -unsafe everywhere except the `checked` profile
# (lib/kernels/dune): run the suite once there, in its own build dir, so
# any out-of-bounds access a test reaches raises instead of reading or
# writing past an array.
dune runtest --profile checked --build-dir _build_checked

echo "== test suite under forced domain counts =="
# The parallel runtime must give bitwise-identical results however the
# pool is sized; SYMPILER_NDOMAINS overrides every default sizing
# decision. Run through `dune exec` (not `dune runtest`, whose cache
# ignores the environment).
for nd in 1 4; do
  echo "-- SYMPILER_NDOMAINS=$nd --"
  SYMPILER_NDOMAINS=$nd dune exec test/main.exe > /dev/null || {
    echo "FAIL: test suite under SYMPILER_NDOMAINS=$nd" >&2
    exit 1
  }
done

echo "== dune build @fmt =="
dune build @fmt

echo "== steady-state allocation gate =="
# The plan layer's contract: repeated in-place execution allocates nothing.
# The steady bench section writes BENCH_steady.json with a precomputed
# verdict over every suite problem; fail CI if any path allocated or got
# slower than its first call.
dune exec bench/main.exe -- --quick --only steady
grep -q '"all_zero_alloc":true' BENCH_steady.json || {
  echo "FAIL: nonzero steady-state allocation in BENCH_steady.json" >&2
  exit 1
}
grep -q '"steady_not_slower":true' BENCH_steady.json || {
  echo "FAIL: steady-state slower than first call in BENCH_steady.json" >&2
  exit 1
}

echo "== native backend gate =="
# Compiled-C executors must race the OCaml ones without losing: the native
# bench section gates native-not-slower on trisolve and Cholesky, the
# .so-cache reload (a cache hit must not re-invoke the C compiler), and
# zero allocation per native call.
if [ "$have_cc" = "1" ]; then
  dune exec bench/main.exe -- --quick --only native
  for verdict in native_not_slower_trisolve native_not_slower_cholesky \
    cache_hit_no_recompile native_zero_alloc; do
    grep -q "\"$verdict\":true" BENCH_native.json || {
      echo "FAIL: $verdict is false in BENCH_native.json" >&2
      exit 1
    }
  done
else
  # Still run the section: it must degrade to an explicit skip marker,
  # never to a silently-green verdict.
  dune exec bench/main.exe -- --quick --only native
  grep -q '"skipped":"no cc"' BENCH_native.json || {
    echo "FAIL: native section without a compiler must write the skip marker" >&2
    exit 1
  }
  echo "skipped: no cc"
fi

echo "== tracing-disabled overhead gate =="
# Structured tracing must be free when off: the trace bench section
# measures the disabled begin/end pair cost and fails its verdict if the
# steady path's span pairs would cost more than 2% of a steady call.
dune exec bench/main.exe -- --quick --only trace
grep -q '"disabled_overhead_ok":true' BENCH_trace.json || {
  echo "FAIL: tracing-disabled overhead exceeds 2% in BENCH_trace.json" >&2
  exit 1
}

echo "== parallel runtime gate =="
# The persistent pool's contract on the single-core CI container: steady
# parallel calls allocate nothing, results are bitwise-identical across
# domain counts, and dispatching through the pool beats spawning domains
# per level on the largest benched problem.
dune exec bench/main.exe -- --quick --only parallel
for verdict in all_zero_alloc bitwise_across_ndomains \
  pool_beats_spawn_on_largest; do
  grep -q "\"$verdict\":true" BENCH_parallel.json || {
    echo "FAIL: $verdict is false in BENCH_parallel.json" >&2
    exit 1
  }
done

echo "== ordering gate =="
# Fill-reducing orderings as a compilation stage: AMD must stay within
# tolerance of the exact-degree greedy oracle on every suite problem,
# improve on the natural ordering for every mesh/grid problem, and not be
# slower than the greedy oracle on the largest benched grid; the ordered
# facade path must stay allocation-free in steady state and produce
# factors bitwise-identical to a manually pre-permuted compile.
dune exec bench/main.exe -- --quick --only ordering
for verdict in amd_fill_within_tolerance amd_beats_natural_on_meshes \
  amd_not_slower_than_greedy_on_largest ordered_steady_zero_alloc \
  ordered_bitwise_vs_manual verdict; do
  grep -q "\"$verdict\":true" BENCH_ordering.json || {
    echo "FAIL: $verdict is false in BENCH_ordering.json" >&2
    exit 1
  }
done

echo "== metrics gate =="
# The labeled metrics registry must be serving-grade: enabling it costs
# <= 2% on the steady refactor path, histogram percentiles track a
# sorted-array oracle to one bucket, 4 domains lose no increments, the
# enabled record path allocates nothing, and the OpenMetrics exposition
# passes the conformance linter. The bench section precomputes one
# verdict over all five.
dune exec bench/main.exe -- --quick --only metrics
grep -q '"verdict":true' BENCH_metrics.json || {
  echo "FAIL: metrics verdict is false in BENCH_metrics.json" >&2
  exit 1
}

echo "== pipeline fusion gate =="
# Whole-DAG pipelines: the fused executor must not be slower than the
# staged baseline (same stage bodies, per-stage copies), must allocate
# nothing per apply, must return bitwise-identical results, and the one
# shared symbolic analysis must compute every artifact at most once.
dune exec bench/main.exe -- --quick --only pipeline
for verdict in fused_not_slower pipeline_zero_alloc \
  fused_bitwise_identical analysis_shared verdict; do
  grep -q "\"$verdict\":true" BENCH_pipeline.json || {
    echo "FAIL: $verdict is false in BENCH_pipeline.json" >&2
    exit 1
  }
done

echo "== rank update/downdate gate =="
# First-class update/downdate on plans: an in-pattern rank-1 update must
# beat a full refactorization on every suite problem (that is the whole
# point of the §3.3 method), the steady update/downdate pair must
# allocate nothing, and a rejected downdate must leave the factor
# bitwise intact. The drift, incremental-bitwise and escalation gates
# fold into the overall verdict.
dune exec bench/main.exe -- --quick --only updown
for verdict in update_faster_than_refactor_below_crossover \
  updown_zero_alloc rollback_preserves_factor verdict; do
  grep -q "\"$verdict\":true" BENCH_updown.json || {
    echo "FAIL: $verdict is false in BENCH_updown.json" >&2
    exit 1
  }
done

echo "== pipeline example gate =="
# The PCG example exits non-zero unless it converges AND the fused and
# staged residual trajectories are bitwise-identical.
dune exec examples/precond_cg.exe > /dev/null || {
  echo "FAIL: examples/precond_cg.exe (convergence or fused/staged divergence)" >&2
  exit 1
}
echo "precond_cg: ok"

echo "== perf_gate smoke =="
# The perf-regression gate itself must work: a self-comparison passes,
# and a synthetically inflated copy (every latency field x3) fails.
scripts/perf_gate check BENCH_metrics.json BENCH_metrics.json || {
  echo "FAIL: perf_gate rejects a self-comparison" >&2
  exit 1
}
scripts/perf_gate check BENCH_pipeline.json BENCH_pipeline.json || {
  echo "FAIL: perf_gate rejects a pipeline self-comparison" >&2
  exit 1
}
scripts/perf_gate check BENCH_updown.json BENCH_updown.json || {
  echo "FAIL: perf_gate rejects an updown self-comparison" >&2
  exit 1
}
scripts/perf_gate inflate BENCH_metrics.json 3.0 _build/BENCH_inflated.json
if scripts/perf_gate check BENCH_metrics.json _build/BENCH_inflated.json \
  > /dev/null 2>&1; then
  echo "FAIL: perf_gate accepted a 3x latency regression" >&2
  exit 1
fi
echo "perf_gate smoke: ok"

echo "== ordered explain smoke =="
# `explain --ordering amd --json` must report the selected ordering, the
# natural-ordering baseline columns, and the ordering's fill-ratio
# decision (taken by Explain, not by the compile) on two suite matrices.
for prob in Dubcova2 ecology2; do
  dune exec bin/sympiler_cli.exe -- explain --problem "$prob" \
    --ordering amd --json > "_build/explain_amd_$prob.json"
  for key in '"ordering":"amd"' '"nnz_l_natural"' '"predicted_flops_natural"' \
    '"pass":"ordering"'; do
    grep -q "$key" "_build/explain_amd_$prob.json" || {
      echo "FAIL: ordered explain JSON for $prob missing $key" >&2
      exit 1
    }
  done
  echo "explain --ordering amd --json $prob: ok"
done

echo "== explain report gate =="
# `sympiler explain --json` must emit parseable JSON with the report's
# key fields on representative suite matrices (one supernodal-leaning,
# one simplicial-leaning), for both kernels. The executed flops must equal
# the predicted ones: they count the explained kernel's own execution,
# not the factorization that produces a trisolve's L.
for prob in msc23052 ecology2; do
  for kernel in cholesky trisolve; do
    out="_build/explain_${kernel}_$prob.json"
    dune exec bin/sympiler_cli.exe -- explain --problem "$prob" \
      --kernel "$kernel" --json > "$out"
    if command -v python3 > /dev/null 2>&1; then
      python3 - "$out" "$kernel" << 'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
keys = ["kernel", "n", "nnz_l", "fill_ratio", "etree_height",
        "col_count_hist", "supernode_width_hist", "level_depth",
        "decisions", "predicted_flops", "executed_flops"]
missing = [k for k in keys if k not in r]
assert not missing, f"explain JSON missing keys: {missing}"
assert r["kernel"] == sys.argv[2]
assert isinstance(r["decisions"], list) and len(r["decisions"]) >= 2
assert r["executed_flops"] == r["predicted_flops"], \
    f"executed_flops {r['executed_flops']} != predicted_flops {r['predicted_flops']}"
EOF
    else
      # Fallback without python3: key presence, and the two flop fields
      # compared as printed.
      for key in kernel fill_ratio etree_height decisions executed_flops; do
        grep -q "\"$key\"" "$out" || {
          echo "FAIL: explain JSON for $kernel $prob missing \"$key\"" >&2
          exit 1
        }
      done
      pred=$(sed -n 's/.*"predicted_flops":\([^,]*\),.*/\1/p' "$out")
      exec_=$(sed -n 's/.*"executed_flops":\([^,]*\),.*/\1/p' "$out")
      [ "$pred" = "$exec_" ] || {
        echo "FAIL: explain $kernel $prob executed_flops $exec_ != predicted_flops $pred" >&2
        exit 1
      }
    fi
    echo "explain --kernel $kernel --json $prob: ok"
  done
done

echo "== --profile smoke =="
# --profile turns the metrics switch on and prints the registry's table
# to stderr: the flop counter must be non-zero and the plan's
# sympiler_execute_seconds series must be there.
dune exec bin/sympiler_cli.exe -- steady --problem cbuckle --repeat 5 \
  --profile 2> _build/profile_cbuckle.txt > /dev/null
grep -Eq '^sympiler_flops +[1-9][0-9]*$' _build/profile_cbuckle.txt || {
  echo "FAIL: --profile table has no non-zero sympiler_flops row" >&2
  exit 1
}
grep -Eq '^sympiler_execute_seconds\{engine="ocaml",family="cholesky",op="factor",ordering="natural"\} +count=[1-9]' \
  _build/profile_cbuckle.txt || {
  echo "FAIL: --profile table has no sympiler_execute_seconds series for the plan" >&2
  exit 1
}
echo "steady --profile: ok"

echo "== repository benchmark smoke =="
# perfbench/smoke.py runs every workload of BENCHMARK.json briefly, untraced
# and traced (about 50 s): each request's off-clock backward-error check
# must pass against the current assembly, ordering and symbolic code, every
# declared metric must be present, and the traced layers must cover the
# request wall-clock.
if command -v python3 > /dev/null 2>&1; then
  python3 perfbench/smoke.py || {
    echo "FAIL: perfbench/smoke.py" >&2
    exit 1
  }
else
  echo "skipped: no python3 (perfbench smoke needs it)"
fi

if [ "${SYMPILER_LARGE:-0}" = "1" ]; then
  echo "== large tier (opt-in: SYMPILER_LARGE=1) =="
  # 10^6-row readiness: the large-smoke group factors a 10^5-row grid
  # through the facade (zero steady-state allocation, pool-vs-sequential
  # bitwise identity), then the large bench ladder (10^4/10^5/10^6-row
  # grids) measures wall-clock scaling exponents and fails if symbolic
  # analysis is no longer near-linear. Takes ~a minute and ~2 GB of RAM,
  # so it never runs in the default tier.
  dune build @large-smoke
  dune exec bench/main.exe -- --only large
  grep -q '"symbolic_near_linear":true' BENCH_large.json || {
    echo "FAIL: symbolic scaling exponent super-linear in BENCH_large.json" >&2
    exit 1
  }
  grep -q '"numeric_near_linear":true' BENCH_large.json || {
    echo "FAIL: numeric scaling exponent super-linear in BENCH_large.json" >&2
    exit 1
  }
fi

echo "CI OK"
