#!/bin/sh
# Tier-1 verification: build, test suite, dune-file formatting.
# Run from the repository root. Mirrors what reviewers run locally.
set -eu
cd "$(dirname "$0")/.."

# CI must leave the work tree as it found it: every output goes under
# ignored build directories. Inside a git work tree, record the status
# now and compare it at the end.
in_git=0
if command -v git > /dev/null 2>&1 \
  && git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  in_git=1
  status_before=$(git status --porcelain)
fi

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

echo "== dune runtest, bounds-checked =="
# The kernels build with -unsafe, and the compile path's symbolic loops
# index through lib/sparse/ix.unchecked.ml, everywhere except the
# `checked` profile (lib/kernels/dune, lib/sparse/dune): run the suite
# once there, in its own build dir, so any out-of-bounds access a test
# reaches raises instead of reading or writing past an array.
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

echo "== timing gates =="
# The verdicts only a clock can check (`bench/main.exe --only gates`):
# steady calls not slower than the first call, native not slower than
# OCaml (1.10x), tracing free when off (<= 2%), the pool beating
# spawn-per-call, AMD beating the greedy oracle, the metrics switch
# costing <= 2%, fusion not slower than staged (1.05x), and a rank-1
# update beating a refactorization. The section times its arms as
# interleaved pairs in a release build and writes
# _build/bench/gates.json; the laws behind each verdict (allocation,
# bitwise identity, .so reuse, rollback, drift, fill) are tests. Without
# a compiler the native verdicts are replaced by an explicit skip marker.
gates=_build/bench/gates.json
rm -f "$gates"
dune build --root . --build-dir .bench_build --profile release ./bench/main.exe
.bench_build/default/bench/main.exe --only gates
for verdict in steady_not_slower disabled_overhead_ok \
  pool_beats_spawn_on_largest amd_not_slower_than_greedy_on_largest \
  overhead_ok fused_not_slower update_faster_than_refactor_below_crossover; do
  grep -q "\"$verdict\":true" "$gates" || {
    echo "FAIL: $verdict is not true in $gates" >&2
    exit 1
  }
done
if [ "$have_cc" = "1" ]; then
  for verdict in native_not_slower_trisolve native_not_slower_cholesky \
    native_not_slower_ldlt; do
    grep -q "\"$verdict\":true" "$gates" || {
      echo "FAIL: $verdict is not true in $gates" >&2
      exit 1
    }
  done
else
  grep -q '"native_skipped":"no cc"' "$gates" || {
    echo "FAIL: gates without a compiler must write the native skip marker" >&2
    exit 1
  }
  echo "skipped: no cc"
fi
if grep -q ':false' "$gates"; then
  echo "FAIL: a false verdict in $gates" >&2
  exit 1
fi

echo "== bench section names =="
# An unknown section must exit non-zero with the list of sections, never
# run nothing and pass; `steady` is one of the retired per-feature names.
if .bench_build/default/bench/main.exe --only steady > /dev/null 2>&1; then
  echo "FAIL: bench --only steady (not a section) exited 0" >&2
  exit 1
fi
echo "bench --only steady: rejected"

echo "== examples =="
# Each example exits non-zero when its own check fails: quickstart's
# residuals, circuit_sim's Newton convergence, fem_poisson's temperature
# field, precond_cg's convergence and fused/staged bitwise identity, and
# active_set's factor drift after 400 rank-1 updates.
for ex in quickstart circuit_sim fem_poisson precond_cg active_set; do
  dune exec "examples/$ex.exe" > /dev/null || {
    echo "FAIL: examples/$ex.exe (its printed check failed)" >&2
    exit 1
  }
  echo "$ex: ok"
done

echo "== perf_gate smoke =="
# The regression gate compares perfbench result lines under
# BENCHMARK.json's bounds: a self-comparison of one short real run must
# pass, and a copy with every timing made 2x worse must fail.
if command -v python3 > /dev/null 2>&1; then
  python3 perfbench/run.py --workload pcg --seed 1 --seconds 1 \
    > _build/perfbench_pcg.out
  tail -n 1 _build/perfbench_pcg.out > _build/perf_gate_base.jsonl
  scripts/perf_gate check _build/perf_gate_base.jsonl \
    _build/perf_gate_base.jsonl || {
    echo "FAIL: perf_gate rejects a self-comparison" >&2
    exit 1
  }
  scripts/perf_gate inflate _build/perf_gate_base.jsonl 2.0 \
    _build/perf_gate_2x.jsonl
  if scripts/perf_gate check _build/perf_gate_base.jsonl \
    _build/perf_gate_2x.jsonl > /dev/null 2>&1; then
    echo "FAIL: perf_gate accepted a 2x slowdown" >&2
    exit 1
  fi
  echo "perf_gate smoke: ok"
else
  echo "skipped: no python3 (the perf_gate smoke needs a perfbench run)"
fi

echo "== ordered explain smoke =="
# `explain --ordering amd --json` must report the selected ordering, the
# natural-ordering baseline columns, the ordering's fill-ratio decision
# (taken by Explain, not by the compile), and the flop-weighted supernode
# width the native kernel choice reads, on two suite matrices.
for prob in Dubcova2 ecology2; do
  dune exec bin/sympiler_cli.exe -- explain --problem "$prob" \
    --ordering amd --json > "_build/explain_amd_$prob.json"
  for key in '"ordering":"amd"' '"nnz_l_natural"' '"predicted_flops_natural"' \
    '"pass":"ordering"' '"flop_weighted_width"' '"native_kernel":"supernodal"'; do
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

echo "== pipeline CLI, one run per family =="
# `pipeline` exits 1 unless the fused apply equals the staged baseline bit
# for bit: run it once per factor family on cbuckle, and once on an
# AMD-ordered Cholesky chain with an SpMV stage.
for fam in cholesky ldlt lu ic0 ilu0; do
  dune exec bin/sympiler_cli.exe -- pipeline --problem cbuckle \
    --family "$fam" > /dev/null || {
    echo "FAIL: pipeline --problem cbuckle --family $fam" >&2
    exit 1
  }
  echo "pipeline cbuckle $fam: ok"
done
dune exec bin/sympiler_cli.exe -- pipeline --problem Dubcova2 \
  --family cholesky --ordering amd --stages spmv,factor,solve > /dev/null || {
  echo "FAIL: pipeline --problem Dubcova2 --ordering amd --stages spmv,factor,solve" >&2
  exit 1
}
echo "pipeline Dubcova2 amd spmv,factor,solve: ok"

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

echo "== native shape smoke =="
# A factor kernel's C is one text per kernel shape, so patterns of one
# shape share one compiled object. parabolic_fem and cbuckle, both
# naturally ordered, are handles whose VS-Block rule sends their native
# plans to the supernodal kernel: with one fresh native cache the first
# run compiles and the second only dlopens, which proves both run the
# one supernodal shape. Then four processes compile one shape at once into another
# fresh cache: each must run native, and the directory must end with one
# object and no temp files. Last, `stats` on cbuckle in a fresh process
# and cache runs a native triangular-solve plan: its execute series must
# count the calls, with no fallback, so the solve's kernel is shown to
# compile and run on the plans' one native path.
if [ "$have_cc" = "1" ]; then
  cli=_build/default/bin/sympiler_cli.exe
  smoke=$(mktemp -d _build/native-smoke.XXXXXX)
  mkdir "$smoke/seq" "$smoke/conc" "$smoke/stats" "$smoke/stats-col"
  for step in "parabolic_fem:cc+dlopen" "cbuckle:dlopen of cached .so"; do
    prob=${step%%:*}
    want=${step#*:}
    SYMPILER_NATIVE_CACHE="$smoke/seq" "$cli" steady --problem "$prob" \
      --engine native --repeat 1 > "$smoke/$prob.txt"
    grep -q "^engine *: native (compiled C, $want in" "$smoke/$prob.txt" || {
      echo "FAIL: steady --engine native on $prob did not report $want" >&2
      cat "$smoke/$prob.txt" >&2
      exit 1
    }
    echo "steady --engine native $prob: $want"
  done
  for k in 1 2 3 4; do
    SYMPILER_NATIVE_CACHE="$smoke/conc" "$cli" steady --problem gyro \
      --engine native --repeat 1 > "$smoke/conc-$k.txt" &
  done
  wait
  for k in 1 2 3 4; do
    grep -q '^engine *: native (compiled C' "$smoke/conc-$k.txt" || {
      echo "FAIL: concurrent steady --engine native run $k fell back" >&2
      cat "$smoke/conc-$k.txt" >&2
      exit 1
    }
  done
  left=$(ls -A "$smoke/conc")
  if [ "$(echo "$left" | wc -l)" != "1" ] \
    || ! echo "$left" | grep -Eqx '[0-9a-f]{16}\.so'; then
    echo "FAIL: the concurrent cache should hold one .so and nothing else:" >&2
    echo "$left" >&2
    exit 1
  fi
  echo "4 concurrent compiles of one shape: one object, no temp files"
  # cbuckle's solve takes VS-Block, gyro's declines it: both lowerings
  # compile and run in a fresh process.
  for step in "cbuckle:stats" "gyro:stats-col"; do
    prob=${step%%:*}
    cache=$smoke/${step#*:}
    SYMPILER_NATIVE_CACHE="$cache" "$cli" stats --problem "$prob" \
      --engine native --repeat 3 > "$cache.txt"
    grep -Eq '^sympiler_execute_seconds\{engine="native",family="trisolve",[^}]*\} +count=[1-9]' \
      "$cache.txt" && grep -Eq '^sympiler_native_fallbacks +0$' "$cache.txt" || {
      echo "FAIL: stats --engine native on $prob ran no native trisolve plan" >&2
      cat "$cache.txt" >&2
      exit 1
    }
    echo "stats --engine native $prob: native trisolve, no fallback"
  done
  rm -rf "$smoke"
else
  echo "skipped: no cc (native shape smoke)"
fi

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

echo "== large tier =="
# 10^6-row readiness: the large-smoke group factors a 10^5-row grid
# through the facade (zero steady-state allocation, pool-vs-sequential
# bitwise identity), then the large bench ladder (10^4/10^5/10^6-row
# grids) measures wall-clock scaling exponents and fails if symbolic
# analysis or the numeric factorization is no longer near-linear. The two
# steps take seconds; the bench process peaks near 1.4 GB of RAM.
dune build @large-smoke
dune exec bench/main.exe -- --only large
for verdict in symbolic_near_linear numeric_near_linear; do
  grep -q "\"$verdict\":true" _build/bench/large.json || {
    echo "FAIL: $verdict is not true in _build/bench/large.json" >&2
    exit 1
  }
done

if [ "$in_git" = "1" ]; then
  echo "== work tree unchanged =="
  status_after=$(git status --porcelain)
  if [ "$status_after" != "$status_before" ]; then
    echo "FAIL: scripts/ci.sh changed the work tree. Before:" >&2
    printf '%s\n' "$status_before" >&2
    echo "After:" >&2
    printf '%s\n' "$status_after" >&2
    exit 1
  fi
  echo "git status: unchanged"
fi

echo "CI OK"
