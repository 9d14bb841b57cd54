#!/usr/bin/env sh
# tools/bench.sh — the perf snapshot, machine-readable:
#   1. build (reusing the given/default build dir)
#   2. run the paper-figure benches, timing each
#   3. run the `porcc bench` serving loop over a few kernels (Engine cache
#      hit-rate + per-call encrypted latency)
#   3b. run the same serving loop once per bundled execution backend
#      (bfv, dryrun) over the dot-product kernel: per-backend wall latency
#      plus the dry-run backend's charged cost-model latency, which is
#      host-independent and always gated by bench_compare.py
#   4. run the synthesis parallel-speedup benchmark (1 thread vs 4
#      portfolio threads over the fast-synthesizing kernels; also verifies
#      the programs stay byte-identical across thread counts)
#   5. run `porcc opt --json` over every registry kernel: per-pass
#      optimizer statistics and cost-model cost before/after the default
#      pipeline (host-independent; bench_compare.py fails the snapshot if
#      any pass increases cost)
#   6. run the BFV primitive microbenchmark (bench_bfv_microbench): per-op
#      microsecond medians for the homomorphic instruction set —
#      bench_compare.py gates mul/relin/rotate against the baseline on the
#      same machine class, and the numbers anchor the synthesis cost
#      model's latency table (quill/CostModel.h)
#   6b. run the serving-tier load harness (bench_serving_load): closed- and
#      open-loop request streams through driver::Server, batched vs
#      one-request-per-ciphertext, with p50/p95/p99 — bench_compare.py
#      gates the batching speedup and batched p99
#   6c. run the frontend lowering benchmark (bench_frontend_lowering):
#      parse + lower each embedded `.porc` workload, recording lowering
#      wall time plus the host-independent cost and instruction counts
#      bench_compare.py always gates
#   7. write everything into one JSON document (default: BENCH_results.json
#      at the repo root) so the perf trajectory can be tracked across PRs
#      — tools/bench_compare.py diffs two such snapshots and gates CI
#
# Usage: tools/bench.sh [--out FILE] [build-dir]   (default: build)
#
# Also reachable as `tools/check.sh --bench`, which runs it after the test
# suite on the same build tree.
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

OUT="$ROOT/BENCH_results.json"
BUILD_DIR=
while [ $# -gt 0 ]; do
  case "$1" in
    --out)
      [ $# -ge 2 ] || { echo "bench.sh: --out needs a file" >&2; exit 2; }
      OUT=$2; shift ;;
    -*) echo "bench.sh: unknown option '$1'" >&2; exit 2 ;;
    *)
      if [ -n "$BUILD_DIR" ]; then
        echo "bench.sh: more than one build dir given" >&2; exit 2
      fi
      BUILD_DIR=$1 ;;
  esac
  shift
done
BUILD_DIR=${BUILD_DIR:-"$ROOT/build"}
JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)

echo "== build ($BUILD_DIR)"
cmake -B "$BUILD_DIR" -S "$ROOT" >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" >/dev/null

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# now_ms: epoch milliseconds (GNU date %N; falls back to whole seconds).
now_ms() {
  NS=$(date +%s%N 2>/dev/null)
  case "$NS" in
    *N|'') echo "$(( $(date +%s) * 1000 ))" ;;
    *) echo "$(( NS / 1000000 ))" ;;
  esac
}

# One figure/ablation bench binary, timed. Appends a JSON entry to
# $TMP/benches. A missing binary is a broken build product, not a skip:
# silently emitting partial JSON would let the perf gate pass vacuously.
run_bench() {
  NAME=$1
  BIN="$BUILD_DIR/bench/$NAME"
  if [ ! -x "$BIN" ]; then
    echo "bench.sh: FAIL — bench binary '$NAME' not built at $BIN" >&2
    exit 1
  fi
  echo "  run  $NAME"
  START=$(now_ms)
  if "$BIN" >"$TMP/$NAME.out" 2>&1; then CODE=0; else CODE=$?; fi
  END=$(now_ms)
  [ -s "$TMP/benches" ] && printf ',\n' >>"$TMP/benches"
  printf '    {"name": "%s", "wall_ms": %s, "exit": %s}' \
    "$NAME" "$((END - START))" "$CODE" >>"$TMP/benches"
}

# One `porcc bench` serving record (already JSON on stdout). $1 is the
# kernel name; extra args pass through.
run_serving() {
  KERNEL=$1; shift
  echo "  run  porcc bench '$KERNEL' $*"
  if "$BUILD_DIR/tools/porcc" bench "$KERNEL" "$@" >"$TMP/serving.one" \
      2>"$TMP/serving.err"; then
    [ -s "$TMP/servings" ] && printf ',\n' >>"$TMP/servings"
    sed 's/^/    /' "$TMP/serving.one" >>"$TMP/servings"
  else
    echo "  FAIL porcc bench '$KERNEL':" >&2
    cat "$TMP/serving.err" >&2
    exit 1
  fi
}

: >"$TMP/benches"
: >"$TMP/servings"

echo "== figure benches"
run_bench bench_figure5_boxblur
run_bench bench_figure6_gx
run_bench bench_engine_serving

echo "== serving benches (porcc bench)"
run_serving "dot product" --runs 8 --batch 4
run_serving "gx" --runs 8 --batch 4
run_serving "box blur" --runs 8 --batch 4

# Per-backend serving records: one dot-product loop per bundled execution
# backend. Only the always-present backends are benched — the optional
# SEAL backend's presence depends on the build, and the snapshot must be
# comparable across builds. The dryrun record's charged_latency_us is the
# cost model pricing the compiled program, so bench_compare.py gates it
# across machine classes.
echo "== backend matrix (porcc bench --backend)"
: >"$TMP/backends"
for BACKEND in bfv dryrun; do
  echo "  run  porcc bench 'dot product' --backend $BACKEND"
  if "$BUILD_DIR/tools/porcc" bench "dot product" --runs 8 --batch 4 \
      --backend "$BACKEND" >"$TMP/backend.one" 2>"$TMP/backend.err"; then
    [ -s "$TMP/backends" ] && printf ',\n' >>"$TMP/backends"
    sed 's/^/    /' "$TMP/backend.one" >>"$TMP/backends"
  else
    echo "  FAIL porcc bench 'dot product' --backend $BACKEND:" >&2
    cat "$TMP/backend.err" >&2
    exit 1
  fi
done

# Optimizer pipeline cost records: two `porcc opt --json` records per
# registry kernel (names derived from `porcc list`) — one under the
# default pipeline, one with the eqsat superoptimizer appended. Each record
# carries its pipeline string, so bench_compare.py can key on (kernel,
# pipeline), gate that no pass ever raises cost, and gate that eqsat never
# loses to the default pipeline.
# Cost-model numbers are host-independent, so these gates are always
# armed.
echo "== optimizer pipeline (porcc opt)"
: >"$TMP/optimizer"
EQSAT_PIPELINE="peephole,cse,constfold,lazy-relin,rot-dedup,eqsat"
"$BUILD_DIR/tools/porcc" list \
  | sed -n '2,$p' \
  | sed -E 's/[[:space:]]{2,}.*$//' \
  | while IFS= read -r KERNEL; do
      [ -n "$KERNEL" ] || continue
      for PIPEARGS in "" "--pipeline $EQSAT_PIPELINE"; do
        echo "  run  porcc opt '$KERNEL' --json $PIPEARGS"
        # shellcheck disable=SC2086  # intentional word-split of the flag
        if "$BUILD_DIR/tools/porcc" opt "$KERNEL" --json $PIPEARGS \
            >"$TMP/opt.one" 2>"$TMP/opt.err"; then
          [ -s "$TMP/optimizer" ] && printf ',\n' >>"$TMP/optimizer"
          sed 's/^/    /' "$TMP/opt.one" >>"$TMP/optimizer"
        else
          echo "  FAIL porcc opt '$KERNEL' $PIPEARGS:" >&2
          cat "$TMP/opt.err" >&2
          exit 1
        fi
      done
    done

# Serving-tier load harness: closed- and open-loop request streams through
# driver::Server, batched vs one-request-per-ciphertext. The binary itself
# enforces the batching bar (>= 3x throughput at no worse p99) via its
# exit code; bench_compare.py additionally gates the recorded numbers.
echo "== serving load (bench_serving_load)"
if ! "$BUILD_DIR/bench/bench_serving_load" --requests 96 --clients 8 \
    >"$TMP/serving_load" 2>"$TMP/serving_load.err"; then
  echo "  FAIL bench_serving_load:" >&2
  cat "$TMP/serving_load.err" >&2
  exit 1
fi
sed -n 's/^/  /p' "$TMP/serving_load.err"

# Frontend lowering: parse + lower each embedded `.porc` workload
# in-process (bench_frontend_lowering). Per-workload cost and instruction
# counts are host-independent, so bench_compare.py always gates them;
# lower_ms is wall time and is gated same-host only.
echo "== frontend lowering (bench_frontend_lowering)"
if ! "$BUILD_DIR/bench/bench_frontend_lowering" --repeats 9 \
    >"$TMP/frontend" 2>"$TMP/frontend.err"; then
  echo "  FAIL bench_frontend_lowering:" >&2
  cat "$TMP/frontend.err" >&2
  exit 1
fi

# BFV primitive microbenchmark: per-op median latencies straight from the
# evaluator, no compiler in the loop. Emits one JSON object.
echo "== bfv microbench"
if ! "$BUILD_DIR/bench/bench_bfv_microbench" --repeats 25 \
    >"$TMP/microbench" 2>"$TMP/microbench.err"; then
  echo "  FAIL bench_bfv_microbench:" >&2
  cat "$TMP/microbench.err" >&2
  exit 1
fi

# Synthesis parallel speedup: every record carries synthesis_ms (the
# N-thread wall time), synthesis_ms_1thread, and synthesis_threads-equivalent
# context, so bench history stays comparable across machine sizes. A
# non-zero exit here means the sequential and parallel programs differed —
# a determinism bug, not a perf number — and fails the snapshot.
echo "== synthesis speedup (1 vs 4 threads)"
if ! "$BUILD_DIR/bench/bench_table3_synthesis" --compare-threads 4 \
    --timeout 60 >"$TMP/synthesis" 2>"$TMP/synthesis.err"; then
  echo "  FAIL bench_table3_synthesis --compare-threads:" >&2
  cat "$TMP/synthesis.err" >&2
  exit 1
fi
sed -n 's/^/  /p' "$TMP/synthesis.err"

{
  printf '{\n'
  printf '  "schema": "porcupine-bench-results/6",\n'
  printf '  "generated_by": "tools/bench.sh",\n'
  printf '  "date_utc": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "host_jobs": %s,\n' "$JOBS"
  printf '  "benches": [\n'
  cat "$TMP/benches"
  printf '\n  ],\n'
  printf '  "serving": [\n'
  cat "$TMP/servings"
  printf '\n  ],\n'
  printf '  "backends": [\n'
  cat "$TMP/backends"
  printf '\n  ],\n'
  printf '  "optimizer": [\n'
  cat "$TMP/optimizer"
  printf '\n  ],\n'
  printf '  "frontend":\n'
  sed 's/^/  /' "$TMP/frontend"
  printf '  ,\n'
  printf '  "serving_load":\n'
  sed 's/^/  /' "$TMP/serving_load"
  printf '  ,\n'
  printf '  "microbench":\n'
  sed 's/^/  /' "$TMP/microbench"
  printf '  ,\n'
  printf '  "synthesis":\n'
  sed 's/^/  /' "$TMP/synthesis"
  printf '}\n'
} >"$OUT"

echo "== bench.sh: wrote $OUT"
