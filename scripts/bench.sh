#!/usr/bin/env bash
# Run every ablation benchmark and collect the artifacts in one place
# (bench-artifacts/): JSON where the harness produces it, the raw table
# otherwise.  LISI_BENCH_REPS=n shortens the self-timed runs.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j --target ablation_reuse ablation_autotune \
  ablation_precision ablation_overhead ablation_service \
  ablation_collectives ablation_rarray ablation_params ablation_formats \
  ablation_matfree ablation_mg

# Fail loudly, by name, if any expected harness binary is missing — a
# renamed target would otherwise surface as a confusing "no such file"
# halfway through the collection loop below.
for bin in ablation_reuse ablation_autotune \
    ablation_precision ablation_overhead ablation_service \
    ablation_collectives ablation_rarray ablation_params ablation_formats \
    ablation_matfree ablation_mg; do
  if [ ! -x "./build/bench/$bin" ]; then
    echo "bench: FATAL: expected binary build/bench/$bin is missing" >&2
    exit 1
  fi
done

ART="$PWD/bench-artifacts"
mkdir -p "$ART"

# Operator-reuse ablation writes BENCH_reuse.json into its cwd.
(cd "$ART" && "$OLDPWD"/build/bench/ablation_reuse \
  | tee BENCH_reuse.txt)

# Autotune ablation writes BENCH_autotune.json into its cwd.  LISI_TUNE
# must not leak into the run: both arms set the "tune" parameter
# explicitly.
(cd "$ART" && env -u LISI_TUNE "$OLDPWD"/build/bench/ablation_autotune \
  | tee BENCH_autotune.txt)

# Mixed-precision ablation writes BENCH_precision.json into its cwd.
# LISI_PRECISION must not leak into the run: both arms set the "precision"
# parameter explicitly, and tuning is pinned off inside the harness.
(cd "$ART" && env -u LISI_PRECISION "$OLDPWD"/build/bench/ablation_precision \
  | tee BENCH_precision.txt)

# Componentization-overhead ablation writes BENCH_overhead.json into its
# cwd (plus BENCH_overhead_obs.json / BENCH_overhead_trace.json when the
# build has LISI_OBS=ON — see docs/OBSERVABILITY.md).
(cd "$ART" && "$OLDPWD"/build/bench/ablation_overhead \
  | tee BENCH_overhead.txt)

# Session-service ablation writes BENCH_service.json into its cwd.  The
# LISI_SERVICE_* knobs must not leak in: the harness pins its own pool
# shape (2x2-rank sessions vs one serialized 4-rank World).
(cd "$ART" && env -u LISI_SERVICE_SESSIONS -u LISI_SERVICE_RANKS \
  -u LISI_SERVICE_QUEUE_DEPTH -u LISI_SERVICE_BATCH_WINDOW \
  "$OLDPWD"/build/bench/ablation_service | tee BENCH_service.txt)

# google-benchmark ablations emit JSON natively.  Note: the bundled
# google-benchmark predates unit suffixes — min_time takes a bare double.
for b in collectives rarray params formats matfree; do
  ./build/bench/ablation_"$b" --benchmark_min_time=0.05 \
    --benchmark_out="$ART/BENCH_$b.json" --benchmark_out_format=json
done

# Self-timed text harnesses.
./build/bench/ablation_mg > "$ART/BENCH_mg.txt"

echo "bench: artifacts in $ART"
ls -1 "$ART"
