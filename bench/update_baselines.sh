#!/usr/bin/env bash
# Regenerates the committed bench baselines (bench/baselines/*.json) at
# the scale the CI bench-gate runs them (DECA_SCALE=8, tracing on, local
# shuffle). Run from anywhere; pass the build directory as $1 if it is
# not ./build. After regenerating, eyeball `git diff bench/baselines/` —
# deterministic counters should only change when the engine's observable
# behaviour intentionally changed; wall-time drift alone is expected and
# harmless (the gate's time threshold is loose).
#
# Reports are RunReport schema v5 (v4 files still parse): the `alloc`
# aggregate records the native-buffer counters, and alloc.allocs /
# alloc.frees / alloc.bytes_requested are deterministic.
#
#   ./bench/update_baselines.sh [build-dir]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
out="$repo/bench/baselines"
# Stream benches run the shortened CI steady state (DECA_STREAM_EPOCHS=48,
# matching the bench-smoke job): epoch counters are bit-compared against
# these baselines, so the epoch count must agree between the two.
benches=(fig08_wc_exec fig09_lr_exec fig11_breakdown stream_wordcount stream_sessionize serve_cache)

for b in "${benches[@]}"; do
  if [[ ! -x "$build/bench/$b" ]]; then
    echo "error: $build/bench/$b not built (cmake --build $build --target $b)" >&2
    exit 1
  fi
done

mkdir -p "$out"
for b in "${benches[@]}"; do
  echo "== $b (DECA_SCALE=8) =="
  # Baselines are recorded over the local shuffle; the CI network leg
  # diffs its loopback runs against these same files (extra runs and
  # net.* metrics are allowed additions in report_diff).
  DECA_SCALE=8 DECA_TRACE=1 DECA_SHUFFLE_TRANSPORT=local \
    DECA_STREAM_EPOCHS=48 \
    DECA_JSON_OUT="$out/$b.json" \
    "$build/bench/$b" > /dev/null
  "$build/bench/report_diff" --validate "$out/$b.json"
done

echo "Baselines written to $out; review with: git diff bench/baselines/"
