#!/usr/bin/env bash
# CI guard for sigproc.BandPassFFT's two routes. On a short window the
# in-band DFT must stay well ahead of the transform route it replaces
# (refBandPassFFT, the "ref" sub-benchmark); near the crossover it must
# not fall behind, and on a long window past it BandPassFFT must run the
# transform route itself and so cost about what ref costs. Ratios, not absolute times, so the gate
# holds across hosts; each time is the fastest of three runs, so one
# stall on a shared host does not fail it.
#
# Usage: scripts/bandpass_bench_smoke.sh [benchtime] [min_speedup] [max_long_ratio]
#   benchtime       go test -benchtime value (default 200ms)
#   min_speedup     min ref/BandPassFFT at n=400 (default 2; ~5 measured)
#   max_long_ratio  max BandPassFFT/ref at n=4800 and n=19200 (default
#                   1.5; ~0.9 and ~1 measured, and ~2.6 at 19200 if the
#                   direct route ran there)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${1:-200ms}"
MIN_SPEEDUP="${2:-2}"
MAX_LONG="${3:-1.5}"

OUT=$(go test ./internal/sigproc/ -run '^$' \
  -bench 'BenchmarkBandPassFFT/n=(400|4800|19200)/' \
  -benchtime "$BENCHTIME" -count=3)
echo "$OUT"

echo "$OUT" | awk -v min_speedup="$MIN_SPEEDUP" -v max_long="$MAX_LONG" '
$1 ~ /^BenchmarkBandPassFFT\/n=[0-9]+\// {
    split($1, part, "/")
    route = part[3]; sub(/-[0-9]+$/, "", route)
    key = part[2] "/" route
    if (ns[key] == "" || $3 < ns[key]) ns[key] = $3
}
END {
    split("n=400 n=4800 n=19200", lens, " ")
    for (i = 1; i <= 3; i++) {
        if (ns[lens[i] "/BandPassFFT"] == "" || ns[lens[i] "/ref"] == "") {
            print "bandpass_bench_smoke: missing benchmark output for " lens[i]; exit 1
        }
    }
    fail = 0
    speedup = ns["n=400/ref"] / ns["n=400/BandPassFFT"]
    printf "bandpass_bench_smoke: n=400 ref/BandPassFFT=%.2f (min %.2f)\n", speedup, min_speedup
    if (speedup < min_speedup) {
        print "bandpass_bench_smoke: FAIL — the in-band DFT lost its lead on the monitor window"
        fail = 1
    }
    split("n=4800 n=19200", long, " ")
    for (i = 1; i <= 2; i++) {
        r = ns[long[i] "/BandPassFFT"] / ns[long[i] "/ref"]
        printf "bandpass_bench_smoke: %s BandPassFFT/ref=%.2f (max %.2f)\n", long[i], r, max_long
        if (r > max_long) {
            print "bandpass_bench_smoke: FAIL — BandPassFFT is slower than the transform route; is the crossover lost?"
            fail = 1
        }
    }
    if (fail) exit 1
    print "bandpass_bench_smoke: OK"
}'
