#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# repository root, passing every argument through:
#
#   bash benchmark/run.sh --workload ward_fft_paced --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the traced runs' span files stay under
# .bench_build/ at the repository root. Without the repository's own
# sources next to it the build fails and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
(
	cd "$root/benchmark"
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		go build -o "$out/benchmark" .
) >&2
cd "$root"
exec "$out/benchmark" "$@"
