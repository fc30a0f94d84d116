#!/usr/bin/env bash
# The MATEX benchmark: builds the binaries under test and the harness from
# this checkout, then runs bench/e2e. See bench/README.md.
#
#   bench/run.sh [--seed N] [--trace] [--repeat-check]      every workload
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Everything it writes stays under bench/out/ (build cache included).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out=$here/out
mkdir -p "$out/bin" "$out/tmp"

# A bare --trace means --trace 1.
args=()
while [ $# -gt 0 ]; do
	args+=("$1")
	if [ "$1" = --trace ] && [[ "${2-}" != [01] ]]; then
		args+=(1)
	fi
	shift
done

# Keep the toolchain inside the checkout and off the network.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off

build_start=$(date +%s%N)
(cd "$root" && go build -o "$out/bin/" ./cmd/matex ./cmd/matexd ./cmd/matexsrv)
(cd "$here" && go build -o "$out/bin/" ./e2e)
# The traced pass imports internal/ packages and may stop compiling under a
# refactor; the end-to-end metrics must survive that, so its failure is
# recorded and reported by e2e only when per-layer metrics are asked for.
if ! (cd "$here" && go build -o "$out/bin/" ./layers) 2>"$out/layers-build.err"; then
	rm -f "$out/bin/layers"
	echo "bench: bench/layers does not build; per-layer metrics are unavailable:" >&2
	cat "$out/layers-build.err" >&2
fi
echo "build_ms $((($(date +%s%N) - build_start) / 1000000)) (measures the build cache; not a metric)" >&2

exec "$out/bin/e2e" -bin "$out/bin" -out "$out" -spec "$root/BENCHMARK.json" \
	-layers-error "$out/layers-build.err" ${args[@]+"${args[@]}"}
