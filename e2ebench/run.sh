#!/usr/bin/env bash
# Builds the benchmark and caai-serve from this checkout's sources into
# .bench_build/, then runs one benchmark measurement. Run it from the root
# of the repository:
#
#   bash e2ebench/run.sh --workload identify_miss --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, module metadata) stays
# under .bench_build/. Go flags accept the double-dash spelling used above.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$here" && go build -o "$out/e2ebench" . && go build -o "$out/caai-serve" repro/cmd/caai-serve)

exec "$out/e2ebench" -serve "$out/caai-serve" -out "$out" "$@"
