#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given flags:
#
#   bash benchmark/run.sh --workload chain --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build and run artifact (Go build
# cache, binary, result and span files) stays under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-modcacherw
(cd "$root/benchmark" && go build -o "$out/ftbench" .) >&2
exec "$out/ftbench" -out "$out" "$@"
