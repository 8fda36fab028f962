#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload net-hot --seed 1 --seconds 5 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the current directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: run from the countnet repository root (go.mod, internal/ and bench/ not all found)" >&2
	exit 2
fi

root=$(pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/go-build GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	XDG_CONFIG_HOME=$out/config GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off
# The commit goes in through the linker rather than Go's VCS stamping,
# which fails the build when git cannot read the enclosing repository.
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && ! git diff --quiet HEAD 2>/dev/null; then
	commit+="+modified"
fi
go build -C bench -buildvcs=false -ldflags "-X main.buildCommit=$commit" -o "$out/countnet-bench" .
exec "$out/countnet-bench" "$@"
