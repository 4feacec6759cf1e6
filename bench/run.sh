#!/usr/bin/env bash
# Builds the ledger from source into .bench_build/ at the repository root
# and runs it from the root with the given arguments, e.g.
#
#   bash bench/run.sh --workload svc-single --seed 3 --seconds 10 --trace 0
#
# The Go build cache and every other file the toolchain would write go
# under .bench_build/ too, and the module proxy is off: the build reads
# and writes nothing outside the checkout and needs no network.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$root/bench" -o "$build/ledger" .
cd "$root"
exec "$build/ledger" "$@"
