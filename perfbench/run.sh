#!/usr/bin/env bash
# End-to-end benchmark entry point. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 12 --trace 0
#
# Builds `parcost` and the benchmark program into .bench_build/ (Go build
# cache included, so nothing is written outside the checkout), then runs one
# workload. The last line of stdout is the JSON result. Workloads and metrics
# are described in perfbench/WORKLOADS.md.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/parcost" ]]; then
	echo "perfbench: run from the root of a parcost checkout (no go.mod or cmd/parcost here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# With telemetry on (the default is "local"), the go command starts a
# detached sidecar process that can outlive this script; turn it off.
printf 'off' >"$build/config/go/telemetry/mode"

go build -o "$build/bin/parcost" ./cmd/parcost 1>&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) 1>&2

exec "$build/bin/perfbench" -parcost "$build/bin/parcost" -workdir "$build" "$@"
