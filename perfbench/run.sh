#!/usr/bin/env bash
# Builds the benchmark from the repository sources and runs it.
#
#   bash perfbench/run.sh --workload <serial|parallel> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every file the build and the run write stays
# under .bench_build/ in the current directory (Go build cache, temporary
# files, the binary and the benchmark's scratch state).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a pardetect checkout (go.mod, internal/ and perfbench/ are required)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
