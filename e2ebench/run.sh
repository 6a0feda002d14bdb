#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload untar --seed 1 --seconds 20 --trace 0
#
# Every build product (binary, Go build cache) stays under .bench_build
# in the current directory. The build needs the repository's Go sources
# next to this directory; without them it fails and nothing is printed
# on standard output.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/modcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"

if ! (cd "$here" && go build -o "$out/e2ebench" .) >&2; then
	echo "e2ebench: build failed" >&2
	exit 2
fi
exec "$out/e2ebench" "$@"
