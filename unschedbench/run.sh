#!/usr/bin/env bash
# Builds the unschedd benchmark from the checkout it is run in and runs
# it with the given arguments:
#
#   bash unschedbench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, Go cache and Go
# configuration file stays under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="$PATH:/usr/local/go/bin"
fi
(
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
	export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
	cd "$root/unschedbench" && go build -o "$out/unschedbench" .
) >&2
exec "$out/unschedbench" "$@"
