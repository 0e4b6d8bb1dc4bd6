#!/usr/bin/env bash
# Builds arbdbench from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash arbdbench/run.sh --workload poll-dense --seed 1 --seconds 12 --trace 0
#
# Every build product, the Go build cache and the traced run's span files
# stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/server" ]; then
	echo "arbdbench: run from the root of a repository checkout" >&2
	exit 2
fi
(cd "$root/arbdbench" && go build -o "$out/arbdbench" .)
exec "$out/arbdbench" "$@"
