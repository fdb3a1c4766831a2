#!/usr/bin/env bash
# Builds wsdaload inside this checkout and runs it with the given flags:
#   bash bench/run.sh --workload point-lookup --seed 1 --seconds 20 --trace 0
# Everything the build and the run leave behind goes under bench/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
out="$PWD/out"
mkdir -p "$out/bin"
# The Go caches live in the checkout too, so a run touches nothing outside
# it; the module has no dependency to download.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$out/bin/wsdaload" ./wsdaload
exec "$out/bin/wsdaload" "$@"
