#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout this script sits in
# and runs it. Everything the build and the run leave behind goes into
# .bench_build at the root of the checkout, the Go build cache included, so
# a run reads and writes nothing outside its checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gotmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go build -C "$root/bench" -o "$out/bench" .
exec "$out/bench" -root "$root" -out "$out" "$@"
