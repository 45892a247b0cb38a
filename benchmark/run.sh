#!/usr/bin/env bash
# Build the benchmark from source and run it.  Everything the build and
# the run write — Go's build cache and temporary files included — stays
# under .bench_build in the directory this is started from (the checkout
# root), so a run reads and writes only inside its checkout.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh                      every workload, both passes
#   bash benchmark/run.sh compare A.json B.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"

# The benchmark is its own module beside the program's (go.mod here,
# `replace plum => ../`); without the program's sources next to it the
# build fails and nothing is printed.
(
  cd "$here"
  HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
  GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" \
  GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0 \
    go build -buildvcs=false -o "$build/plumbenchmark" .
) >&2

exec "$build/plumbenchmark" "$@"
