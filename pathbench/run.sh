#!/usr/bin/env bash
# Builds pathbench from source inside the checkout and runs it. Everything
# the build writes (binary, Go build cache) stays under .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/pathbench" .) >&2
cd "$root"
exec "$build/pathbench" "$@"
