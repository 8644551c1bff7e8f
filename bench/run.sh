#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it; arguments pass
# through (see main.go). The build cache, the Go work directories, the
# toolchain's own counters (XDG_CONFIG_HOME) and the binary all live under
# bench/.build (the go tool skips dot directories), so a run reads and
# writes nothing outside the checkout, and nothing outside bench/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/bench/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
(cd "$root/bench" && XDG_CONFIG_HOME="$build/config" go build -o "$build/aq2pnn-bench" .)
cd "$root"
exec "$build/aq2pnn-bench" "$@"
