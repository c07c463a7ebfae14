#!/usr/bin/env bash
# Builds sdlperf from the checkout's own sources and runs it with the
# driver's arguments. Everything the build and the run write stays under
# perf/: the Go build cache and temp files in perf/.build, reports, traces
# and the scratch WAL in perf/out. Without the repository around it (no
# ../go.mod) the build fails and the script exits non-zero.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p .build/tmp
export GOCACHE="$PWD/.build/gocache" GOTMPDIR="$PWD/.build/tmp" GOWORK=off GOTOOLCHAIN=local
go build -o .build/sdlperf ./cmd/sdlperf
exec .build/sdlperf -out out "$@"
