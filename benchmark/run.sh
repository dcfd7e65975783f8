#!/usr/bin/env bash
# Build the benchmark from source (the first run builds the whole tree)
# and run it from the repository root; every argument is passed on to
# benchmark/run.exe. Build messages go to stderr, so the last line on
# stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
exec dune exec --root . --display quiet benchmark/run.exe -- "$@"
