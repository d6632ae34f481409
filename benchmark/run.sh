#!/usr/bin/env bash
# Build the benchmark from source and run it; arguments pass through to
# benchmark/main.exe (see benchmark/README.md).  Run from anywhere in a
# checkout of the repository.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "benchmark: no dune-project and lib/ here; run from a full checkout of the repository" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; keep the build inside it.
dune build --root . --cache=disabled --display=quiet benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
