#!/bin/sh
# Build the benchmark from the sources of the checkout this script sits
# in (release profile, no shared dune cache, so every build and its
# outputs stay inside the checkout) and run it with the given arguments:
#
#   sh benchmark/run.sh --workload wire-bulk --seed 1 --seconds 20 --trace 0
#
# See README.md for the other modes.
cd "$(dirname "$0")/.." || exit 2
exec dune exec --root . --cache=disabled --profile release --display quiet \
  benchmark/main.exe -- "$@"
