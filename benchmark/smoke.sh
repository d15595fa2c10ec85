#!/bin/sh
# The benchmark's smoke: builds it and runs one short set of all five
# workloads (R = 1, B = 2, about 15 s) with every correctness check on and
# no bounds. Exits non-zero on any breach. CI can call this file without
# knowing anything about the benchmark's arguments.
set -eu
cd "$(dirname "$0")"
exec cargo run --release --quiet -- selfcheck --quick "$@"
