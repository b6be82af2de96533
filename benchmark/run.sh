#!/usr/bin/env bash
# The one benchmark command. Builds the benchmark package (offline, release)
# and runs it with the arguments given:
#   benchmark/run.sh                       every workload, untraced then traced
#   benchmark/run.sh --seed 7              same, other inputs
#   benchmark/run.sh --aa                  untraced pass twice, diff vs bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; last stdout line is JSON
set -euo pipefail
here="$(dirname "$0")"
exec cargo run --quiet --release --offline --manifest-path "$here/Cargo.toml" -- "$@"
