#!/usr/bin/env bash
# A/A noise check: build once, then run the same binary in back-to-back sets
# and compare the sets against the bounds in BENCHMARK.json.
#
#   perf/aa.sh                      # 2 sets x 10 runs x 4 workloads, ~45 min
#   perf/aa.sh --sets 3 --runs 5    # any `mgpu-perf aa` flag passes through
#
# Prints a Markdown table (the one in perf/README.md) on stdout, progress on
# stderr; exits non-zero if any workload x metric misses its bound.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/mgpu-perf" aa "$@"
