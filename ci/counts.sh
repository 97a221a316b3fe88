#!/usr/bin/env bash
# Count gate: the benchmark's count-type metrics, which repeat exactly per
# seed, checked against ci/counts.txt.
#
#   ci/counts.sh [--check] [REV]
#
# Builds `perf/` from a `git archive` copy of REV (default HEAD) under one
# `mktemp -d` directory with its own target dir — a build inside the working
# tree would prune the frozen `perf/Cargo.lock` — and runs
# `mgpu-perf all --smoke --seconds 1 --trace 1` there. Of its lines it keeps
# those whose unit is `count`, `bytes` or `MiB`, sorted, and prints them to
# stdout: `ci/counts.sh > ci/counts.txt` regenerates the file. With
# `--check` it diffs them against ci/counts.txt instead and exits non-zero
# on any difference.
#
# The `net.loop_wakeups_per_frame` rows go to stderr and are not gated:
# wakeups coalesce with the scheduler, and one moved 2.033 → 2.067 between
# two runs of one tree. Every other row is a function of the seed and the
# code. A change that moves one on purpose regenerates the file and names
# each moved row in CHANGES.md.
set -euo pipefail
export LC_ALL=C

usage() {
    echo "usage: ci/counts.sh [--check] [REV]" >&2
    exit 2
}

check=0
rev=HEAD
while [ $# -gt 0 ]; do
    case "$1" in
        --check) check=1; shift ;;
        -*) usage ;;
        *) rev=$1; shift ;;
    esac
done

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
work=$(mktemp -d -t mgpu-counts.XXXXXX)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/tree"
git -C "$root" archive "$sha" | tar -x -C "$work/tree"
echo "counts: building ${sha:0:10} in $work" >&2
CARGO_TARGET_DIR="$work/target" \
    cargo build --release --offline --quiet --manifest-path "$work/tree/perf/Cargo.toml" >&2
(cd "$work/tree" && "$work/target/release/mgpu-perf" all --smoke --seconds 1 --trace 1) \
    >"$work/run.txt"

awk '$NF == "count" || $NF == "bytes" || $NF == "MiB"' "$work/run.txt" | sort >"$work/counts.txt"
grep 'loop_wakeups_per_frame' "$work/counts.txt" | sed 's/^/counts: not gated: /' >&2 || true
grep -v 'loop_wakeups_per_frame' "$work/counts.txt" >"$work/gated.txt"

if [ "$check" -eq 0 ]; then
    cat "$work/gated.txt"
elif diff -u "$root/ci/counts.txt" "$work/gated.txt"; then
    echo "counts: $(wc -l <"$work/gated.txt") rows match ci/counts.txt" >&2
else
    echo "counts: rows differ from ci/counts.txt (- checked in, + this tree)" >&2
    exit 1
fi
