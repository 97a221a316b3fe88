#!/usr/bin/env bash
# Paired A/B benchmark: the committed HEAD against a base revision, on the
# workloads of BENCHMARK.json (or on `micro_ops` timings), in alternating
# runs.
#
#   ci/ab.sh <base-rev> [--workloads a,b] [--pairs N] [--seconds S]
#   ci/ab.sh <base-rev> --micro <filter> [--pairs N]
#
# Both sides are built from `git archive` copies under one `mktemp -d`
# directory, each with its own target dir, so the working tree (and its
# frozen `perf/Cargo.lock`) is never touched; commit what you want measured.
# Pair i runs both sides with `--seed i`, base first in odd pairs and HEAD
# first in even ones, and every result JSON is kept under the directory
# printed at the end. For each workload it prints one Markdown table: per
# end-to-end metric, median [q1–q3] on both sides, the median paired ratio
# (HEAD / base), HEAD's wins of N pairs (ties count as neither), the
# two-sided sign-test p over the untied pairs and each side's spread
# (interquartile range ÷ median) — and the same for `minflt`, the minor page
# faults of each run (the `mgpu-perf` process, read from its parent
# subshell's `cminflt` in /proc). A metric whose base spread exceeds half
# its BENCHMARK.json bound is marked `unjudgeable`: its own runs move more
# than a change the bound lets through would. Progress goes to stderr.
#
# With `--micro`, each side builds the `micro_ops` bench instead
# (`cargo bench -p mgpu-bench --no-run`), and pair i runs both binaries as
# `micro_ops --bench <filter>` from the side's `crates/bench`, in the same
# alternating order, three times per side. One table follows: per
# `group/id` the filter matched, the median of a side's three times per
# iteration in the pair (each the fastest of a 2 s run; lower is better),
# in the same columns. A single run of one binary can land in a slow spell
# of the machine; the median of three rarely does.
#
# Defaults: every workload, 10 pairs, BENCHMARK.json's `run_seconds`.
# A/A check: `ci/ab.sh HEAD --workloads pool_preview --pairs 5`.
set -euo pipefail

usage() {
    echo "usage: ci/ab.sh <base-rev> [--workloads a,b] [--pairs N] [--seconds S]" >&2
    echo "       ci/ab.sh <base-rev> --micro <filter> [--pairs N]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
base_rev=$1
shift
workloads=""
pairs=10
seconds=""
micro=""
while [ $# -gt 0 ]; do
    case "$1" in
        --micro) micro=${2:?}; shift 2 ;;
        --workloads) workloads=${2:?}; shift 2 ;;
        --pairs) pairs=${2:?}; shift 2 ;;
        --seconds) seconds=${2:?}; shift 2 ;;
        *) usage ;;
    esac
done

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$(mktemp -d -t mgpu-ab.XXXXXX)
echo "ab: working in $work" >&2

# The end-to-end metrics of BENCHMARK.json as `name better bound` lines,
# its workload names and its run length.
bench="$root/BENCHMARK.json"
metrics=$(awk '
    /"end_to_end"/ { on = 1 }
    on && /"per_layer"/ { exit }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
    on && /"bound"/ { gsub(/[",]/, "", $2); print name, better, $2 }' "$bench")
metrics+=$'\n'"minflt lower -"
if [ -z "$workloads" ]; then
    workloads=$(awk '
        /"workloads"/ { on = 1 }
        on && /"name"/ { gsub(/[",]/, "", $2); printf "%s%s", sep, $2; sep = "," }
        on && /^  \]/ { exit }' "$bench")
fi
if [ -z "$seconds" ]; then
    seconds=$(awk -F: '/"run_seconds"/ { gsub(/[ ,]/, "", $2); print $2 }' "$bench")
fi

base_sha=$(git -C "$root" rev-parse --verify "$base_rev^{commit}")
head_sha=$(git -C "$root" rev-parse --verify "HEAD^{commit}")
for side in base head; do
    sha=base_sha
    [ "$side" = head ] && sha=head_sha
    mkdir -p "$work/$side"
    git -C "$root" archive "${!sha}" | tar -x -C "$work/$side"
    echo "ab: building $side (${!sha:0:10})" >&2
    if [ -n "$micro" ]; then
        CARGO_TARGET_DIR="$work/$side-target" cargo bench --offline --quiet --no-run \
            --manifest-path "$work/$side/Cargo.toml" -p mgpu-bench >&2
    else
        CARGO_TARGET_DIR="$work/$side-target" \
            cargo build --release --offline --quiet --manifest-path "$work/$side/perf/Cargo.toml" >&2
    fi
done

# Median and quartiles (linear interpolation) of the numbers on stdin.
quartiles() {
    sort -g | awk '
        { x[NR] = $1 }
        function q(p,   h, l) {
            h = (NR - 1) * p + 1; l = int(h)
            return l >= NR ? x[NR] : x[l] + (h - l) * (x[l + 1] - x[l])
        }
        END { if (NR) printf "%.4g [%.4g–%.4g]", q(0.5), q(0.25), q(0.75); else printf "—" }'
}

# Interquartile range ÷ median of the numbers on stdin, as a percentage.
spread() {
    sort -g | awk '
        { x[NR] = $1 }
        function q(p,   h, l) {
            h = (NR - 1) * p + 1; l = int(h)
            return l >= NR ? x[NR] : x[l] + (h - l) * (x[l + 1] - x[l])
        }
        END { if (NR && q(0.5) != 0) printf "%.1f", 100 * (q(0.75) - q(0.25)) / q(0.5); else printf "—" }'
}

# `base HEAD` pairs on stdin, `better` = higher|lower: HEAD's wins of the
# pairs (ties count as neither) and the two-sided sign-test p over the
# untied ones, as `W of N|p`.
tally() {
    awk -v better="$1" '
        NF {
            n++
            if ($2 == $1) next
            if ((better == "higher") == ($2 > $1)) w++; else l++
        }
        END {
            m = w + l; k = w < l ? w : l; tail = 0; c = 1
            for (j = 0; j <= k; j++) { tail += c; c = c * (m - j) / (j + 1) }
            p = m ? 2 * tail / 2 ^ m : 1
            if (p > 1) p = 1
            printf "%d of %d|%.3g", w, n, p
        }'
}

# One table row: metric label, `better`, its bound (`-` for none) and the
# `base HEAD` pairs.
row() {
    local label=$1 better=$2 bound=$3 rows=$4
    local base_q head_q ratio_q tally_ base_s head_s note=""
    base_q=$(printf '%s' "$rows" | awk 'NF { print $1 }' | quartiles)
    head_q=$(printf '%s' "$rows" | awk 'NF { print $2 }' | quartiles)
    ratio_q=$(printf '%s' "$rows" | awk 'NF && $1 != 0 { print $2 / $1 }' | quartiles)
    tally_=$(printf '%s' "$rows" | tally "$better")
    base_s=$(printf '%s' "$rows" | awk 'NF { print $1 }' | spread)
    head_s=$(printf '%s' "$rows" | awk 'NF { print $2 }' | spread)
    if [ "$bound" != - ] && [ "$base_s" != — ] &&
        awk -v s="$base_s" -v b="$bound" 'BEGIN { exit !(s > 50 * b) }'; then
        note="unjudgeable"
    fi
    echo "| $label | $base_q | $head_q | ${ratio_q%% *} | ${tally_%|*} | ${tally_#*|} | $base_s % | $head_s % | $note |"
}

if [ -n "$micro" ]; then
    dir="$work/results/micro"
    mkdir -p "$dir"
    # A timing line is `<group/id> <value> <ms|µs|ns>`: `<id>`'s value in
    # file $1, in unit $3.
    value_in() {
        awk -v id="$2" -v unit="$3" '
            function ns(u) { return u == "ms" ? 1e6 : u == "µs" ? 1e3 : 1 }
            $1 == id { print $2 * ns($3) / ns(unit) }' "$1"
    }
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then order="base head"; else order="head base"; fi
        for side in $order; do
            bin=$(find "$work/$side-target/release/deps" -maxdepth 1 -type f -executable \
                -name 'micro_ops-*' | head -n 1)
            for r in 1 2 3; do
                echo "ab: micro $micro pair $i $side run $r" >&2
                (cd "$work/$side/crates/bench" && "$bin" --bench "$micro") >"$dir/$side-$i-$r.txt"
            done
            # The pair's line per id: the median of the three runs, in the
            # first run's unit.
            while read -r id _ unit; do
                median=$(for r in 1 2 3; do value_in "$dir/$side-$i-$r.txt" "$id" "$unit"; done |
                    sort -g | awk '{ x[NR] = $1 } END { if (NR) print x[int((NR + 1) / 2)] }')
                [ -n "$median" ] && echo "$id $median $unit"
            done <"$dir/$side-$i-1.txt" >"$dir/$side-$i.txt"
        done
    done
    echo "base $base_rev (${base_sha:0:10}) vs HEAD (${head_sha:0:10}): $pairs pairs of micro_ops --bench $micro, the median of 3 runs per side"
    echo
    echo "| benchmark (lower is better) | base | HEAD | median ratio | HEAD wins | sign p | base spread | HEAD spread | |"
    echo "|---|---|---|---|---|---|---|---|---|"
    # Ids and units as the first base run printed them.
    while read -r id _ unit; do
        rows=""
        for ((i = 1; i <= pairs; i++)); do
            b=$(value_in "$dir/base-$i.txt" "$id" "$unit")
            h=$(value_in "$dir/head-$i.txt" "$id" "$unit")
            [ -n "$b" ] && [ -n "$h" ] && rows+="$b $h"$'\n'
        done
        row "\`$id\` ($unit)" lower - "$rows"
    done <"$dir/base-1.txt"
    rm -rf "$work/base-target" "$work/head-target"
    echo "ab: timings under $dir" >&2
    exit 0
fi

# One run: the pipeline's form, in the side's own copy; keeps the JSON, and
# the run's minor faults beside it: this subshell's `cminflt` (field 11 of
# /proc/PID/stat, the faults of its waited-for children) once mgpu-perf,
# its one child, has exited.
run() {
    local side=$1 workload=$2 seed=$3 out="$work/results/$2/$1-$3.json"
    echo "ab: $workload pair $seed $side" >&2
    (
        cd "$work/$side"
        "$work/$side-target/release/mgpu-perf" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 2>>"$work/results/$workload/$side-$seed.log"
        read -r stat </proc/$BASHPID/stat
        read -r -a fields <<<"${stat##*) }"
        echo "${fields[8]}" >"${out%.json}.minflt"
    ) | grep '^{' >"$out" || true
}

IFS=, read -r -a names <<<"$workloads"
for workload in "${names[@]}"; do
    mkdir -p "$work/results/$workload"
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then order="base head"; else order="head base"; fi
        for side in $order; do
            run "$side" "$workload" "$i"
        done
    done
done

# `value` of metric $2 in result file $1 (empty if the run printed none);
# `minflt` is kept beside the JSON.
value() {
    if [ "$2" = minflt ]; then
        cat "${1%.json}.minflt" 2>/dev/null || true
    else
        sed -n "s/.*\"$2\": {\"value\": \([^,}]*\).*/\1/p" "$1"
    fi
}

echo "base $base_rev (${base_sha:0:10}) vs HEAD (${head_sha:0:10}): $pairs pairs of ${seconds} s"
for workload in "${names[@]}"; do
    dir="$work/results/$workload"
    echo
    echo "**$workload**"
    echo
    echo "| metric | base | HEAD | median ratio | HEAD wins | sign p | base spread | HEAD spread | |"
    echo "|---|---|---|---|---|---|---|---|---|"
    while read -r metric better bound; do
        rows=""
        for ((i = 1; i <= pairs; i++)); do
            b=$(value "$dir/base-$i.json" "$metric")
            h=$(value "$dir/head-$i.json" "$metric")
            [ -n "$b" ] && [ -n "$h" ] && rows+="$b $h"$'\n'
        done
        row "\`$metric\` ($better is better)" "$better" "$bound" "$rows"
    done <<<"$metrics"
    failed=""
    for side in base head; do
        f=$(cat "$dir/$side"-*.json 2>/dev/null |
            sed -n 's/.*"failed": \([0-9]*\).*/\1/p' | awk '{ s += $1 } END { print s + 0 }')
        runs=$(cat "$dir/$side"-*.json 2>/dev/null | grep -c '^{' || true)
        failed+="$side $f in $runs runs; "
    done
    echo
    echo "failed frames: ${failed%; }"
done

rm -rf "$work/base-target" "$work/head-target"
echo "ab: result JSON under $work/results" >&2
