#!/usr/bin/env bash
# Mutation check: every hand mutant in ci/mutants.txt must be caught by the
# test it names.
#
#   ci/mutants.sh [--tag TAG] [NAME ...]
#
# Selects the mutants carrying TAG (e.g. `ci`) and/or the ones named; with
# neither, every mutant. HEAD is copied with `git archive` under one
# `mktemp -d` directory with its own target dir, so the working tree is
# never touched (commit what you want checked). Each selected mutant's test
# first runs on the unmutated copy and must pass there. Then each mutant is
# applied alone — its pattern must match its file exactly once — and
# judged:
#
#   killed       it builds and its test fails
#   survived     it builds and its test passes
#   stale        its pattern matches its file zero times or more than once
#   unbuildable  `cargo test --no-run` fails with it applied
#   timeout      its test runs past 10 minutes (give that test a bound)
#
# The file is restored before the next mutant. Exits non-zero unless every
# mutant is killed, save those tagged `equivalent`, which must survive.
# Logs stay under the printed directory; progress goes to stderr.
set -euo pipefail
export LC_ALL=C
# Bash 5.2 expands `&` in a pattern substitution's replacement; the
# replacement here is literal source text.
shopt -u patsub_replacement 2>/dev/null || true

usage() {
    echo "usage: ci/mutants.sh [--tag TAG] [NAME ...]" >&2
    exit 2
}

tag=""
wanted=()
while [ $# -gt 0 ]; do
    case "$1" in
        --tag) tag=${2:?}; shift 2 ;;
        -*) usage ;;
        *) wanted+=("$1"); shift ;;
    esac
done

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
names=() tags=() files=() tests=() finds=() replaces=()

# Parse ci/mutants.txt into parallel arrays, one entry per mutant.
n=-1
while IFS= read -r line || [ -n "$line" ]; do
    case "$line" in
        "== "*)
            n=$((n + 1))
            read -r -a words <<<"${line#== }"
            names[n]=${words[0]}
            tags[n]=" ${words[*]:1} "
            files[n]="" tests[n]="" finds[n]="" replaces[n]=""
            ;;
        "file "*) files[n]=${line#file } ;;
        "test "*) tests[n]=${line#test } ;;
        " "*) finds[n]+=${line:1}$'\n'; replaces[n]+=${line:1}$'\n' ;;
        "-"*) finds[n]+=${line:1}$'\n' ;;
        "+"*) replaces[n]+=${line:1}$'\n' ;;
    esac
done <"$root/ci/mutants.txt"

selected=()
for ((i = 0; i <= n; i++)); do
    pick=0
    [ ${#wanted[@]} -eq 0 ] && [ -z "$tag" ] && pick=1
    [ -n "$tag" ] && [[ ${tags[i]} == *" $tag "* ]] && pick=1
    for w in "${wanted[@]}"; do
        [ "$w" = "${names[i]}" ] && pick=1
    done
    ((pick)) && selected+=("$i")
done
[ ${#selected[@]} -gt 0 ] || { echo "mutants: nothing selected" >&2; exit 2; }

work=$(mktemp -d -t mgpu-mutants.XXXXXX)
tree="$work/tree"
mkdir -p "$tree" "$work/logs"
git -C "$root" archive HEAD | tar -x -C "$tree"
export CARGO_TARGET_DIR="$work/target"
echo "mutants: ${#selected[@]} selected, working in $work" >&2

# `cargo test` with a mutant's arguments, in the copy, logged; a run past
# 10 minutes is stopped and exits 124.
cargo_test() {
    local log=$1
    shift
    (cd "$tree" && timeout 600 cargo test --offline "$@") >>"$log" 2>&1
}

# Baseline: every selected mutant's test passes on the unmutated copy.
for i in "${selected[@]}"; do
    read -r -a args <<<"${tests[i]}"
    echo "mutants: baseline ${names[i]}" >&2
    if ! cargo_test "$work/logs/baseline.log" "${args[@]}"; then
        echo "mutants: ${tests[i]} fails without a mutant (see $work/logs/baseline.log)" >&2
        exit 1
    fi
done

failed=0
declare -A count=([killed]=0 [survived]=0 [stale]=0 [unbuildable]=0 [timeout]=0)
report=""
for i in "${selected[@]}"; do
    name=${names[i]} file="$tree/${files[i]}" find=${finds[i]}
    read -r -a args <<<"${tests[i]}"
    log="$work/logs/$name.log"
    IFS= read -r -d '' text <"$file" || true
    rest=${text//"$find"/}
    matches=$(( ${#find} ? (${#text} - ${#rest}) / ${#find} : 0 ))
    echo "mutants: $name" >&2
    if [ "$matches" -ne 1 ]; then
        verdict=stale
        echo "pattern matches ${files[i]} $matches times" >"$log"
    else
        printf '%s' "${text/"$find"/"${replaces[i]}"}" >"$file"
        status=0
        if ! cargo_test "$log" --no-run "${args[@]}"; then
            verdict=unbuildable
        else
            cargo_test "$log" "${args[@]}" || status=$?
            case $status in
                0) verdict=survived ;;
                124) verdict=timeout ;;
                *) verdict=killed ;;
            esac
        fi
        printf '%s' "$text" >"$file"
    fi
    count[$verdict]=$((count[$verdict] + 1))
    expected=killed
    [[ ${tags[i]} == *" equivalent "* ]] && expected=survived
    mark=""
    if [ "$verdict" != "$expected" ]; then
        failed=1
        mark=" ← expected $expected"
    fi
    report+="| \`$name\` | \`cargo test ${tests[i]}\` | $verdict$mark |"$'\n'
done

echo "| mutant | test | verdict |"
echo "|---|---|---|"
printf '%s' "$report"
echo
echo "killed ${count[killed]}, survived ${count[survived]}, stale ${count[stale]}," \
    "unbuildable ${count[unbuildable]}, timeout ${count[timeout]}"
rm -rf "$CARGO_TARGET_DIR"
echo "mutants: logs under $work/logs" >&2
exit "$failed"
