#!/usr/bin/env bash
# Size scoreboard: per crate, the non-test lines under src/ by one fixed
# rule — every line of each .rs file before its first `#[cfg(test)]` at the
# start of a line — plus the workspace total, the same count over the
# offline shims, the workspace's member count, the `thread::sleep` call
# sites, the `unsafe` and thread-spawn sites and the public-API item count.
# Informational (never fails): a simplicity change reads its line-count
# criteria off this instead of counting by hand.
#
#   ci/scoreboard.sh [root]      root defaults to this checkout
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

non_test_lines() {
    find "$@" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }'
}

total=0
for src in crates/*/src src; do
    crate=$(basename "$(dirname "$src")")
    lines=$(non_test_lines "$src")
    printf '%-12s %6d\n' "${crate/#./gpumr}" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' workspace "$total"
printf '%-12s %6d\n' shims "$(non_test_lines shims/*/src)"
# Entries of the root manifest's `members = [ … ]` array, one per line.
members=$(awk '
    /^members = \[/ { on = 1; next }
    on && /^\]/ { exit }
    on && /"/ { n++ }
    END { print n + 0 }' Cargo.toml)
printf '%-12s %6d\n' members "$members"
# `thread::sleep(` call sites: in the non-test lines above, and in tests
# (`#[cfg(test)]` modules and the files under each `tests/`).
find crates/*/src src crates/*/tests tests -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { test = FILENAME ~ /(^|\/)tests\// }
    /^#\[cfg\(test\)\]/ { test = 1 }
    { n = gsub(/thread::sleep\(/, "&"); if (test) t += n; else s += n }
    END { printf "%-12s %6d  (src %d, tests %d)\n", "sleeps", s + t, s, t }'
# Sites of an extended regex (taken from the environment, so awk applies no
# string escapes to it) in the non-test lines above, comment lines skipped,
# printed in total and per crate that has any.
site_row() {
    local total=0 per_crate="" n
    for src in crates/*/src src; do
        n=$(find "$src" -name '*.rs' -print0 | PATTERN=$2 xargs -0 awk '
            FNR == 1 { counting = 1 }
            /^#\[cfg\(test\)\]/ { counting = 0 }
            counting && !/^[ \t]*\/\// {
                line = $0
                while (match(line, ENVIRON["PATTERN"])) {
                    n++
                    line = substr(line, RSTART + RLENGTH)
                }
            }
            END { print n + 0 }')
        if [ "$n" -gt 0 ]; then
            crate=$(basename "$(dirname "$src")")
            per_crate="$per_crate${per_crate:+, }${crate/#./gpumr} $n"
        fi
        total=$((total + n))
    done
    printf '%-12s %6d  (%s)\n' "$1" "$total" "$per_crate"
}
# `unsafe` sites: `unsafe {`, `unsafe fn`, `unsafe impl`.
site_row unsafe '(^|[^A-Za-z0-9_])unsafe[ \t]+(\{|fn[ \t]|impl[ \t<])'
# Thread-spawn sites: `thread::Builder::new()`, `thread::spawn(`,
# `thread::scope(`.
site_row threads 'thread::(Builder::new\(\)|spawn\(|scope\()'
printf '%-12s %6d\n' api-surface "$(wc -l < ci/api-surface.txt)"
