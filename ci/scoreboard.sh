#!/usr/bin/env bash
# Size scoreboard: per crate, the non-test lines under src/ by one fixed
# rule — every line of each .rs file before its first `#[cfg(test)]` at the
# start of a line — plus the workspace total, the same count over the
# offline shims, the workspace's member count, the `thread::sleep` call
# sites, the `unsafe` and thread-spawn sites, the `pub` fields of the
# config-like structs, the `allow`/`expect` attributes naming a `clippy::`
# lint and the public-API item count.
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
# A row counted per crate: `per_crate_row label count [args]` runs
# `count [args] <src dir>` for every crate and prints the total and each
# crate that has any.
per_crate_row() {
    local label=$1 total=0 per_crate="" n
    shift
    for src in crates/*/src src; do
        n=$("$@" "$src")
        if [ "$n" -gt 0 ]; then
            crate=$(basename "$(dirname "$src")")
            per_crate="$per_crate${per_crate:+, }${crate/#./gpumr} $n"
        fi
        total=$((total + n))
    done
    printf '%-12s %6d  (%s)\n' "$label" "$total" "$per_crate"
}
# Sites of an extended regex (taken from the environment, so awk applies no
# string escapes to it) in the non-test lines above, comment lines skipped.
sites() {
    find "$2" -name '*.rs' -print0 | PATTERN=$1 xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting && !/^[ \t]*\/\// {
            line = $0
            while (match(line, ENVIRON["PATTERN"])) {
                n++
                line = substr(line, RSTART + RLENGTH)
            }
        }
        END { print n + 0 }'
}
# Knobs: the `pub` fields of every `pub struct *Config`, `*Bounds`,
# `*Budget` or `*Options` in the non-test lines above — a knob removed
# shows here the way an item removed shows in `api-surface`.
options() {
    find "$1" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { counting = 1; inside = 0 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        !counting { next }
        inside && /^[ \t]*}/ { inside = 0 }
        inside && /^[ \t]*pub [A-Za-z_][A-Za-z0-9_]*[ \t]*:/ { n++ }
        /^[ \t]*pub struct [A-Za-z0-9_]*(Config|Bounds|Budget|Options)[ \t<][^;(]*\{[ \t]*$/ {
            inside = 1
        }
        END { print n + 0 }'
}
# `unsafe` sites: `unsafe {`, `unsafe fn`, `unsafe impl`.
per_crate_row unsafe sites '(^|[^A-Za-z0-9_])unsafe[ \t]+(\{|fn[ \t]|impl[ \t<])'
# Thread-spawn sites: `thread::Builder::new()`, `thread::spawn(`,
# `thread::scope(`.
per_crate_row threads sites 'thread::(Builder::new\(\)|spawn\(|scope\()'
per_crate_row options options
# Escapes from the clippy denies: the attributes that allow or expect a
# `clippy::` lint — `#[allow(..)]`, `#![allow(..)]`, `#[expect(..)]` and
# either inside a `#[cfg_attr(..)]` — in the non-test lines above (an
# attribute may span lines).
clippy_allows() {
    find "$1" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { counting = 1; attr = "" }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        !counting || /^[ \t]*\/\// { next }
        attr == "" && /#!?\[(allow|expect|cfg_attr)\(/ { attr = " " }
        attr != "" {
            attr = attr $0
            if (/\)\]/) {
                if (attr ~ /(allow|expect)\(/ && attr ~ /clippy::/) n++
                attr = ""
            }
        }
        END { print n + 0 }'
}
per_crate_row allows clippy_allows
printf '%-12s %6d\n' api-surface "$(wc -l < ci/api-surface.txt)"
