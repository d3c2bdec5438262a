#!/bin/sh
# Lists `pub` items that no non-test code names.
#
# Reads the non-test Rust code under crates/, src/, examples/ and
# benchmark/ with the same cut as scripts/nontest_loc.sh: integration-test
# directories are skipped, each file is read up to its first `#[cfg(test)]`
# that starts in column 0, and blank lines and lines that start with `//`
# are ignored. An item is a `pub fn`, `struct`, `enum`, `trait`, `const`,
# `static`, `type` or `union`; one marked `#[cfg(test)]` is test API and
# is not listed. An item is reached when its name appears as a word on
# any other line, except:
#   - its own definition line and the header of an `impl` for it;
#   - `pub use` re-exports.
# The match is by name alone, so an item that shares its name with
# anything else (`new`, `len`, a field) never shows up: the list is a
# lower bound on what nothing reaches. Prints one `<file>:<line> <kind>
# <name>` row per item, then the count. Writes nothing.
#
# Usage: scripts/unreached_pub.sh [ROOT]   (ROOT defaults to the repo root)
set -eu
root=${1:-$(dirname "$0")/..}
cd "$root"
find crates src examples benchmark -name '*.rs' -not -path '*/target/*' \
    -not -path 'crates/*/tests/*' | LC_ALL=C sort | xargs awk '
    FNR == 1 { skip = 0; in_use = 0; pending_test = 0 }
    skip { next }
    /^#\[cfg\(test\)\]/ { skip = 1; next }
    /^[ \t]*$/ || /^[ \t]*\/\// { next }
    in_use { if (/;/) in_use = 0; next }
    /^[ \t]*pub[ \t]+use[ \t]/ { if (!/;/) in_use = 1; next }
    /^[ \t]*#\[cfg\(test\)\]/ { pending_test = 1; next }
    /^[ \t]*#\[/ { next }
    {
        own = ""
        if (match($0, /^[ \t]*(pub(\([^)]*\))?[ \t]+)?((const|async|unsafe|extern)[ \t]+)*(fn|struct|enum|trait|const|static|type|union)[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
            d = substr($0, RSTART, RLENGTH)
            own = d
            sub(/.*[ \t]/, "", own)
            kind = d
            sub(/[ \t]+[A-Za-z_][A-Za-z0-9_]*$/, "", kind)
            sub(/.*[ \t]/, "", kind)
            if (d ~ /^[ \t]*pub[ \t]/ && !pending_test) {
                n++
                where[n] = FILENAME ":" FNR
                kinds[n] = kind
                names[n] = own
            }
        } else if (match($0, /^[ \t]*(unsafe[ \t]+)?impl[ \t<]/)) {
            s = $0
            if (match(s, /[ \t]for[ \t]+[A-Za-z_][A-Za-z0-9_:]*/)) {
                s = substr(s, RSTART, RLENGTH)
            } else {
                sub(/^[ \t]*(unsafe[ \t]+)?impl(<[^>]*>+)?[ \t]+/, "", s)
                match(s, /^[A-Za-z_][A-Za-z0-9_:]*/)
                s = substr(s, RSTART, RLENGTH)
            }
            sub(/.*[^A-Za-z0-9_]/, "", s)
            own = s
        }
        pending_test = 0
        k = split($0, toks, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= k; i++) {
            t = toks[i]
            if (t != "" && t != own && !((t, NR) in seen)) {
                seen[t, NR] = 1
                uses[t]++
            }
        }
    }
    END {
        for (i = 1; i <= n; i++) {
            if (!(names[i] in uses)) {
                print where[i], kinds[i], names[i]
                count++
            }
        }
        printf "%d unreached\n", count
    }
'
