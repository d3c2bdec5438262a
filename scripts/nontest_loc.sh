#!/bin/sh
# Counts non-test lines of Rust code under crates/.
#
# Integration-test directories (`crates/*/tests/`) are skipped. A line
# counts when it is not blank and does not start (after leading
# whitespace) with `//`, so doc and plain comments are excluded. Each
# file is read up to its first `#[cfg(test)]` line; everything after it
# is test code. Prints one `<lines> <file>` row per file, then the total.
#
# Usage: scripts/nontest_loc.sh [ROOT]   (ROOT defaults to the repo root)
set -eu
root=${1:-$(dirname "$0")/..}
cd "$root"
find crates -name '*.rs' -not -path '*/target/*' -not -path 'crates/*/tests/*' | LC_ALL=C sort | while read -r f; do
    awk -v f="$f" '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { printf "%d %s\n", n, f }
    ' "$f"
done | awk '{ print; total += $1 } END { printf "%d total\n", total }'
