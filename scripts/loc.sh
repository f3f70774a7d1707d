#!/usr/bin/env bash
# Non-test lines of Rust source per workspace crate: every line of every
# `crates/<crate>/src/**/*.rs` file except the items marked `#[cfg(test)]`
# (the attribute, and the item up to the closing brace at the attribute's
# indentation, or its `;`). Blank and comment lines count. Run from
# anywhere; pass a checkout's root to measure another tree:
#
#   scripts/loc.sh            # this checkout
#   scripts/loc.sh ../other   # another checkout
set -euo pipefail
root="${1:-$(dirname "$0")/..}"

count_file() {
    awk '
        skipping == 0 && /^[ \t]*#\[cfg\(test\)\]/ {
            match($0, /^[ \t]*/)
            indent = substr($0, 1, RLENGTH)
            skipping = 1
            next
        }
        skipping == 1 {
            # The item line: one line when it ends in `;` or closes its
            # own brace, else skip to the brace at the attribute indent.
            if ($0 ~ /;[ \t]*$/ && $0 !~ /\{/) { skipping = 0; next }
            if ($0 ~ /\{/ && $0 ~ /\}[ \t]*$/) { skipping = 0; next }
            skipping = 2
            next
        }
        skipping == 2 {
            if ($0 == indent "}") skipping = 0
            next
        }
        { n++ }
        END { print n + 0 }
    ' "$1"
}

total=0
for dir in "$root"/crates/*/; do
    [ -d "$dir/src" ] || continue
    crate=$(basename "$dir")
    n=0
    while IFS= read -r -d '' f; do
        n=$((n + $(count_file "$f")))
    done < <(find "$dir/src" -name '*.rs' -print0)
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
