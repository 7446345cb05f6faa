#!/usr/bin/env bash
# Lines of Rust per crate: one row for each `crates/*` directory and for
# the root package's `src`, `tests` and `examples`, then a total.
#
#   all   every line of every `.rs` file under the directory;
#   code  non-blank lines that are not `//` comments (`///` and `//!`
#         included), counting each file only up to its first
#         `#[cfg(test)]` that is followed by a `mod` item, so inline unit
#         tests are left out. Test code in a file of its own (`tests/`,
#         a `#[cfg(test)] mod x;` sibling) is counted as written.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -type f -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { cut = 0; pending = 0 }
        { all++ }
        cut { next }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (pending && line != "") {
                if (line ~ /^(pub(\([a-z]+\))? )?mod /) { cut = 1; next }
                pending = 0
                code++
            }
            if (line ~ /^#\[cfg\(test\)\]/) {
                rest = line
                sub(/^#\[cfg\(test\)\][ \t]*/, "", rest)
                if (rest ~ /^(pub(\([a-z]+\))? )?mod /) { cut = 1; next }
                if (rest == "") { pending = 1; next }
            }
            if (line == "" || line ~ /^\/\//) next
            code++
        }
        END { printf "%d %d\n", all, code + 0 }' |
        awk '{ all += $1; code += $2 } END { printf "%d %d\n", all, code }'
}

printf '%-18s %8s %8s\n' dir all code
total_all=0
total_code=0
for dir in crates/*/ src/ tests/ examples/; do
    dir=${dir%/}
    [ -d "$dir" ] || continue
    read -r all code < <(count "$dir")
    all=${all:-0}
    code=${code:-0}
    printf '%-18s %8d %8d\n' "$dir" "$all" "$code"
    total_all=$((total_all + all))
    total_code=$((total_code + code))
done
printf '%-18s %8d %8d\n' total "$total_all" "$total_code"
