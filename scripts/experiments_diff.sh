#!/usr/bin/env bash
# The "same work" check for the experiments, as `scripts/digests.sh` is
# for the benchmark: builds the `experiments` binary in a parent checkout
# and in this one, runs each experiment id alone on both sides with
# `NEZHA_REPORT_DIR` set, and compares stdout and every report file
# byte for byte. Prints one line per id (`same` or `DIFFERS`) and exits
# non-zero when any id differs or fails on either side.
#
# Usage: scripts/experiments_diff.sh <parent-checkout> [id...]
#   <parent-checkout>  a second copy of the repository at the parent
#                      commit (`git clone` / `git archive`), built here.
#   [id...]            the ids to compare; default every id that this
#                      checkout's `experiments --list` prints. An id the
#                      parent does not know fails on its side and counts
#                      as a difference.
# Outputs stay under a new directory in `$TMPDIR` whose path is printed,
# so a difference can be inspected with `diff -r`. The full set took
# about 4 min per side on a 2-core machine.
set -euo pipefail
here="$(cd "$(dirname "$0")/.." && pwd)"

usage() {
    echo "usage: scripts/experiments_diff.sh <parent-checkout> [id...]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent="$(cd "$1" 2>/dev/null && pwd)" || {
    echo "experiments_diff.sh: no such checkout: $1" >&2
    exit 2
}
shift

for dir in "$parent" "$here"; do
    echo "==> building experiments in $dir" >&2
    (cd "$dir" && cargo build --release -q -p nezha-bench --bin experiments)
done

if [ $# -gt 0 ]; then
    ids=("$@")
else
    mapfile -t ids < <("$here/target/release/experiments" --list)
fi

work="$(mktemp -d)"
echo "outputs: $work" >&2
status=0
for id in "${ids[@]}"; do
    ok=1
    for side in parent change; do
        dir="$here"
        [ "$side" = parent ] && dir="$parent"
        mkdir -p "$work/$side/$id/reports"
        NEZHA_REPORT_DIR="$work/$side/$id/reports" "$dir/target/release/experiments" "$id" \
            >"$work/$side/$id/stdout" 2>"$work/$side/$id/stderr" || {
            echo "$id: failed in the $side checkout (see $work/$side/$id/stderr)" >&2
            ok=0
        }
    done
    if [ "$ok" -eq 1 ] &&
        diff -q "$work/parent/$id/stdout" "$work/change/$id/stdout" >/dev/null &&
        diff -rq "$work/parent/$id/reports" "$work/change/$id/reports" >/dev/null; then
        echo "$id same"
    else
        echo "$id DIFFERS"
        status=1
    fi
done
exit "$status"
