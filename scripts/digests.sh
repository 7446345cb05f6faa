#!/usr/bin/env bash
# Prints `workload payload_digest failed` for the benchmark's five
# workloads at one seed — the behaviour fingerprint a refactor compares
# between the parent commit and the change (run it in both checkouts and
# diff the output). Exits non-zero when any workload reports failed > 0
# or prints no digest.
#
# Usage: scripts/digests.sh [--seed S]     (default seed 7)
set -euo pipefail
cd "$(dirname "$0")/.."

seed=7
case "${1:-}" in
"") ;;
--seed)
    seed="${2:?--seed needs a value}"
    ;;
*)
    echo "usage: scripts/digests.sh [--seed S]" >&2
    exit 2
    ;;
esac

status=0
for w in crr_offloaded crr_local fastpath_wide synflood_offloaded region_month; do
    row=$(bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds 5 --trace 0 |
        awk -v w="$w" '$1 == "payload_digest" { print w, $2, $6; found = 1 } END { exit !found }') || {
        echo "$w: no payload_digest in the benchmark's output" >&2
        status=1
        continue
    }
    echo "$row"
    [ "${row##* }" = 0 ] || status=1
done
exit "$status"
