#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload — the
# protocol a performance claim here rests on (ROADMAP north star: "no
# claim stands on fewer than ten alternating parent/change pairs").
#
# Runs `benchmark/run.sh --workload W --seed S --seconds 5 --trace 0`
# in the parent checkout and in this one, swapping which side goes first
# from pair to pair, and prints every run, then per end-to-end metric:
# each side's median and quartiles, the change of the median, and how
# many pairs the change won (ties count for neither). The names and the
# better-direction of the metrics come from BENCHMARK.json. Exits
# non-zero when a run fails or the two sides' payload digests differ.
#
# Usage: scripts/pairs.sh <parent-checkout> <workload> [--seed S] [--pairs N]
#   <parent-checkout>  a second copy of the repository at the parent
#                      commit (`git clone` / `git archive`), built here.
#                      For `peak_rss_mb`, run this from a copy of the
#                      change whose path is as long as the parent's: the
#                      path is in the process's strings, and on
#                      `crr_offloaded` /root/repo against
#                      /root/scratch/parent alone reads +1.5 MB (0/10)
#                      at byte-identical allocation requests.
#   defaults: --seed 20058 (the benchmark's own), --pairs 10
set -euo pipefail
here="$(cd "$(dirname "$0")/.." && pwd)"

usage() {
    echo "usage: scripts/pairs.sh <parent-checkout> <workload> [--seed S] [--pairs N]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
parent="$(cd "$1" 2>/dev/null && pwd)" || {
    echo "pairs.sh: no such checkout: $1" >&2
    exit 2
}
workload="$2"
shift 2
seed=20058
pairs=10
while [ $# -gt 0 ]; do
    case "$1" in
    --seed) seed="${2:?--seed needs a value}" ;;
    --pairs) pairs="${2:?--pairs needs a value}" ;;
    *) usage ;;
    esac
    shift 2
done
[ "$parent" != "$here" ] || {
    echo "pairs.sh: the parent checkout is this checkout" >&2
    exit 2
}

# `name better` per end-to-end metric, in BENCHMARK.json's order.
metrics=$(awk '
    /"end_to_end"/ { on = 1 }
    on && /\]/ { exit }
    on && /"name"/ { gsub(/[",]/, ""); name = $2 }
    on && /"better"/ { gsub(/[",]/, ""); print name, $2 }
' "$here/BENCHMARK.json")
[ -n "$metrics" ] || {
    echo "pairs.sh: no end_to_end metrics in BENCHMARK.json" >&2
    exit 1
}

# Build both sides first, so that no pair pays for a compile.
for dir in "$parent" "$here"; do
    (cd "$dir" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# run_side <side> <dir> <pair>: appends `metric value` rows to
# $tmp/<side>.<pair> and the digest to $tmp/<side>.digests.
run_side() {
    local side="$1" dir="$2" pair="$3" out
    out=$(cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 5 --trace 0) || {
        echo "pairs.sh: $side run of pair $pair failed" >&2
        exit 1
    }
    awk -v names="$(cut -d' ' -f1 <<<"$metrics" | tr '\n' ' ')" '
        BEGIN { n = split(names, want, " "); for (i = 1; i <= n; i++) is[want[i]] = 1 }
        $1 == "payload_digest" { print "payload_digest", $2 }
        ($1 in is) && $2 ~ /^[0-9.eE+-]+$/ { print $1, $2 }
    ' <<<"$out" >"$tmp/$side.$pair"
    awk '$1 == "payload_digest" { print $2 }' "$tmp/$side.$pair" >>"$tmp/$side.digests"
}

value() { awk -v m="$2" '$1 == m { print $2 }' "$tmp/$1"; }

echo "workload $workload   seed $seed   pairs $pairs   parent $parent"
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        order="parent first"
        run_side parent "$parent" "$pair"
        run_side change "$here" "$pair"
    else
        order="change first"
        run_side change "$here" "$pair"
        run_side parent "$parent" "$pair"
    fi
    line="pair $pair ($order):"
    while read -r m _; do
        line+="  $m $(value "parent.$pair" "$m") -> $(value "change.$pair" "$m")"
    done <<<"$metrics"
    echo "$line"
done

if [ "$(sort -u "$tmp/parent.digests" "$tmp/change.digests" | wc -l)" -ne 1 ]; then
    echo "pairs.sh: payload digests differ between or within the sides:" >&2
    sort "$tmp/parent.digests" | uniq -c | sed 's/^/  parent /' >&2
    sort "$tmp/change.digests" | uniq -c | sed 's/^/  change /' >&2
    exit 1
fi
echo "payload_digest $(head -1 "$tmp/parent.digests") on all $((2 * pairs)) runs"

# Median and quartiles by linear interpolation between order statistics.
quartiles() {
    sort -g | awk '
        { v[NR] = $1 }
        function q(p,    h, lo) { h = (NR - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
        END { printf "%.4g %.4g %.4g\n", q(0.5), q(0.25), q(0.75) }'
}

printf '%-16s %-34s %-34s %7s  %s\n' metric "parent median [q1-q3]" "change median [q1-q3]" "change" "wins"
while read -r m better; do
    for side in parent change; do
        for pair in $(seq 1 "$pairs"); do value "$side.$pair" "$m"; done >"$tmp/$side.$m"
    done
    read -r pm p1 p3 < <(quartiles <"$tmp/parent.$m")
    read -r cm c1 c3 < <(quartiles <"$tmp/change.$m")
    wins=$(paste "$tmp/parent.$m" "$tmp/change.$m" |
        awk -v better="$better" '(better == "lower" && $2 < $1) || (better == "higher" && $2 > $1) { w++ } END { print w + 0 }')
    delta=$(awk -v p="$pm" -v c="$cm" 'BEGIN { printf "%+.1f%%", (c - p) / p * 100 }')
    printf '%-16s %-34s %-34s %7s  %s/%s (%s is better)\n' \
        "$m" "$pm [$p1-$p3]" "$cm [$c1-$c3]" "$delta" "$wins" "$pairs" "$better"
done <<<"$metrics"
