#!/usr/bin/env bash
# File-size guard: no .rs file under crates/ may exceed MAX_LINES lines.
#
# The old crates/core/src/cluster.rs monolith grew to ~2,700 lines before
# it had to be split into dispatch.rs, the handlers in be.rs / fe.rs,
# config.rs, telemetry.rs and driver.rs; this gate keeps that from recurring by
# failing the build the moment a module crosses the threshold, while the
# split is still cheap.
#
# To exempt a file, add a line to ALLOW below in the form
#     path=<workspace-relative path> max=<higher cap> why=<justification>
# A bare exemption with no `why=` is rejected, and a stale exemption
# (file shrank back under MAX_LINES, or no longer exists) is an error so
# the list can only grow deliberately.
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_LINES=1200

# `crates/vswitch` is a set of focused table/stage modules, so it gets a
# tighter cap: no file may exceed 600 lines. A file that wants more is a
# module that wants splitting.
VSWITCH_MAX_LINES=600

# One entry per line; keep justifications honest and specific.
ALLOW=(
    # (none)
)

allow_max_for() {
    local path="$1" entry emax ewhy
    for entry in "${ALLOW[@]:-}"; do
        [ -n "$entry" ] || continue
        case "$entry" in
        path="$path"\ *)
            emax=$(sed -n 's/.* max=\([0-9][0-9]*\).*/\1/p' <<<"$entry")
            ewhy=$(sed -n 's/.* why=\(.*\)$/\1/p' <<<"$entry")
            if [ -z "$ewhy" ]; then
                echo "file-size-guard: exemption for $path has no why= justification" >&2
                exit 2
            fi
            echo "${emax:-$MAX_LINES}"
            return 0
            ;;
        esac
    done
    case "$path" in
    crates/vswitch/*) echo "$VSWITCH_MAX_LINES" ;;
    *) echo "$MAX_LINES" ;;
    esac
}

fail=0
checked=0
while IFS= read -r f; do
    rel="${f#./}"
    lines=$(wc -l <"$f")
    checked=$((checked + 1))
    cap=$(allow_max_for "$rel")
    if [ "$lines" -gt "$cap" ]; then
        echo "file-size-guard: $rel is $lines lines (cap $cap) — split it;" \
            "see how cluster.rs became dispatch.rs + the handlers in be.rs/fe.rs" >&2
        fail=1
    fi
done < <(find crates -name '*.rs' -not -path '*/target/*' | sort)

# Stale-exemption check: every allow-listed file must still exist and
# still need its raised cap.
for entry in "${ALLOW[@]:-}"; do
    [ -n "$entry" ] || continue
    path=$(sed -n 's/^path=\([^ ]*\) .*/\1/p' <<<"$entry")
    [ -n "$path" ] || continue
    if [ ! -f "$path" ]; then
        echo "file-size-guard: stale exemption: $path no longer exists" >&2
        fail=1
    elif [ "$(wc -l <"$path")" -le "$MAX_LINES" ]; then
        echo "file-size-guard: stale exemption: $path is back under $MAX_LINES lines" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "file-size-guard: $checked files under crates/ within the caps" \
    "($MAX_LINES lines; $VSWITCH_MAX_LINES for crates/vswitch)"
