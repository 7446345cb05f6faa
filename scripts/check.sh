#!/usr/bin/env bash
# The full local gate, in the order CI would run it: formatting, the
# file-size and unused-dependency guards, clippy
# with warnings as errors (the determinism and panic-safety rules are
# `clippy.toml` + the crate-level denies, DESIGN.md §9), rustdoc with
# warnings as errors, then the whole workspace's test suite (`cargo test
# --workspace`: plain `cargo test` runs only the root package's
# integration suites and skips every crate-level unit and property
# test), then the standalone `benchmark/` crate's tests (it is outside
# the workspace, so nothing above compiles it).
#
# Not part of the gate, because they need a second checkout at the
# parent commit: `scripts/digests.sh` (the five payload digests, to diff
# between parent and change), `scripts/experiments_diff.sh` (every
# experiment id run in both checkouts, stdout and report files compared
# byte for byte) and `scripts/pairs.sh` (alternating parent/change
# benchmark pairs with medians, quartiles and the win count — what a
# performance claim is measured with). Also outside it, because it counts
# and asserts nothing: `scripts/loc.sh` (lines of Rust per crate, all and
# non-blank non-comment outside inline test modules).
#
# Usage: scripts/check.sh [--fast]
#   --fast   skip the full test suite (quick pre-commit run); still runs
#            the `nezha-types` tests (the session-state transitions and
#            `process_pkt`, the BE->FE state carry through the wire, the
#            one NSH encoder and its parser), the vswitch crate's tests
#            (the rule lookup vs its reference and case table, the
#            indexed ACL classifier and hashed LPM checked against a
#            scan of their rules, the cost
#            split's exact-sum and stage-order properties, the
#            process_local outcome table, and the session table's
#            flow-statistics side map: counters written only under a
#            policy, counting from the packet after a notify, leaving
#            with their session on remove and expire, none left once
#            every session expired), the cluster's pinned flow-statistics
#            counters (`tests/offload_lifecycle.rs`
#            `statistics_policy_counts_on_the_local_and_offloaded_paths`:
#            traffic to a logged prefix, on the local path and offloaded),
#            the `nezha-sim` dense
#            tests (every per-packet table rests on `DenseMap`'s slot
#            encoding and its paged storage: the BTreeMap and
#            iteration-order models run across page boundaries, past
#            three pages, and entries keep their address as the map
#            grows) and engine tests (the unit tests and the two
#            proptests against a `BinaryHeap` model: every event goes
#            through the two-rung ladder, and a reserved sequence number
#            filed late pops where it was reserved), the `nezha-sim`
#            fault tests (the fault plan's order and the `FaultState`
#            conditions the cluster's liveness and arrival gate read),
#            the failure-injection suite (`tests/failure_injection.rs`:
#            crashes, failover and the pool floor through `FaultState`
#            liveness), the FE-selection suites (`tests/scaling_and_lb.rs`:
#            hash spreading, scale-out and scale-in over the one rule
#            `ready[hash mod #ready]`; and `nezha-core`'s
#            `control_properties`: gateway convergence and the
#            `BackendMeta` invariants, selection included), the mutual-ping
#            partition test
#            (`tests/workloads_e2e.rs`: a one-pair partition between a BE
#            and a healthy FE is found by the BE<->FE ping alone), the
#            `nezha-core` connection tests (the chunked connection table's unit tests,
#            the property that a record rebuilds the spec it was
#            registered with, the cluster runs that check it frees every finished chunk,
#            and `conn_starts_keep_registration_order_through_the_chain_and_its_fallbacks`:
#            the start chain against queue-every-start order), the `nezha-core`
#            region tests (the paper-shape calibrations, the window stream
#            against the report, a second run continuing it and a zero-day
#            run whose rollout grants the next run drops: the region's
#            samples and windows are applied on a second thread, and these
#            pin what that thread writes), the region and cluster
#            same-seed replays (`tests/determinism.rs`: thread timing
#            must never reach output), the `nezha-core`
#            memory-ledger walk (after every lifecycle edge, from offload
#            to a peer mapping that finds an FE host full, each server's
#            pool equals what its owners hold), the byte budgets
#            (`tests/alloc_budget.rs`: allocations per event, heap bytes
#            per registered connection, per session entry and per
#            learned peer, none on the codec, probe and rule lookup), the
#            datapath goldens
#            (`refactor_equivalence`: stats, metrics hash and flamegraph
#            of four scenario families on three seeds each, the gate for
#            any BE/FE handler refactor), the reduced chaos
#            smoke scenario
#            so the fault-injection path is never shipped unexercised,
#            plus the profiler smoke run
#            (`experiments profile` self-asserts its cycle reconciliation)
#            and the observability smoke (`experiments watch` runs the
#            windowed chaos scenario and asserts the SLO watchdog fires).
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
    case "$arg" in
    --fast) fast=1 ;;
    *)
        echo "usage: scripts/check.sh [--fast]" >&2
        exit 2
        ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> scripts/file_size_guard.sh"
./scripts/file_size_guard.sh

# A dependency a crate declares must be named (`-` read as `_`) somewhere
# under that crate's src/, tests/ or examples/.
echo "==> unused-dependency guard"
unused=0
for manifest in Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    deps=$(awk '/^\[/ { in_deps = /^\[(dev-|build-)?dependencies\]$/; next }
        in_deps && /^[A-Za-z0-9_-]+ *[.=]/ { sub(/ *[.=].*/, ""); print }' "$manifest")
    for dep in $deps; do
        if ! grep -rqsw -- "${dep//-/_}" "$dir/src" "$dir/tests" "$dir/examples"; then
            echo "unused dependency: $dep in $manifest" >&2
            unused=1
        fi
    done
done
[ "$unused" -eq 0 ]

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS=-Dwarnings cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

if [ "$fast" -eq 1 ]; then
    echo "==> cargo test -q -p nezha-types   (--fast: state transitions, the TX carry, the NSH codec)"
    cargo test -q -p nezha-types
    echo "==> cargo test -q -p nezha-vswitch   (--fast: rule lookup vs its reference, indexed tables vs a scan, cost-split properties, session statistics)"
    cargo test -q -p nezha-vswitch
    echo "==> cargo test -q --test offload_lifecycle statistics_policy   (--fast: pinned flow-statistics counters, local and offloaded)"
    cargo test -q --test offload_lifecycle statistics_policy
    echo "==> cargo test -q -p nezha-sim dense   (--fast: DenseMap slot encoding and pages vs its BTreeMap and order models)"
    cargo test -q -p nezha-sim dense
    echo "==> cargo test -q -p nezha-sim engine   (--fast: the event ladder vs its BinaryHeap model)"
    cargo test -q -p nezha-sim engine
    echo "==> cargo test -q -p nezha-sim fault   (--fast: the fault plan and the FaultState conditions liveness reads)"
    cargo test -q -p nezha-sim fault
    echo "==> cargo test -q --test failure_injection   (--fast: crashes, failover and the pool floor through FaultState liveness)"
    cargo test -q --test failure_injection
    echo "==> cargo test -q --test scaling_and_lb   (--fast: hash spreading and scaling over the one FE-selection rule)"
    cargo test -q --test scaling_and_lb
    echo "==> cargo test -q -p nezha-core --test control_properties   (--fast: gateway convergence, BackendMeta invariants and selection)"
    cargo test -q -p nezha-core --test control_properties
    echo "==> cargo test -q --test workloads_e2e be_fe_link_partition_is_detected_by_mutual_ping   (--fast: a one-pair partition found by the mutual ping)"
    cargo test -q --test workloads_e2e be_fe_link_partition_is_detected_by_mutual_ping
    echo "==> cargo test -q -p nezha-core conn   (--fast: the connection table frees finished chunks and keeps start order)"
    cargo test -q -p nezha-core conn
    echo "==> cargo test -q -p nezha-core region   (--fast: window stream, second run, zero-day run)"
    cargo test -q -p nezha-core region
    echo "==> cargo test -q --test determinism   (--fast: same-seed region and cluster runs replay bit for bit)"
    cargo test -q --test determinism
    echo "==> cargo test -q -p nezha-core ledger   (--fast: every server's pool equals what its owners hold, across the lifecycle)"
    cargo test -q -p nezha-core ledger
    echo "==> cargo test -q --test alloc_budget   (--fast: allocations per event, heap bytes per connection, session entry and learned peer)"
    cargo test -q --test alloc_budget
    echo "==> cargo test -q --test refactor_equivalence   (--fast: the datapath goldens)"
    cargo test -q --test refactor_equivalence
    echo "==> cargo test -q --test chaos smoke_   (--fast: reduced chaos scenario)"
    cargo test -q --test chaos smoke_
    echo "==> experiments profile   (--fast: profiler smoke, report and artifacts to target/reports)"
    NEZHA_REPORT_DIR=target/reports cargo run -q --release -p nezha-bench --bin experiments -- profile
    echo "==> cargo test -q --test shard_equivalence   (--fast: 1/2/4/8-shard goldens)"
    cargo test -q --test shard_equivalence
    echo "==> experiments watch   (--fast: observability smoke, self-asserts >=1 SLO event)"
    NEZHA_REPORT_DIR=target/reports cargo run -q --release -p nezha-bench --bin experiments -- watch
    echo "All checks passed (--fast: full test suite skipped)."
else
    echo "==> cargo test --workspace -q"
    cargo test --workspace -q
    echo "==> cargo test -q --test chaos   (fault-injection suite)"
    cargo test -q --test chaos
    # benchmark/ compiles against a specific public API (ROADMAP item 1(c)):
    # API drift must fail here, not in the acceptance run.
    echo "==> cargo test --offline -q --manifest-path benchmark/Cargo.toml   (the yardstick still builds and passes)"
    cargo test --offline -q --manifest-path benchmark/Cargo.toml
    echo "All checks passed."
fi
