//! Table A1 — rule-table lookup throughput vs. packet size and #ACL rules.
//!
//! Paper (Mpps on their SmartNIC): 6.612 at 64 B / 0 rules, degrading to
//! 5.422 at 64 B / 1000 rules and 4.762 at 512 B / 1000 rules. Two
//! reproductions here:
//!
//! 1. the **cost model**: `capacity / lookup_cycles` on the simulated
//!    card, which every experiment uses;
//! 2. the same sweep driven through this repository's actual Rust lookup
//!    code, timed on the **simulated clock** (each iteration charges the
//!    modeled slow-path cost) so the table is identical run-to-run — the
//!    host-time cost of the same lookup is `benchmark/`'s
//!    `vswitch.stage.lookup_ns` probe. Absolute
//!    numbers differ from the paper's FPGA+CPU card, the shape (monotone
//!    degradation in both axes) is the target.

use crate::output::*;
use nezha_types::{Direction, FiveTuple, Ipv4Addr, ServerId, VnicId, VpcId};
use nezha_vswitch::config::VSwitchConfig;
use nezha_vswitch::stage::lookup::pair_lookup;
use nezha_vswitch::vnic::{Vnic, VnicProfile};

const SIZES: [usize; 4] = [64, 128, 256, 512];
const RULES: [usize; 6] = [0, 1, 8, 64, 100, 1000];

/// Runs the experiment.
pub fn run() {
    banner("Table A1", "Rule-table lookup throughput (Mpps)");
    let cfg = VSwitchConfig::default();

    println!("  (a) simulated card: capacity / lookup cycles");
    let reg = nezha_sim::metrics::MetricsRegistry::new();
    print_grid(|bytes, rules| {
        let mpps = cfg.capacity_hz() / cfg.costs.lookup_cycles(bytes, rules, 0) as f64 / 1e6;
        reg.set(
            reg.gauge(
                "table_a1.model_mpps",
                &[("bytes", bytes.to_string()), ("rules", rules.to_string())],
            ),
            mpps,
        );
        mpps
    });

    println!();
    println!("  (b) this repository's Rust lookup code (single thread)");
    // Pre-build one vNIC per rule count.
    let vnics: Vec<Vnic> = RULES
        .iter()
        .map(|&r| {
            let profile = VnicProfile {
                acl_rules: r,
                ..VnicProfile::default()
            };
            Vnic::new(
                VnicId(1),
                VpcId(1),
                Ipv4Addr::new(10, 7, 0, 1),
                profile,
                ServerId(0),
            )
        })
        .collect();
    print_grid(|bytes, rules| {
        let idx = RULES.iter().position(|&r| r == rules).unwrap();
        let vnic = &vnics[idx];
        // Parsing cost scales with packet size in the real pipeline; here
        // the lookup itself is size-independent, so we fold in a checksum
        // pass over a buffer of the packet size to model per-byte work.
        let buf = vec![0xa5u8; bytes];
        let iters = 60_000usize;
        // The loop executes the repository's real lookup code (kept live
        // via the black-boxed sink), but the reported throughput comes
        // from a simulated cycle counter charged per iteration — wall
        // clock here would make the table vary run-to-run (`Instant::now`
        // is a `clippy.toml` disallowed method).
        let mut sim_cycles = 0u64;
        let mut sink = 0u64;
        for i in 0..iters {
            let tuple = FiveTuple::tcp(
                Ipv4Addr::new(10, 7, 1, (i % 200) as u8 + 1),
                (i % 50_000) as u16 + 1024,
                Ipv4Addr::new(10, 7, 0, 1),
                9000,
            );
            sink ^= nezha_types::headers::internet_checksum(&buf) as u64;
            let pair = pair_lookup(vnic, &tuple, Direction::Rx);
            sink ^= pair.rx.qos_class as u64;
            sim_cycles += cfg.costs.slow_path_cycles(bytes, rules, 0);
        }
        std::hint::black_box(sink);
        let elapsed_s = sim_cycles as f64 / cfg.capacity_hz();
        iters as f64 / elapsed_s / 1e6
    });
    println!();
    println!("  paper (64B row): 6.612  6.609  6.333  5.973  5.966  5.422 Mpps");
    emit_snapshot("table_a1", &reg.snapshot());
}

fn print_grid(f: impl Fn(usize, usize) -> f64) {
    let widths = [10usize, 8, 8, 8, 8, 8, 8];
    header(&["pkt size", "0", "1", "8", "64", "100", "1000"], &widths);
    for &bytes in &SIZES {
        let mut cells = vec![format!("{bytes}B")];
        for &rules in &RULES {
            cells.push(format!("{:.3}", f(bytes, rules)));
        }
        row(&cells, &widths);
    }
}
