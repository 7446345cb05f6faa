//! Microbenchmark of the real slow-path rule lookup — the subject of the
//! paper's Table A1. Sweeps #ACL rules; the paper's degradation with rule
//! count (6.6 -> 5.4 Mpps) should appear as growing per-lookup time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nezha_types::{Direction, FiveTuple, Ipv4Addr, ServerId, VnicId, VpcId};
use nezha_vswitch::stage::lookup::pair_lookup;
use nezha_vswitch::vnic::{Vnic, VnicProfile};
use std::hint::black_box;

fn bench_rule_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("rule_lookup");
    // One compiled lookup graph serves every sweep point — graphs are
    // built once at vSwitch construction in the real datapath too.
    let graph = nezha_vswitch::stage::lookup::lookup_graph();
    for rules in [0usize, 8, 64, 100, 1000] {
        let vnic = Vnic::new(
            VnicId(1),
            VpcId(1),
            Ipv4Addr::new(10, 7, 0, 1),
            VnicProfile {
                acl_rules: rules,
                ..VnicProfile::default()
            },
            ServerId(0),
        );
        let graph = &graph;
        group.bench_with_input(BenchmarkId::from_parameter(rules), &rules, |b, _| {
            let mut i = 0u32;
            b.iter(|| {
                i = i.wrapping_add(1);
                let tuple = FiveTuple::tcp(
                    Ipv4Addr::new(10, 7, 1, (i % 200) as u8 + 1),
                    (i % 50_000) as u16 + 1024,
                    Ipv4Addr::new(10, 7, 0, 1),
                    9000,
                );
                black_box(pair_lookup(graph, &vnic, &tuple, Direction::Rx))
            });
        });
    }
    group.finish();
}

/// Exports the cost model's cycles for the same sweep, so the measured
/// degradation can be compared against the simulated card's (Table A1).
fn emit_model_snapshot(c: &mut Criterion) {
    let _ = c;
    let reg = nezha_sim::metrics::MetricsRegistry::new();
    let cfg = nezha_vswitch::config::VSwitchConfig::default();
    for rules in [0usize, 8, 64, 100, 1000] {
        reg.set(
            reg.gauge("bench.lookup_model_cycles", &[("rules", rules.to_string())]),
            cfg.costs.lookup_cycles(64, rules, 0) as f64,
        );
    }
    nezha_bench::output::emit_snapshot("bench_rule_lookup", &reg.snapshot());
}

criterion_group!(benches, bench_rule_lookup, emit_model_snapshot);
criterion_main!(benches);
