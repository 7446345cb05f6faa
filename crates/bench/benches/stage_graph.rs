//! Microbenchmark of the two stage-layer hot functions:
//!
//! * `eval/lookup` — one full lookup-graph evaluation over a default
//!   vNIC (the work `bench_gate.sh` also floors end-to-end);
//! * `plan/costs_from_plan` — realizing the slow-path cost plan against
//!   a charged total (runs once per profiled slow-path packet).

use criterion::{criterion_group, criterion_main, Criterion};
use nezha_types::{Direction, FiveTuple, Ipv4Addr, ServerId, VnicId, VpcId};
use nezha_vswitch::stage::costing::costs_from_plan;
use nezha_vswitch::stage::lookup::{direction_lookup, lookup_graph};
use nezha_vswitch::stage::SLOW_PLAN;
use nezha_vswitch::vnic::{Vnic, VnicProfile};
use std::hint::black_box;

fn default_vnic() -> Vnic {
    Vnic::new(
        VnicId(1),
        VpcId(1),
        Ipv4Addr::new(10, 7, 0, 1),
        VnicProfile::default(),
        ServerId(0),
    )
}

fn tuple_for(i: u32) -> FiveTuple {
    FiveTuple::tcp(
        Ipv4Addr::new(10, 7, 1, (i % 200) as u8 + 1),
        (i % 50_000) as u16 + 1024,
        Ipv4Addr::new(10, 7, 0, 1),
        9000,
    )
}

fn bench_stage_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("stage_graph");
    let vnic = default_vnic();

    let full = lookup_graph();
    group.bench_function("eval/lookup", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(direction_lookup(&full, &vnic, &tuple_for(i), Direction::Tx))
        });
    });

    let costs = nezha_vswitch::config::VSwitchConfig::default().costs;
    group.bench_function("plan/costs_from_plan", |b| {
        let mut total = 0u64;
        b.iter(|| {
            total = total.wrapping_add(977) % 1_000_000;
            black_box(costs_from_plan(SLOW_PLAN, &costs, &vnic, 1500, total))
        });
    });

    group.finish();
}

criterion_group!(benches, bench_stage_graph);
criterion_main!(benches);
