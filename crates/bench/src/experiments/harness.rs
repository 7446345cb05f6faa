//! Shared testbed construction and CPS measurement for the packet-level
//! experiments (Figs. 9–12, 14).
//!
//! The standard testbed mirrors §6.1: one busy vNIC on server 0 with its
//! service port open, client endpoints on another rack, and a pool of
//! idle vSwitches available as FEs. Experiments that need small absolute
//! rates for tractable runtimes use [`TestbedOpts::scaled`], which
//! shrinks the vSwitch to one core and the VM's per-core CPS
//! proportionally — preserving every *ratio* the figures report while
//! dividing the event count by ~4.

use nezha_core::cluster::{Cluster, ClusterConfig};
use nezha_core::controller::ControllerConfig;
use nezha_core::vm::VmConfig;
use nezha_sim::time::SimDuration;
use nezha_sim::topology::TopologyConfig;
use nezha_types::{Ipv4Addr, ServerId, VnicId, VpcId};
use nezha_vswitch::vnic::{Vnic, VnicProfile};
use nezha_workloads::cps::CpsWorkload;

/// The vNIC under test in every packet-level experiment.
pub const VNIC: VnicId = VnicId(1);
/// Its home server.
pub const HOME: ServerId = ServerId(0);
/// Its VPC.
pub const VPC: VpcId = VpcId(1);
/// Its overlay address.
pub const SERVICE_ADDR: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 1);
/// Its open service port.
pub const SERVICE_PORT: u16 = 9000;

/// Options for the testbed builder.
#[derive(Clone, Copy, Debug)]
pub struct TestbedOpts {
    /// vSwitch cores (1 = scaled-down testbed).
    pub cores: u32,
    /// VM vCPUs.
    pub vcpus: u32,
    /// VM per-core CPS (scaled together with `cores`).
    pub per_core_cps: f64,
    /// Enable automatic offload/scaling.
    pub auto: bool,
    /// Initial FE count for manual offloads.
    pub initial_fes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TestbedOpts {
    fn default() -> Self {
        TestbedOpts {
            cores: 4,
            vcpus: 64,
            per_core_cps: 53_700.0,
            auto: false,
            initial_fes: 4,
            seed: 0x4e5a,
        }
    }
}

impl TestbedOpts {
    /// The quarter-scale testbed: 1-core vSwitches + a VM with a quarter
    /// of the kernel capacity. All capacity *ratios* match the full-scale
    /// testbed.
    pub fn scaled() -> Self {
        TestbedOpts {
            cores: 1,
            per_core_cps: 13_425.0,
            ..TestbedOpts::default()
        }
    }
}

/// Builds the standard testbed.
pub fn testbed(opts: TestbedOpts) -> Cluster {
    let cfg = ClusterConfig::builder()
        .topology(TopologyConfig {
            servers_per_rack: 16,
            racks_per_pod: 2,
            pods: 1,
        })
        .cores(opts.cores)
        .controller(ControllerConfig {
            auto_offload: opts.auto,
            auto_scale: opts.auto,
            initial_fes: opts.initial_fes,
            min_fes: opts.initial_fes.min(4),
        })
        .seed(opts.seed)
        .build();
    let mut cluster = Cluster::new(cfg);
    let mut vnic = Vnic::new(VNIC, VPC, SERVICE_ADDR, VnicProfile::default(), HOME);
    vnic.allow_inbound_port(SERVICE_PORT);
    cluster
        .add_vnic(
            vnic,
            HOME,
            VmConfig {
                vcpus: opts.vcpus,
                per_core_cps: opts.per_core_cps,
            },
        )
        .unwrap();
    cluster
}

/// Client endpoints on the second rack.
pub fn client_servers() -> Vec<ServerId> {
    (16..24).map(ServerId).collect()
}

/// Result of one CPS measurement.
#[derive(Clone, Copy, Debug)]
pub struct CpsResult {
    /// Goodput: completed connections per second in the window.
    pub cps: f64,
    /// Offered rate.
    pub offered: f64,
    /// Packet loss rate across the run.
    pub loss_rate: f64,
}

/// Offers `rate` TCP_CRR connections/second for `warmup + window`, and
/// measures goodput during the window.
pub fn measure_cps(
    cluster: &mut Cluster,
    rate: f64,
    warmup: SimDuration,
    window: SimDuration,
) -> CpsResult {
    let start = cluster.now();
    let wl = CpsWorkload::tcp_crr(
        VNIC,
        VPC,
        SERVICE_ADDR,
        SERVICE_PORT,
        client_servers(),
        rate,
        warmup + window,
    );
    let mut rng = nezha_sim::rng::SimRng::new(cluster.cfg.seed ^ rate as u64);
    let specs = wl.generate(start, &mut rng);
    for s in specs {
        cluster.add_conn(s).unwrap();
    }
    // Run past the end so in-flight connections finish.
    cluster.run_until(start + warmup + window + SimDuration::from_secs(2));
    // Count completions whose bin falls inside the measurement window.
    let w0 = (start + warmup).as_secs_f64();
    let w1 = (start + warmup + window).as_secs_f64();
    let stats = cluster.stats();
    let completed: f64 = stats
        .cps_series
        .points()
        .iter()
        .filter(|(t, _)| *t >= w0 && *t < w1)
        .map(|(_, v)| v)
        .sum();
    CpsResult {
        cps: completed / window.as_secs_f64(),
        offered: rate,
        loss_rate: stats.pkts.loss_rate(),
    }
}

/// Manually offloads the test vNIC and lets the transition complete.
pub fn offload_and_settle(cluster: &mut Cluster) {
    cluster
        .trigger_offload(VNIC, cluster.now())
        .expect("offload");
    let t = cluster.now();
    cluster.run_until(t + SimDuration::from_secs(3));
    assert_eq!(
        cluster.backend(VNIC).map(|m| m.phase),
        Some(nezha_core::be::OffloadPhase::Offloaded),
        "offload did not reach the final stage"
    );
}

/// Sweeps probe latency at a given instant: injects `n` probes with
/// distinct tuples 1 ms apart and returns their mean latency (seconds).
pub fn probe_latency(cluster: &mut Cluster, n: usize) -> f64 {
    let before = cluster.stats().probe_latency.len();
    let t0 = cluster.now();
    for i in 0..n {
        let tuple = nezha_types::FiveTuple::tcp(
            Ipv4Addr::new(10, 7, 9, (i % 250) as u8 + 1),
            20_000 + i as u16,
            SERVICE_ADDR,
            SERVICE_PORT,
        );
        cluster
            .inject_probe_rx(
                VNIC,
                tuple,
                64,
                client_servers()[i % 8],
                t0 + SimDuration::from_millis(i as u64),
            )
            .unwrap();
    }
    cluster.run_until(t0 + SimDuration::from_millis(n as u64 + 500));
    let stats = cluster.stats();
    let lats = &stats.probe_latency.raw()[before..];
    if lats.is_empty() {
        return f64::NAN;
    }
    lats.iter().sum::<f64>() / lats.len() as f64
}

/// The scaled testbed's nominal local CPS capacity (denominator of every
/// gain figure).
pub fn local_capacity(cluster: &Cluster) -> f64 {
    let cfg = cluster.cfg.vswitch;
    let vnic = Vnic::new(VNIC, VPC, SERVICE_ADDR, VnicProfile::default(), HOME);
    cfg.capacity_hz() / vnic.crr_cycles(&cfg.costs, 64) as f64
}

/// Finds the sustainable CPS capacity by bisection: the largest offered
/// rate whose goodput stays within 7% of the offer. This mirrors how
/// closed-loop tools like netperf TCP_CRR report "capability" — they
/// self-clock at the achievable rate instead of collapsing the switch
/// with an open-loop flood.
pub fn find_capacity(mut build: impl FnMut() -> Cluster, lo: f64, hi: f64) -> f64 {
    let warm = SimDuration::from_millis(300);
    let win = SimDuration::from_millis(700);
    let supports = |build: &mut dyn FnMut() -> Cluster, rate: f64| {
        let mut cluster = build();
        let r = measure_cps(&mut cluster, rate, warm, win);
        r.cps >= 0.93 * rate
    };
    let (mut lo, mut hi) = (lo, hi);
    if supports(&mut build, hi) {
        return hi;
    }
    for _ in 0..7 {
        let mid = 0.5 * (lo + hi);
        if supports(&mut build, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}
