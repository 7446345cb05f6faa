//! Calibration constants of the vSwitch resource model.
//!
//! Every constant here is traceable to a statement in the paper (cited
//! inline). The defaults reproduce the paper's *envelope*: a vSwitch with
//! O(100K) CPS capacity (§2.2.2), a few GB of table memory out of 10 GB
//! (§2.2.2), ~100 B session entries, 2 MB+ rule tables per vNIC, and the
//! Table A1 lookup-throughput sensitivities to packet size and #ACL rules.

use nezha_sim::time::SimDuration;

/// CPU cycle costs of the packet-processing stages.
///
/// The split between **lookup** cycles (the pure rule-table query measured
/// by the paper's Table A1 microbenchmark) and **overhead** cycles (session
/// management, queue/doorbell handling, hypervisor interaction) is what
/// reconciles the paper's two numbers: a rule-table lookup sustains ~6.6 M
/// ops/s on the card while end-to-end CPS is only O(100K) — the first
/// packet of a connection pays both, several times over, across the
/// handshake.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Fixed parse/classify cost paid by *every* packet.
    pub parse: u64,
    /// Per-byte DMA + copy cost (Table A1's packet-size sensitivity).
    pub per_byte_milli: u64,
    /// Fast-path cost: exact-match session lookup + `process_pkt`.
    pub fast_path: u64,
    /// Base cost of the minimum 5-table slow-path pipeline, excluding the
    /// ACL's rule-count-dependent part ("at least five tables", §2.2.2).
    pub pipeline_base: u64,
    /// Extra cost per additional advanced table (policy routing, mirror,
    /// flow log — "up to 12 tables", §2.2.2).
    pub per_extra_table: u64,
    /// ACL cost = `acl_base + acl_log_factor × ln(1 + rules)`; range
    /// matching over priorities grows with the rule count (Table A1).
    pub acl_base: u64,
    /// See [`CostModel::acl_base`].
    pub acl_log_factor: u64,
    /// Creating a bidirectional session entry (alloc + two-key insert).
    pub session_create: u64,
    /// Per-first-packet overhead outside lookup: doorbells, VM queue
    /// setup, metadata plumbing. The dominant term behind O(100K) CPS.
    pub first_packet_overhead: u64,
    /// BE-side work under Nezha per first packet: state init + NSH encap.
    pub be_first_packet: u64,
    /// BE-side work under Nezha per subsequent packet: state lookup/update
    /// plus NSH encap/decap — cheap, thanks to the per-flow hardware
    /// acceleration of §7.3.
    pub be_per_packet: u64,
    /// FE-side NSH decap/encap cost per carried packet.
    pub fe_carry: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            parse: 300,
            per_byte_milli: 550, // 0.55 cycles per byte
            fast_path: 600,
            pipeline_base: 1_400,
            per_extra_table: 450,
            acl_base: 120,
            acl_log_factor: 75,
            session_create: 1_500,
            first_packet_overhead: 25_000,
            be_first_packet: 2_000,
            be_per_packet: 250,
            fe_carry: 400,
        }
    }
}

impl CostModel {
    /// Cycles for one rule-table pipeline pass (the Table A1 quantity):
    /// parse + per-byte + base pipeline + ACL scaling + extra tables.
    pub fn lookup_cycles(&self, pkt_bytes: usize, acl_rules: usize, extra_tables: u8) -> u64 {
        self.parse
            + (self.per_byte_milli * pkt_bytes as u64) / 1000
            + self.pipeline_base
            + self.acl_base
            + (self.acl_log_factor as f64 * ((1 + acl_rules) as f64).ln()) as u64
            + self.per_extra_table * extra_tables as u64
    }

    /// Cycles for the complete slow-path handling of a first packet in the
    /// traditional (non-offloaded) architecture.
    pub fn slow_path_cycles(&self, pkt_bytes: usize, acl_rules: usize, extra_tables: u8) -> u64 {
        self.lookup_cycles(pkt_bytes, acl_rules, extra_tables)
            + self.session_create
            + self.first_packet_overhead
    }

    /// Cycles for a fast-path packet in the traditional architecture.
    pub fn fast_path_cycles(&self, pkt_bytes: usize) -> u64 {
        self.parse + (self.per_byte_milli * pkt_bytes as u64) / 1000 + self.fast_path
    }
}

/// Memory footprints of the vSwitch data structures.
#[derive(Clone, Copy, Debug)]
pub struct MemoryModel {
    /// Bidirectional cached-flow record: two 5-tuples + VPC id +
    /// pre-actions ("O(100B) in total", §2.2.2).
    pub flow_entry: u64,
    /// Fixed session-state slab (§7.1: 64 B).
    pub state_slab: u64,
    /// One ACL rule.
    pub acl_rule: u64,
    /// One route entry.
    pub route_entry: u64,
    /// One QoS rule.
    pub qos_rule: u64,
    /// One NAT rule.
    pub nat_rule: u64,
    /// One statistics-policy rule.
    pub policy_rule: u64,
    /// One vNIC→server mapping entry ("O(100K) entries … over 200 MB",
    /// §2.2.2 ⇒ ~2 KB each).
    pub vnic_server_entry: u64,
    /// Fixed per-vNIC table overhead (indexes, metadata), ensuring even a
    /// rule-light vNIC costs the paper's ~2 MB minimum (§6.2.1).
    pub vnic_base: u64,
    /// BE-side metadata for one *offloaded* vNIC: FE locations + essential
    /// local metadata ("2KB memory to store BE data", §6.2.1).
    pub be_metadata: u64,
}

impl Default for MemoryModel {
    fn default() -> Self {
        MemoryModel {
            flow_entry: 100,
            state_slab: 64,
            acl_rule: 64,
            route_entry: 32,
            qos_rule: 32,
            nat_rule: 32,
            policy_rule: 24,
            vnic_server_entry: 2_048,
            vnic_base: 2 * 1024 * 1024,
            be_metadata: 2 * 1024,
        }
    }
}

/// Complete configuration of one vSwitch instance.
#[derive(Clone, Copy, Debug)]
pub struct VSwitchConfig {
    /// CPU cores available to virtual networking ("only a few CPU cores to
    /// virtual networks", §2.2.2; the card has 8 total — testbed §6.1).
    pub cores: u32,
    /// Clock of each core in Hz.
    pub core_hz: u64,
    /// Memory available for networking tables, in bytes ("hundreds of MB
    /// to a few GB for the session table" out of 10 GB, §2.2.2).
    pub table_memory: u64,
    /// Short aging for embryonic (SYN-state) sessions (§7.3).
    pub syn_aging: SimDuration,
    /// Cycle costs.
    pub costs: CostModel,
    /// Memory footprints.
    pub memory: MemoryModel,
}

impl Default for VSwitchConfig {
    fn default() -> Self {
        VSwitchConfig {
            cores: 4,
            core_hz: 2_000_000_000,
            table_memory: 1024 * 1024 * 1024, // 1 GB for tables
            syn_aging: SimDuration::from_secs(1),
            costs: CostModel::default(),
            memory: MemoryModel::default(),
        }
    }
}

impl VSwitchConfig {
    /// Total CPU capacity in cycles per second.
    pub fn capacity_hz(&self) -> f64 {
        self.cores as f64 * self.core_hz as f64
    }

    /// A larger configuration used for the production middlebox hosts of
    /// §6.3 ("some more capable server SmartNICs").
    pub fn middlebox_host() -> Self {
        VSwitchConfig {
            cores: 8,
            core_hz: 2_500_000_000,
            table_memory: 2 * 1024 * 1024 * 1024,
            costs: CostModel {
                // Middlebox hosts pay heavier per-connection overheads
                // (deep feature pipelines, flow logging plumbing).
                first_packet_overhead: 36_000,
                ..CostModel::default()
            },
            ..Default::default()
        }
    }

    /// Theoretical CPS capacity: cycles/s divided by the cost of one
    /// TCP_CRR connection — one slow-path pass (the first packet creates
    /// the *bidirectional* cached flow, so the reverse direction already
    /// hits the fast path) plus six fast-path packets.
    pub fn nominal_cps(&self, pkt_bytes: usize, acl_rules: usize, extra_tables: u8) -> f64 {
        let per_conn = self
            .costs
            .slow_path_cycles(pkt_bytes, acl_rules, extra_tables)
            + 6 * self.costs.fast_path_cycles(pkt_bytes);
        self.capacity_hz() / per_conn as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cps_is_order_100k() {
        // §2.2.2: "We have optimized our SmartNIC's capacity to O(100K) CPS".
        let cfg = VSwitchConfig::default();
        let cps = cfg.nominal_cps(64, 100, 0);
        assert!(
            (80_000.0..400_000.0).contains(&cps),
            "nominal CPS {cps} out of the paper's O(100K) envelope"
        );
    }

    #[test]
    fn lookup_cost_grows_with_rules_and_bytes() {
        let c = CostModel::default();
        let base = c.lookup_cycles(64, 0, 0);
        assert!(c.lookup_cycles(64, 1000, 0) > c.lookup_cycles(64, 100, 0));
        assert!(c.lookup_cycles(64, 100, 0) > base);
        assert!(c.lookup_cycles(512, 0, 0) > base);
        assert!(c.lookup_cycles(64, 0, 7) > base);
    }

    #[test]
    fn lookup_rule_sensitivity_matches_table_a1_shape() {
        // Table A1 (64 B): 6.612 Mpps at 0 rules -> 5.422 Mpps at 1000
        // rules, a ~18% throughput drop. Our model must land in a similar
        // band: cost ratio 1000-rules/0-rules within [1.05, 1.45].
        let c = CostModel::default();
        let ratio = c.lookup_cycles(64, 1000, 0) as f64 / c.lookup_cycles(64, 0, 0) as f64;
        assert!((1.05..1.45).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn lookup_size_sensitivity_matches_table_a1_shape() {
        // Table A1 (0 rules): 6.612 Mpps at 64 B -> 5.985 Mpps at 512 B,
        // ~10% drop. Cost ratio 512/64 within [1.03, 1.30].
        let c = CostModel::default();
        let ratio = c.lookup_cycles(512, 0, 0) as f64 / c.lookup_cycles(64, 0, 0) as f64;
        assert!((1.03..1.30).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn be_work_is_much_cheaper_than_slow_path() {
        // Nezha's whole premise: the BE's residual per-connection work is a
        // small fraction of the full slow path, so offloading multiplies
        // CPS severalfold.
        let c = CostModel::default();
        let be = c.be_first_packet + 6 * c.be_per_packet;
        let local = c.slow_path_cycles(64, 100, 0) + 6 * c.fast_path_cycles(64);
        assert!(local as f64 / be as f64 > 3.0);
    }

    #[test]
    fn middlebox_host_is_larger() {
        let mb = VSwitchConfig::middlebox_host();
        let dflt = VSwitchConfig::default();
        assert!(mb.capacity_hz() > dflt.capacity_hz());
        assert!(mb.table_memory > dflt.table_memory);
    }

    #[test]
    fn memory_model_matches_paper_quantities() {
        let m = MemoryModel::default();
        // §2.2.2: session entry "O(100B)" + 64 B state slab.
        assert_eq!(m.flow_entry + m.state_slab, 164);
        // So a 1 GiB session table holds 5-8 M flows.
        let flows = (1u64 << 30) / (m.flow_entry + m.state_slab);
        assert!((5_000_000..8_000_000).contains(&flows), "flows {flows}");
        // §6.2.1: rule table at least 2 MB; BE data 2 KB ⇒ 1000x #vNIC gain.
        assert_eq!(m.vnic_base / m.be_metadata, 1024);
        // §2.2.2: O(100K) vNIC-server entries consume >200 MB (decimal).
        assert!(100_000 * m.vnic_server_entry > 200_000_000);
    }
}
