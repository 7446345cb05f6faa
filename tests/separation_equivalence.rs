//! The paper's §3.1 equivalence claim, verified as a property:
//!
//! > "We demonstrate the equivalence of processing results under this
//! > separation architecture."
//!
//! For arbitrary rule tables, NF mixes, and packet sequences, processing
//! a session through the **split** architecture — state at the BE,
//! rules/flows at the FE, inputs carried in packet headers — must yield
//! exactly the decisions of the **monolithic** vSwitch:
//!
//! * TX: the BE applies packet-derived state transitions and ships a
//!   state snapshot; the FE finalizes against its pre-actions.
//! * RX: the FE looks up pre-actions and piggybacks them (plus decap
//!   info); the BE applies the full transition and finalizes.
//!
//! Statistics state is excluded from the final-state comparison: the
//! paper itself accepts a notify-packet lag there (§3.2.2). Everything
//! else — verdicts, NAT rewrites, encap overrides, first-packet
//! direction, TCP FSM, decap state — must match bit for bit.

use nezha::types::{
    Direction, FiveTuple, Ipv4Addr, NezhaHeader, NezhaPayloadKind, Packet, ServerId, SessionState,
    TcpFlags, VnicId, VpcId,
};
use nezha::vswitch::stage::lookup::pair_lookup;
use nezha::vswitch::tables::acl::{AclRule, PortRange};
use nezha::vswitch::vnic::{Vnic, VnicProfile};
use proptest::prelude::*;

/// A randomly generated packet event within one session.
#[derive(Clone, Copy, Debug)]
struct Step {
    dir: Direction,
    flags: u8,
    payload: u16,
    encap_src: Option<u32>,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        prop::bool::ANY,
        prop::sample::select(vec![0x02u8, 0x12, 0x10, 0x18, 0x11, 0x04]),
        0u16..1400,
        prop::option::of(1u32..0xffff),
    )
        .prop_map(|(tx, flags, payload, encap)| Step {
            dir: if tx { Direction::Tx } else { Direction::Rx },
            flags,
            payload,
            encap_src: encap,
        })
}

fn rule_strategy() -> impl Strategy<Value = AclRule> {
    (
        0u32..100,                         // priority
        prop::option::of(prop::bool::ANY), // direction filter
        0u8..3,                            // src prefix selector
        0u8..3,                            // dst prefix selector
        0u16..3,                           // port band
        prop::bool::ANY,                   // decision
        prop::bool::ANY,                   // stateful
    )
        .prop_map(|(prio, dirf, srcsel, dstsel, band, accept, stateful)| {
            let prefix = |sel: u8| match sel {
                0 => (Ipv4Addr::UNSPECIFIED, 0),
                1 => (Ipv4Addr::new(10, 7, 0, 0), 16),
                _ => (Ipv4Addr::new(10, 7, 1, 0), 24),
            };
            AclRule {
                priority: prio,
                direction: dirf.map(|d| if d { Direction::Tx } else { Direction::Rx }),
                src: prefix(srcsel),
                dst: prefix(dstsel),
                src_ports: PortRange::ANY,
                dst_ports: PortRange {
                    lo: band * 3000,
                    hi: band * 3000 + 2999,
                },
                protocol: None,
                decision: if accept {
                    nezha::types::Decision::Accept
                } else {
                    nezha::types::Decision::Drop
                },
                stateful,
            }
        })
}

fn build_vnic(rules: &[AclRule], stateful_decap: bool) -> Vnic {
    let profile = VnicProfile {
        acl_rules: 0,
        stateful_decap,
        ..VnicProfile::default()
    };
    let mut vnic = Vnic::new(
        VnicId(1),
        VpcId(1),
        Ipv4Addr::new(10, 7, 0, 1),
        profile,
        ServerId(0),
    );
    for r in rules {
        vnic.tables_mut().acl.insert(*r);
    }
    vnic
}

fn make_packet(tuple: FiveTuple, s: &Step, trace: u64) -> Packet {
    let t = match s.dir {
        Direction::Tx => tuple.reversed(),
        Direction::Rx => tuple,
    };
    let mut pkt = match s.dir {
        Direction::Tx => Packet::tx_data(
            trace,
            VpcId(1),
            VnicId(1),
            t,
            TcpFlags(s.flags),
            s.payload as u32,
        ),
        Direction::Rx => Packet::rx_data(
            trace,
            VpcId(1),
            VnicId(1),
            t,
            TcpFlags(s.flags),
            s.payload as u32,
        ),
    };
    if s.dir == Direction::Rx {
        pkt.overlay_encap_src = s.encap_src.map(Ipv4Addr);
    }
    pkt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn split_architecture_decides_identically(
        rules in prop::collection::vec(rule_strategy(), 0..12),
        stateful_decap in prop::bool::ANY,
        client_octet in 1u8..250,
        client_port in 1024u16..60000,
        svc_port in 1u16..9000,
        steps in prop::collection::vec(step_strategy(), 1..12),
    ) {
        let vnic = build_vnic(&rules, stateful_decap);
        // Session tuple, oriented client -> VM.
        let tuple = FiveTuple::tcp(
            Ipv4Addr::new(10, 7, 1, client_octet),
            client_port,
            Ipv4Addr::new(10, 7, 0, 1),
            svc_port,
        );

        // ------- monolithic reference -------
        let mut mono_state = SessionState::default();
        let mut mono_pair = None;
        let mut mono_actions = Vec::new();
        for (i, s) in steps.iter().enumerate() {
            let pkt = make_packet(tuple, s, i as u64);
            let pair = *mono_pair
                .get_or_insert_with(|| pair_lookup(&vnic, &pkt.tuple, pkt.dir));
            let action = mono_state.process_pkt(pair.for_direction(pkt.dir), &pkt);
            mono_actions.push(action);
        }

        // ------- split architecture -------
        // FE: rules + cached flow (stateless). BE: state only.
        let mut be_state = SessionState::default();
        let mut fe_cached = None;
        let mut split_actions = Vec::new();
        for (i, s) in steps.iter().enumerate() {
            let pkt = make_packet(tuple, s, i as u64);
            match pkt.dir {
                Direction::Tx => {
                    // BE half: packet-derived state transitions, then the
                    // state snapshot travels in the NSH header — the
                    // datapath's own carry, both ways.
                    be_state.update(None, &pkt);
                    let mut nsh = NezhaHeader::bare(NezhaPayloadKind::TxCarry, pkt.vnic, pkt.vpc);
                    nsh.carry_state(&be_state);
                    // FE half: look up (or hit the cached) pre-actions and
                    // finalize with the carried state.
                    let pair = *fe_cached
                        .get_or_insert_with(|| pair_lookup(&vnic, &pkt.tuple, pkt.dir));
                    split_actions.push(nsh.carried_state().finalize(&pair.tx, &pkt));
                }
                Direction::Rx => {
                    // FE half: pre-actions piggybacked (plus the overlay
                    // encap source the FE would otherwise destroy).
                    let pair = *fe_cached
                        .get_or_insert_with(|| pair_lookup(&vnic, &pkt.tuple, pkt.dir));
                    // BE half: the packet arrives with its decap info
                    // restored from the header; full transition + final.
                    split_actions.push(be_state.process_pkt(&pair.rx, &pkt));
                }
            }
        }

        // Decisions must match packet for packet.
        for (i, (m, s)) in mono_actions.iter().zip(&split_actions).enumerate() {
            prop_assert_eq!(m.verdict, s.verdict, "verdict diverged at step {}", i);
            prop_assert_eq!(m.next_hop, s.next_hop, "next hop diverged at step {}", i);
            prop_assert_eq!(m.nat_rewrite, s.nat_rewrite, "NAT diverged at step {}", i);
            prop_assert_eq!(
                m.encap_override, s.encap_override,
                "encap override diverged at step {}", i
            );
            prop_assert_eq!(m.qos_class, s.qos_class, "qos diverged at step {}", i);
        }
        // Final state must match (statistics excluded: notify lag, §3.2.2).
        prop_assert_eq!(mono_state.first_dir, be_state.first_dir);
        prop_assert_eq!(mono_state.tcp, be_state.tcp);
        prop_assert_eq!(mono_state.decap, be_state.decap);
    }
}
