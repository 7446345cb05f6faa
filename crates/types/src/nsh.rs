//! The **Nezha Service Header** — the outer header that carries processing
//! inputs between a vNIC backend (BE) and its frontends (FEs).
//!
//! Because Nezha stores rules/flows (FE) and state (BE) in different
//! places, "Nezha uses packets to carry the information from one end to
//! the other, bringing the inputs together for processing" (paper §3.2.1).
//! The paper piggybacks on an NSH-like encapsulation [RFC 8300]; we define
//! a concrete binary layout with the same roles:
//!
//! * **TX carry** (BE → FE): the session state the FE needs — first-packet
//!   direction and, under stateful decap, the recorded overlay address the
//!   FE must encapsulate toward (§5.2).
//! * **RX carry** (FE → BE): the queried pre-actions for both directions,
//!   plus information the BE needs to initialize/update state that would
//!   otherwise be lost after FE processing (e.g. the original overlay
//!   source for stateful decap), plus any rule-table-involved state such
//!   as the statistics policy (§3.2.2 — "we encapsulate the state into the
//!   outer header of the packet instead of using a separate notify packet").
//! * **Notify** (FE → BE, standalone): rule-table-involved state updates on
//!   the TX path, generated only when a cached-flow miss produced state
//!   that differs from what the packet carried (§3.2.2).
//! * **Health probe / reply**: the centralized monitor's ping polling and
//!   the BE↔FE mutual ping (§4.4, Appendix C).
//!
//! Wire layout (network byte order):
//!
//! ```text
//!  0      2      3      4        8        12      13
//!  | magic | ver  | kind | vnic   | vpc     | flags | ... optional fields |
//! ```
//!
//! Optional fields appear in a fixed order when their flag bit is set:
//! first-dir (in flags), decap address (4 B), stats policy (1 B),
//! pre-action pair (2 × 12 B).

use crate::action::{Decision, PreAction, PreActionPair};
use crate::addr::{Ipv4Addr, ServerId, VnicId, VpcId};
use crate::error::{CodecError, CodecResult};
use crate::flow::Direction;
use crate::state::{SessionState, StatefulDecapState};

/// Magic bytes "NZ" identifying a Nezha service header.
pub const NEZHA_MAGIC: u16 = 0x4e5a;
/// Current header version.
pub const NEZHA_VERSION: u8 = 1;

/// What role this Nezha-encapsulated packet plays.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum NezhaPayloadKind {
    /// Egress data packet BE→FE, carrying local state outward.
    TxCarry = 0,
    /// Ingress data packet FE→BE, carrying pre-actions inward.
    RxCarry = 1,
    /// Standalone notify packet FE→BE for rule-table-involved state.
    Notify = 2,
    /// Health-check probe (monitor→vSwitch or BE↔FE mutual ping).
    HealthProbe = 3,
    /// Health-check reply.
    HealthReply = 4,
}

impl NezhaPayloadKind {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(NezhaPayloadKind::TxCarry),
            1 => Some(NezhaPayloadKind::RxCarry),
            2 => Some(NezhaPayloadKind::Notify),
            3 => Some(NezhaPayloadKind::HealthProbe),
            4 => Some(NezhaPayloadKind::HealthReply),
            _ => None,
        }
    }
}

// Flag bits.
const F_HAS_FIRST_DIR: u8 = 0x01;
const F_FIRST_DIR_TX: u8 = 0x02;
const F_HAS_DECAP: u8 = 0x04;
const F_HAS_STATS_POLICY: u8 = 0x08;
const F_HAS_PRE_ACTIONS: u8 = 0x10;

/// The decoded Nezha service header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NezhaHeader {
    /// Packet role.
    pub kind: NezhaPayloadKind,
    /// vNIC this packet belongs to (selects rule tables at the FE and the
    /// state partition at the BE).
    pub vnic: VnicId,
    /// Tenant VPC.
    pub vpc: VpcId,
    /// Carried first-packet direction: the BE's recorded state, on TX
    /// carry only (the FE's stateful-ACL input).
    pub first_dir: Option<Direction>,
    /// Carried stateful-decap address. On TX carry: the state's recorded
    /// LB address the FE must encapsulate toward. On RX carry: the original
    /// overlay source the BE must record, which FE processing would
    /// otherwise destroy (§3.2.2 "rule table not involved").
    pub decap_addr: Option<Ipv4Addr>,
    /// Carried statistics policy — rule-table-involved state (§3.2.2).
    pub stats_policy: Option<u8>,
    /// Carried pre-actions (RX carry only).
    pub pre_actions: Option<PreActionPair>,
}

impl NezhaHeader {
    /// Fixed portion size in bytes.
    pub const FIXED_LEN: usize = 13;
    /// Encoded size of one [`PreAction`].
    pub const PRE_ACTION_LEN: usize = 16;
    /// Largest possible encoding (every optional field present) — the
    /// right size for a stack scratch buffer with [`encode_into`].
    ///
    /// [`encode_into`]: NezhaHeader::encode_into
    pub const MAX_WIRE_LEN: usize = Self::FIXED_LEN + 4 + 1 + 2 * Self::PRE_ACTION_LEN;

    /// A bare header of the given kind with no optional fields.
    pub const fn bare(kind: NezhaPayloadKind, vnic: VnicId, vpc: VpcId) -> Self {
        NezhaHeader {
            kind,
            vnic,
            vpc,
            first_dir: None,
            decap_addr: None,
            stats_policy: None,
            pre_actions: None,
        }
    }

    /// Encoded size of this header with its optional fields.
    pub fn wire_len(&self) -> usize {
        let mut n = Self::FIXED_LEN;
        if self.decap_addr.is_some() {
            n += 4;
        }
        if self.stats_policy.is_some() {
            n += 1;
        }
        if self.pre_actions.is_some() {
            n += 2 * Self::PRE_ACTION_LEN;
        }
        n
    }

    /// Writes the TX carry (BE → FE, §3.2.2): the session state the FE
    /// needs to finalize — first-packet direction, the stateful-decap
    /// address, and the statistics policy when one is in force.
    pub fn carry_state(&mut self, state: &SessionState) {
        self.first_dir = state.first_dir;
        self.decap_addr = state.decap.map(|d| d.overlay_src);
        self.stats_policy = (state.stats_policy != 0).then_some(state.stats_policy);
    }

    /// Reads the TX carry back at the FE: the state [`carry_state`] wrote,
    /// every other field at its default.
    ///
    /// [`carry_state`]: NezhaHeader::carry_state
    pub fn carried_state(&self) -> SessionState {
        SessionState {
            first_dir: self.first_dir,
            decap: self
                .decap_addr
                .map(|overlay_src| StatefulDecapState { overlay_src }),
            stats_policy: self.stats_policy.unwrap_or(0),
            ..SessionState::default()
        }
    }

    /// Serializes the header into a caller-provided slice without any
    /// allocation, returning the bytes written.
    ///
    /// `buf` must hold at least [`wire_len`](NezhaHeader::wire_len) bytes;
    /// a `[u8; NezhaHeader::MAX_WIRE_LEN]` on the stack always fits.
    pub fn encode_into(&self, buf: &mut [u8]) -> usize {
        buf[0..2].copy_from_slice(&NEZHA_MAGIC.to_be_bytes());
        buf[2] = NEZHA_VERSION;
        buf[3] = self.kind as u8;
        buf[4..8].copy_from_slice(&self.vnic.0.to_be_bytes());
        buf[8..12].copy_from_slice(&self.vpc.0.to_be_bytes());
        let mut flags = 0u8;
        if let Some(d) = self.first_dir {
            flags |= F_HAS_FIRST_DIR;
            if d == Direction::Tx {
                flags |= F_FIRST_DIR_TX;
            }
        }
        if self.decap_addr.is_some() {
            flags |= F_HAS_DECAP;
        }
        if self.stats_policy.is_some() {
            flags |= F_HAS_STATS_POLICY;
        }
        if self.pre_actions.is_some() {
            flags |= F_HAS_PRE_ACTIONS;
        }
        buf[12] = flags;
        let mut off = Self::FIXED_LEN;
        if let Some(a) = self.decap_addr {
            buf[off..off + 4].copy_from_slice(&a.octets());
            off += 4;
        }
        if let Some(p) = self.stats_policy {
            buf[off] = p;
            off += 1;
        }
        if let Some(pp) = &self.pre_actions {
            off += encode_pre_action(&pp.tx, &mut buf[off..]);
            off += encode_pre_action(&pp.rx, &mut buf[off..]);
        }
        off
    }

    /// Parses and validates a header, returning it and the bytes consumed.
    pub fn decode(data: &[u8]) -> CodecResult<(Self, usize)> {
        let view = NshView::parse(data)?;
        let consumed = view.wire_len();
        // Owned-copy convenience variant; the zero-copy path is `NshView::parse`
        // (held at zero allocations by tests/alloc_budget.rs).
        Ok((view.to_owned(), consumed))
    }
}

/// A zero-copy, borrowed view of an encoded Nezha service header.
///
/// [`parse`](NshView::parse) validates the frame **once** — magic,
/// version, kind, and that every flagged optional field is in bounds —
/// and stores only the borrowed bytes plus field offsets. Accessors then
/// read straight out of the wire bytes with no further checks and no
/// owned [`NezhaHeader`] materialized; callers that need just the
/// demux fields (kind / vNIC / VPC) never pay for decoding pre-actions.
#[derive(Clone, Copy, Debug)]
pub struct NshView<'a> {
    data: &'a [u8],
    kind: NezhaPayloadKind,
    flags: u8,
    /// Offset of the decap address (meaningful only when flagged).
    decap_off: usize,
    /// Offset of the stats policy (meaningful only when flagged).
    stats_off: usize,
    /// Offset of the pre-action pair (meaningful only when flagged).
    pre_off: usize,
    len: usize,
}

impl<'a> NshView<'a> {
    /// Validates `data` as a Nezha header and returns a borrowed view.
    pub fn parse(data: &'a [u8]) -> CodecResult<NshView<'a>> {
        if data.len() < NezhaHeader::FIXED_LEN {
            return Err(CodecError::Truncated {
                what: "nezha",
                need: NezhaHeader::FIXED_LEN,
                have: data.len(),
            });
        }
        let magic = u16::from_be_bytes([data[0], data[1]]);
        if magic != NEZHA_MAGIC {
            return Err(CodecError::BadField {
                what: "nezha",
                field: "magic",
                value: magic as u64,
            });
        }
        if data[2] != NEZHA_VERSION {
            return Err(CodecError::BadField {
                what: "nezha",
                field: "version",
                value: data[2] as u64,
            });
        }
        let Some(kind) = NezhaPayloadKind::from_u8(data[3]) else {
            return Err(CodecError::BadField {
                what: "nezha",
                field: "kind",
                value: data[3] as u64,
            });
        };
        let flags = data[12];
        let mut off = NezhaHeader::FIXED_LEN;
        let decap_off = off;
        if flags & F_HAS_DECAP != 0 {
            off += 4;
        }
        let stats_off = off;
        if flags & F_HAS_STATS_POLICY != 0 {
            off += 1;
        }
        let pre_off = off;
        if flags & F_HAS_PRE_ACTIONS != 0 {
            off += 2 * NezhaHeader::PRE_ACTION_LEN;
        }
        if data.len() < off {
            return Err(CodecError::Truncated {
                what: "nezha",
                need: off,
                have: data.len(),
            });
        }
        Ok(NshView {
            data,
            kind,
            flags,
            decap_off,
            stats_off,
            pre_off,
            len: off,
        })
    }

    /// Bytes this header occupies on the wire.
    #[inline]
    pub fn wire_len(&self) -> usize {
        self.len
    }

    /// Packet role.
    #[inline]
    pub fn kind(&self) -> NezhaPayloadKind {
        self.kind
    }

    /// vNIC id.
    #[inline]
    pub fn vnic(&self) -> VnicId {
        let d = self.data;
        VnicId(u32::from_be_bytes([d[4], d[5], d[6], d[7]]))
    }

    /// Tenant VPC.
    #[inline]
    pub fn vpc(&self) -> VpcId {
        let d = self.data;
        VpcId(u32::from_be_bytes([d[8], d[9], d[10], d[11]]))
    }

    /// Carried first-packet direction, when present.
    #[inline]
    pub fn first_dir(&self) -> Option<Direction> {
        if self.flags & F_HAS_FIRST_DIR != 0 {
            Some(if self.flags & F_FIRST_DIR_TX != 0 {
                Direction::Tx
            } else {
                Direction::Rx
            })
        } else {
            None
        }
    }

    /// Carried stateful-decap address, when present.
    #[inline]
    pub fn decap_addr(&self) -> Option<Ipv4Addr> {
        if self.flags & F_HAS_DECAP != 0 {
            let d = &self.data[self.decap_off..];
            Some(Ipv4Addr::from_octets([d[0], d[1], d[2], d[3]]))
        } else {
            None
        }
    }

    /// Carried statistics policy, when present.
    #[inline]
    pub fn stats_policy(&self) -> Option<u8> {
        if self.flags & F_HAS_STATS_POLICY != 0 {
            Some(self.data[self.stats_off])
        } else {
            None
        }
    }

    /// Decodes the carried pre-action pair, when present. This is the one
    /// accessor that does per-field work; it runs only when asked.
    pub fn pre_actions(&self) -> Option<PreActionPair> {
        if self.flags & F_HAS_PRE_ACTIONS != 0 {
            let off = self.pre_off;
            let tx = decode_pre_action(&self.data[off..off + NezhaHeader::PRE_ACTION_LEN]);
            let rx = decode_pre_action(
                &self.data
                    [off + NezhaHeader::PRE_ACTION_LEN..off + 2 * NezhaHeader::PRE_ACTION_LEN],
            );
            Some(PreActionPair { tx, rx })
        } else {
            None
        }
    }

    /// Materializes an owned [`NezhaHeader`] from the view.
    pub fn to_owned(&self) -> NezhaHeader {
        NezhaHeader {
            kind: self.kind(),
            vnic: self.vnic(),
            vpc: self.vpc(),
            first_dir: self.first_dir(),
            decap_addr: self.decap_addr(),
            stats_policy: self.stats_policy(),
            pre_actions: self.pre_actions(),
        }
    }
}

// Per-pre-action flag bits.
const PA_ACCEPT: u8 = 0x01;
const PA_STATEFUL_ACL: u8 = 0x02;
const PA_HAS_NEXT_HOP: u8 = 0x04;
const PA_HAS_NAT: u8 = 0x08;
const PA_STATEFUL_DECAP: u8 = 0x10;
const PA_HAS_MIRROR: u8 = 0x20;

/// Writes one pre-action's 16 bytes; returns bytes written.
fn encode_pre_action(p: &PreAction, buf: &mut [u8]) -> usize {
    let mut flags = 0u8;
    if p.verdict.is_accept() {
        flags |= PA_ACCEPT;
    }
    if p.stateful_acl {
        flags |= PA_STATEFUL_ACL;
    }
    if p.next_hop.is_some() {
        flags |= PA_HAS_NEXT_HOP;
    }
    if p.nat_rewrite.is_some() {
        flags |= PA_HAS_NAT;
    }
    if p.stateful_decap {
        flags |= PA_STATEFUL_DECAP;
    }
    if p.mirror_to.is_some() {
        flags |= PA_HAS_MIRROR;
    }
    buf[0] = flags;
    buf[1..5].copy_from_slice(&p.next_hop.map_or(0, |s| s.0).to_be_bytes());
    buf[5..9].copy_from_slice(&p.nat_rewrite.map_or(0, |a| a.0).to_be_bytes());
    buf[9] = p.qos_class;
    buf[10] = p.stats_policy;
    buf[11..15].copy_from_slice(&p.mirror_to.map_or(0, |a| a.0).to_be_bytes());
    buf[15] = 0; // pad to 16
    NezhaHeader::PRE_ACTION_LEN
}

fn decode_pre_action(data: &[u8]) -> PreAction {
    debug_assert!(data.len() >= NezhaHeader::PRE_ACTION_LEN);
    let flags = data[0];
    let next_hop_raw = u32::from_be_bytes([data[1], data[2], data[3], data[4]]);
    let nat_raw = u32::from_be_bytes([data[5], data[6], data[7], data[8]]);
    let mirror_raw = u32::from_be_bytes([data[11], data[12], data[13], data[14]]);
    PreAction {
        verdict: if flags & PA_ACCEPT != 0 {
            Decision::Accept
        } else {
            Decision::Drop
        },
        stateful_acl: flags & PA_STATEFUL_ACL != 0,
        next_hop: (flags & PA_HAS_NEXT_HOP != 0).then_some(ServerId(next_hop_raw)),
        nat_rewrite: (flags & PA_HAS_NAT != 0).then_some(Ipv4Addr(nat_raw)),
        stateful_decap: flags & PA_STATEFUL_DECAP != 0,
        qos_class: data[9],
        stats_policy: data[10],
        mirror_to: (flags & PA_HAS_MIRROR != 0).then_some(Ipv4Addr(mirror_raw)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp_fsm::TcpState;
    use proptest::prelude::*;

    /// The header's bytes, through the one encoder.
    fn encode(h: &NezhaHeader) -> Vec<u8> {
        let mut buf = [0u8; NezhaHeader::MAX_WIRE_LEN];
        let n = h.encode_into(&mut buf);
        buf[..n].to_vec()
    }

    fn full_header() -> NezhaHeader {
        NezhaHeader {
            kind: NezhaPayloadKind::RxCarry,
            vnic: VnicId(42),
            vpc: VpcId(7),
            first_dir: Some(Direction::Tx),
            decap_addr: Some(Ipv4Addr::new(100, 64, 3, 4)),
            stats_policy: Some(5),
            pre_actions: Some(PreActionPair {
                tx: PreAction {
                    verdict: Decision::Accept,
                    stateful_acl: true,
                    next_hop: Some(ServerId(12)),
                    nat_rewrite: Some(Ipv4Addr::new(100, 64, 0, 9)),
                    stateful_decap: true,
                    qos_class: 2,
                    stats_policy: 5,
                    mirror_to: Some(Ipv4Addr::new(172, 16, 9, 9)),
                },
                rx: PreAction::drop(),
            }),
        }
    }

    #[test]
    fn full_round_trip() {
        let h = full_header();
        let buf = encode(&h);
        assert_eq!(buf.len(), h.wire_len());
        let (d, n) = NezhaHeader::decode(&buf).unwrap();
        assert_eq!(d, h);
        assert_eq!(n, h.wire_len());
    }

    #[test]
    fn bare_round_trip_every_kind() {
        for kind in [
            NezhaPayloadKind::TxCarry,
            NezhaPayloadKind::RxCarry,
            NezhaPayloadKind::Notify,
            NezhaPayloadKind::HealthProbe,
            NezhaPayloadKind::HealthReply,
        ] {
            let h = NezhaHeader::bare(kind, VnicId(1), VpcId(2));
            let buf = encode(&h);
            assert_eq!(buf.len(), NezhaHeader::FIXED_LEN);
            let (d, _) = NezhaHeader::decode(&buf).unwrap();
            assert_eq!(d, h);
        }
    }

    #[test]
    fn first_dir_both_values_round_trip() {
        for dir in [Direction::Tx, Direction::Rx] {
            let mut h = NezhaHeader::bare(NezhaPayloadKind::TxCarry, VnicId(1), VpcId(1));
            h.first_dir = Some(dir);
            let buf = encode(&h);
            let (d, _) = NezhaHeader::decode(&buf).unwrap();
            assert_eq!(d.first_dir, Some(dir));
        }
    }

    #[test]
    fn rejects_bad_magic_version_kind() {
        let h = NezhaHeader::bare(NezhaPayloadKind::Notify, VnicId(1), VpcId(1));
        let mut raw = encode(&h);

        raw[0] = 0;
        assert!(matches!(
            NezhaHeader::decode(&raw),
            Err(CodecError::BadField { field: "magic", .. })
        ));
        raw[0] = (NEZHA_MAGIC >> 8) as u8;

        raw[2] = 99;
        assert!(matches!(
            NezhaHeader::decode(&raw),
            Err(CodecError::BadField {
                field: "version",
                ..
            })
        ));
        raw[2] = NEZHA_VERSION;

        raw[3] = 200;
        assert!(matches!(
            NezhaHeader::decode(&raw),
            Err(CodecError::BadField { field: "kind", .. })
        ));
    }

    #[test]
    fn truncated_optional_fields_rejected() {
        let h = full_header();
        let buf = encode(&h);
        // Cut in the middle of the pre-action block.
        let cut = &buf[..NezhaHeader::FIXED_LEN + 4 + 1 + 3];
        assert!(matches!(
            NezhaHeader::decode(cut),
            Err(CodecError::Truncated { what: "nezha", .. })
        ));
    }

    #[test]
    fn view_accessors_match_owned_decode() {
        let h = full_header();
        let mut arr = [0u8; NezhaHeader::MAX_WIRE_LEN];
        let n = h.encode_into(&mut arr);
        let v = NshView::parse(&arr[..n]).unwrap();
        assert_eq!(v.wire_len(), n);
        assert_eq!(v.kind(), h.kind);
        assert_eq!(v.vnic(), h.vnic);
        assert_eq!(v.vpc(), h.vpc);
        assert_eq!(v.first_dir(), h.first_dir);
        assert_eq!(v.decap_addr(), h.decap_addr);
        assert_eq!(v.stats_policy(), h.stats_policy);
        assert_eq!(v.pre_actions(), h.pre_actions);
        assert_eq!(v.to_owned(), h);
    }

    #[test]
    fn view_rejects_truncated_flagged_fields() {
        let h = full_header();
        let mut arr = [0u8; NezhaHeader::MAX_WIRE_LEN];
        let n = h.encode_into(&mut arr);
        // Every length short of the full frame must fail closed, never
        // expose out-of-bounds accessors.
        for cut in NezhaHeader::FIXED_LEN..n {
            assert!(
                NshView::parse(&arr[..cut]).is_err(),
                "cut at {cut} must be rejected"
            );
        }
        assert!(NshView::parse(&arr[..n]).is_ok());
    }

    #[test]
    fn wire_len_matches_flag_combinations() {
        let mut h = NezhaHeader::bare(NezhaPayloadKind::TxCarry, VnicId(0), VpcId(0));
        assert_eq!(h.wire_len(), 13);
        h.first_dir = Some(Direction::Rx); // in flags, no extra bytes
        assert_eq!(h.wire_len(), 13);
        h.decap_addr = Some(Ipv4Addr(1));
        assert_eq!(h.wire_len(), 17);
        h.stats_policy = Some(1);
        assert_eq!(h.wire_len(), 18);
        h.pre_actions = Some(PreActionPair::accept(None, None));
        assert_eq!(h.wire_len(), 18 + 32);
    }

    #[test]
    fn a_first_packet_carry_is_its_direction_alone() {
        // What the BE ships when it could not store the session.
        let mut h = NezhaHeader::bare(NezhaPayloadKind::TxCarry, VnicId(1), VpcId(1));
        h.carry_state(&SessionState::first_packet(Direction::Tx));
        let mut want = NezhaHeader::bare(NezhaPayloadKind::TxCarry, VnicId(1), VpcId(1));
        want.first_dir = Some(Direction::Tx);
        assert_eq!(h, want);
    }

    fn arb_state() -> impl Strategy<Value = SessionState> {
        let tcp = prop::sample::select(vec![
            TcpState::None,
            TcpState::SynSent,
            TcpState::SynReceived,
            TcpState::Established,
            TcpState::FinWait,
            TcpState::Closing,
            TcpState::Closed,
        ]);
        (
            prop::option::of(prop::bool::ANY),
            tcp,
            prop::option::of(any::<u32>()),
            any::<u8>(),
        )
            .prop_map(|(tx, tcp, decap, policy)| SessionState {
                first_dir: tx.map(|tx| if tx { Direction::Tx } else { Direction::Rx }),
                tcp,
                decap: decap.map(|a| StatefulDecapState {
                    overlay_src: Ipv4Addr(a),
                }),
                stats_policy: policy,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The TX carry survives the wire: whatever state the BE carries,
        /// the FE reads back exactly its first direction, decap address
        /// and statistics policy, within the header budget.
        #[test]
        fn tx_carry_round_trips_through_the_wire(s in arb_state()) {
            let mut h = NezhaHeader::bare(NezhaPayloadKind::TxCarry, VnicId(3), VpcId(4));
            h.carry_state(&s);
            let mut buf = [0u8; NezhaHeader::MAX_WIRE_LEN];
            let n = h.encode_into(&mut buf);
            prop_assert!(n <= NezhaHeader::MAX_WIRE_LEN);
            let parsed = NshView::parse(&buf[..n]).unwrap().to_owned();
            let want = SessionState {
                first_dir: s.first_dir,
                decap: s.decap,
                stats_policy: s.stats_policy,
                ..SessionState::default()
            };
            prop_assert_eq!(parsed.carried_state(), want);
        }
    }
}
