//! Connection scripts: the unit of CPS workload.
//!
//! A connection is a fixed script of packets (the netperf TCP_CRR shape
//! the paper's testbed uses, §6.2.1: handshake, request, response,
//! teardown). The cluster drives one step at a time — a step's packet is
//! injected only after the previous step's packet was delivered — so
//! end-to-end behaviour (vSwitch queueing, FE detours, VM kernel
//! saturation, losses and retries) shapes the achieved CPS exactly as it
//! does on a real testbed.

use nezha_sim::dense::Interner;
use nezha_sim::time::SimTime;
use nezha_types::{Direction, FiveTuple, IpProtocol, Ipv4Addr, ServerId, TcpFlags, VnicId, VpcId};

/// Who initiates the connection, relative to the vNIC's VM.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ConnKind {
    /// A remote client connects to the VM (the high-CPS middlebox /
    /// server pattern that overloads SmartNICs, §2.2.1).
    Inbound,
    /// The VM initiates toward a remote peer (exercises the §5.1 stateful
    /// ACL TX workflow).
    Outbound,
    /// An inbound connection that stays open after the response — the
    /// persistent-connection pattern of L4 load balancers that bloats
    /// session tables (§2.2.2). The entry lives until idle aging.
    PersistentInbound,
    /// A bare inbound SYN that never completes the handshake: the SYN
    /// flood of §7.3, pinning embryonic state until the short SYN aging
    /// reclaims it.
    SynOnly,
}

/// One step of a connection script.
#[derive(Clone, Copy, Debug)]
pub struct StepDef {
    /// Packet direction relative to the vNIC's VM.
    pub dir: Direction,
    /// TCP flags of the step's packet.
    pub flags: TcpFlags,
    /// Whether the step carries the request/response payload.
    pub has_payload: bool,
}

const fn step(dir: Direction, flags: TcpFlags, has_payload: bool) -> StepDef {
    StepDef {
        dir,
        flags,
        has_payload,
    }
}

/// TCP_CRR script for an inbound connection (client → VM), from the
/// vNIC's perspective: SYN in, SYN+ACK out, ACK+request in, response
/// out, FIN in, FIN out, final ACK in.
pub const INBOUND_SCRIPT: [StepDef; 7] = [
    step(Direction::Rx, TcpFlags(0x02), false), // SYN
    step(Direction::Tx, TcpFlags(0x12), false), // SYN|ACK
    step(Direction::Rx, TcpFlags(0x18), true),  // PSH|ACK request
    step(Direction::Tx, TcpFlags(0x18), true),  // PSH|ACK response
    step(Direction::Rx, TcpFlags(0x11), false), // FIN|ACK
    step(Direction::Tx, TcpFlags(0x11), false), // FIN|ACK
    step(Direction::Rx, TcpFlags(0x10), false), // ACK
];

/// TCP_CRR script for an outbound connection (VM → peer): the mirror
/// image of [`INBOUND_SCRIPT`].
pub const OUTBOUND_SCRIPT: [StepDef; 7] = [
    step(Direction::Tx, TcpFlags(0x02), false),
    step(Direction::Rx, TcpFlags(0x12), false),
    step(Direction::Tx, TcpFlags(0x18), true),
    step(Direction::Rx, TcpFlags(0x18), true),
    step(Direction::Tx, TcpFlags(0x11), false),
    step(Direction::Rx, TcpFlags(0x11), false),
    step(Direction::Tx, TcpFlags(0x10), false),
];

/// Persistent-inbound script: handshake + one exchange, no teardown.
pub const PERSISTENT_INBOUND_SCRIPT: [StepDef; 4] = [
    step(Direction::Rx, TcpFlags(0x02), false),
    step(Direction::Tx, TcpFlags(0x12), false),
    step(Direction::Rx, TcpFlags(0x18), true),
    step(Direction::Tx, TcpFlags(0x18), true),
];

/// SYN-flood script: one unanswered SYN.
pub const SYN_ONLY_SCRIPT: [StepDef; 1] = [step(Direction::Rx, TcpFlags(0x02), false)];

impl ConnKind {
    /// The script for this kind.
    pub fn script(self) -> &'static [StepDef] {
        match self {
            ConnKind::Inbound => &INBOUND_SCRIPT,
            ConnKind::Outbound => &OUTBOUND_SCRIPT,
            ConnKind::PersistentInbound => &PERSISTENT_INBOUND_SCRIPT,
            ConnKind::SynOnly => &SYN_ONLY_SCRIPT,
        }
    }
}

/// A connection to be driven through the cluster.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ConnSpec {
    /// The vNIC under test.
    pub vnic: VnicId,
    /// Its VPC.
    pub vpc: VpcId,
    /// The connection 5-tuple, oriented **initiator → responder**.
    pub tuple: FiveTuple,
    /// The server hosting the remote peer endpoint.
    pub peer_server: ServerId,
    /// Who initiates.
    pub kind: ConnKind,
    /// When the first packet is injected.
    pub start: SimTime,
    /// Payload bytes of the request/response steps.
    pub payload: u32,
    /// Overlay encapsulation source stamped on RX packets (exercises
    /// stateful decap, §5.2; `None` for ordinary traffic).
    pub overlay_encap_src: Option<nezha_types::Ipv4Addr>,
}

impl ConnSpec {
    /// The 5-tuple of a given step's packet, oriented as transmitted.
    ///
    /// For `Inbound`, `tuple` is client→VM, so RX steps use it directly
    /// and TX steps use the reverse; `Outbound` mirrors that.
    pub fn step_tuple(&self, dir: Direction) -> FiveTuple {
        let initiator_dir = match self.kind {
            ConnKind::Inbound | ConnKind::PersistentInbound | ConnKind::SynOnly => Direction::Rx,
            ConnKind::Outbound => Direction::Tx,
        };
        if dir == initiator_dir {
            self.tuple
        } else {
            self.tuple.reversed()
        }
    }
}

/// The fields of a [`ConnSpec`] that connections share: a run draws
/// them from a handful of distinct values, so [`ConnTable`] interns each
/// distinct combination once and a [`ConnState`] keeps its `u32` id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct ConnClass {
    vnic: VnicId,
    vpc: VpcId,
    peer_server: ServerId,
    kind: ConnKind,
    payload: u32,
    overlay_encap_src: Option<Ipv4Addr>,
}

/// Runtime state of one registered connection: what differs per
/// connection. The connection table keeps the rest of its [`ConnSpec`],
/// the fields connections share, once per distinct value.
#[derive(Clone, Copy, Debug)]
pub struct ConnState {
    // The spec's 5-tuple, flattened so its padding is not paid per record.
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    protocol: IpProtocol,
    /// When the first packet is injected (the spec's `start`).
    pub start: SimTime,
    /// Next step index to inject (0-based). `script.len()` = completed.
    /// Scripts are at most 7 steps; the trace id packs this in 4 bits.
    pub pos: u8,
    /// Retries used on the current step. A connection whose counter is
    /// full has exhausted its retries, whatever `max_retries` says.
    pub retries: u8,
    /// Terminal status.
    pub status: ConnStatus,
    /// For a connection whose start waits behind another in
    /// [`ConnTable`]'s start chain, the engine sequence number reserved
    /// for its `StartConn` minus the previous chained one's; 0 for every
    /// other connection.
    pub(crate) start_seq_delta: u32,
    /// Its [`ConnClass`], interned in the [`ConnTable`].
    class: u32,
}

// Two registered connections per cache line: the table is the largest
// per-connection structure a CPS run keeps.
const _: () = assert!(std::mem::size_of::<ConnState>() <= 32);

/// Terminal status of a connection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConnStatus {
    /// Still being driven.
    InFlight,
    /// All steps delivered.
    Completed,
    /// A packet was denied by policy (expected for unsolicited traffic).
    Denied,
    /// Retries exhausted (overload / crash losses).
    Failed,
}

/// Connections per [`ConnTable`] chunk: 64 B short of 256 KiB of
/// [`ConnState`]s, so a chunk and its allocator header fit 64 pages.
pub(crate) const CHUNK: usize = 8190;

const _: () = assert!(CHUNK * std::mem::size_of::<ConnState>() == 256 * 1024 - 64);

/// The registered connections, by id.
///
/// Ids are handed out sequentially from 1 and never reused. Records live
/// in fixed chunks of [`CHUNK`], and a full chunk is dropped as soon as
/// every connection in it is terminal, so the table's resident size
/// follows the live connections, not every connection ever registered.
/// A terminal connection has no packet and no pending retry left (one
/// step is in flight at a time, and a retry keeps it `InFlight`), so no
/// handler ever needs a freed record: `get` of a freed id is `None`,
/// the same no-op every handler performs for a non-`InFlight`
/// connection.
///
/// The table is also the start queue of connections registered in
/// non-decreasing `start` order: the *start chain*. Each chained
/// connection holds an engine sequence number reserved at registration
/// (as a delta, [`ConnState::start_seq_delta`]), and only the lowest
/// unstarted one has its `StartConn` queued. Its handler files the next
/// one under its reserved `(start, seq)` key, so delivery order is what
/// queueing every start at registration gives.
///
/// A record keeps only what differs per connection; the fields
/// connections share are interned once per distinct [`ConnClass`], which
/// is never freed (a run has a handful).
#[derive(Debug, Default)]
pub(crate) struct ConnTable {
    /// `None` once the chunk is freed.
    chunks: Vec<Option<Vec<ConnState>>>,
    /// The registered connections' distinct classes.
    classes: Interner<ConnClass>,
    /// Per chunk: connections still `InFlight`.
    open: Vec<u16>,
    /// Connections ever registered: the last id handed out.
    len: u64,
    /// The chained connection whose `StartConn` is queued: `(id, seq)`.
    /// `None` once the chain has drained.
    chain_head: Option<(u64, u64)>,
    /// The last chained connection: `(id, start, seq)`.
    chain_tail: (u64, SimTime, u64),
}

/// `(chunk, index)` of connection `id`; `None` for id 0.
fn slot(id: u64) -> Option<(usize, usize)> {
    let i = usize::try_from(id.checked_sub(1)?).ok()?;
    Some((i / CHUNK, i % CHUNK))
}

impl ConnTable {
    /// Registers an `InFlight` connection; returns its id.
    pub(crate) fn push(&mut self, spec: ConnSpec) -> u64 {
        let FiveTuple {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol,
        } = spec.tuple;
        let class = self.classes.intern(ConnClass {
            vnic: spec.vnic,
            vpc: spec.vpc,
            peer_server: spec.peer_server,
            kind: spec.kind,
            payload: spec.payload,
            overlay_encap_src: spec.overlay_encap_src,
        });
        let conn = ConnState {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol,
            start: spec.start,
            pos: 0,
            retries: 0,
            status: ConnStatus::InFlight,
            start_seq_delta: 0,
            class,
        };
        match self.chunks.last_mut() {
            // A freed chunk was full, so only a resident tail has room.
            Some(Some(tail)) if tail.len() < CHUNK => tail.push(conn),
            _ => {
                let mut tail = Vec::with_capacity(CHUNK);
                tail.push(conn);
                self.chunks.push(Some(tail));
                self.open.push(0);
            }
        }
        if let Some(open) = self.open.last_mut() {
            *open += 1;
        }
        self.len += 1;
        self.len
    }

    /// Connection `id`, while its chunk is resident.
    pub(crate) fn get(&self, id: u64) -> Option<&ConnState> {
        let (c, i) = slot(id)?;
        self.chunks.get(c)?.as_ref()?.get(i)
    }

    /// Mutable [`ConnTable::get`]. Leave `status` to
    /// [`ConnTable::finish`], which keeps the chunk counts.
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut ConnState> {
        let (c, i) = slot(id)?;
        self.chunks.get_mut(c)?.as_mut()?.get_mut(i)
    }

    /// The full spec of `conn`, a record of this table.
    pub(crate) fn spec(&self, conn: &ConnState) -> ConnSpec {
        let class = self.classes.resolve(conn.class);
        ConnSpec {
            vnic: class.vnic,
            vpc: class.vpc,
            tuple: FiveTuple {
                src_ip: conn.src_ip,
                dst_ip: conn.dst_ip,
                src_port: conn.src_port,
                dst_port: conn.dst_port,
                protocol: conn.protocol,
            },
            peer_server: class.peer_server,
            kind: class.kind,
            start: conn.start,
            payload: class.payload,
            overlay_encap_src: class.overlay_encap_src,
        }
    }

    /// The one transition out of `InFlight`: sets `status` on connection
    /// `id` and frees its chunk once the chunk is full and nothing in it
    /// is `InFlight`. Returns whether `id` was `InFlight`; for any other
    /// id it does nothing.
    pub(crate) fn finish(&mut self, id: u64, status: ConnStatus) -> bool {
        let Some((c, i)) = slot(id) else {
            return false;
        };
        let Some(Some(chunk)) = self.chunks.get_mut(c) else {
            return false;
        };
        match chunk.get_mut(i) {
            Some(conn) if conn.status == ConnStatus::InFlight => conn.status = status,
            _ => return false,
        }
        self.open[c] -= 1;
        if self.open[c] == 0 && chunk.len() == CHUNK {
            self.chunks[c] = None;
        }
        true
    }

    /// Chains the start of the just-registered connection `id`, due at
    /// `start`, whose `StartConn` holds the reserved engine sequence
    /// number `seq`. Returns whether that event must be queued now: for
    /// a chain head (nothing else is queued), or when `id` cannot wait
    /// behind the tail (an earlier start, or a sequence gap too wide to
    /// record).
    pub(crate) fn chain_start(&mut self, id: u64, start: SimTime, seq: u64) -> bool {
        let (_, tail_start, tail_seq) = self.chain_tail;
        let delta = u32::try_from(seq - tail_seq).ok();
        match (self.chain_head, delta) {
            (None, _) => self.chain_head = Some((id, seq)),
            (Some(_), Some(delta)) if start >= tail_start => {
                if let Some(conn) = self.get_mut(id) {
                    conn.start_seq_delta = delta;
                }
            }
            _ => return true,
        }
        self.chain_tail = (id, start, seq);
        self.chain_head == Some((id, seq))
    }

    /// Connection `id` starts. When it is the chain head, advances the
    /// head and returns the new one's `(id, start, seq)`: the `StartConn`
    /// to queue next.
    pub(crate) fn start_next(&mut self, id: u64) -> Option<(u64, SimTime, u64)> {
        let (head, seq) = self.chain_head.filter(|&(head, _)| head == id)?;
        // Unchained ids in between (their chunks possibly freed) are
        // skipped: each id is scanned at most once per chain.
        let next = (head + 1..=self.chain_tail.0).find_map(|next| {
            let conn = self.get(next).filter(|c| c.start_seq_delta != 0)?;
            Some((next, conn.start, seq + u64::from(conn.start_seq_delta)))
        });
        self.chain_head = next.map(|(next, _, seq)| (next, seq));
        next
    }

    /// The resident records, in id order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ConnState> {
        self.chunks.iter().flatten().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec(kind: ConnKind) -> ConnSpec {
        ConnSpec {
            vnic: VnicId(1),
            vpc: VpcId(1),
            tuple: FiveTuple::tcp(
                Ipv4Addr::new(10, 0, 0, 1),
                5555,
                Ipv4Addr::new(10, 0, 0, 2),
                80,
            ),
            peer_server: ServerId(9),
            kind,
            start: SimTime(0),
            payload: 128,
            overlay_encap_src: None,
        }
    }

    #[test]
    fn scripts_have_matched_shapes() {
        assert_eq!(INBOUND_SCRIPT.len(), OUTBOUND_SCRIPT.len());
        for (a, b) in INBOUND_SCRIPT.iter().zip(OUTBOUND_SCRIPT.iter()) {
            assert_eq!(a.dir, b.dir.flipped());
            assert_eq!(a.flags, b.flags);
            assert_eq!(a.has_payload, b.has_payload);
        }
    }

    #[test]
    fn inbound_script_starts_with_rx_syn() {
        let s = ConnKind::Inbound.script();
        assert_eq!(s[0].dir, Direction::Rx);
        assert!(s[0].flags.contains(TcpFlags::SYN));
        assert!(!s[0].flags.contains(TcpFlags::ACK));
        // Exactly two payload steps (request + response).
        assert_eq!(s.iter().filter(|st| st.has_payload).count(), 2);
    }

    #[test]
    fn step_tuples_orient_correctly() {
        let inb = spec(ConnKind::Inbound);
        // RX steps carry the client→VM tuple.
        assert_eq!(inb.step_tuple(Direction::Rx), inb.tuple);
        assert_eq!(inb.step_tuple(Direction::Tx), inb.tuple.reversed());

        let outb = spec(ConnKind::Outbound);
        assert_eq!(outb.step_tuple(Direction::Tx), outb.tuple);
        assert_eq!(outb.step_tuple(Direction::Rx), outb.tuple.reversed());
    }

    #[test]
    fn persistent_script_skips_teardown() {
        let s = ConnKind::PersistentInbound.script();
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|st| !st.flags.contains(TcpFlags::FIN)));
        assert_eq!(ConnKind::SynOnly.script().len(), 1);
    }

    #[test]
    fn both_orientations_share_a_session() {
        let s = spec(ConnKind::Inbound);
        let a = s.step_tuple(Direction::Rx).canonical();
        let b = s.step_tuple(Direction::Tx).canonical();
        assert_eq!(a, b);
    }

    /// A table holding ids `1..=n`, all `InFlight`.
    fn table(n: usize) -> ConnTable {
        let mut t = ConnTable::default();
        for _ in 0..n {
            t.push(spec(ConnKind::Inbound));
        }
        t
    }

    const CHUNK_IDS: u64 = CHUNK as u64;

    #[test]
    fn ids_stay_sequential_across_retirements() {
        let mut t = ConnTable::default();
        let pinned = CHUNK_IDS + 1;
        for n in 1..=3 * CHUNK_IDS + 5 {
            assert_eq!(t.push(spec(ConnKind::Inbound)), n);
            // Chunks are freed underneath the ids still being handed
            // out, around one that is not.
            if n != pinned {
                assert!(t.finish(n, ConnStatus::Completed));
            }
        }
        assert_eq!(t.len, 3 * CHUNK_IDS + 5);
        assert!(t.get(1).is_none() && t.get(2 * CHUNK_IDS + 1).is_none());
        assert!(t.get(pinned).is_some());
        assert_eq!(t.iter().count(), CHUNK + 5);
    }

    #[test]
    fn retired_ids_read_none_and_live_ids_keep_their_chunk() {
        let mut t = table(2 * CHUNK);
        let straggler = CHUNK_IDS + 7;
        for id in 1..=2 * CHUNK_IDS {
            if id != straggler {
                t.finish(id, ConnStatus::Completed);
            }
        }
        assert!(t.get(1).is_none() && t.get(CHUNK_IDS).is_none());
        let live = t.get(straggler).expect("its chunk is pinned");
        assert_eq!(live.status, ConnStatus::InFlight);
        assert_eq!(
            t.get(CHUNK_IDS + 1).map(|c| c.status),
            Some(ConnStatus::Completed),
            "a pinned chunk keeps its terminal records"
        );
        assert_eq!(t.iter().count(), CHUNK);
        // Out of range and id 0 are absent, never a panic.
        assert!(t.get(0).is_none() && t.get(2 * CHUNK_IDS + 1).is_none());
        assert!(!t.finish(0, ConnStatus::Failed));
        assert!(!t.finish(u64::MAX, ConnStatus::Failed));
    }

    #[test]
    fn only_a_full_chunk_is_freed() {
        let mut t = table(CHUNK + 3);
        for id in 1..=CHUNK_IDS + 3 {
            assert!(t.finish(id, ConnStatus::Completed));
        }
        assert!(t.get(CHUNK_IDS).is_none(), "the full chunk is freed");
        assert_eq!(t.iter().count(), 3, "the partial tail stays");
        // Filling the tail and finishing it frees it too.
        for _ in 3..CHUNK {
            t.push(spec(ConnKind::Inbound));
        }
        for id in CHUNK_IDS + 4..=2 * CHUNK_IDS {
            t.finish(id, ConnStatus::Denied);
        }
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.push(spec(ConnKind::Inbound)), 2 * CHUNK_IDS + 1);
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn a_second_finish_is_a_no_op() {
        let mut t = table(CHUNK);
        assert!(t.finish(1, ConnStatus::Completed));
        assert!(!t.finish(1, ConnStatus::Denied));
        assert_eq!(t.get(1).map(|c| c.status), Some(ConnStatus::Completed));
        // Had the second call counted, the chunk would be freed one
        // connection early, under the still-live last id.
        for id in 2..CHUNK_IDS {
            t.finish(id, ConnStatus::Failed);
        }
        assert!(t.get(CHUNK_IDS).is_some());
        assert!(t.finish(CHUNK_IDS, ConnStatus::Completed));
        assert!(t.get(CHUNK_IDS).is_none());
    }

    const KINDS: [ConnKind; 4] = [
        ConnKind::Inbound,
        ConnKind::Outbound,
        ConnKind::PersistentInbound,
        ConnKind::SynOnly,
    ];

    /// Any spec: the shared fields drawn from a few values, so classes
    /// repeat, and the per-connection ones from their whole range.
    fn any_spec() -> impl Strategy<Value = ConnSpec> {
        use prop::sample::select;
        let protocols = vec![IpProtocol::Tcp, IpProtocol::Udp, IpProtocol::Icmp];
        let own = (
            any::<u32>(),
            any::<u32>(),
            any::<u16>(),
            any::<u16>(),
            select(protocols),
            any::<u64>(),
        );
        let class = (
            0..3u32,
            0..2u32,
            0..4u32,
            select(KINDS.to_vec()),
            select(vec![0, 128, u32::MAX]),
            prop::option::of(0..3u32),
        );
        (own, class).prop_map(
            |((src, dst, src_port, dst_port, protocol, start), class)| ConnSpec {
                vnic: VnicId(class.0),
                vpc: VpcId(class.1),
                tuple: FiveTuple {
                    src_ip: Ipv4Addr(src),
                    dst_ip: Ipv4Addr(dst),
                    src_port,
                    dst_port,
                    protocol,
                },
                peer_server: ServerId(class.2),
                kind: class.3,
                start: SimTime(start),
                payload: class.4,
                overlay_encap_src: class.5.map(Ipv4Addr),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `spec(get(push(s))) == s`: on registration, and after the
        /// chunks around the id are freed. The specs straddle the first
        /// chunk boundary, behind `lead` fillers; then the fillers and
        /// the specs flagged `done` finish, and a second chunk of
        /// fillers is registered and finished. A spec's id reads `None`
        /// only once its chunk is freed, which needs it finished.
        #[test]
        fn conn_specs_round_trip_while_chunks_are_freed(
            lead in 0..40usize,
            specs in prop::collection::vec((any_spec(), any::<bool>()), 1..40),
        ) {
            let mut t = ConnTable::default();
            let fillers: Vec<u64> = (lead..CHUNK).map(|_| t.push(spec(ConnKind::Inbound))).collect();
            let mut ids = Vec::new();
            for &(s, done) in &specs {
                let id = t.push(s);
                prop_assert_eq!(t.get(id).map(|c| t.spec(c)), Some(s));
                ids.push((id, s, done));
            }
            for id in fillers {
                t.finish(id, ConnStatus::Completed);
            }
            for &(id, _, done) in &ids {
                if done {
                    t.finish(id, ConnStatus::Denied);
                }
            }
            let more: Vec<u64> = (0..CHUNK).map(|_| t.push(spec(ConnKind::Outbound))).collect();
            for id in more {
                t.finish(id, ConnStatus::Failed);
            }
            for (id, s, done) in ids {
                match t.get(id) {
                    Some(c) => prop_assert_eq!(t.spec(c), s),
                    None => prop_assert!(done, "live id {} was freed", id),
                }
            }
        }
    }

    /// A table whose every connection has its own class still round-trips
    /// every spec, across chunks.
    #[test]
    fn conn_specs_round_trip_with_every_class_distinct() {
        let mut t = ConnTable::default();
        let specs: Vec<ConnSpec> = (0..2 * CHUNK as u32 + 3)
            .map(|n| ConnSpec {
                vnic: VnicId(n),
                payload: n / 2,
                overlay_encap_src: (n % 3 == 0).then_some(Ipv4Addr(n)),
                start: SimTime(u64::from(n)),
                ..spec(KINDS[n as usize % 4])
            })
            .collect();
        for (id, s) in (1..).zip(&specs) {
            assert_eq!(t.push(*s), id);
        }
        assert_eq!(t.classes.len(), specs.len());
        for (id, s) in (1..).zip(&specs) {
            assert_eq!(t.get(id).map(|c| t.spec(c)), Some(*s));
        }
    }
}
