//! The simulated packet.
//!
//! The simulator moves structured [`Packet`] values instead of raw byte
//! buffers — resource models charge for the bytes a packet *would* occupy
//! on the wire ([`Packet::wire_len`]), while the header codecs in
//! [`crate::headers`] and [`crate::nsh`] are exercised by the full-packet
//! [`Packet::encode_wire`] / [`Packet::decode_wire`] pair used in tests,
//! benches, and anywhere byte-level fidelity matters.

use crate::addr::{Ipv4Addr, ServerId, VnicId, VpcId};
use crate::error::{CodecError, CodecResult};
use crate::five_tuple::{FiveTuple, IpProtocol};
use crate::flow::Direction;
use crate::headers::{
    EthernetHeader, Ipv4Header, TcpFlags, TcpHeader, UdpHeader, VxlanHeader, VXLAN_UDP_PORT,
};
use crate::nsh::{NezhaHeader, NezhaPayloadKind};

/// High-level classification of a simulated packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PacketKind {
    /// A tenant overlay data packet.
    Data,
    /// A Nezha-encapsulated packet (data carry, notify, or health).
    Nezha,
}

/// A packet in flight in the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Packet {
    /// Monotonic trace id assigned by the generator, for loss accounting.
    pub trace: u64,
    /// Classification.
    pub kind: PacketKind,
    /// Owning tenant network.
    pub vpc: VpcId,
    /// The vNIC this packet belongs to (the offloadable unit).
    pub vnic: VnicId,
    /// Overlay 5-tuple as transmitted (directional).
    pub tuple: FiveTuple,
    /// Direction relative to `vnic`'s VM.
    pub dir: Direction,
    /// TCP flags when `tuple.protocol` is TCP.
    pub tcp_flags: TcpFlags,
    /// Application payload length in bytes.
    pub payload_len: u32,
    /// Underlay source server (filled once the packet is on the fabric).
    pub outer_src: Option<ServerId>,
    /// Underlay destination server.
    pub outer_dst: Option<ServerId>,
    /// Overlay encapsulation source carried on RX packets arriving from a
    /// middlebox (e.g. the LB address that stateful decap must record).
    pub overlay_encap_src: Option<Ipv4Addr>,
    /// Nezha service header, present between BE and FE.
    pub nezha: Option<NezhaHeader>,
    /// Raw causal span id of the last profiler span recorded for this
    /// packet (`0` = none). Simulation-only metadata: it lets the
    /// profiler stitch one packet's spans into a single tree across the
    /// BE↔FE hop; it occupies no wire bytes and is not serialized.
    pub prof_span: u64,
}

impl Packet {
    /// Builds a TX (egress) data packet from the local VM.
    pub fn tx_data(
        trace: u64,
        vpc: VpcId,
        vnic: VnicId,
        tuple: FiveTuple,
        tcp_flags: TcpFlags,
        payload_len: u32,
    ) -> Self {
        Packet {
            trace,
            kind: PacketKind::Data,
            vpc,
            vnic,
            tuple,
            dir: Direction::Tx,
            tcp_flags,
            payload_len,
            outer_src: None,
            outer_dst: None,
            overlay_encap_src: None,
            nezha: None,
            prof_span: 0,
        }
    }

    /// Builds an RX (ingress) data packet destined to the local VM.
    pub fn rx_data(
        trace: u64,
        vpc: VpcId,
        vnic: VnicId,
        tuple: FiveTuple,
        tcp_flags: TcpFlags,
        payload_len: u32,
    ) -> Self {
        Packet {
            trace,
            kind: PacketKind::Data,
            vpc,
            vnic,
            tuple,
            dir: Direction::Rx,
            tcp_flags,
            payload_len,
            outer_src: None,
            outer_dst: None,
            overlay_encap_src: None,
            nezha: None,
            prof_span: 0,
        }
    }

    /// True for health probe/reply packets.
    pub fn is_health(&self) -> bool {
        matches!(
            self.nezha.map(|n| n.kind),
            Some(NezhaPayloadKind::HealthProbe) | Some(NezhaPayloadKind::HealthReply)
        )
    }

    /// True for standalone notify packets (no tenant payload).
    pub fn is_notify(&self) -> bool {
        matches!(self.nezha.map(|n| n.kind), Some(NezhaPayloadKind::Notify))
    }

    /// Attaches a Nezha header, marking the packet kind accordingly.
    pub fn with_nezha(mut self, nsh: NezhaHeader) -> Self {
        self.nezha = Some(nsh);
        self.kind = PacketKind::Nezha;
        self
    }

    /// Removes the Nezha header (BE/FE terminating the carry hop).
    pub fn strip_nezha(mut self) -> Self {
        self.nezha = None;
        self.kind = PacketKind::Data;
        self
    }

    /// Bytes this packet occupies on the underlay wire.
    ///
    /// Inner frame: Ethernet + IPv4 + L4 + payload. When on the fabric
    /// (`outer_dst` set) add the VXLAN underlay encapsulation: outer
    /// Ethernet + IPv4 + UDP + VXLAN. A Nezha header adds its own length
    /// on top — this is the "slight increase in bandwidth" the paper
    /// accepts for in-packet transmission.
    pub fn wire_len(&self) -> usize {
        let l4 = match self.tuple.protocol {
            IpProtocol::Tcp => TcpHeader::WIRE_LEN,
            IpProtocol::Udp => UdpHeader::WIRE_LEN,
            IpProtocol::Icmp => 8,
        };
        let mut n =
            EthernetHeader::WIRE_LEN + Ipv4Header::WIRE_LEN + l4 + self.payload_len as usize;
        if self.outer_dst.is_some() {
            n += EthernetHeader::WIRE_LEN
                + Ipv4Header::WIRE_LEN
                + UdpHeader::WIRE_LEN
                + VxlanHeader::WIRE_LEN;
        }
        if let Some(nsh) = &self.nezha {
            n += nsh.wire_len();
        }
        n
    }

    /// Serializes the packet to its full wire representation.
    ///
    /// Layout when on the fabric: `outer Eth | outer IPv4 | UDP(4789) |
    /// VXLAN | [NSH] | inner Eth | inner IPv4 | inner L4 | payload-len
    /// zeros`. Off-fabric (local hop) packets serialize just the inner
    /// frame (with optional NSH prefix — used in unit tests only).
    pub fn encode_wire(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        if let (Some(src), Some(dst)) = (self.outer_src, self.outer_dst) {
            let outer_eth = EthernetHeader::ipv4(
                crate::MacAddr::from_id(src.0),
                crate::MacAddr::from_id(dst.0),
            );
            outer_eth.encode(&mut buf);
            // Synthetic underlay addresses derived from server ids.
            let outer_sip = Ipv4Addr(0x0a00_0000 | src.0);
            let outer_dip = Ipv4Addr(0x0a00_0000 | dst.0);
            let nsh_len = self.nezha.map_or(0, |n| n.wire_len());
            let inner_len = self.inner_wire_len();
            let udp_payload = VxlanHeader::WIRE_LEN + nsh_len + inner_len;
            let outer_ip = Ipv4Header::new(
                outer_sip,
                outer_dip,
                IpProtocol::Udp,
                UdpHeader::WIRE_LEN + udp_payload,
            );
            outer_ip.encode(&mut buf);
            UdpHeader::new(49152, VXLAN_UDP_PORT, udp_payload).encode(&mut buf);
            VxlanHeader { vni: self.vpc.0 }.encode(&mut buf);
        }
        if let Some(nsh) = &self.nezha {
            let mut hdr = [0u8; NezhaHeader::MAX_WIRE_LEN];
            let n = nsh.encode_into(&mut hdr);
            buf.extend_from_slice(&hdr[..n]);
        }
        self.encode_inner(&mut buf);
        buf
    }

    fn inner_wire_len(&self) -> usize {
        let l4 = match self.tuple.protocol {
            IpProtocol::Tcp => TcpHeader::WIRE_LEN,
            IpProtocol::Udp => UdpHeader::WIRE_LEN,
            IpProtocol::Icmp => 8,
        };
        EthernetHeader::WIRE_LEN + Ipv4Header::WIRE_LEN + l4 + self.payload_len as usize
    }

    fn encode_inner(&self, buf: &mut Vec<u8>) {
        let eth = EthernetHeader::ipv4(
            crate::MacAddr::from_id(self.vnic.0),
            crate::MacAddr::from_id(self.vnic.0 ^ 0xffff),
        );
        eth.encode(buf);
        let l4_len = match self.tuple.protocol {
            IpProtocol::Tcp => TcpHeader::WIRE_LEN,
            IpProtocol::Udp => UdpHeader::WIRE_LEN,
            IpProtocol::Icmp => 8,
        };
        let ip = Ipv4Header::new(
            self.tuple.src_ip,
            self.tuple.dst_ip,
            self.tuple.protocol,
            l4_len + self.payload_len as usize,
        );
        ip.encode(buf);
        match self.tuple.protocol {
            IpProtocol::Tcp => {
                TcpHeader {
                    src_port: self.tuple.src_port,
                    dst_port: self.tuple.dst_port,
                    seq: self.trace as u32,
                    ack: 0,
                    flags: self.tcp_flags,
                    window: 65535,
                }
                .encode(buf, self.tuple.src_ip, self.tuple.dst_ip);
            }
            IpProtocol::Udp => {
                UdpHeader::new(
                    self.tuple.src_port,
                    self.tuple.dst_port,
                    self.payload_len as usize,
                )
                .encode(buf);
            }
            IpProtocol::Icmp => {
                // type 8 (echo), code 0, checksum over 8 zero-padded bytes.
                let mut icmp = [0u8; 8];
                icmp[0] = 8;
                let csum = crate::headers::internet_checksum(&icmp);
                icmp[2..4].copy_from_slice(&csum.to_be_bytes());
                buf.extend_from_slice(&icmp);
            }
        }
        buf.resize(buf.len() + self.payload_len as usize, 0);
    }

    /// Parses a fabric-encapsulated wire packet produced by
    /// [`Packet::encode_wire`] back into structured form.
    ///
    /// Only fabric packets (with outer encapsulation) are decodable: the
    /// outer headers carry the server ids and VNI needed to reconstruct
    /// the metadata. Fields that exist only in simulation (`dir`, `vnic`,
    /// `overlay_encap_src`) are taken from the NSH when present, otherwise
    /// defaulted; `trace` is recovered from the TCP sequence number.
    pub fn decode_wire(data: &[u8]) -> CodecResult<Packet> {
        let mut off = 0;
        let (_outer_eth, n) = EthernetHeader::decode(&data[off..])?;
        off += n;
        let (outer_ip, n) = Ipv4Header::decode(&data[off..])?;
        off += n;
        let (udp, n) = UdpHeader::decode(&data[off..])?;
        off += n;
        if udp.dst_port != VXLAN_UDP_PORT {
            return Err(CodecError::BadField {
                what: "packet",
                field: "vxlan_port",
                value: udp.dst_port as u64,
            });
        }
        let (vxlan, n) = VxlanHeader::decode(&data[off..])?;
        off += n;
        let nezha = match NezhaHeader::decode(&data[off..]) {
            Ok((h, n)) => {
                off += n;
                Some(h)
            }
            Err(CodecError::BadField { field: "magic", .. }) => None,
            Err(e) => return Err(e),
        };
        let (_inner_eth, n) = EthernetHeader::decode(&data[off..])?;
        off += n;
        let (inner_ip, n) = Ipv4Header::decode(&data[off..])?;
        off += n;
        let tuple = crate::headers::five_tuple_of(&inner_ip, &data[off..])?;
        let mut trace = 0u64;
        let mut tcp_flags = TcpFlags::empty();
        if tuple.protocol == IpProtocol::Tcp {
            let (tcp, _) = TcpHeader::decode(&data[off..], inner_ip.src, inner_ip.dst)?;
            trace = tcp.seq as u64;
            tcp_flags = tcp.flags;
        }
        let l4_len = match tuple.protocol {
            IpProtocol::Tcp => TcpHeader::WIRE_LEN,
            IpProtocol::Udp => UdpHeader::WIRE_LEN,
            IpProtocol::Icmp => 8,
        };
        let payload_len = (inner_ip.total_len as usize)
            .checked_sub(Ipv4Header::WIRE_LEN + l4_len)
            .ok_or(CodecError::BadLength {
                what: "packet",
                claimed: inner_ip.total_len as usize,
                available: data.len(),
            })? as u32;
        Ok(Packet {
            trace,
            kind: if nezha.is_some() {
                PacketKind::Nezha
            } else {
                PacketKind::Data
            },
            vpc: VpcId(vxlan.vni),
            vnic: nezha.map_or(VnicId(0), |n| n.vnic),
            tuple,
            dir: nezha.and_then(|n| n.first_dir).unwrap_or(Direction::Tx),
            tcp_flags,
            payload_len,
            outer_src: Some(ServerId(outer_ip.src.0 & 0x00ff_ffff)),
            outer_dst: Some(ServerId(outer_ip.dst.0 & 0x00ff_ffff)),
            overlay_encap_src: None,
            nezha,
            prof_span: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nsh::NezhaPayloadKind;

    fn tuple() -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(192, 168, 1, 10),
            55000,
            Ipv4Addr::new(192, 168, 2, 20),
            443,
        )
    }

    #[test]
    fn wire_len_accounts_for_encap_layers() {
        let mut p = Packet::tx_data(1, VpcId(1), VnicId(1), tuple(), TcpFlags::SYN, 100);
        let bare = p.wire_len();
        assert_eq!(bare, 14 + 20 + 20 + 100);
        p.outer_src = Some(ServerId(1));
        p.outer_dst = Some(ServerId(2));
        let on_fabric = p.wire_len();
        assert_eq!(on_fabric, bare + 14 + 20 + 8 + 8);
        let nsh = NezhaHeader::bare(NezhaPayloadKind::TxCarry, VnicId(1), VpcId(1));
        let with_nsh = p.with_nezha(nsh).wire_len();
        assert_eq!(with_nsh, on_fabric + nsh.wire_len());
    }

    #[test]
    fn encode_length_matches_wire_len() {
        let mut p = Packet::tx_data(7, VpcId(3), VnicId(9), tuple(), TcpFlags::SYN, 64);
        p.outer_src = Some(ServerId(4));
        p.outer_dst = Some(ServerId(5));
        let p = p.with_nezha(NezhaHeader::bare(
            NezhaPayloadKind::TxCarry,
            VnicId(9),
            VpcId(3),
        ));
        assert_eq!(p.encode_wire().len(), p.wire_len());
    }

    #[test]
    fn fabric_round_trip_with_nezha() {
        let mut p = Packet::tx_data(1234, VpcId(77), VnicId(5), tuple(), TcpFlags::SYN, 32);
        p.outer_src = Some(ServerId(10));
        p.outer_dst = Some(ServerId(20));
        let mut nsh = NezhaHeader::bare(NezhaPayloadKind::TxCarry, VnicId(5), VpcId(77));
        nsh.first_dir = Some(Direction::Tx);
        let p = p.with_nezha(nsh);

        let wire = p.encode_wire();
        let d = Packet::decode_wire(&wire).unwrap();
        assert_eq!(d.vpc, VpcId(77));
        assert_eq!(d.vnic, VnicId(5));
        assert_eq!(d.tuple, tuple());
        assert_eq!(d.trace, 1234);
        assert_eq!(d.tcp_flags, TcpFlags::SYN);
        assert_eq!(d.payload_len, 32);
        assert_eq!(d.outer_src, Some(ServerId(10)));
        assert_eq!(d.outer_dst, Some(ServerId(20)));
        assert_eq!(d.nezha, Some(nsh));
    }

    #[test]
    fn fabric_round_trip_plain_data() {
        let mut p = Packet::rx_data(9, VpcId(2), VnicId(0), tuple(), TcpFlags::ACK, 1400);
        p.outer_src = Some(ServerId(3));
        p.outer_dst = Some(ServerId(4));
        let wire = p.encode_wire();
        let d = Packet::decode_wire(&wire).unwrap();
        assert_eq!(d.kind, PacketKind::Data);
        assert_eq!(d.nezha, None);
        assert_eq!(d.payload_len, 1400);
    }

    #[test]
    fn udp_and_icmp_encode_without_panic() {
        let u = FiveTuple::udp(
            Ipv4Addr::new(1, 1, 1, 1),
            53,
            Ipv4Addr::new(2, 2, 2, 2),
            5353,
        );
        let mut p = Packet::tx_data(1, VpcId(1), VnicId(1), u, TcpFlags::empty(), 100);
        p.outer_src = Some(ServerId(1));
        p.outer_dst = Some(ServerId(2));
        assert_eq!(p.encode_wire().len(), p.wire_len());

        let i = FiveTuple {
            src_ip: Ipv4Addr::new(1, 1, 1, 1),
            dst_ip: Ipv4Addr::new(2, 2, 2, 2),
            src_port: 0,
            dst_port: 0,
            protocol: IpProtocol::Icmp,
        };
        let mut p = Packet::tx_data(1, VpcId(1), VnicId(1), i, TcpFlags::empty(), 0);
        p.outer_src = Some(ServerId(1));
        p.outer_dst = Some(ServerId(2));
        assert_eq!(p.encode_wire().len(), p.wire_len());
    }

    #[test]
    fn helpers_classify_kinds() {
        let p = Packet::tx_data(1, VpcId(1), VnicId(1), tuple(), TcpFlags::SYN, 0);
        assert!(!p.is_health());
        assert!(!p.is_notify());
        let probe = p.with_nezha(NezhaHeader::bare(
            NezhaPayloadKind::HealthProbe,
            VnicId(1),
            VpcId(1),
        ));
        assert!(probe.is_health());
        let stripped = probe.strip_nezha();
        assert_eq!(stripped.kind, PacketKind::Data);
        assert!(stripped.nezha.is_none());
        let notify = p.with_nezha(NezhaHeader::bare(
            NezhaPayloadKind::Notify,
            VnicId(1),
            VpcId(1),
        ));
        assert!(notify.is_notify());
    }
}
