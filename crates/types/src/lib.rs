//! # nezha-types
//!
//! Foundation types for the Nezha distributed vSwitch load-sharing system:
//! addresses and identifiers, 5-tuples and session keys, wire-format
//! packet headers (Ethernet / IPv4 / TCP / UDP / VXLAN) with encode/decode
//! and checksum support, packet processing actions and pre-actions, the TCP
//! connection-tracking finite state machine, the session state with the
//! fast path's `process_pkt(pre_actions, state)` over it, and the **Nezha
//! Service Header (NSH)** — the outer header Nezha uses to carry session
//! state (TX path) and pre-actions (RX path) between a vNIC backend (BE)
//! and its frontends (FEs).
//!
//! Everything in this crate is plain data: no I/O, no clocks, no global
//! state. The simulator (`nezha-sim`), the vSwitch model (`nezha-vswitch`)
//! and the Nezha control/data planes (`nezha-core`) are all built on these
//! types.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod action;
pub mod addr;
pub mod error;
pub mod five_tuple;
pub mod flow;
pub mod headers;
pub mod nsh;
pub mod packet;
pub mod state;
pub mod tcp_fsm;

pub use action::{Action, Decision, PreAction, PreActionPair};
pub use addr::{Ipv4Addr, MacAddr, ServerId, VnicId, VpcId};
pub use error::{CodecError, CodecResult, NezhaError, NezhaResult};
pub use five_tuple::{FiveTuple, IpProtocol};
pub use flow::{Direction, SessionKey};
pub use headers::{EthernetHeader, Ipv4Header, TcpFlags, TcpHeader, UdpHeader, VxlanHeader};
pub use nsh::{NezhaHeader, NezhaPayloadKind, NshView};
pub use packet::{Packet, PacketKind};
pub use state::{SessionState, StatefulDecapState, StatsState};
pub use tcp_fsm::{TcpEvent, TcpState};
