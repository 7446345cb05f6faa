//! Error types for wire-format encoding/decoding and control-plane
//! operations.

use crate::addr::{ServerId, VnicId};
use std::fmt;

/// Result alias for codec operations.
pub type CodecResult<T> = Result<T, CodecError>;

/// Result alias for control-plane operations on the cluster.
pub type NezhaResult<T> = Result<T, NezhaError>;

/// Errors returned by the cluster's public control-plane API.
///
/// Every fallible operation on [`Cluster`] reports its failure through
/// this enum instead of panicking, so harnesses and examples can probe
/// invalid operations (double offload, pinning to a non-FE, …) and
/// assert on the precise reason.
///
/// [`Cluster`]: https://docs.rs/nezha-core
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NezhaError {
    /// The vNIC id is not installed in the cluster.
    UnknownVnic(VnicId),
    /// The vNIC id is already installed in the cluster.
    DuplicateVnic(VnicId),
    /// The server id is outside the topology (or the slot is empty).
    UnknownServer(ServerId),
    /// The vNIC is already offloaded; offloading twice is invalid.
    AlreadyOffloaded(VnicId),
    /// The operation requires the vNIC to be offloaded, and it is not.
    NotOffloaded(VnicId),
    /// The offload has not reached its final stage yet.
    OffloadInProgress(VnicId),
    /// No idle vSwitch satisfies the FE selection constraints.
    NoIdleVswitches,
    /// The target server does not host an FE for this vNIC.
    NotAnFe {
        /// vNIC whose FE set was consulted.
        vnic: VnicId,
        /// Server that is not in that FE set.
        fe: ServerId,
    },
    /// A table/metadata allocation did not fit in vSwitch memory.
    InsufficientMemory {
        /// What was being allocated.
        what: &'static str,
    },
}

impl fmt::Display for NezhaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NezhaError::UnknownVnic(v) => write!(f, "unknown vNIC {}", v.0),
            NezhaError::DuplicateVnic(v) => write!(f, "vNIC {} is already installed", v.0),
            NezhaError::UnknownServer(s) => write!(f, "unknown server {}", s.0),
            NezhaError::AlreadyOffloaded(v) => write!(f, "vNIC {} is already offloaded", v.0),
            NezhaError::NotOffloaded(v) => write!(f, "vNIC {} is not offloaded", v.0),
            NezhaError::OffloadInProgress(v) => {
                write!(f, "vNIC {}'s offload has not reached its final stage", v.0)
            }
            NezhaError::NoIdleVswitches => write!(f, "no idle vSwitches available"),
            NezhaError::NotAnFe { vnic, fe } => {
                write!(f, "server {} is not an FE of vNIC {}", fe.0, vnic.0)
            }
            NezhaError::InsufficientMemory { what } => {
                write!(f, "{what} does not fit in vSwitch memory")
            }
        }
    }
}

impl std::error::Error for NezhaError {}

/// Errors raised while parsing or serializing packet headers.
///
/// The decoder is strict in the smoltcp spirit: malformed input is rejected
/// with a precise reason rather than silently coerced, because a production
/// vSwitch must never act on a header it did not fully understand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input buffer ended before the fixed-size header was complete.
    Truncated {
        /// Header that was being parsed.
        what: &'static str,
        /// Bytes required by the header.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// A version / magic / type field held an unsupported value.
    BadField {
        /// Header that was being parsed.
        what: &'static str,
        /// Field that failed validation.
        field: &'static str,
        /// The offending value, widened to u64 for display.
        value: u64,
    },
    /// A checksum did not verify.
    BadChecksum {
        /// Header whose checksum failed.
        what: &'static str,
        /// Checksum carried in the packet.
        got: u16,
        /// Checksum computed over the received bytes.
        want: u16,
    },
    /// A length field is inconsistent with the buffer.
    BadLength {
        /// Header that was being parsed.
        what: &'static str,
        /// Length claimed by the header.
        claimed: usize,
        /// Length actually available.
        available: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { what, need, have } => {
                write!(f, "{what}: truncated (need {need} bytes, have {have})")
            }
            CodecError::BadField { what, field, value } => {
                write!(f, "{what}: unsupported {field} value {value:#x}")
            }
            CodecError::BadChecksum { what, got, want } => {
                write!(
                    f,
                    "{what}: checksum mismatch (got {got:#06x}, want {want:#06x})"
                )
            }
            CodecError::BadLength {
                what,
                claimed,
                available,
            } => {
                write!(
                    f,
                    "{what}: length field {claimed} exceeds available {available}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_precise() {
        let e = CodecError::Truncated {
            what: "ipv4",
            need: 20,
            have: 7,
        };
        assert_eq!(e.to_string(), "ipv4: truncated (need 20 bytes, have 7)");

        let e = CodecError::BadChecksum {
            what: "ipv4",
            got: 0x1234,
            want: 0xabcd,
        };
        assert!(e.to_string().contains("0x1234"));
        assert!(e.to_string().contains("0xabcd"));

        let e = CodecError::BadField {
            what: "nezha",
            field: "magic",
            value: 0xff,
        };
        assert!(e.to_string().contains("magic"));

        let e = CodecError::BadLength {
            what: "udp",
            claimed: 100,
            available: 8,
        };
        assert!(e.to_string().contains("100"));
    }

    #[test]
    fn nezha_error_messages_name_the_subject() {
        assert_eq!(
            NezhaError::UnknownVnic(VnicId(7)).to_string(),
            "unknown vNIC 7"
        );
        assert_eq!(
            NezhaError::AlreadyOffloaded(VnicId(3)).to_string(),
            "vNIC 3 is already offloaded"
        );
        let e = NezhaError::NotAnFe {
            vnic: VnicId(1),
            fe: ServerId(9),
        };
        assert!(e.to_string().contains("server 9"));
        assert!(e.to_string().contains("vNIC 1"));
        let e = NezhaError::InsufficientMemory {
            what: "BE metadata",
        };
        assert!(e.to_string().contains("BE metadata"));
    }
}
