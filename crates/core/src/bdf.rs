//! BDF-number management for massive-vNIC VMs (§7.4).
//!
//! Once Nezha removes the vSwitch-memory limit on #vNICs, the next
//! bottleneck is PCI addressing: every vNIC needs a bus/device/function
//! (BDF) number, and without SR-IOV/SIOV only the 8-bit bus field varies
//! — 256 numbers, most consumed by essential functions (storage,
//! compute, encryption), leaving "only a few dozen" for vNICs.
//!
//! Two escape hatches, both modeled here:
//! * **I/O device virtualization** (SR-IOV/SIOV): the 5-bit device and
//!   3-bit function fields open up, adding 256 more numbers — but it
//!   requires virtio ≥ 1.1 on the adapter.
//! * **Child vNICs**: many logical vNICs bound to one adapter vNIC,
//!   distinguished by VLAN tags; effectively unlimited numbers at the
//!   cost of sharing the parent's I/O bandwidth.

/// How a vNIC attaches to the VM's I/O space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VnicAttachment {
    /// Its own BDF number.
    Direct {
        /// The allocated BDF (bus<<8 | device<<3 | function).
        bdf: u16,
    },
    /// A child bound to a parent adapter, distinguished by a VLAN tag.
    Child {
        /// The parent's BDF.
        parent_bdf: u16,
        /// The VLAN tag carrying this child's traffic.
        vlan: u16,
    },
}

/// Errors from BDF allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BdfError {
    /// Every BDF number (and, if disallowed, child slot) is taken.
    Exhausted,
}

impl std::fmt::Display for BdfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no BDF numbers (or child slots) left")
    }
}

impl std::error::Error for BdfError {}

/// The per-VM BDF allocator.
#[derive(Clone, Debug)]
pub struct BdfAllocator {
    /// SR-IOV / SIOV available (virtio >= 1.1): device+function fields
    /// usable, adding 256 more numbers (§7.4).
    pub sriov: bool,
    /// Whether child vNICs may share adapters.
    pub allow_children: bool,
    /// Maximum children per parent adapter (VLAN-tag budget per port).
    pub children_per_parent: u16,
    /// BDF numbers consumed by essential functions (storage, compute,
    /// encryption — "most of which are allocated to essential functions").
    pub reserved: u16,
    allocated: u16,
    children: Vec<(u16, u16)>, // (parent_bdf, children_count)
}

impl BdfAllocator {
    /// Base BDF capacity without I/O virtualization: the 8-bit bus field.
    pub const BASE_CAPACITY: u16 = 256;
    /// Extra numbers unlocked by SR-IOV/SIOV: device (5b) × function (3b).
    pub const SRIOV_EXTRA: u16 = 256;

    /// A VM with typical essential-function pressure: a couple hundred
    /// BDFs already spoken for, a few dozen free (§7.4).
    pub fn new(sriov: bool, allow_children: bool) -> Self {
        BdfAllocator {
            sriov,
            allow_children,
            children_per_parent: 64,
            reserved: 220,
            allocated: 0,
            children: Vec::new(),
        }
    }

    /// Total direct BDF numbers available to vNICs.
    pub fn direct_capacity(&self) -> u16 {
        let total = Self::BASE_CAPACITY + if self.sriov { Self::SRIOV_EXTRA } else { 0 };
        total.saturating_sub(self.reserved)
    }

    /// Direct numbers still free.
    pub fn direct_free(&self) -> u16 {
        self.direct_capacity().saturating_sub(self.allocated)
    }

    /// Allocates an attachment for one more vNIC: direct while numbers
    /// last, then child slots (when allowed).
    pub fn allocate(&mut self) -> Result<VnicAttachment, BdfError> {
        if self.allocated < self.direct_capacity() {
            let bdf = self.reserved + self.allocated;
            self.allocated += 1;
            // A direct vNIC can later parent children.
            self.children.push((bdf, 0));
            return Ok(VnicAttachment::Direct { bdf });
        }
        if self.allow_children {
            if let Some(slot) = self
                .children
                .iter_mut()
                .find(|(_, n)| *n < self.children_per_parent)
            {
                slot.1 += 1;
                return Ok(VnicAttachment::Child {
                    parent_bdf: slot.0,
                    vlan: slot.1,
                });
            }
        }
        Err(BdfError::Exhausted)
    }

    /// Maximum vNICs this configuration supports.
    pub fn max_vnics(&self) -> u32 {
        let direct = self.direct_capacity() as u32;
        if self.allow_children {
            direct + direct * self.children_per_parent as u32
        } else {
            direct
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_vm_has_only_a_few_dozen_vnic_slots() {
        // §7.4: "a VM is limited to 256 BDF numbers, most of which are
        // allocated to essential functions, leaving only a few dozen".
        let a = BdfAllocator::new(false, false);
        assert_eq!(a.direct_capacity(), 36);
        assert!(a.direct_capacity() < 64);
    }

    #[test]
    fn sriov_adds_256_numbers() {
        let plain = BdfAllocator::new(false, false);
        let sriov = BdfAllocator::new(true, false);
        assert_eq!(
            sriov.direct_capacity() - plain.direct_capacity(),
            BdfAllocator::SRIOV_EXTRA
        );
    }

    #[test]
    fn allocation_exhausts_then_errors() {
        let mut a = BdfAllocator::new(false, false);
        let cap = a.direct_capacity();
        for _ in 0..cap {
            assert!(matches!(a.allocate(), Ok(VnicAttachment::Direct { .. })));
        }
        assert_eq!(a.allocate(), Err(BdfError::Exhausted));
        assert_eq!(a.direct_free(), 0);
    }

    #[test]
    fn children_extend_past_bdf_exhaustion() {
        let mut a = BdfAllocator::new(false, true);
        let cap = a.direct_capacity() as u32;
        // Fill direct slots, then a thousand children.
        for _ in 0..cap {
            a.allocate().unwrap();
        }
        let mut children = 0;
        for _ in 0..1_000 {
            match a.allocate() {
                Ok(VnicAttachment::Child { parent_bdf, vlan }) => {
                    children += 1;
                    assert!(vlan >= 1 && vlan <= a.children_per_parent);
                    assert!(parent_bdf >= a.reserved);
                }
                other => panic!("expected child, got {other:?}"),
            }
        }
        assert_eq!(children, 1_000);
        // O(1K) vNICs on one VM, as production needs (§6.3.1).
        assert!(a.max_vnics() > 1_000);
    }

    #[test]
    fn vlans_are_unique_per_parent() {
        let mut a = BdfAllocator::new(false, true);
        for _ in 0..a.direct_capacity() {
            a.allocate().unwrap();
        }
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            if let Ok(VnicAttachment::Child { parent_bdf, vlan }) = a.allocate() {
                assert!(seen.insert((parent_bdf, vlan)), "duplicate tag");
            }
        }
    }

    #[test]
    fn sriov_plus_children_reaches_tens_of_thousands() {
        let a = BdfAllocator::new(true, true);
        assert!(a.max_vnics() > 10_000);
    }
}
