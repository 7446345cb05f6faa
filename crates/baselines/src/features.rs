//! The Table 2 feature matrix: what each remote-resource-pool design
//! offers.
//!
//! | | Stateful NF | No remote state | No new hardware |
//! |---|---|---|---|
//! | Sailfish | ✗ | ✓ | ✗ |
//! | Sirius | ✓ | ✗ | ✗ |
//! | Tea | ✓ | ✗ | ✗ |
//! | Nezha | ✓ | ✓ | ✓ |

/// Feature flags of one design (Table 2's three columns).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SystemFeatures {
    /// Design name.
    pub name: &'static str,
    /// Supports stateful NFs.
    pub stateful_nf: bool,
    /// Avoids maintaining state at the remote pool (no replica sync, no
    /// state transfer on rebalancing).
    pub no_remote_state: bool,
    /// Introduces no additional hardware into the data center.
    pub no_new_hardware: bool,
}

/// The full Table 2 matrix.
#[derive(Clone, Copy, Debug)]
pub struct FeatureMatrix;

impl FeatureMatrix {
    /// The four rows of Table 2.
    pub fn rows() -> [SystemFeatures; 4] {
        [
            SystemFeatures {
                name: "Sailfish",
                stateful_nf: false,
                no_remote_state: true,
                no_new_hardware: false,
            },
            SystemFeatures {
                name: "Sirius",
                stateful_nf: true,
                no_remote_state: false,
                no_new_hardware: false,
            },
            SystemFeatures {
                name: "Tea",
                stateful_nf: true,
                no_remote_state: false,
                no_new_hardware: false,
            },
            SystemFeatures {
                name: "Nezha",
                stateful_nf: true,
                no_remote_state: true,
                no_new_hardware: true,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_nezha_has_all_three() {
        let rows = FeatureMatrix::rows();
        let all3 = |r: &SystemFeatures| r.stateful_nf && r.no_remote_state && r.no_new_hardware;
        assert_eq!(rows.iter().filter(|r| all3(r)).count(), 1);
        assert!(all3(rows.iter().find(|r| r.name == "Nezha").unwrap()));
    }

    #[test]
    fn matrix_matches_table2() {
        let rows = FeatureMatrix::rows();
        let get = |n: &str| *rows.iter().find(|r| r.name == n).unwrap();
        assert!(!get("Sailfish").stateful_nf && get("Sailfish").no_remote_state);
        assert!(get("Sirius").stateful_nf && !get("Sirius").no_remote_state);
        assert!(get("Tea").stateful_nf && !get("Tea").no_remote_state);
        assert!(rows.iter().filter(|r| !r.no_new_hardware).count() == 3);
    }
}
