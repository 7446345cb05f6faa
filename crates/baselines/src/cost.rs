//! The Table 5 deployment-cost model.
//!
//! Introducing new hardware (Sailfish's Tofino gateways, Sirius's DPU
//! pool) costs chip selection, design, prototyping, security assessment,
//! performance work, ongoing iteration staffing — and months of lead time
//! for every new region. Nezha reuses running SmartNICs and modifies
//! "less than 5% of the existing vSwitch code", so its entire cost is a
//! modest software effort and a gray release.

/// Time to scale the system into a new region / cluster.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScaleOutTime {
    /// Fastest case, in days.
    pub min_days: u32,
    /// Slowest case (e.g. device procurement involved), in days.
    pub max_days: u32,
}

/// One system's deployment cost (one Table 5 column).
#[derive(Clone, Copy, Debug)]
pub struct DeploymentCost {
    /// Display name.
    pub name: &'static str,
    /// Hardware development, person-months.
    pub hardware_pm: u32,
    /// Software development, person-months.
    pub software_pm: u32,
    /// Extra human effort for ongoing iteration, person-months.
    pub iteration_pm: u32,
    /// Time required to scale out to a new region.
    pub scale_out: ScaleOutTime,
}

impl DeploymentCost {
    /// Table 5's Sailfish column, representing solutions that introduce
    /// new devices.
    pub fn sailfish() -> Self {
        DeploymentCost {
            name: "Sailfish",
            hardware_pm: 100,
            software_pm: 48,
            iteration_pm: 20,
            scale_out: ScaleOutTime {
                min_days: 30,
                max_days: 90,
            },
        }
    }

    /// Table 5's Nezha column.
    pub fn nezha() -> Self {
        DeploymentCost {
            name: "Nezha",
            hardware_pm: 0,
            software_pm: 15,
            iteration_pm: 0,
            scale_out: ScaleOutTime {
                min_days: 1,
                max_days: 7,
            },
        }
    }

    /// Total person-months.
    pub fn total_pm(&self) -> u32 {
        self.hardware_pm + self.software_pm + self.iteration_pm
    }
}

/// The development-effort ratio the paper headlines: "Deploying Nezha …
/// requires only 10% of the development effort compared to Sailfish".
pub fn nezha_effort_ratio() -> f64 {
    DeploymentCost::nezha().total_pm() as f64 / DeploymentCost::sailfish().total_pm() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_values() {
        let s = DeploymentCost::sailfish();
        let n = DeploymentCost::nezha();
        assert_eq!(s.total_pm(), 168);
        assert_eq!(n.total_pm(), 15);
        assert_eq!(n.hardware_pm, 0);
        assert_eq!(n.iteration_pm, 0);
        assert_eq!(
            s.scale_out,
            ScaleOutTime {
                min_days: 30,
                max_days: 90
            }
        );
        assert_eq!(
            n.scale_out,
            ScaleOutTime {
                min_days: 1,
                max_days: 7
            }
        );
    }

    #[test]
    fn effort_ratio_is_about_ten_percent() {
        let r = nezha_effort_ratio();
        assert!((0.05..0.15).contains(&r), "ratio {r}");
    }
}
