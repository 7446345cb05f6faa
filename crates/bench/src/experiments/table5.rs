//! Table 5 — deployment costs of Sailfish vs. Nezha.
//!
//! Qualitative-economic comparison: introducing new hardware (Sailfish,
//! representing all new-device designs: chip selection, design,
//! prototyping, security assessment, iteration staffing and months of
//! lead time per region) vs. reusing deployed SmartNICs (Nezha modifies
//! "less than 5% of the existing vSwitch code").

use crate::output::*;

/// One system's deployment cost (one Table 5 column); efforts in
/// person-months.
struct DeploymentCost {
    name: &'static str,
    hardware_pm: u32,
    software_pm: u32,
    /// Extra human effort for ongoing iteration.
    iteration_pm: u32,
    /// Days to scale out to a new region: fastest case, and slowest
    /// (e.g. device procurement involved).
    scale_out_min_days: u32,
    scale_out_max_days: u32,
}

/// Table 5's Sailfish column, representing solutions that introduce new
/// devices.
const SAILFISH: DeploymentCost = DeploymentCost {
    name: "Sailfish",
    hardware_pm: 100,
    software_pm: 48,
    iteration_pm: 20,
    scale_out_min_days: 30,
    scale_out_max_days: 90,
};

/// Table 5's Nezha column.
const NEZHA: DeploymentCost = DeploymentCost {
    name: "Nezha",
    hardware_pm: 0,
    software_pm: 15,
    iteration_pm: 0,
    scale_out_min_days: 1,
    scale_out_max_days: 7,
};

/// Total person-months.
fn total_pm(c: &DeploymentCost) -> u32 {
    c.hardware_pm + c.software_pm + c.iteration_pm
}

/// The development-effort ratio the paper headlines: "Deploying Nezha …
/// requires only 10% of the development effort compared to Sailfish".
fn nezha_effort_ratio() -> f64 {
    total_pm(&NEZHA) as f64 / total_pm(&SAILFISH) as f64
}

/// Runs the experiment.
pub fn run() -> BenchReport {
    banner("Table 5", "Deployment costs of Sailfish / Nezha");
    let systems = [SAILFISH, NEZHA];
    header(&["", "Sailfish", "Nezha"], &[30, 16, 16]);
    let fmt_pm = |v: u32| {
        if v == 0 {
            "0".to_string()
        } else {
            format!("{v} person-month")
        }
    };
    type CostCell = Box<dyn Fn(&DeploymentCost) -> String>;
    let rows: [(&str, CostCell); 4] = [
        (
            "Hardware development",
            Box::new(move |c| fmt_pm(c.hardware_pm)),
        ),
        (
            "Software development",
            Box::new(move |c| fmt_pm(c.software_pm)),
        ),
        (
            "Extra effort for iteration",
            Box::new(move |c| fmt_pm(c.iteration_pm)),
        ),
        (
            "Time required to scale out",
            Box::new(|c| format!("{}-{} days", c.scale_out_min_days, c.scale_out_max_days)),
        ),
    ];
    for (label, f) in rows {
        row(
            &[label.to_string(), f(&systems[0]), f(&systems[1])],
            &[30, 16, 16],
        );
    }
    println!();
    println!(
        "  Nezha / Sailfish total effort: {} (paper: \"only 10% of the development effort\")",
        pct(nezha_effort_ratio())
    );
    let mut report =
        BenchReport::new("table5").metric("effort_ratio", nezha_effort_ratio(), "fraction");
    for c in &systems {
        for (name, v, unit) in [
            ("hardware_pm", c.hardware_pm, "person-months"),
            ("software_pm", c.software_pm, "person-months"),
            ("iteration_pm", c.iteration_pm, "person-months"),
            ("total_pm", total_pm(c), "person-months"),
            ("scale_out_min_days", c.scale_out_min_days, "days"),
            ("scale_out_max_days", c.scale_out_max_days, "days"),
        ] {
            report = report.metric(format!("{name}{{system={}}}", c.name), v as f64, unit);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_cost_gap_is_an_order_of_magnitude() {
        assert_eq!(total_pm(&SAILFISH), 168);
        assert_eq!(total_pm(&NEZHA), 15);
        assert_eq!((NEZHA.hardware_pm, NEZHA.iteration_pm), (0, 0));
        // "only 10% of the development effort compared to Sailfish".
        let r = nezha_effort_ratio();
        assert!((0.05..0.10).contains(&r), "ratio {r}");
        // A new region takes Sailfish weeks to months, Nezha days.
        const { assert!(SAILFISH.scale_out_min_days >= 4 * NEZHA.scale_out_max_days) };
    }
}
