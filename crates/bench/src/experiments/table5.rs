//! Table 5 — deployment costs of Sailfish vs. Nezha.
//!
//! Qualitative-economic comparison: introducing new hardware (Sailfish,
//! representing all new-device designs) vs. reusing deployed SmartNICs.

use crate::output::*;
use nezha_baselines::cost::{nezha_effort_ratio, DeploymentCost};

/// Runs the experiment.
pub fn run() -> BenchReport {
    banner("Table 5", "Deployment costs of Sailfish / Nezha");
    let systems = [DeploymentCost::sailfish(), DeploymentCost::nezha()];
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
            Box::new(|c| format!("{}-{} days", c.scale_out.min_days, c.scale_out.max_days)),
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
        let total = c.hardware_pm + c.software_pm + c.iteration_pm;
        for (name, v, unit) in [
            ("hardware_pm", c.hardware_pm, "person-months"),
            ("software_pm", c.software_pm, "person-months"),
            ("iteration_pm", c.iteration_pm, "person-months"),
            ("total_pm", total, "person-months"),
            ("scale_out_min_days", c.scale_out.min_days, "days"),
            ("scale_out_max_days", c.scale_out.max_days, "days"),
        ] {
            report = report.metric(format!("{name}{{system={}}}", c.name), v as f64, unit);
        }
    }
    report
}
