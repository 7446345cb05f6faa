//! Region scenarios: the shape of a simulated production day.
//!
//! A [`Scenario`] bundles everything about a region run that is *not* a
//! calibration constant: how long it runs, the diurnal traffic wave,
//! flash crowds, correlated fault waves, and tenant churn/migration
//! rates. [`Scenario::quiet`] reproduces the original steady-state
//! model (used by the Fig. 3/4/13 calibration experiments);
//! [`Scenario::production_day`] is the production shape — one diurnal
//! day with every stressor enabled.
//!
//! Everything here is a *pure function* of the scenario parameters and
//! the epoch index: the barrier draws the per-epoch randomness (whether
//! a flash crowd fires, where a fault wave lands) from its own global
//! stream, so these knobs never touch per-shard RNG state.

/// The shape of one region run.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Simulated days to run.
    pub days: usize,
    /// Amplitude of the diurnal demand wave in `[0, 1)`: the per-epoch
    /// demand multiplier swings between `1 - a` (pre-dawn trough) and
    /// `1 + a` (mid-day peak). Zero disables the wave.
    pub diurnal_amplitude: f64,
    /// Per-epoch probability that a flash crowd hits a contiguous span
    /// of servers.
    pub flash_prob: f64,
    /// Number of consecutive servers a flash crowd hits.
    pub flash_span: u64,
    /// Demand surge a flash crowd adds to each hit server (fraction of
    /// capacity, on top of the baseline).
    pub flash_surge: f64,
    /// Per-epoch probability of a correlated fault wave (a contiguous
    /// span of servers crash-rebooting together, e.g. a bad rack PDU).
    pub fault_prob: f64,
    /// Number of consecutive servers a fault wave crashes.
    pub fault_span: u64,
    /// Epochs until a fault wave's servers restart.
    pub fault_epochs: u64,
    /// Fraction of tenants that churn during the run: half die partway
    /// through, half are born partway through.
    pub churn_frac: f64,
    /// Fraction of (non-churning) tenants that live-migrate to another
    /// server once during the run.
    pub migrate_frac: f64,
}

impl Scenario {
    /// The steady-state scenario: no waves, no churn, no faults — the
    /// original calibration model, run for `days`.
    pub fn quiet(days: usize) -> Self {
        Scenario {
            days,
            diurnal_amplitude: 0.0,
            flash_prob: 0.0,
            flash_span: 0,
            flash_surge: 0.0,
            fault_prob: 0.0,
            fault_span: 0,
            fault_epochs: 0,
            churn_frac: 0.0,
            migrate_frac: 0.0,
        }
    }

    /// One full production day with every stressor on: a strong diurnal
    /// wave, flash crowds, correlated fault waves, and tenant
    /// churn/migration. `experiments watch_region` runs it.
    pub fn production_day() -> Self {
        Scenario {
            days: 1,
            diurnal_amplitude: 0.6,
            flash_prob: 0.12,
            flash_span: 250,
            flash_surge: 0.55,
            fault_prob: 0.06,
            fault_span: 120,
            fault_epochs: 2,
            churn_frac: 0.04,
            migrate_frac: 0.02,
        }
    }

    /// The demand multiplier for `epoch`: a sine wave over the day with
    /// its trough at the start of the day and its peak mid-day. Exactly
    /// `1.0` when the amplitude is zero. Pure — no RNG.
    pub fn diurnal(&self, epoch: u64, epochs_per_day: u64) -> f64 {
        if self.diurnal_amplitude == 0.0 || epochs_per_day == 0 {
            return 1.0;
        }
        let frac = (epoch % epochs_per_day) as f64 / epochs_per_day as f64;
        let phase = 2.0 * std::f64::consts::PI * frac - 0.5 * std::f64::consts::PI;
        1.0 + self.diurnal_amplitude * phase.sin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_scenario_is_flat() {
        let sc = Scenario::quiet(3);
        assert_eq!(sc.days, 3);
        for e in 0..24 {
            assert_eq!(sc.diurnal(e, 24), 1.0);
        }
    }

    #[test]
    fn diurnal_wave_peaks_midday_and_troughs_at_dawn() {
        let sc = Scenario {
            diurnal_amplitude: 0.5,
            ..Scenario::quiet(1)
        };
        let trough = sc.diurnal(0, 24);
        let peak = sc.diurnal(12, 24);
        assert!((trough - 0.5).abs() < 1e-9, "trough {trough}");
        assert!((peak - 1.5).abs() < 1e-9, "peak {peak}");
        // The wave repeats across days.
        assert_eq!(sc.diurnal(5, 24), sc.diurnal(29, 24));
    }

    #[test]
    fn production_day_enables_every_stressor() {
        let sc = Scenario::production_day();
        assert!(sc.diurnal_amplitude > 0.0);
        assert!(sc.flash_prob > 0.0 && sc.flash_span > 0);
        assert!(sc.fault_prob > 0.0 && sc.fault_span > 0 && sc.fault_epochs > 0);
        assert!(sc.churn_frac > 0.0 && sc.migrate_frac > 0.0);
    }
}
