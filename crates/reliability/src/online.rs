//! Streaming (online) reliability accumulation.
//!
//! The batch pipeline ([`crate::ReliabilityAnalyzer`]) re-counts a whole
//! profile on every call; a run-time monitor wants to *push one sample per
//! sensor period* and read accumulated damage in O(1). [`OnlineAnalyzer`]
//! does exactly that: it keeps the hysteresis-filtered reversal stack of
//! the rainflow algorithm incrementally, accumulates Coffin–Manson damage
//! and Eq. 6 stress as cycles close, and integrates the Eq. 1 aging rate
//! per sample. Its results match the batch analyzer on the same series
//! (see the equivalence property test).

use crate::aging::AgingModel;
use crate::coffin_manson::CyclingParams;
use crate::rainflow::RainflowCounter;
use crate::SECONDS_PER_YEAR;

/// Accumulated statistics of the stream so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    /// Samples consumed.
    pub samples: usize,
    /// Covered time (s).
    pub elapsed_s: f64,
    /// Mean temperature (°C).
    pub avg_temp_c: f64,
    /// Peak temperature (°C).
    pub peak_temp_c: f64,
    /// Total Eq. 6 stress (closed cycles + open residue as half cycles).
    pub stress: f64,
    /// Accumulated Miner damage fraction.
    pub damage: f64,
    /// Thermal-cycling MTTF extrapolated from the stream (years).
    pub mttf_cycling_years: f64,
    /// Aging MTTF of the stream so far (years).
    pub mttf_aging_years: f64,
    /// Full (fractional) rainflow cycles counted.
    pub num_cycles: f64,
}

/// Incremental reliability analyzer; push samples, read stats.
///
/// # Example
///
/// ```
/// use thermorl_reliability::online::OnlineAnalyzer;
///
/// let mut a = OnlineAnalyzer::with_defaults(1.0);
/// for i in 0..600 {
///     a.push(50.0 + 10.0 * (i as f64 * 0.3).sin());
/// }
/// let stats = a.stats();
/// assert!(stats.mttf_cycling_years.is_finite());
/// assert!(stats.avg_temp_c > 45.0 && stats.avg_temp_c < 55.0);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineAnalyzer {
    aging: AgingModel,
    cycling: CyclingParams,
    min_range: f64,
    dt: f64,
    // Streaming statistics.
    samples: usize,
    temp_sum: f64,
    peak: f64,
    inv_alpha_sum: f64,
    // Hysteresis-filtered reversal state.
    filtered: Vec<(f64, f64)>, // (value, time) — the unclosed stack prefix
    last_raw: Option<f64>,
    // Accumulated closed-cycle damage.
    stress_closed: f64,
    damage_closed: f64,
    cycles_closed: f64,
}

impl OnlineAnalyzer {
    /// Creates an analyzer with explicit models; `dt` is the sample period.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn new(aging: AgingModel, cycling: CyclingParams, min_range: f64, dt: f64) -> Self {
        assert!(dt > 0.0, "sample period must be positive");
        OnlineAnalyzer {
            aging,
            cycling,
            min_range,
            dt,
            samples: 0,
            temp_sum: 0.0,
            peak: f64::NEG_INFINITY,
            inv_alpha_sum: 0.0,
            filtered: Vec::new(),
            last_raw: None,
            stress_closed: 0.0,
            damage_closed: 0.0,
            cycles_closed: 0.0,
        }
    }

    /// Default-calibrated models (same as [`crate::ReliabilityAnalyzer`]).
    pub fn with_defaults(dt: f64) -> Self {
        OnlineAnalyzer::new(
            AgingModel::default(),
            CyclingParams::default(),
            RainflowCounter::default().min_range,
            dt,
        )
    }

    /// Consumes one temperature sample (°C).
    pub fn push(&mut self, temp_c: f64) {
        self.samples += 1;
        self.temp_sum += temp_c;
        self.peak = self.peak.max(temp_c);
        self.inv_alpha_sum += 1.0 / self.aging.alpha_years(temp_c);
        let t = (self.samples - 1) as f64 * self.dt;

        // Streaming hysteresis filter, mirroring RainflowCounter::reversals:
        // maintain the filtered reversal sequence as samples arrive. The
        // final raw sample acts as a provisional endpoint, so instead of
        // appending every sample we track it separately and only commit
        // direction changes that exceed the dead band.
        match self.filtered.len() {
            0 => self.filtered.push((temp_c, t)),
            1 => {
                if (temp_c - self.filtered[0].0).abs() >= self.min_range {
                    self.filtered.push((temp_c, t));
                    self.collapse();
                }
            }
            _ => {
                let last = self.filtered[self.filtered.len() - 1];
                let prev = self.filtered[self.filtered.len() - 2];
                let dir_up = last.0 > prev.0;
                if (dir_up && temp_c >= last.0) || (!dir_up && temp_c <= last.0) {
                    // Monotone continuation: extend the current run. The
                    // grown range may now close inner cycles.
                    let n = self.filtered.len();
                    self.filtered[n - 1] = (temp_c, t);
                    self.collapse();
                } else if (temp_c - last.0).abs() >= self.min_range {
                    self.filtered.push((temp_c, t));
                    self.collapse();
                }
                // else: sub-threshold wiggle, ignored.
            }
        }
        self.last_raw = Some(temp_c);
    }

    /// ASTM three-point collapse over the streaming reversal stack,
    /// accumulating closed cycles.
    fn collapse(&mut self) {
        while self.filtered.len() >= 3 {
            let n = self.filtered.len();
            let x = (self.filtered[n - 1].0 - self.filtered[n - 2].0).abs();
            let y = (self.filtered[n - 2].0 - self.filtered[n - 3].0).abs();
            if x < y {
                break;
            }
            if n == 3 {
                // Range Y contains the starting point: closed half cycle.
                let (a, b) = (self.filtered[0], self.filtered[1]);
                self.account(a.0, b.0, 0.5);
                self.filtered.remove(0);
            } else {
                let (a, b) = (self.filtered[n - 3], self.filtered[n - 2]);
                self.account(a.0, b.0, 1.0);
                self.filtered.remove(n - 2);
                self.filtered.remove(n - 3);
            }
        }
    }

    fn account(&mut self, a: f64, b: f64, count: f64) {
        let range = (a - b).abs();
        if range == 0.0 {
            return;
        }
        let max_temp = a.max(b);
        let s = self.cycling.cycle_stress(range, max_temp);
        self.stress_closed += count * s;
        if s > 0.0 {
            self.damage_closed += count * s / self.cycling.a_tc;
        }
        self.cycles_closed += count;
    }

    /// Residue contribution (open half cycles on the current stack).
    fn residue(&self) -> (f64, f64, f64) {
        let mut stress = 0.0;
        let mut damage = 0.0;
        let mut cycles = 0.0;
        for w in self.filtered.windows(2) {
            let range = (w[0].0 - w[1].0).abs();
            if range == 0.0 {
                continue;
            }
            let s = self.cycling.cycle_stress(range, w[0].0.max(w[1].0));
            stress += 0.5 * s;
            if s > 0.0 {
                damage += 0.5 * s / self.cycling.a_tc;
            }
            cycles += 0.5;
        }
        (stress, damage, cycles)
    }

    /// Current accumulated statistics (O(stack) — effectively O(1)).
    pub fn stats(&self) -> OnlineStats {
        let elapsed = self.samples as f64 * self.dt;
        let (res_stress, res_damage, res_cycles) = self.residue();
        let damage = self.damage_closed + res_damage;
        let mttf_cycling = if damage > 0.0 && elapsed > 0.0 {
            elapsed / damage / SECONDS_PER_YEAR
        } else {
            f64::INFINITY
        };
        let aging_rate = if self.samples > 0 {
            self.inv_alpha_sum / self.samples as f64
        } else {
            0.0
        };
        let mttf_aging = if aging_rate > 0.0 {
            crate::gamma::weibull_mean(aging_rate, self.aging.beta)
        } else {
            f64::INFINITY
        };
        OnlineStats {
            samples: self.samples,
            elapsed_s: elapsed,
            avg_temp_c: if self.samples > 0 {
                self.temp_sum / self.samples as f64
            } else {
                0.0
            },
            peak_temp_c: self.peak,
            stress: self.stress_closed + res_stress,
            damage,
            mttf_cycling_years: mttf_cycling,
            mttf_aging_years: mttf_aging,
            num_cycles: self.cycles_closed + res_cycles,
        }
    }

    /// Resets the stream (e.g. at a decision-epoch boundary).
    pub fn reset(&mut self) {
        *self = OnlineAnalyzer::new(self.aging, self.cycling, self.min_range, self.dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ThermalProfile;
    use crate::report::ReliabilityAnalyzer;

    fn batch_vs_online(samples: &[f64]) -> (crate::report::ReliabilityReport, OnlineStats) {
        let profile = ThermalProfile::from_samples(1.0, samples.to_vec());
        let batch = ReliabilityAnalyzer::default().analyze(&profile);
        let mut online = OnlineAnalyzer::with_defaults(1.0);
        for &t in samples {
            online.push(t);
        }
        (batch, online.stats())
    }

    #[test]
    fn matches_batch_on_sine() {
        let samples: Vec<f64> = (0..500)
            .map(|i| 50.0 + 12.0 * (i as f64 * 0.23).sin())
            .collect();
        let (batch, online) = batch_vs_online(&samples);
        // Terminal-reversal handling differs by at most one sub-threshold
        // endpoint, so allow a small relative tolerance.
        assert!((batch.stress - online.stress).abs() / batch.stress.max(1e-12) < 1e-4);
        assert!((batch.avg_temp_c - online.avg_temp_c).abs() < 1e-9);
        assert_eq!(batch.peak_temp_c, online.peak_temp_c);
        assert!(
            (batch.mttf_cycling_years - online.mttf_cycling_years).abs() / batch.mttf_cycling_years
                < 1e-4
        );
        assert!(
            (batch.mttf_aging_years - online.mttf_aging_years).abs() / batch.mttf_aging_years
                < 1e-9
        );
        assert!((batch.num_cycles - online.num_cycles).abs() < 0.51);
    }

    #[test]
    fn matches_batch_on_flat_profile() {
        let samples = vec![42.0; 200];
        let (batch, online) = batch_vs_online(&samples);
        assert_eq!(online.stress, 0.0);
        assert_eq!(online.mttf_cycling_years, f64::INFINITY);
        assert!((batch.mttf_aging_years - online.mttf_aging_years).abs() < 1e-9);
    }

    #[test]
    fn empty_stream_stats() {
        let a = OnlineAnalyzer::with_defaults(1.0);
        let s = a.stats();
        assert_eq!(s.samples, 0);
        assert_eq!(s.mttf_cycling_years, f64::INFINITY);
        assert_eq!(s.mttf_aging_years, f64::INFINITY);
    }

    #[test]
    fn reset_clears_accumulation() {
        let mut a = OnlineAnalyzer::with_defaults(1.0);
        for i in 0..100 {
            a.push(50.0 + 15.0 * (i as f64 * 0.4).sin());
        }
        assert!(a.stats().stress > 0.0);
        a.reset();
        assert_eq!(a.stats().samples, 0);
        assert_eq!(a.stats().stress, 0.0);
    }

    #[test]
    fn stats_are_monotone_in_damage() {
        let mut a = OnlineAnalyzer::with_defaults(1.0);
        let mut last_damage = 0.0;
        for i in 0..500 {
            a.push(50.0 + 14.0 * (i as f64 * 0.33).sin());
            let d = a.stats().damage;
            assert!(d >= last_damage - 1e-12, "damage must not decrease");
            last_damage = d;
        }
    }

    #[test]
    #[should_panic(expected = "sample period")]
    fn zero_dt_rejected() {
        let _ = OnlineAnalyzer::with_defaults(0.0);
    }
}
