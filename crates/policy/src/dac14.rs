//! The paper agent as a zoo member.
//!
//! [`DasDac14Controller`] already is a [`thermorl_sim::ThermalController`],
//! so joining the zoo only adds the [`Policy`] extras: snapshots are the
//! agent's own [`AgentSnapshot`] JSON, and restore rebuilds the agent
//! through [`DasDac14Controller::restore`] under the configuration it
//! was built with. The golden-decision test in `tests/golden.rs` pins
//! the zoo path bit-identical to constructing the agent directly.

use thermorl_control::{AgentSnapshot, DasDac14Controller};
use thermorl_sim::json::Value;

use crate::{DecisionRecord, Policy, PolicyId};

impl Policy for DasDac14Controller {
    fn id(&self) -> PolicyId {
        PolicyId::DasDac14
    }

    fn set_name(&mut self, name: String) {
        self.rename(name);
    }

    fn epochs(&self) -> u64 {
        DasDac14Controller::epochs(self)
    }

    fn last_decision(&self) -> Option<DecisionRecord> {
        DasDac14Controller::last_decision(self).map(|d| DecisionRecord {
            action: d.action,
            stress: d.stress,
            aging: d.aging,
            reward: d.reward,
            alpha: d.alpha,
        })
    }

    fn snapshot(&self) -> Option<Value> {
        DasDac14Controller::snapshot(self).map(|s| s.to_value())
    }

    fn restore(&mut self, v: &Value) -> Result<(), String> {
        let snap = AgentSnapshot::from_value(v).map_err(|e| e.to_string())?;
        *self = DasDac14Controller::restore(self.config().clone(), &snap);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermorl_control::ControlConfig;
    use thermorl_platform::CounterSnapshot;
    use thermorl_sim::Observation;

    fn obs<'a>(temps: &'a [f64], freqs: &'a [f64], time: f64) -> Observation<'a> {
        Observation {
            time,
            sensor_temps: temps,
            fps: 1.0,
            perf_constraint: 0.8,
            app_name: "test",
            app_index: 0,
            app_switched: false,
            counters: CounterSnapshot::default(),
            core_freq_ghz: freqs,
        }
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let cfg = ControlConfig {
            epoch_samples: 4,
            ..ControlConfig::default()
        };
        let mut donor = PolicyId::DasDac14.build(cfg.clone(), 11);
        donor.on_start(6, 4);
        let freqs = [3.4; 4];
        for k in 0..70u64 {
            let t = 44.0 + (k % 6) as f64;
            let temps = [t, t + 1.0, t - 1.0, t];
            donor.on_sample(&obs(&temps, &freqs, k as f64 * 3.0));
        }
        let line = donor.snapshot().expect("started").to_json();
        let mut twin = PolicyId::DasDac14.build(cfg, 0);
        twin.restore(&Value::parse(&line).expect("parse"))
            .expect("restore");
        for k in 70..140u64 {
            let t = if k < 100 { 46.0 } else { 71.0 };
            let temps = [t, t + 1.0, t - 1.0, t];
            let a = donor.on_sample(&obs(&temps, &freqs, k as f64 * 3.0));
            let b = twin.on_sample(&obs(&temps, &freqs, k as f64 * 3.0));
            assert_eq!(a, b, "diverged at sample {k}");
        }
        assert_eq!(donor.epochs(), twin.epochs());
        assert_eq!(donor.last_decision(), twin.last_decision());
    }

    #[test]
    fn rename_is_metadata_only() {
        let mut p = PolicyId::DasDac14.build(ControlConfig::default(), 1);
        p.set_name("serve:die-0".into());
        assert_eq!(p.name(), "serve:die-0");
    }
}
