//! Classic multi-armed bandits over the paper's action set.
//!
//! The DAC'14 agent is a *contextual* learner (states from stress/aging
//! bins). These baselines strip the context away: each of the paper's
//! nine actions is one arm, the reward of an epoch is the negated
//! worst-core hazard sum `-(stress + aging)`, and the three classic
//! exploration strategies — ε-greedy, UCB1, Gaussian Thompson sampling —
//! pick the next arm. If the zoo's Q-learners cannot beat a context-free
//! bandit on a scenario, the state formulation is not earning its keep
//! there; that comparison is the tournament's point.
//!
//! All three share [`BanditCore`]'s bookkeeping (incremental arm means,
//! the shared [`HazardWindow`], snapshot plumbing); the strategies
//! differ only in `select`. UCB1 draws no random numbers at all; the
//! other two carry a splitmix64 stream whose raw state rides the
//! snapshot, so restore is bit-exact.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use thermorl_control::{ActionSpace, ControlConfig};
use thermorl_sim::json::Value;
use thermorl_sim::{Actuation, Observation, ThermalController};
use thermorl_telemetry as tel;

use crate::codec::{
    check_id, decision_from_value, decision_to_value, f64_arr, get_f64_arr, get_u64, get_u64_arr,
    u64_arr,
};
use crate::window::HazardWindow;
use crate::{DecisionRecord, EpochStats, Policy, PolicyId};

/// Shared bandit state: arm statistics, the epoch window, and snapshot
/// plumbing. The strategy structs own one of these plus their RNG.
pub struct BanditCore {
    cfg: ControlConfig,
    id: PolicyId,
    name: String,
    actions: Option<ActionSpace>,
    window: HazardWindow,
    counts: Vec<u64>,
    means: Vec<f64>,
    prev: Option<usize>,
    epochs: u64,
    last: Option<DecisionRecord>,
    started: Option<(usize, usize)>,
}

impl BanditCore {
    fn new(cfg: ControlConfig, id: PolicyId) -> Self {
        cfg.validate().expect("invalid policy configuration");
        let window = HazardWindow::new(cfg.epoch_samples, cfg.sampling_interval, cfg.analyzer);
        BanditCore {
            actions: cfg.action_space.clone(),
            id,
            name: id.as_str().to_string(),
            window,
            counts: Vec::new(),
            means: Vec::new(),
            prev: None,
            epochs: 0,
            last: None,
            started: None,
            cfg,
        }
    }

    fn on_start(&mut self, num_threads: usize, num_cores: usize) {
        self.started = Some((num_threads, num_cores));
        if self.actions.is_none() {
            self.actions = Some(ActionSpace::paper_default(
                num_threads,
                num_cores,
                &self.cfg.opp_table,
            ));
        }
        let n = self.actions.as_ref().expect("just set").len();
        self.counts = vec![0; n];
        self.means = vec![0.0; n];
    }

    fn arms(&self) -> usize {
        self.counts.len()
    }

    /// Credits the epoch's reward to the previous arm and returns it.
    fn learn(&mut self, stats: &EpochStats) -> f64 {
        let reward = -(stats.stress + stats.aging);
        if let Some(a) = self.prev {
            self.counts[a] += 1;
            self.means[a] += (reward - self.means[a]) / self.counts[a] as f64;
        }
        reward
    }

    /// Records the decision and builds its actuation.
    fn commit(&mut self, action: usize, stats: &EpochStats, reward: f64, alpha: f64) -> Actuation {
        let granted = if self.prev.is_some() { reward } else { 0.0 };
        self.last = Some(DecisionRecord {
            action,
            stress: stats.stress,
            aging: stats.aging,
            reward: granted,
            alpha,
        });
        self.prev = Some(action);
        self.epochs += 1;
        tel::counter!(self.id.counter_name());
        let act = self
            .actions
            .as_ref()
            .expect("on_start must run before sampling")
            .get(action);
        Actuation {
            assignment: Some(act.assignment.clone()),
            governor: Some(act.governor),
            per_core_governors: act.per_core_governors.clone(),
        }
    }

    /// Greedy arm: highest mean, lowest index on ties.
    fn best_arm(&self) -> usize {
        let mut best = 0;
        let mut best_mean = f64::NEG_INFINITY;
        for (i, &m) in self.means.iter().enumerate() {
            if m > best_mean {
                best = i;
                best_mean = m;
            }
        }
        best
    }

    fn snapshot(&self, rng_state: Option<u64>) -> Option<Value> {
        let (num_threads, num_cores) = self.started?;
        let mut obj = Value::object();
        obj.set("id", Value::Str(self.id.as_str().to_string()));
        obj.set("name", Value::Str(self.name.clone()));
        obj.set("num_threads", Value::UInt(num_threads as u64));
        obj.set("num_cores", Value::UInt(num_cores as u64));
        obj.set("counts", u64_arr(&self.counts));
        obj.set("means", f64_arr(&self.means));
        if let Some(prev) = self.prev {
            obj.set("prev", Value::UInt(prev as u64));
        }
        obj.set("epochs", Value::UInt(self.epochs));
        if let Some(state) = rng_state {
            obj.set("rng_state", Value::UInt(state));
        }
        obj.set("window", self.window.to_value());
        if let Some(d) = &self.last {
            obj.set("last_decision", decision_to_value(d));
        }
        Some(obj)
    }

    fn restore(&mut self, v: &Value) -> Result<(), String> {
        check_id(v, self.id.as_str())?;
        let num_threads = get_u64(v, "num_threads")? as usize;
        let num_cores = get_u64(v, "num_cores")? as usize;
        self.on_start(num_threads, num_cores);
        let counts = get_u64_arr(v, "counts")?;
        let means = get_f64_arr(v, "means")?;
        if counts.len() != self.arms() || means.len() != self.arms() {
            return Err(format!(
                "snapshot arm count {} does not match action space {}",
                counts.len(),
                self.arms()
            ));
        }
        self.counts = counts;
        self.means = means;
        self.prev = match v.get("prev") {
            None => None,
            Some(_) => Some(get_u64(v, "prev")? as usize),
        };
        self.epochs = get_u64(v, "epochs")?;
        self.window.restore(
            v.get("window")
                .ok_or("policy snapshot missing \"window\"")?,
        )?;
        self.last = match v.get("last_decision") {
            None => None,
            Some(d) => Some(decision_from_value(d)?),
        };
        self.name = crate::codec::get_str(v, "name")?.to_string();
        Ok(())
    }
}

/// ε-greedy bandit: explore uniformly with fixed probability ε, exploit
/// the best arm mean otherwise. The first `n` epochs sweep every arm
/// once so each has a sample before exploitation starts.
pub struct EpsilonGreedyPolicy {
    core: BanditCore,
    rng: StdRng,
    epsilon: f64,
}

/// Fixed exploration probability of [`EpsilonGreedyPolicy`].
pub const EPSILON: f64 = 0.1;

impl EpsilonGreedyPolicy {
    /// Creates the policy; the RNG stream is derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ControlConfig::validate`].
    pub fn new(cfg: ControlConfig, seed: u64) -> Self {
        EpsilonGreedyPolicy {
            core: BanditCore::new(cfg, PolicyId::EpsilonGreedy),
            rng: StdRng::seed_from_u64(seed ^ 0xE965_EDE9_65ED_E965),
            epsilon: EPSILON,
        }
    }
}

impl ThermalController for EpsilonGreedyPolicy {
    fn name(&self) -> &str {
        &self.core.name
    }

    fn sampling_interval(&self) -> f64 {
        self.core.cfg.sampling_interval
    }

    fn on_start(&mut self, num_threads: usize, num_cores: usize) {
        self.core.on_start(num_threads, num_cores);
    }

    fn on_sample(&mut self, obs: &Observation<'_>) -> Option<Actuation> {
        let stats = self.core.window.push(obs.sensor_temps)?;
        let reward = self.core.learn(&stats);
        let n = self.core.arms();
        let action = if (self.core.epochs as usize) < n {
            // Initial sweep: one sample per arm.
            self.core.epochs as usize % n
        } else if self.rng.gen::<f64>() < self.epsilon {
            self.rng.gen_range(0..n)
        } else {
            self.core.best_arm()
        };
        Some(self.core.commit(action, &stats, reward, self.epsilon))
    }
}

impl Policy for EpsilonGreedyPolicy {
    fn id(&self) -> PolicyId {
        PolicyId::EpsilonGreedy
    }

    fn set_name(&mut self, name: String) {
        self.core.name = name;
    }

    fn epochs(&self) -> u64 {
        self.core.epochs
    }

    fn last_decision(&self) -> Option<DecisionRecord> {
        self.core.last
    }

    fn snapshot(&self) -> Option<Value> {
        self.core.snapshot(Some(self.rng.state()))
    }

    fn restore(&mut self, v: &Value) -> Result<(), String> {
        self.core.restore(v)?;
        self.rng = StdRng::from_state(get_u64(v, "rng_state")?);
        Ok(())
    }
}

/// UCB1 bandit: deterministic optimism in the face of uncertainty.
/// Unplayed arms first (lowest index), then the arm maximising
/// `mean + c·√(ln t / nᵢ)`.
pub struct Ucb1Policy {
    core: BanditCore,
    c: f64,
}

impl Ucb1Policy {
    /// Creates the policy. UCB1 is deterministic; `_seed` is accepted for
    /// registry uniformity and ignored.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ControlConfig::validate`].
    pub fn new(cfg: ControlConfig, _seed: u64) -> Self {
        Ucb1Policy {
            core: BanditCore::new(cfg, PolicyId::Ucb1),
            c: std::f64::consts::SQRT_2,
        }
    }
}

impl ThermalController for Ucb1Policy {
    fn name(&self) -> &str {
        &self.core.name
    }

    fn sampling_interval(&self) -> f64 {
        self.core.cfg.sampling_interval
    }

    fn on_start(&mut self, num_threads: usize, num_cores: usize) {
        self.core.on_start(num_threads, num_cores);
    }

    fn on_sample(&mut self, obs: &Observation<'_>) -> Option<Actuation> {
        let stats = self.core.window.push(obs.sensor_temps)?;
        let reward = self.core.learn(&stats);
        let action = match self.core.counts.iter().position(|&c| c == 0) {
            Some(unplayed) => unplayed,
            None => {
                let total: u64 = self.core.counts.iter().sum();
                let ln_t = (total.max(1) as f64).ln();
                let mut best = 0;
                let mut best_ucb = f64::NEG_INFINITY;
                for i in 0..self.core.arms() {
                    let bonus = self.c * (ln_t / self.core.counts[i] as f64).sqrt();
                    let ucb = self.core.means[i] + bonus;
                    if ucb > best_ucb {
                        best = i;
                        best_ucb = ucb;
                    }
                }
                best
            }
        };
        Some(self.core.commit(action, &stats, reward, 0.0))
    }
}

impl Policy for Ucb1Policy {
    fn id(&self) -> PolicyId {
        PolicyId::Ucb1
    }

    fn set_name(&mut self, name: String) {
        self.core.name = name;
    }

    fn epochs(&self) -> u64 {
        self.core.epochs
    }

    fn last_decision(&self) -> Option<DecisionRecord> {
        self.core.last
    }

    fn snapshot(&self) -> Option<Value> {
        self.core.snapshot(None)
    }

    fn restore(&mut self, v: &Value) -> Result<(), String> {
        self.core.restore(v)
    }
}

/// Gaussian Thompson-sampling bandit: each epoch samples a plausible
/// mean `μᵢ + zᵢ/√(nᵢ+1)` per arm (standard normal `zᵢ` via Box–Muller
/// over the splitmix64 stream) and plays the argmax. Uncertainty shrinks
/// as arms accumulate plays, so exploration anneals automatically.
pub struct ThompsonPolicy {
    core: BanditCore,
    rng: StdRng,
}

impl ThompsonPolicy {
    /// Creates the policy; the RNG stream is derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ControlConfig::validate`].
    pub fn new(cfg: ControlConfig, seed: u64) -> Self {
        ThompsonPolicy {
            core: BanditCore::new(cfg, PolicyId::Thompson),
            rng: StdRng::seed_from_u64(seed ^ 0x7405_7405_7405_7405),
        }
    }

    /// One standard-normal draw (Box–Muller; the vendored RNG has no
    /// normal distribution).
    fn standard_normal(&mut self) -> f64 {
        // 1 - u ∈ (0, 1], keeping ln() finite.
        let u1 = 1.0 - self.rng.gen::<f64>();
        let u2 = self.rng.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl ThermalController for ThompsonPolicy {
    fn name(&self) -> &str {
        &self.core.name
    }

    fn sampling_interval(&self) -> f64 {
        self.core.cfg.sampling_interval
    }

    fn on_start(&mut self, num_threads: usize, num_cores: usize) {
        self.core.on_start(num_threads, num_cores);
    }

    fn on_sample(&mut self, obs: &Observation<'_>) -> Option<Actuation> {
        let stats = self.core.window.push(obs.sensor_temps)?;
        let reward = self.core.learn(&stats);
        let mut best = 0;
        let mut best_sample = f64::NEG_INFINITY;
        for i in 0..self.core.arms() {
            let sigma = 1.0 / ((self.core.counts[i] + 1) as f64).sqrt();
            let sample = self.core.means[i] + sigma * self.standard_normal();
            if sample > best_sample {
                best = i;
                best_sample = sample;
            }
        }
        Some(self.core.commit(best, &stats, reward, 0.0))
    }
}

impl Policy for ThompsonPolicy {
    fn id(&self) -> PolicyId {
        PolicyId::Thompson
    }

    fn set_name(&mut self, name: String) {
        self.core.name = name;
    }

    fn epochs(&self) -> u64 {
        self.core.epochs
    }

    fn last_decision(&self) -> Option<DecisionRecord> {
        self.core.last
    }

    fn snapshot(&self) -> Option<Value> {
        self.core.snapshot(Some(self.rng.state()))
    }

    fn restore(&mut self, v: &Value) -> Result<(), String> {
        self.core.restore(v)?;
        self.rng = StdRng::from_state(get_u64(v, "rng_state")?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermorl_platform::CounterSnapshot;

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

    fn cfg() -> ControlConfig {
        ControlConfig {
            epoch_samples: 4,
            ..ControlConfig::default()
        }
    }

    fn drive(p: &mut dyn Policy, samples: u64) -> Vec<usize> {
        let freqs = [3.4; 4];
        let mut actions = Vec::new();
        for k in 0..samples {
            let t = 45.0 + (k % 5) as f64;
            let temps = [t, t + 1.0, t - 1.0, t];
            if p.on_sample(&obs(&temps, &freqs, k as f64 * 3.0)).is_some() {
                actions.push(p.last_decision().expect("decision recorded").action);
            }
        }
        actions
    }

    #[test]
    fn bandits_decide_once_per_epoch() {
        for id in [PolicyId::EpsilonGreedy, PolicyId::Ucb1, PolicyId::Thompson] {
            let mut p = id.build(cfg(), 3);
            p.on_start(6, 4);
            let actions = drive(p.as_mut(), 40);
            assert_eq!(actions.len(), 10, "{id}");
            assert_eq!(p.epochs(), 10, "{id}");
        }
    }

    #[test]
    fn initial_sweep_covers_every_arm() {
        // All three play each of the 9 paper actions exactly once in the
        // first 9 epochs (sweep / unplayed-first / wide priors aside, the
        // first two are exact).
        for id in [PolicyId::EpsilonGreedy, PolicyId::Ucb1] {
            let mut p = id.build(cfg(), 3);
            p.on_start(6, 4);
            let actions = drive(p.as_mut(), 9 * 4);
            let mut seen: Vec<usize> = actions.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 9, "{id}: sweep missed arms: {actions:?}");
        }
    }

    #[test]
    fn ucb1_is_deterministic_without_rng() {
        let run = || {
            let mut p = Ucb1Policy::new(cfg(), 0);
            p.on_start(6, 4);
            drive(&mut p, 30 * 4)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        for id in [PolicyId::EpsilonGreedy, PolicyId::Ucb1, PolicyId::Thompson] {
            let mut donor = id.build(cfg(), 9);
            donor.on_start(6, 4);
            drive(donor.as_mut(), 30); // 7 epochs + 2 partial samples
            let line = donor.snapshot().expect("started").to_json();
            let mut twin = id.build(cfg(), 0);
            twin.restore(&Value::parse(&line).expect("parse"))
                .expect("restore");
            let a = drive(donor.as_mut(), 60);
            let b = drive(twin.as_mut(), 60);
            assert_eq!(a, b, "{id} diverged after restore");
            assert_eq!(donor.epochs(), twin.epochs(), "{id}");
            assert_eq!(donor.last_decision(), twin.last_decision(), "{id}");
        }
    }

    #[test]
    fn restore_rejects_foreign_snapshot() {
        let mut donor = Ucb1Policy::new(cfg(), 1);
        donor.on_start(6, 4);
        let snap = donor.snapshot().expect("snapshot");
        let mut other = ThompsonPolicy::new(cfg(), 1);
        assert!(other.restore(&snap).is_err());
    }
}
