//! # thermorl
//!
//! A reproduction of *"Reinforcement Learning-Based Inter- and
//! Intra-Application Thermal Optimization for Lifetime Improvement of
//! Multicore Systems"* (Das et al., DAC 2014) as a pure-Rust simulation
//! stack.
//!
//! The paper's Q-learning thermal manager picks, every decision epoch, a
//! joint action of *thread-to-core affinity assignment* and *CPU governor /
//! DVFS setting* so as to maximise lifetime (MTTF) by jointly minimising
//! aging (average temperature) and thermal-cycling stress. This workspace
//! rebuilds the entire experimental platform in software:
//!
//! * [`thermal`] — compact RC thermal model of a quad-core die + sensors,
//! * [`platform`] — cores, DVFS operating points, power/energy, the five
//!   Linux cpufreq governors, an affinity-aware load-balancing scheduler
//!   and synthetic perf counters,
//! * [`workload`] — phase-structured multi-threaded application models
//!   mirroring the ALPBench multimedia suite,
//! * [`reliability`] — rainflow counting, Coffin–Manson, Miner's rule and
//!   Arrhenius aging (Eq. 1–6 of the paper),
//! * [`sim`] — the co-simulation engine and controller interface,
//! * [`control`] — **the paper's contribution**: the dual-Q-table
//!   inter/intra-application learning agent (Algorithm 1),
//! * [`baselines`] — Linux ondemand, static policies and the Ge & Qiu
//!   DAC'11 comparator.
//!
//! # Quickstart
//!
//! ```
//! use thermorl::prelude::*;
//!
//! // Run the proposed controller on one tachyon-like workload.
//! let app = alpbench::tachyon(DataSet::One);
//! let controller = DasDac14Controller::new(ControlConfig::default(), 42);
//! let mut config = SimConfig::default();
//! config.max_sim_time = 120.0; // keep the doc test quick
//! let outcome = run_app(&app, Box::new(controller), &config, 42);
//! let report = outcome.reliability_summary();
//! assert!(report.peak_temp_c < 100.0);
//! ```

pub use thermorl_baselines as baselines;
pub use thermorl_control as control;
pub use thermorl_platform as platform;
pub use thermorl_reliability as reliability;
pub use thermorl_sim as sim;
pub use thermorl_thermal as thermal;
pub use thermorl_workload as workload;

/// Commonly used items, re-exported for one-line imports.
pub mod prelude {
    pub use thermorl_baselines::{FixedPolicy, GeQiu2011Controller};
    pub use thermorl_control::{ControlConfig, DasDac14Controller};
    pub use thermorl_platform::{AffinityMask, GovernorKind, OppTable};
    pub use thermorl_reliability::{ReliabilityAnalyzer, ReliabilityReport, ThermalProfile};
    pub use thermorl_sim::{run_app, run_scenario, NullController, RunOutcome, SimConfig};
    pub use thermorl_thermal::{DieModel, DieParams, Floorplan};
    pub use thermorl_workload::{alpbench, AppModel, DataSet, Scenario};
}
