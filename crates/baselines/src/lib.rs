//! Baseline thermal-management policies the paper compares against.
//!
//! The stock-kernel baseline (Table 2's "Linux": ondemand governor,
//! load-balanced scheduling, no thermal management) is
//! `thermorl_sim::NullController`.
//!
//! * [`FixedPolicy`] — one-shot static settings: the powersave /
//!   userspace-2.4 GHz / userspace-3.4 GHz rows of Table 3 and the fixed
//!   user assignment of the §3 motivational experiment.
//! * [`GeQiu2011Controller`] — the machine-learning comparator \[7\]
//!   (Ge & Qiu, DAC'11): Q-learning over *instantaneous* sensor
//!   temperature with frequency-only actions, deciding at every sample
//!   (no sampling/epoch decoupling, no affinity control, no thermal-cycling
//!   term). Its "modified" variant accepts the explicit application-switch
//!   signal used in the paper's §6.2 comparison.

#![deny(missing_docs)]

pub mod fixed;
pub mod ge2011;

pub use fixed::FixedPolicy;
pub use ge2011::{GeConfig, GeQiu2011Controller};
