//! Build your own workload and controller configuration: a bursty
//! "game-engine-like" application, a custom state space and a custom
//! action space, then compare against stock Linux.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use thermorl::control::{ActionSpace, ControlConfig, StateSpace};
use thermorl::platform::{assignment_presets, GovernorKind};
use thermorl::prelude::*;
use thermorl::workload::SyncModel;

fn main() {
    // A bursty 8-thread workload with strong scene modulation: heavy
    // "combat" frames alternate with light "menu" frames every ~15 frames.
    let app = AppModel::builder("game-engine")
        .threads(8)
        .frames(600)
        .parallel_gcycles(0.9)
        .serial_gcycles(0.5)
        .activities(0.8, 0.3)
        .mem_intensity(0.45)
        .jitter(0.1)
        .modulation(0.55, 15)
        .modulate_activity(true)
        .sync(SyncModel::Barrier)
        .perf_constraint_fps(0.9)
        .build()
        .expect("valid model");

    // A finer state space and a custom action menu for this workload.
    let mappings = assignment_presets(app.num_threads, 4);
    let cfg = ControlConfig {
        state_space: StateSpace::new(5, 4, 10.0, 8.0),
        action_space: Some(ActionSpace::cartesian(
            &mappings[..2.min(mappings.len())],
            &[
                GovernorKind::Ondemand,
                GovernorKind::Conservative,
                GovernorKind::Userspace(2),
                GovernorKind::Userspace(4),
            ],
        )),
        ..ControlConfig::default()
    };

    println!("workload: {} ({} threads)\n", app.name, app.num_threads);
    println!(
        "{:<16} {:>9} {:>8} {:>10} {:>10}",
        "policy", "time(s)", "avgT", "TC-MTTF", "Age-MTTF"
    );
    for (label, outcome) in [
        (
            "linux-ondemand",
            run_app(
                &app,
                Box::new(NullController::default()),
                &SimConfig::default(),
                7,
            ),
        ),
        (
            "proposed-custom",
            run_app(
                &app,
                Box::new(DasDac14Controller::new(cfg, 7)),
                &SimConfig::default(),
                7,
            ),
        ),
    ] {
        let r = outcome.reliability_summary();
        println!(
            "{:<16} {:>9.1} {:>8.1} {:>10.2} {:>10.2}",
            label,
            outcome.total_time,
            outcome.avg_temperature(),
            r.mttf_cycling_years,
            r.mttf_aging_years,
        );
    }
}
