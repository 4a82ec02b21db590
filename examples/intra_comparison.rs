//! Intra-application comparison (a single row of the paper's Table 2):
//! Linux ondemand vs Ge & Qiu DAC'11 vs the proposed controller on one
//! benchmark/dataset.
//!
//! ```text
//! cargo run --release --example intra_comparison [tachyon|mpeg_dec|mpeg_enc|face_rec|sphinx] [1|2|3]
//! ```

use thermorl::baselines::GeConfig;
use thermorl::prelude::*;
use thermorl::sim::ThermalController;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "tachyon".into());
    let ds = match std::env::args().nth(2).as_deref() {
        Some("2") => DataSet::Two,
        Some("3") => DataSet::Three,
        _ => DataSet::One,
    };
    let app = alpbench::by_name(&name, ds).unwrap_or_else(|| {
        eprintln!("unknown benchmark `{name}`; using tachyon");
        alpbench::tachyon(ds)
    });
    println!("benchmark: {} ({})\n", app.name, app.dataset);
    println!(
        "{:<16} {:>9} {:>8} {:>8} {:>10} {:>10} {:>9}",
        "policy", "time(s)", "avgT", "peakT", "TC-MTTF", "Age-MTTF", "dynE(kJ)"
    );

    let policies: Vec<Box<dyn ThermalController>> = vec![
        Box::new(NullController::default()),
        Box::new(GeQiu2011Controller::new(GeConfig::default(), 42)),
        Box::new(DasDac14Controller::new(ControlConfig::default(), 42)),
    ];
    for controller in policies {
        let label = controller.name().to_string();
        let outcome = run_app(&app, controller, &SimConfig::default(), 42);
        let r = outcome.reliability_summary();
        println!(
            "{:<16} {:>9.1} {:>8.1} {:>8.1} {:>10.2} {:>10.2} {:>9.1}",
            label,
            outcome.total_time,
            outcome.avg_temperature(),
            outcome.peak_temperature(),
            r.mttf_cycling_years,
            r.mttf_aging_years,
            outcome.dynamic_energy_j / 1e3,
        );
    }
}
