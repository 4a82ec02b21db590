//! Golden-decision pin: the paper agent driven through the [`Policy`]
//! trait is bit-identical to the raw [`DasDac14Controller`] — same
//! actuation stream, same epoch counter, same decision records, same
//! snapshot JSON bytes — both sample-by-sample and through a full
//! simulated scenario.

use thermorl_control::{ControlConfig, DasDac14Controller};
use thermorl_platform::CounterSnapshot;
use thermorl_policy::PolicyId;
use thermorl_sim::{run_scenario, Observation, SimConfig, ThermalController};
use thermorl_workload::{alpbench, DataSet, Scenario};

const CORES: usize = 4;
const THREADS: usize = 6;

fn cfg() -> ControlConfig {
    ControlConfig {
        epoch_samples: 4,
        ..ControlConfig::default()
    }
}

fn obs<'a>(
    temps: &'a [f64],
    freqs: &'a [f64],
    k: u64,
    app_index: usize,
    app_switched: bool,
) -> Observation<'a> {
    Observation {
        time: k as f64 * 3.0,
        sensor_temps: temps,
        fps: 1.0,
        perf_constraint: 0.8,
        app_name: if app_index == 0 { "alpha" } else { "beta" },
        app_index,
        app_switched,
        counters: CounterSnapshot::default(),
        core_freq_ghz: freqs,
    }
}

/// A workload stream with thermal phases and an application switch —
/// enough to exercise exploration, epoch closure, the intra-app detector
/// and the inter-app relearning reset.
fn stream(k: u64) -> ([f64; CORES], usize, bool) {
    let base = match k {
        0..=59 => 46.0 + (k % 7) as f64,
        60..=119 => 68.0 + (k % 5) as f64,
        _ => 52.0 + (k % 9) as f64,
    };
    let app = usize::from(k >= 120);
    ([base, base + 1.5, base - 1.0, base + 0.5], app, k == 120)
}

#[test]
fn trait_path_matches_raw_controller_bit_for_bit() {
    let mut raw = DasDac14Controller::new(cfg(), 3);
    let mut via = PolicyId::DasDac14.build(cfg(), 3);
    raw.on_start(THREADS, CORES);
    via.on_start(THREADS, CORES);
    let freqs = [3.4; CORES];

    for k in 0..200u64 {
        let (temps, app, switched) = stream(k);
        let a = raw.on_sample(&obs(&temps, &freqs, k, app, switched));
        let b = via.on_sample(&obs(&temps, &freqs, k, app, switched));
        assert_eq!(a, b, "actuation diverged at sample {k}");
        assert_eq!(raw.epochs(), via.epochs(), "epochs diverged at sample {k}");
    }
    assert!(via.epochs() > 10, "stream must close many epochs");

    let d = raw.last_decision().expect("raw decided");
    let p = via.last_decision().expect("via decided");
    assert_eq!(d.action, p.action);
    assert_eq!(d.stress.to_bits(), p.stress.to_bits());
    assert_eq!(d.aging.to_bits(), p.aging.to_bits());
    assert_eq!(d.reward.to_bits(), p.reward.to_bits());
    assert_eq!(d.alpha.to_bits(), p.alpha.to_bits());

    // The snapshots — Q-table float bits, RNG state, detector windows —
    // serialize to the same bytes.
    assert_eq!(
        raw.snapshot().expect("raw snapshot").to_value().to_json(),
        via.snapshot().expect("via snapshot").to_json(),
        "snapshot JSON must be byte-identical"
    );
}

#[test]
fn full_scenario_outcome_is_identical_through_the_trait() {
    let scenario = Scenario::single(alpbench::tachyon(DataSet::One));
    let sim = SimConfig {
        max_sim_time: 60.0,
        ..SimConfig::default()
    };
    let raw = run_scenario(
        &scenario,
        Box::new(DasDac14Controller::new(ControlConfig::default(), 9)),
        &sim,
        9,
    );
    let via = run_scenario(
        &scenario,
        PolicyId::DasDac14.build(ControlConfig::default(), 9),
        &sim,
        9,
    );
    assert_eq!(raw, via, "whole-run outcome must be identical");
}
