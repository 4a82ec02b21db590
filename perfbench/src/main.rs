//! perfbench: the end-to-end and per-layer benchmark of thermorl.
//!
//! Normally started through `python3 perfbench/run.py`, which builds this
//! package and prints the machine fingerprint first. Usage:
//!
//! ```text
//! perfbench --workload serve_steady|serve_saturate|tournament \
//!           --seed N --seconds S --trace 0|1 [--work-dir DIR]
//! perfbench supervisor <serve run flags>   # a real `serve run` process
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Untraced runs
//! (`--trace 0`) report the end-to-end metrics of [`END_TO_END`]; traced
//! runs report every per-layer metric of [`PER_LAYER`], with 0 for a
//! layer the workload does not exercise. Everything above that line is a
//! human-readable account of the run (inputs, checks, layer table).

mod replay;
mod serve_load;
mod stats;
mod tournament;

use std::path::PathBuf;

/// End-to-end metrics, reported by every workload: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_us", "us"),
    ("latency_p75_us", "us"),
    ("throughput_per_s", "1/s"),
    ("sim_s_per_wall_s", "s/s"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 42] = [
    // serve supervisor and shards (server-side spans from `--telemetry`)
    ("serve.request_mean_us", "us"),
    ("serve.request_p99_us", "us"),
    ("shard.observe_mean_us", "us"),
    ("serve.route_wait_mean_us", "us"),
    ("serve.batch_width_mean", "count"),
    ("serve.snapshot_writes_per_kobs", "count"),
    ("store.bytes_per_observe", "B"),
    ("serve.stalls_over_32ms", "count"),
    ("serve.stage_coverage", "ratio"),
    // wire codec and session, replayed on one thread
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("session.begin_step_ns", "ns"),
    ("session.finish_step_ns", "ns"),
    ("session.snapshot_line_ns", "ns"),
    ("store.ingest_us", "us"),
    // thermal kernel
    ("thermal.step_share", "ratio"),
    ("thermal.step_ns_per_sim_s.quad", "ns"),
    ("thermal.step_ns_per_sim_s.grid_4x4", "ns"),
    ("thermal.batch_step_mean_us", "us"),
    ("thermal.propagator_builds", "count"),
    ("thermal.adaptive_steps", "count"),
    ("thermal.cg_iterations", "count"),
    // policy / control agent
    ("policy.on_sample_ns", "ns"),
    ("policy.decisions", "count"),
    ("policy.share", "ratio"),
    // platform + workload + sim engine
    ("sim.other_share", "ratio"),
    // reliability
    ("reliability.summary_us", "us"),
    ("reliability.share", "ratio"),
    ("reliability.mttf_years_mean", "years"),
    ("power.energy_kj_mean", "kJ"),
    // runner
    ("runner.cell_wall_p50_ms", "ms"),
    ("runner.cell_wall_max_ms", "ms"),
    ("runner.checkpoint_bytes", "B"),
    ("runner.overhead_share", "ratio"),
    // telemetry
    ("telemetry.overhead_pct", "%"),
    ("trace.spans_dropped", "count"),
    // load generator
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.requests_sent", "count"),
    ("loadgen.samples", "count"),
    ("loadgen.rtt_mean_us", "us"),
    ("loadgen.latency_p99_us", "us"),
    ("loadgen.latency_p999_us", "us"),
];

/// What one invocation measured.
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Requests (serve) or tournament cells attempted.
    pub attempted: u64,
    /// Attempts that failed, were refused or errored.
    pub failed: u64,
    /// Measured metrics by name (a subset of the list the mode reports).
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records `name = value`; `name` must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Fails the run's correctness with a printed reason.
    pub fn check(&mut self, ok: bool, what: &str) {
        println!("check {}: {what}", if ok { "ok  " } else { "FAIL" });
        self.correct &= ok;
    }
}

/// The parsed command line of a measured run.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Working directory for stores, telemetry and address files.
    pub work_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_work");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
    })
}

fn json_line(report: &Report, listed: &[(&str, &str)]) -> String {
    let mut fields = Vec::with_capacity(listed.len());
    let mut finite = true;
    for (name, unit) in listed {
        let value = report
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        finite &= value.is_finite();
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct && finite,
        report.attempted.max(1),
        report.failed,
        fields.join(",")
    )
}

fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    match args.workload.as_str() {
        "serve_steady" => serve_load::run(args, serve_load::Mode::Steady, &mut report)?,
        "serve_saturate" => serve_load::run(args, serve_load::Mode::Saturate, &mut report)?,
        "tournament" => tournament::run(args, &mut report)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    Ok(report)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("supervisor") {
        let mut serve_args = vec!["run".to_string()];
        serve_args.extend(argv[1..].iter().cloned());
        match thermorl_serve::serve_command(&serve_args) {
            Ok(code) => std::process::exit(code),
            Err(message) => {
                eprintln!("supervisor: {message}");
                std::process::exit(2);
            }
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
            println!("{}", json_line(&report, listed));
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
