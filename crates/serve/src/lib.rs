//! thermorl-serve: online thermal management as a service.
//!
//! The rest of the workspace evaluates the DAC'14 controller *offline* —
//! simulated scenarios, campaigns, dispatch. This crate turns the
//! controller into a long-running service: a [`Supervisor`] owns one
//! lightweight [`Session`] per managed die (Q-learning agent + sensor
//! history + RC thermal state), fronted by a newline-delimited-JSON TCP
//! API ([`proto`]) that reuses the dispatch crate's wire framing.
//! Sessions are sharded across worker threads by die-id hash, so one
//! die's samples serialize while distinct dies proceed in parallel.
//!
//! The service is **crash-safe by snapshot**: sessions serialize their
//! full mutable state (Q-tables, agent RNG, detector windows, RC node
//! temperatures, sensor noise streams) into the dispatch crate's
//! append-only checkpoint store at decision-epoch boundaries and on
//! detach. A supervisor that is killed and restarted resumes every die
//! from its last snapshot, and — because the controller is deterministic
//! given its state and inputs — replaying observes from `acked_seq + 1`
//! yields a decision stream identical to an uninterrupted run.
//!
//! The CLI surface ([`serve_command`]) plugs into the `serve` binary:
//!
//! ```text
//! serve run   --addr 127.0.0.1:0 --addr-file /tmp/serve.addr --store snapshots.jsonl
//! serve bench --addr-file /tmp/serve.addr --dies 8 --rate 2000 --requests 4000
//! serve stats --addr-file /tmp/serve.addr
//! serve trace --addr-file /tmp/serve.addr --max 16
//! serve selftest-trace --out serve-trace.json
//! serve shutdown --addr-file /tmp/serve.addr [--hard]
//! ```
//!
//! # Observability
//!
//! `serve run --trace` turns on distributed tracing: every observe
//! carrying a `traceparent` joins the client's trace, and the request's
//! spans — connection thread, shard worker, batched thermal step — nest
//! under it. `--chrome PATH` exports the recorded spans as Chrome
//! trace-event JSON on shutdown (open it at <https://ui.perfetto.dev>),
//! `--flight PATH` arms the flight recorder (panic / SIGUSR1 dump of the
//! last spans and events), and `--slo-objective-us` sets the latency
//! objective that `stats` and `trace` replies report error-budget burn
//! against.

#![deny(missing_docs)]

pub(crate) mod batcher;
pub mod bench;
pub mod proto;
pub mod selftest;
pub mod session;
pub mod supervisor;

use std::path::PathBuf;

use thermorl_telemetry as tel;

pub use bench::{run_bench, BenchConfig, BenchReport};
pub use proto::{Decision, Message, StatsReport, SERVE_PROTOCOL_VERSION};
pub use selftest::{run_trace_selftest, TraceSelftest};
pub use session::{BeginOutcome, Session, SessionMode, StepOutcome};
pub use supervisor::{ServeConfig, ServeReport, Supervisor, SupervisorHandle};

use thermorl_dispatch::net;
use thermorl_dispatch::proto::WireMessage;

/// Sends one message to a running supervisor and reads one reply.
///
/// # Errors
///
/// Fails when the supervisor is unreachable, closes the connection, or
/// replies with an `error`.
pub fn control(addr: &str, message: &Message) -> Result<Message, String> {
    match net::request(addr, message)? {
        Message::Error { message } => Err(format!("supervisor: {message}")),
        reply => Ok(reply),
    }
}

fn parse_u64(flag: &str, value: Option<String>) -> Result<u64, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse::<u64>()
        .map_err(|_| format!("invalid {flag} value {v:?}"))
}

fn parse_f64(flag: &str, value: Option<String>) -> Result<f64, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse::<f64>()
        .map_err(|_| format!("invalid {flag} value {v:?}"))
}

/// The `serve` CLI.
///
/// Subcommands:
///
/// * `run` — start the supervisor: `--addr HOST:PORT` (port 0 =
///   ephemeral), `--addr-file PATH` (write the bound address),
///   `--store PATH` (snapshot store), `--fresh` (ignore existing
///   snapshots), `--shards N`, `--seed N`, `--snapshot-every EPOCHS`,
///   `--epoch-samples N`, `--telemetry [PATH]`, `--trace` (distributed
///   tracing), `--chrome PATH` (Chrome trace export on shutdown),
///   `--flight PATH` (panic/SIGUSR1 flight recorder),
///   `--slo-objective-us N` (latency objective for the SLO tracker),
///   `--quiet`. Runs until a client sends `shutdown`.
/// * `bench` — drive a running supervisor: `--addr HOST:PORT` or
///   `--addr-file PATH`, `--dies N`, `--cores N`, `--rate RPS`,
///   `--requests N`, `--connections N`, `--out PATH`
///   (default `BENCH_serve.json`), `--quick` (small fast preset).
///   Prints the report as one JSON line.
/// * `stats` — print the supervisor's counters and SLO summary as one
///   JSON line.
/// * `trace` — print the supervisor's trace report (SLO summary, slowest
///   traces, recent traces) as one JSON line; `--max N` caps the rows.
/// * `selftest-trace` — run the in-process end-to-end trace selftest and
///   export the Chrome trace (`--out PATH`, default `serve-trace.json`);
///   exits nonzero unless a complete client → serve → shard →
///   batch-step trace was recorded.
/// * `shutdown` — stop the supervisor; `--hard` skips the final
///   snapshot pass (crash simulation).
///
/// Returns the process exit code.
///
/// # Errors
///
/// Fails on unknown subcommands/flags, bad flag values, or fatal
/// supervisor/client errors.
pub fn serve_command(args: &[String]) -> Result<i32, String> {
    let Some(subcommand) = args.first() else {
        return Err(
            "serve needs a subcommand: run | bench | stats | trace | selftest-trace | shutdown"
                .into(),
        );
    };
    let rest = &args[1..];
    match subcommand.as_str() {
        "run" => run_command(rest),
        "bench" => bench_command(rest),
        "stats" => stats_command(rest),
        "trace" => trace_command(rest),
        "selftest-trace" => selftest_trace_command(rest),
        "shutdown" => shutdown_command(rest),
        other => Err(format!(
            "unknown serve subcommand {other:?} \
             (expected run | bench | stats | trace | selftest-trace | shutdown)"
        )),
    }
}

fn run_command(args: &[String]) -> Result<i32, String> {
    let mut config = ServeConfig::default();
    let mut telemetry: Option<PathBuf> = None;
    let mut trace = false;
    let mut flight: Option<PathBuf> = None;
    let mut chrome: Option<PathBuf> = None;
    let mut args = args.iter().cloned().peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => trace = true,
            "--flight" => {
                flight = Some(PathBuf::from(args.next().ok_or("--flight needs a path")?));
            }
            "--chrome" => {
                chrome = Some(PathBuf::from(args.next().ok_or("--chrome needs a path")?));
            }
            "--slo-objective-us" => {
                config.slo_objective_us = parse_u64("--slo-objective-us", args.next())?.max(1);
            }
            "--addr" => config.addr = args.next().ok_or("--addr needs a value")?,
            "--addr-file" => {
                config.addr_file = Some(PathBuf::from(
                    args.next().ok_or("--addr-file needs a path")?,
                ));
            }
            "--store" => config.store = PathBuf::from(args.next().ok_or("--store needs a path")?),
            "--fresh" => config.resume = false,
            "--shards" => config.shards = parse_u64("--shards", args.next())?.max(1) as usize,
            "--seed" => config.seed = parse_u64("--seed", args.next())?,
            "--snapshot-every" => {
                config.snapshot_every = parse_u64("--snapshot-every", args.next())?;
            }
            "--epoch-samples" => {
                config.epoch_samples = parse_u64("--epoch-samples", args.next())?.max(1) as usize;
            }
            "--telemetry" => {
                let path = match args.peek() {
                    Some(next) if !next.starts_with("--") => args.next().expect("peeked value"),
                    _ => "telemetry.json".to_string(),
                };
                telemetry = Some(PathBuf::from(path));
            }
            "--quiet" => config.quiet = true,
            other => return Err(format!("unknown serve run flag {other:?}")),
        }
    }
    if telemetry.is_some() || trace || chrome.is_some() || flight.is_some() {
        tel::set_enabled(true);
    }
    if trace || chrome.is_some() || flight.is_some() {
        tel::set_trace_enabled(true);
    }
    if let Some(path) = &flight {
        tel::install_flight_recorder(path.clone());
    }
    let baseline = tel::snapshot();
    let quiet = config.quiet;
    let report = Supervisor::run(config).map_err(|e| format!("serve run: {e}"))?;
    if let Some(path) = &telemetry {
        let snap = tel::snapshot().since(&baseline);
        std::fs::write(path, snap.to_json() + "\n")
            .map_err(|e| format!("cannot write telemetry {}: {e}", path.display()))?;
        if !quiet {
            eprintln!("[serve] telemetry written to {}", path.display());
        }
    }
    if let Some(path) = &chrome {
        std::fs::write(path, tel::snapshot().to_chrome_trace())
            .map_err(|e| format!("cannot write chrome trace {}: {e}", path.display()))?;
        if !quiet {
            eprintln!("[serve] chrome trace written to {}", path.display());
        }
    }
    println!("{}", Message::Report(report.stats).to_line());
    Ok(0)
}

fn bench_command(args: &[String]) -> Result<i32, String> {
    let mut config = BenchConfig::default();
    let mut addr_file: Option<PathBuf> = None;
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = args.next().ok_or("--addr needs a value")?,
            "--addr-file" => {
                addr_file = Some(PathBuf::from(
                    args.next().ok_or("--addr-file needs a path")?,
                ));
            }
            "--dies" => config.dies = parse_u64("--dies", args.next())?.max(1) as usize,
            "--cores" => config.cores = parse_u64("--cores", args.next())?.max(1) as usize,
            "--rate" => config.rate = parse_f64("--rate", args.next())?,
            "--requests" => config.requests = parse_u64("--requests", args.next())?,
            "--connections" => {
                config.connections = parse_u64("--connections", args.next())?.max(1) as usize;
            }
            "--out" => config.out = Some(PathBuf::from(args.next().ok_or("--out needs a path")?)),
            "--quick" => {
                config.quick = true;
                config.dies = 4;
                config.requests = 600;
                config.rate = 3000.0;
                config.connections = 2;
            }
            other => return Err(format!("unknown serve bench flag {other:?}")),
        }
    }
    config.addr = net::resolve_addr(&config.addr, addr_file.as_deref())?;
    if config.addr.is_empty() {
        return Err("serve bench needs --addr or --addr-file".into());
    }
    let report = run_bench(&config)?;
    println!("{}", report.to_value().to_json());
    Ok(0)
}

fn control_flags(args: &[String], extra: Option<&str>) -> Result<(String, bool), String> {
    let mut addr = String::new();
    let mut addr_file: Option<PathBuf> = None;
    let mut flag = false;
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().ok_or("--addr needs a value")?,
            "--addr-file" => {
                addr_file = Some(PathBuf::from(
                    args.next().ok_or("--addr-file needs a path")?,
                ));
            }
            other if Some(other) == extra => flag = true,
            other => return Err(format!("unknown serve flag {other:?}")),
        }
    }
    let addr = net::resolve_addr(&addr, addr_file.as_deref())?;
    if addr.is_empty() {
        return Err("serve needs --addr or --addr-file".into());
    }
    Ok((addr, flag))
}

fn stats_command(args: &[String]) -> Result<i32, String> {
    let (addr, _) = control_flags(args, None)?;
    match control(&addr, &Message::Stats)? {
        report @ Message::Report(_) => {
            println!("{}", report.to_line());
            Ok(0)
        }
        other => Err(format!("expected stats_report, got {other:?}")),
    }
}

fn trace_command(args: &[String]) -> Result<i32, String> {
    let mut max = 16u64;
    let mut passthrough = Vec::new();
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max" => max = parse_u64("--max", args.next())?,
            other => passthrough.push(other.to_string()),
        }
    }
    let (addr, _) = control_flags(&passthrough, None)?;
    match control(&addr, &Message::Trace { max })? {
        Message::Traces(report) => {
            println!("{}", report.to_json());
            Ok(0)
        }
        other => Err(format!("expected trace_report, got {other:?}")),
    }
}

fn selftest_trace_command(args: &[String]) -> Result<i32, String> {
    let mut out = PathBuf::from("serve-trace.json");
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = PathBuf::from(args.next().ok_or("--out needs a path")?),
            other => return Err(format!("unknown serve selftest-trace flag {other:?}")),
        }
    }
    let selftest = selftest::run_trace_selftest(Some(&out))?;
    println!("{}", selftest.to_value().to_json());
    Ok(0)
}

fn shutdown_command(args: &[String]) -> Result<i32, String> {
    let (addr, hard) = control_flags(args, Some("--hard"))?;
    match control(&addr, &Message::Shutdown { hard })? {
        Message::ShuttingDown => Ok(0),
        other => Err(format!("expected shutting_down, got {other:?}")),
    }
}
