//! thermorl-dispatch: a distributed campaign coordinator with leased
//! jobs, worker heartbeats, and a shared checkpoint store.
//!
//! `thermorl-runner` made a campaign resumable and shardable on one
//! machine; this crate makes it a service. One **coordinator** process
//! owns the job set (it sees a campaign only through
//! [`thermorl_runner::JobSource`]: name, seed, keys — never work
//! functions), hands out **leases** with deadlines over newline-delimited
//! JSON on TCP ([`proto`]), and appends every streamed result to the
//! single authoritative JSONL **checkpoint store** ([`store`]). Any
//! number of **worker** processes connect, lease, run jobs on the
//! existing work-stealing pool (panic isolation, timeouts, retries), and
//! report verbatim checkpoint lines back ([`worker`]).
//!
//! Robustness is lease-shaped: a worker that dies mid-job simply stops
//! heartbeating, its leases expire, and the coordinator re-queues the
//! keys (bounded by a per-job retry cap); a worker that loses the
//! connection reconnects with exponential backoff. Because every job's
//! seed derives from `(campaign_seed, key)` and checkpoint lines carry
//! only schedule-independent fields, the final store — sorted by key —
//! is byte-identical to a serial `run_all` checkpoint, no matter how
//! many workers ran, died, or repeated work.
//!
//! The CLI surface ([`dispatch_command`]) plugs into the campaign
//! binaries as a `dispatch` subcommand:
//!
//! ```text
//! run_all dispatch serve --addr 127.0.0.1:4077 --store results/campaign.jsonl --resume
//! run_all dispatch work  --coordinator HOST:4077 --workers 8
//! run_all dispatch status --coordinator HOST:4077
//! run_all dispatch drain  --coordinator HOST:4077
//! ```

#![deny(missing_docs)]

pub mod coordinator;
pub mod net;
pub mod proto;
pub mod store;
pub mod worker;

use std::path::PathBuf;
use std::time::Duration;

use thermorl_runner::{Campaign, JobSource};
use thermorl_telemetry as tel;

pub use coordinator::{Coordinator, CoordinatorConfig};
pub use proto::{Lease, Message, StatusReport, TraceReport, PROTOCOL_VERSION};
pub use store::CheckpointStore;
pub use worker::{run_worker, WorkerConfig, WorkerSummary};

/// A [`JobSource`] view of another source restricted to keys with a
/// given prefix (the `serve --filter` implementation; handy for smoke
/// tests that dispatch a slice of a large campaign).
pub struct FilteredSource<'a> {
    inner: &'a dyn JobSource,
    prefix: String,
}

impl<'a> FilteredSource<'a> {
    /// Wraps `inner`, keeping only keys starting with `prefix`.
    pub fn new(inner: &'a dyn JobSource, prefix: impl Into<String>) -> Self {
        FilteredSource {
            inner,
            prefix: prefix.into(),
        }
    }
}

impl JobSource for FilteredSource<'_> {
    fn source_name(&self) -> &str {
        self.inner.source_name()
    }
    fn source_seed(&self) -> u64 {
        self.inner.source_seed()
    }
    fn source_keys(&self) -> Vec<String> {
        self.inner
            .source_keys()
            .into_iter()
            .filter(|k| k.starts_with(&self.prefix))
            .collect()
    }
}

/// Sends one control message and reads the status report back.
///
/// # Errors
///
/// Fails when the coordinator is unreachable or replies with anything
/// but a status report.
pub fn control(addr: &str, message: &Message) -> Result<StatusReport, String> {
    match net::request(addr, message)? {
        Message::StatusReport(report) => Ok(report),
        Message::Error { message } => Err(format!("coordinator: {message}")),
        other => Err(format!("expected status_report, got {other:?}")),
    }
}

/// Writes the telemetry snapshot accumulated since `baseline` to `path`
/// (plus structured events to the sibling `*.events.jsonl`), mirroring
/// the runner's `--telemetry` output.
fn write_telemetry(path: &PathBuf, baseline: &tel::Snapshot, progress: bool) -> Result<(), String> {
    let snap = tel::snapshot().since(baseline);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create telemetry dir {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, snap.to_json() + "\n")
        .map_err(|e| format!("cannot write telemetry {}: {e}", path.display()))?;
    let events_path = path.with_extension("events.jsonl");
    let mut lines = String::new();
    for event in &snap.events {
        lines.push_str(&tel::event_jsonl(event));
        lines.push('\n');
    }
    std::fs::write(&events_path, lines).map_err(|e| {
        format!(
            "cannot write telemetry events {}: {e}",
            events_path.display()
        )
    })?;
    if progress {
        let table = snap.render_span_table(10);
        if !table.is_empty() {
            eprintln!("[dispatch] top spans:\n{table}");
        }
        eprintln!("[dispatch] telemetry written to {}", path.display());
    }
    Ok(())
}

/// The `dispatch` subcommand shared by the campaign binaries
/// (`run_all dispatch ...`, `suite dispatch ...`).
///
/// Subcommands:
///
/// * `serve` — coordinate the campaign: `--addr HOST:PORT` (port 0 =
///   ephemeral), `--addr-file PATH` (write the bound address),
///   `--store PATH` (default `default_store`), `--resume`,
///   `--lease-ms N`, `--heartbeat-ms N`, `--max-retries N`,
///   `--linger-ms N` (post-resolution grace for worker `done` replies),
///   `--filter PREFIX` (serve only matching keys), `--telemetry [PATH]`,
///   `--trace` (record distributed traces; enables the `trace`
///   subcommand), `--auth-token SECRET` (reject workers without the
///   secret), `--quiet`. Exits `0` only when every served job completed.
/// * `work` — run jobs: `--coordinator HOST:PORT` or
///   `--coordinator-file PATH`, `--workers N`, `--timeout-s N`,
///   `--name ID`, `--auth-token SECRET`, `--quiet`.
/// * `status` / `drain` — print the coordinator's status report as one
///   JSON line (`drain` also stops new lease grants).
/// * `trace` — print the coordinator's trace report (request-span SLO +
///   slowest/recent trace table) as one JSON line: `--coordinator` /
///   `--coordinator-file` as above, `--max N` rows (default 16). Needs
///   the coordinator running with `--trace`.
///
/// Returns the process exit code, or a usage error message.
///
/// # Errors
///
/// Fails on unknown subcommands/flags, bad flag values, or fatal
/// coordinator/worker errors (unreachable address, protocol mismatch).
pub fn dispatch_command<T: Send + 'static>(
    args: &[String],
    campaign: Campaign<T>,
    default_store: &str,
) -> Result<i32, String> {
    let Some(subcommand) = args.first() else {
        return Err("dispatch needs a subcommand: serve | work | status | drain | trace".into());
    };
    let rest = &args[1..];
    match subcommand.as_str() {
        "serve" => serve_command(rest, &campaign, default_store),
        "work" => work_command(rest, &campaign),
        "status" => control_command(rest, Message::Status),
        "drain" => control_command(rest, Message::Drain),
        "trace" => control_command(rest, Message::Trace { max: 16 }),
        other => Err(format!(
            "unknown dispatch subcommand {other:?} \
             (expected serve | work | status | drain | trace)"
        )),
    }
}

fn parse_u64(flag: &str, value: Option<String>) -> Result<u64, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse::<u64>()
        .map_err(|_| format!("invalid {flag} value {v:?}"))
}

fn serve_command<T: Send + 'static>(
    args: &[String],
    campaign: &Campaign<T>,
    default_store: &str,
) -> Result<i32, String> {
    let mut config = CoordinatorConfig {
        store: PathBuf::from(default_store),
        ..CoordinatorConfig::default()
    };
    let mut filter: Option<String> = None;
    let mut telemetry: Option<PathBuf> = None;
    let mut trace = false;
    let mut args = args.iter().cloned().peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = args.next().ok_or("--addr needs a value")?,
            "--addr-file" => {
                config.addr_file = Some(PathBuf::from(
                    args.next().ok_or("--addr-file needs a path")?,
                ));
            }
            "--store" => config.store = PathBuf::from(args.next().ok_or("--store needs a path")?),
            "--resume" => config.resume = true,
            "--lease-ms" => config.lease_ms = parse_u64("--lease-ms", args.next())?.max(1),
            "--heartbeat-ms" => {
                config.heartbeat_ms = parse_u64("--heartbeat-ms", args.next())?.max(1);
            }
            "--max-retries" => {
                config.max_retries = parse_u64("--max-retries", args.next())? as u32;
            }
            "--linger-ms" => config.linger_ms = parse_u64("--linger-ms", args.next())?,
            "--filter" => filter = Some(args.next().ok_or("--filter needs a key prefix")?),
            "--telemetry" => {
                let path = match args.peek() {
                    Some(next) if !next.starts_with("--") => args.next().expect("peeked value"),
                    _ => "telemetry.json".to_string(),
                };
                telemetry = Some(PathBuf::from(path));
            }
            "--auth-token" => {
                config.auth_token = Some(args.next().ok_or("--auth-token needs a value")?);
            }
            "--trace" => trace = true,
            "--quiet" => config.progress = false,
            other => return Err(format!("unknown dispatch serve flag {other:?}")),
        }
    }
    if telemetry.is_some() || trace {
        tel::set_enabled(true);
    }
    if trace {
        tel::set_trace_enabled(true);
    }
    let baseline = tel::snapshot();
    let progress = config.progress;
    let coordinator = match &filter {
        Some(prefix) => {
            let source = FilteredSource::new(campaign, prefix.clone());
            if source.source_keys().is_empty() {
                return Err(format!("--filter {prefix:?} matches no campaign keys"));
            }
            Coordinator::bind(&source, config)
        }
        None => Coordinator::bind(campaign, config),
    }
    .map_err(|e| format!("dispatch serve: {e}"))?;
    let addr = coordinator.local_addr().map_err(|e| e.to_string())?;
    if progress {
        eprintln!("[dispatch] serving campaign {:?} on {addr}", campaign.name);
    }
    let report = coordinator
        .serve()
        .map_err(|e| format!("dispatch serve: {e}"))?;
    if let Some(path) = &telemetry {
        write_telemetry(path, &baseline, progress)?;
    }
    println!("{}", report.to_json());
    Ok(if report.failed == 0 && report.completed == report.total {
        0
    } else {
        1
    })
}

fn work_command<T: Send + 'static>(args: &[String], campaign: &Campaign<T>) -> Result<i32, String> {
    let mut config = WorkerConfig::default();
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--coordinator" => {
                config.coordinator = args.next().ok_or("--coordinator needs a value")?
            }
            "--coordinator-file" => {
                config.coordinator_file = Some(PathBuf::from(
                    args.next().ok_or("--coordinator-file needs a path")?,
                ));
            }
            "--workers" => {
                config.workers = parse_u64("--workers", args.next())?.max(1) as usize;
            }
            "--timeout-s" => {
                config.timeout = Some(Duration::from_secs(parse_u64("--timeout-s", args.next())?));
            }
            "--name" => config.name = args.next().ok_or("--name needs a value")?,
            "--auth-token" => {
                config.auth_token = Some(args.next().ok_or("--auth-token needs a value")?);
            }
            "--quiet" => config.progress = false,
            other => return Err(format!("unknown dispatch work flag {other:?}")),
        }
    }
    let summary = run_worker(campaign, &config).map_err(|e| format!("dispatch work: {e}"))?;
    if config.progress {
        eprintln!(
            "[{}] done: {} completed, {} failed, {} reconnect(s)",
            config.name, summary.completed, summary.failed, summary.reconnects
        );
    }
    Ok(0)
}

/// `status`, `drain` and `trace`: send `message` (`--max` sets a
/// trace's row bound) and print the report as one JSON line.
fn control_command(args: &[String], mut message: Message) -> Result<i32, String> {
    let mut addr = CoordinatorConfig::default().addr;
    let mut addr_file: Option<PathBuf> = None;
    let mut args = args.iter().cloned();
    while let Some(arg) = args.next() {
        match (arg.as_str(), &mut message) {
            ("--coordinator", _) => addr = args.next().ok_or("--coordinator needs a value")?,
            ("--coordinator-file", _) => {
                addr_file = Some(PathBuf::from(
                    args.next().ok_or("--coordinator-file needs a path")?,
                ));
            }
            ("--max", Message::Trace { max }) => *max = parse_u64("--max", args.next())?,
            (other, _) => return Err(format!("unknown dispatch control flag {other:?}")),
        }
    }
    let addr = net::resolve_addr(&addr, addr_file.as_deref())?;
    let report = match net::request(&addr, &message)? {
        Message::StatusReport(report) => report.to_json(),
        Message::TraceReport(report) => report.to_json(),
        Message::Error { message } => return Err(format!("coordinator: {message}")),
        other => return Err(format!("unexpected reply {other:?}")),
    };
    println!("{report}");
    Ok(0)
}
