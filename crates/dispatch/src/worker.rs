//! The dispatch worker: a thin loop around the existing campaign
//! machinery.
//!
//! A worker rebuilds the campaign locally (same binary, same builders),
//! connects to the coordinator, and loops: lease up to `workers` jobs,
//! run them on the work-stealing pool (panic isolation and per-attempt
//! timeouts included), stream each finished record back as the verbatim
//! checkpoint line, repeat. A background thread heartbeats the in-flight
//! lease ids so long jobs keep their leases alive.
//!
//! Determinism guards: the welcome's campaign seed must match the local
//! campaign's, and every granted lease's seed must equal the local
//! derivation `job_seed(campaign_seed, key)` — a mismatched binary fails
//! loudly instead of producing records that silently diverge from a
//! serial run.
//!
//! If the coordinator connection drops mid-session the worker abandons
//! its leases (their deadlines re-queue them) and reconnects with
//! exponential backoff; `Done` ends the loop cleanly.

use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use thermorl_runner::{record_line, run_jobs, Campaign, Job, PoolConfig};
use thermorl_telemetry as tel;

use crate::net;
use crate::proto::{read_message, write_message, Lease, Message, PROTOCOL_VERSION};

/// How a worker runs.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address, `"host:port"`. Ignored when
    /// `coordinator_file` is set.
    pub coordinator: String,
    /// Read the coordinator address from this file (written by
    /// `serve --addr-file`), waiting up to `connect_attempts` backoffs
    /// for it to appear.
    pub coordinator_file: Option<PathBuf>,
    /// Pool threads, and the number of leases requested per round.
    pub workers: usize,
    /// Per-attempt wall-clock timeout for leased jobs.
    pub timeout: Option<Duration>,
    /// Pool attempts per job before reporting a failure line.
    pub max_attempts: u32,
    /// Worker identity shown in coordinator logs.
    pub name: String,
    /// Connection attempts before giving up (each backs off
    /// exponentially from `connect_backoff_ms`, capped at 5 s).
    pub connect_attempts: u32,
    /// Initial reconnect backoff in milliseconds.
    pub connect_backoff_ms: u64,
    /// Print progress lines to stderr.
    pub progress: bool,
    /// Shared-secret auth token sent in `hello`; must match the
    /// coordinator's configured secret when it has one.
    pub auth_token: Option<String>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            coordinator: "127.0.0.1:4077".into(),
            coordinator_file: None,
            workers: thermorl_runner::default_workers(),
            timeout: None,
            max_attempts: 2,
            name: format!("worker-{}", std::process::id()),
            connect_attempts: 10,
            connect_backoff_ms: 100,
            progress: true,
            auth_token: None,
        }
    }
}

/// What one worker process contributed to a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Jobs run to a successful record.
    pub completed: u64,
    /// Jobs run to a failure record (panicked / timed out locally).
    pub failed: u64,
    /// Reconnects performed after a dropped coordinator connection.
    pub reconnects: u64,
}

enum SessionEnd {
    /// Coordinator said `Done`: the campaign is resolved.
    Done,
    /// The connection dropped; reconnect and continue.
    Lost(String),
}

/// Runs the worker loop until the coordinator reports the campaign done.
///
/// # Errors
///
/// Fails when the coordinator is unreachable after
/// [`WorkerConfig::connect_attempts`] backoffs, on a protocol error, or
/// on a determinism-guard mismatch (wrong campaign seed or lease seed).
pub fn run_worker<T: Send + 'static>(
    campaign: &Campaign<T>,
    config: &WorkerConfig,
) -> Result<WorkerSummary, String> {
    let codec = *campaign
        .codec()
        .ok_or("dispatch work requires a campaign with a payload codec")?;
    let mut summary = WorkerSummary::default();
    let mut backoff = Duration::from_millis(config.connect_backoff_ms.max(1));
    let mut attempts_left = config.connect_attempts.max(1);
    loop {
        let stream = match connect(config) {
            Ok(stream) => stream,
            Err(e) => {
                attempts_left -= 1;
                if attempts_left == 0 {
                    return Err(format!("cannot reach coordinator: {e}"));
                }
                if config.progress {
                    eprintln!(
                        "[{}] connect failed ({e}); retrying in {backoff:?}",
                        config.name
                    );
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(5));
                continue;
            }
        };
        // Connected: reset the backoff ladder for the next outage.
        backoff = Duration::from_millis(config.connect_backoff_ms.max(1));
        attempts_left = config.connect_attempts.max(1);
        match session(campaign, &codec, config, stream, &mut summary) {
            Ok(SessionEnd::Done) => return Ok(summary),
            Ok(SessionEnd::Lost(why)) => {
                summary.reconnects += 1;
                tel::counter!("dispatch.reconnects");
                tel::event!("dispatch.reconnect", "{}: {why}", config.name);
                if config.progress {
                    eprintln!("[{}] connection lost ({why}); reconnecting", config.name);
                }
            }
            Err(fatal) => return Err(fatal),
        }
    }
}

fn connect(config: &WorkerConfig) -> Result<TcpStream, String> {
    net::connect(&net::resolve_addr(
        &config.coordinator,
        config.coordinator_file.as_deref(),
    )?)
}

/// One connected session: handshake, then lease/run/report until `Done`
/// or the connection drops. Fatal (non-reconnectable) problems are `Err`.
fn session<T: Send + 'static>(
    campaign: &Campaign<T>,
    codec: &thermorl_runner::Codec<T>,
    config: &WorkerConfig,
    stream: TcpStream,
    summary: &mut WorkerSummary,
) -> Result<SessionEnd, String> {
    let writer = Arc::new(Mutex::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?,
    ));
    let mut reader = BufReader::new(stream);
    let send = |message: &Message| -> Result<(), SessionEnd> {
        let mut w = writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        write_message(&mut *w, message).map_err(|e| SessionEnd::Lost(e.to_string()))
    };

    macro_rules! try_send {
        ($msg:expr) => {
            if let Err(end) = send($msg) {
                return Ok(end);
            }
        };
    }

    try_send!(&Message::Hello {
        worker: config.name.clone(),
        protocol: PROTOCOL_VERSION,
        token: config.auth_token.clone(),
    });
    let heartbeat_ms = match next(&mut reader) {
        Ok(Message::Welcome {
            campaign: remote,
            seed,
            total,
            heartbeat_ms,
        }) => {
            if seed != campaign.seed {
                return Err(format!(
                    "campaign seed mismatch: coordinator {remote:?} has seed {seed}, \
                     local {:?} has {} — are the binaries the same build?",
                    campaign.name, campaign.seed
                ));
            }
            if config.progress {
                eprintln!(
                    "[{}] joined campaign {remote:?} ({total} jobs), heartbeat {heartbeat_ms} ms",
                    config.name
                );
            }
            heartbeat_ms
        }
        Ok(Message::Error { message }) => {
            return Err(format!("coordinator rejected us: {message}"))
        }
        Ok(other) => return Err(format!("expected welcome, got {other:?}")),
        Err(end) => return Ok(end),
    };

    // The heartbeat thread shares the write half; each message is one
    // locked write, so lines never interleave with result lines.
    let in_flight: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let heartbeat = {
        let writer = Arc::clone(&writer);
        let in_flight = Arc::clone(&in_flight);
        let stop = Arc::clone(&stop);
        let worker = config.name.clone();
        std::thread::spawn(move || {
            let interval = Duration::from_millis(heartbeat_ms.max(1));
            let tick = Duration::from_millis(heartbeat_ms.clamp(1, 50));
            let mut since_beat = Duration::ZERO;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(tick);
                since_beat += tick;
                if since_beat < interval {
                    continue;
                }
                since_beat = Duration::ZERO;
                let lease_ids = in_flight
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .clone();
                if lease_ids.is_empty() {
                    continue;
                }
                let beat = Message::Heartbeat {
                    worker: worker.clone(),
                    lease_ids,
                };
                let mut w = writer
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if write_message(&mut *w, &beat).is_err() {
                    break; // main loop will notice the dead connection too
                }
            }
        })
    };
    // Whatever way the session ends, stop and join the heartbeat thread.
    let result = session_loop(
        campaign,
        codec,
        config,
        &mut reader,
        &send,
        &in_flight,
        summary,
    );
    stop.store(true, Ordering::Relaxed);
    let _ = heartbeat.join();
    result
}

#[allow(clippy::too_many_arguments)]
fn session_loop<T: Send + 'static>(
    campaign: &Campaign<T>,
    codec: &thermorl_runner::Codec<T>,
    config: &WorkerConfig,
    reader: &mut BufReader<TcpStream>,
    send: &impl Fn(&Message) -> Result<(), SessionEnd>,
    in_flight: &Mutex<Vec<u64>>,
    summary: &mut WorkerSummary,
) -> Result<SessionEnd, String> {
    macro_rules! try_send {
        ($msg:expr) => {
            if let Err(end) = send($msg) {
                return Ok(end);
            }
        };
    }
    loop {
        try_send!(&Message::LeaseRequest {
            worker: config.name.clone(),
            max_jobs: config.workers.max(1) as u64,
            trace: None,
        });
        let leases = match next(reader) {
            Ok(Message::Grant { leases }) => leases,
            Ok(Message::Wait { backoff_ms }) => {
                std::thread::sleep(Duration::from_millis(backoff_ms.clamp(10, 10_000)));
                continue;
            }
            Ok(Message::Done) => {
                let _ = send(&Message::Goodbye {
                    worker: config.name.clone(),
                });
                return Ok(SessionEnd::Done);
            }
            Ok(Message::Error { message }) => return Err(format!("coordinator: {message}")),
            Ok(other) => return Err(format!("expected grant/wait/done, got {other:?}")),
            Err(end) => return Ok(end),
        };

        let (jobs, seeds) = leased_jobs(campaign, &leases)?;
        *in_flight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) =
            leases.iter().map(|l| l.lease_id).collect();
        let lease_of = |key: &str| {
            leases
                .iter()
                .find(|l| l.key == key)
                .map(|l| l.lease_id)
                .expect("record key comes from a granted lease")
        };

        let pool = PoolConfig {
            workers: config.workers.max(1),
            timeout: config.timeout,
            max_attempts: config.max_attempts,
        };
        // Stream each record back the moment it completes; a send failure
        // is remembered and surfaces as a lost session after the pool
        // drains (the coordinator re-leases whatever went unreported).
        let mut lost: Option<SessionEnd> = None;
        let mut done = (0u64, 0u64);
        let records = run_jobs(jobs, seeds, &pool, |record| {
            if lost.is_some() {
                return;
            }
            let line = record_line(record, codec);
            // The job's trace id is derived from its seed (the runner
            // roots the same id around execution), so the coordinator's
            // ingest span joins the job's trace deterministically — the
            // root span context of a seeded trace is (trace_id, trace_id).
            let trace_id = tel::trace_id_from_seed(record.seed);
            let trace = tel::SpanContext {
                trace_id,
                span_id: trace_id,
            }
            .to_traceparent();
            if let Err(end) = send(&Message::Result {
                worker: config.name.clone(),
                lease_id: lease_of(&record.key),
                line,
                trace: Some(trace),
            }) {
                lost = Some(end);
                return;
            }
            if record.outcome.is_completed() {
                done.0 += 1;
            } else {
                done.1 += 1;
            }
            if config.progress {
                eprintln!(
                    "[{}] {} {}",
                    config.name,
                    record.key,
                    record.outcome.describe()
                );
            }
        });
        drop(records);
        summary.completed += done.0;
        summary.failed += done.1;
        in_flight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
        if let Some(end) = lost {
            return Ok(end);
        }
    }
}

/// Resolves granted leases against the local campaign, cross-checking
/// every seed against the local derivation.
fn leased_jobs<T: Send + 'static>(
    campaign: &Campaign<T>,
    leases: &[Lease],
) -> Result<(Vec<Job<T>>, Vec<u64>), String> {
    let mut jobs = Vec::with_capacity(leases.len());
    let mut seeds = Vec::with_capacity(leases.len());
    for lease in leases {
        let job = campaign.job(&lease.key).ok_or_else(|| {
            format!(
                "granted key {:?} is not in the local campaign {:?} — \
                 coordinator and worker must run the same campaign build",
                lease.key, campaign.name
            )
        })?;
        let local_seed = campaign.seed_for(&lease.key);
        if lease.seed != local_seed {
            return Err(format!(
                "seed mismatch for {:?}: lease says {}, local derivation {}",
                lease.key, lease.seed, local_seed
            ));
        }
        jobs.push(job.clone());
        seeds.push(lease.seed);
    }
    Ok((jobs, seeds))
}

fn next(reader: &mut BufReader<TcpStream>) -> Result<Message, SessionEnd> {
    match read_message(reader) {
        Ok(Some(message)) => Ok(message),
        Ok(None) => Err(SessionEnd::Lost("coordinator closed the connection".into())),
        Err(e) => Err(SessionEnd::Lost(e.to_string())),
    }
}
