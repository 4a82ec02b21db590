//! The wire protocol: newline-delimited JSON messages over TCP.
//!
//! Every message is one JSON object on one line, tagged with a `"type"`
//! field. Workers speak first (`hello`), then loop on `lease_request` →
//! `grant`/`wait`/`done`; `heartbeat` and `result` are fire-and-forget
//! (no response), which keeps the worker's writer shareable between its
//! main loop and its heartbeat thread without any read multiplexing.
//! Control clients send `status` or `drain` and read one `status_report`
//! back.
//!
//! Result lines travel **verbatim**: a worker serialises the finished
//! [`thermorl_runner::JobRecord`] with the campaign codec into exactly
//! the line a local checkpoint would contain, and the coordinator appends
//! that string to the shared store without decoding the payload. The
//! store therefore stays codec-free (like `checkpoint::merge`) and the
//! final checkpoint is byte-identical to a serial run's, sorted by key.

use std::io::{self, BufRead, Write};

use thermorl_sim::json::Value;
use thermorl_telemetry::{slo_summary, summarize_traces, SloConfig, SloSummary, TraceSummary};

/// Protocol version sent in `hello`; the coordinator rejects mismatches
/// so a stale worker binary fails loudly instead of mis-running jobs.
pub const PROTOCOL_VERSION: u64 = 1;

/// A message type that frames as one JSON line — the contract
/// [`write_message`] / [`read_message`] work against, so other NDJSON
/// protocols in the workspace (e.g. `thermorl-serve`) reuse this module's
/// framing instead of reimplementing it.
pub trait WireMessage: Sized {
    /// Encodes the message as its single-line JSON form (no newline).
    fn to_line(&self) -> String;

    /// Decodes one line back into a message.
    ///
    /// # Errors
    ///
    /// Fails on invalid JSON, a missing/unknown `type` tag, or missing
    /// required fields.
    fn parse(line: &str) -> Result<Self, String>;
}

/// Required string field of a parsed message object (`tag` names the
/// message type in the error).
///
/// # Errors
///
/// Fails when the field is missing or not a string.
pub fn str_field(v: &Value, tag: &str, name: &str) -> Result<String, String> {
    v.get(name)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{tag} message missing {name:?}"))
}

/// Optional string field of a parsed message object.
pub fn opt_str_field(v: &Value, name: &str) -> Option<String> {
    v.get(name).and_then(Value::as_str).map(str::to_string)
}

/// Required unsigned integer field of a parsed message object.
///
/// # Errors
///
/// Fails when the field is missing or not an unsigned integer.
pub fn u64_field(v: &Value, tag: &str, name: &str) -> Result<u64, String> {
    v.get(name)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{tag} message missing {name:?}"))
}

/// Required float field of a parsed message object.
///
/// # Errors
///
/// Fails when the field is missing or not a number.
pub fn f64_field(v: &Value, tag: &str, name: &str) -> Result<f64, String> {
    v.get(name)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{tag} message missing {name:?}"))
}

/// Required bool field of a parsed message object.
///
/// # Errors
///
/// Fails when the field is missing or not a bool.
pub fn bool_field(v: &Value, tag: &str, name: &str) -> Result<bool, String> {
    v.get(name)
        .and_then(Value::as_bool)
        .ok_or_else(|| format!("{tag} message missing {name:?}"))
}

/// Required array-of-floats field of a parsed message object.
///
/// # Errors
///
/// Fails when the field is missing or any element is not a number.
pub fn f64_arr_field(v: &Value, tag: &str, name: &str) -> Result<Vec<f64>, String> {
    v.get(name)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{tag} message missing {name:?}"))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("{tag} message has a bad number in {name:?}"))
        })
        .collect()
}

/// Required 16-hex-digit id field of a parsed message object. Trace and
/// span ids travel as hex strings (not JSON numbers) so they survive
/// readers that coerce every number through an `f64`.
///
/// # Errors
///
/// Fails when the field is missing, not a string, or not valid hex.
pub fn hex_id_field(v: &Value, tag: &str, name: &str) -> Result<u64, String> {
    let s = str_field(v, tag, name)?;
    u64::from_str_radix(&s, 16).map_err(|_| format!("{tag} message has a bad hex id in {name:?}"))
}

/// Renders an SLO summary as a JSON object — the shared shape of the
/// serve and dispatch `stats`/`trace` replies.
pub fn slo_to_value(slo: &SloSummary) -> Value {
    let mut v = Value::object();
    v.set("count", Value::UInt(slo.count))
        .set("p50_ns", Value::UInt(slo.p50_ns))
        .set("p99_ns", Value::UInt(slo.p99_ns))
        .set("objective_ns", Value::UInt(slo.objective_ns))
        .set("target", Value::num(slo.target))
        .set("over_objective", Value::UInt(slo.over_objective))
        .set("error_rate", Value::num(slo.error_rate))
        .set("budget_burn", Value::num(slo.budget_burn));
    v
}

/// Parses an SLO summary object back ([`slo_to_value`]'s inverse).
///
/// # Errors
///
/// Fails when any field is missing or mistyped.
pub fn slo_from_value(v: &Value, tag: &str) -> Result<SloSummary, String> {
    Ok(SloSummary {
        count: u64_field(v, tag, "count")?,
        p50_ns: u64_field(v, tag, "p50_ns")?,
        p99_ns: u64_field(v, tag, "p99_ns")?,
        objective_ns: u64_field(v, tag, "objective_ns")?,
        target: f64_field(v, tag, "target")?,
        over_objective: u64_field(v, tag, "over_objective")?,
        error_rate: f64_field(v, tag, "error_rate")?,
        budget_burn: f64_field(v, tag, "budget_burn")?,
    })
}

/// Renders one trace-summary table row as a JSON object (trace id as a
/// 16-hex string).
pub fn trace_summary_to_value(t: &TraceSummary) -> Value {
    let mut v = Value::object();
    v.set("trace_id", Value::Str(format!("{:016x}", t.trace_id)))
        .set("root", Value::Str(t.root_name.clone()))
        .set("start_us", Value::UInt(t.start_us))
        .set("dur_us", Value::UInt(t.dur_us))
        .set("spans", Value::UInt(t.spans))
        .set("orphans", Value::UInt(t.orphans));
    v
}

/// Parses a trace-summary row back ([`trace_summary_to_value`]'s
/// inverse).
///
/// # Errors
///
/// Fails when any field is missing or mistyped.
pub fn trace_summary_from_value(v: &Value, tag: &str) -> Result<TraceSummary, String> {
    Ok(TraceSummary {
        trace_id: hex_id_field(v, tag, "trace_id")?,
        root_name: str_field(v, tag, "root")?,
        start_us: u64_field(v, tag, "start_us")?,
        dur_us: u64_field(v, tag, "dur_us")?,
        spans: u64_field(v, tag, "spans")?,
        orphans: u64_field(v, tag, "orphans")?,
    })
}

/// The live tracing surface a `trace` request returns: the SLO state of
/// the server's request span plus summaries of the slowest and the most
/// recent captured traces. One shape shared by the dispatch coordinator
/// and the serve supervisor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// SLO state of the server's request-handling span histogram.
    pub slo: SloSummary,
    /// Slowest captured traces, longest first.
    pub slowest: Vec<TraceSummary>,
    /// Most recent captured traces, oldest first.
    pub recent: Vec<TraceSummary>,
}

impl TraceReport {
    /// Renders the report body (no `"type"` tag) as a JSON object.
    pub fn to_value(&self) -> Value {
        let mut v = Value::object();
        v.set("slo", slo_to_value(&self.slo))
            .set(
                "slowest",
                Value::Arr(self.slowest.iter().map(trace_summary_to_value).collect()),
            )
            .set(
                "recent",
                Value::Arr(self.recent.iter().map(trace_summary_to_value).collect()),
            );
        v
    }

    /// Parses a report body back ([`TraceReport::to_value`]'s inverse).
    ///
    /// # Errors
    ///
    /// Fails when any field is missing or mistyped.
    pub fn from_value(v: &Value, tag: &str) -> Result<TraceReport, String> {
        let rows = |name: &str| -> Result<Vec<TraceSummary>, String> {
            v.get(name)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{tag} message missing {name:?}"))?
                .iter()
                .map(|row| trace_summary_from_value(row, tag))
                .collect()
        };
        Ok(TraceReport {
            slo: slo_from_value(
                v.get("slo")
                    .ok_or_else(|| format!("{tag} message missing \"slo\""))?,
                tag,
            )?,
            slowest: rows("slowest")?,
            recent: rows("recent")?,
        })
    }

    /// The report as one JSON line for the `trace` subcommands.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }
}

/// Builds the `trace` reply from a telemetry snapshot: SLO over the
/// named request span's histogram, plus the `max` slowest and `max` most
/// recent captured traces.
pub fn build_trace_report(
    snap: &thermorl_telemetry::Snapshot,
    span_name: &str,
    cfg: &SloConfig,
    max: usize,
) -> TraceReport {
    let slo = snap
        .spans
        .get(span_name)
        .map(|s| slo_summary(&s.hist, cfg))
        .unwrap_or_else(|| SloSummary {
            objective_ns: cfg.objective_ns,
            target: cfg.target,
            ..SloSummary::default()
        });
    let rows = summarize_traces(&snap.trace_spans);
    let mut slowest = rows.clone();
    slowest.sort_by_key(|t| (std::cmp::Reverse(t.dur_us), std::cmp::Reverse(t.trace_id)));
    slowest.truncate(max);
    let recent = rows[rows.len().saturating_sub(max)..].to_vec();
    TraceReport {
        slo,
        slowest,
        recent,
    }
}

/// One leased job: the coordinator's promise that `key` is this worker's
/// to run until `deadline_ms` elapses without a heartbeat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Coordinator-unique lease id (never reused within one campaign).
    pub lease_id: u64,
    /// The job key (addresses the checkpoint record and the seed).
    pub key: String,
    /// The derived job seed (`job_seed(campaign_seed, key)`), computed by
    /// the coordinator so every worker sees the authoritative value.
    pub seed: u64,
    /// How long the lease lives without a heartbeat, in milliseconds.
    pub deadline_ms: u64,
}

/// Aggregate campaign state returned for `status` / `drain`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatusReport {
    /// Campaign name.
    pub campaign: String,
    /// Total jobs in the campaign.
    pub total: u64,
    /// Jobs completed (including resumed ones).
    pub completed: u64,
    /// Jobs permanently failed (retry cap exhausted).
    pub failed: u64,
    /// Jobs waiting in the queue.
    pub queued: u64,
    /// Jobs currently leased to workers.
    pub leased: u64,
    /// Whether the coordinator is draining (no new leases granted).
    pub draining: bool,
}

/// A protocol message (either direction).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker → coordinator: handshake.
    Hello {
        /// Worker identity (for logs and lease bookkeeping).
        worker: String,
        /// Must equal [`PROTOCOL_VERSION`].
        protocol: u64,
        /// Shared-secret auth token; must match the coordinator's
        /// configured secret when it has one. `None` when the deployment
        /// runs without authentication.
        token: Option<String>,
    },
    /// Worker → coordinator: request up to `max_jobs` leases.
    LeaseRequest {
        /// Worker identity.
        worker: String,
        /// Upper bound on leases to grant (the worker's free slots).
        max_jobs: u64,
        /// Optional W3C-style `traceparent` — the coordinator's handling
        /// span joins the sender's trace when present.
        trace: Option<String>,
    },
    /// Worker → coordinator: extend the deadlines of in-flight leases.
    /// Fire-and-forget.
    Heartbeat {
        /// Worker identity.
        worker: String,
        /// The leases still being worked on.
        lease_ids: Vec<u64>,
    },
    /// Worker → coordinator: one finished job. Fire-and-forget.
    Result {
        /// Worker identity.
        worker: String,
        /// The lease this result fulfils (stale ids are resolved by key).
        lease_id: u64,
        /// The verbatim checkpoint line for the finished job.
        line: String,
        /// Optional W3C-style `traceparent` of the job's (deterministic,
        /// seed-derived) trace — ingest joins the job's trace.
        trace: Option<String>,
    },
    /// Control client → coordinator: report campaign state.
    Status,
    /// Control client → coordinator: report sampled traces and the
    /// request-span SLO.
    Trace {
        /// Upper bound on slowest/recent rows returned.
        max: u64,
    },
    /// Control client → coordinator: stop granting leases; exit once
    /// in-flight leases resolve or expire.
    Drain,
    /// Worker → coordinator: clean disconnect.
    Goodbye {
        /// Worker identity.
        worker: String,
    },
    /// Coordinator → worker: handshake reply.
    Welcome {
        /// Campaign name.
        campaign: String,
        /// Campaign seed (workers cross-check their local rebuild).
        seed: u64,
        /// Total jobs in the campaign.
        total: u64,
        /// Interval at which the worker should heartbeat, in ms.
        heartbeat_ms: u64,
    },
    /// Coordinator → worker: granted leases (non-empty).
    Grant {
        /// The granted leases.
        leases: Vec<Lease>,
    },
    /// Coordinator → worker: nothing grantable right now, retry after
    /// `backoff_ms`.
    Wait {
        /// Suggested sleep before the next `lease_request`.
        backoff_ms: u64,
    },
    /// Coordinator → worker: the campaign is resolved (or draining);
    /// disconnect.
    Done,
    /// Coordinator → control client: campaign state.
    StatusReport(StatusReport),
    /// Coordinator → control client: sampled traces and request SLO.
    TraceReport(TraceReport),
    /// Coordinator → peer: protocol error (connection closes after).
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Message {
    /// Encodes the message as its single-line JSON form (no newline).
    pub fn to_line(&self) -> String {
        let mut obj = Value::object();
        match self {
            Message::Hello {
                worker,
                protocol,
                token,
            } => {
                obj.set("type", Value::Str("hello".into()));
                obj.set("worker", Value::Str(worker.clone()));
                obj.set("protocol", Value::UInt(*protocol));
                if let Some(token) = token {
                    obj.set("token", Value::Str(token.clone()));
                }
            }
            Message::LeaseRequest {
                worker,
                max_jobs,
                trace,
            } => {
                obj.set("type", Value::Str("lease_request".into()));
                obj.set("worker", Value::Str(worker.clone()));
                obj.set("max_jobs", Value::UInt(*max_jobs));
                if let Some(trace) = trace {
                    obj.set("trace", Value::Str(trace.clone()));
                }
            }
            Message::Heartbeat { worker, lease_ids } => {
                obj.set("type", Value::Str("heartbeat".into()));
                obj.set("worker", Value::Str(worker.clone()));
                obj.set(
                    "lease_ids",
                    Value::Arr(lease_ids.iter().map(|&id| Value::UInt(id)).collect()),
                );
            }
            Message::Result {
                worker,
                lease_id,
                line,
                trace,
            } => {
                obj.set("type", Value::Str("result".into()));
                obj.set("worker", Value::Str(worker.clone()));
                obj.set("lease_id", Value::UInt(*lease_id));
                obj.set("line", Value::Str(line.clone()));
                if let Some(trace) = trace {
                    obj.set("trace", Value::Str(trace.clone()));
                }
            }
            Message::Status => {
                obj.set("type", Value::Str("status".into()));
            }
            Message::Trace { max } => {
                obj.set("type", Value::Str("trace".into()));
                obj.set("max", Value::UInt(*max));
            }
            Message::Drain => {
                obj.set("type", Value::Str("drain".into()));
            }
            Message::Goodbye { worker } => {
                obj.set("type", Value::Str("goodbye".into()));
                obj.set("worker", Value::Str(worker.clone()));
            }
            Message::Welcome {
                campaign,
                seed,
                total,
                heartbeat_ms,
            } => {
                obj.set("type", Value::Str("welcome".into()));
                obj.set("campaign", Value::Str(campaign.clone()));
                obj.set("seed", Value::UInt(*seed));
                obj.set("total", Value::UInt(*total));
                obj.set("heartbeat_ms", Value::UInt(*heartbeat_ms));
            }
            Message::Grant { leases } => {
                obj.set("type", Value::Str("grant".into()));
                let leases = leases
                    .iter()
                    .map(|l| {
                        let mut v = Value::object();
                        v.set("lease_id", Value::UInt(l.lease_id));
                        v.set("key", Value::Str(l.key.clone()));
                        v.set("seed", Value::UInt(l.seed));
                        v.set("deadline_ms", Value::UInt(l.deadline_ms));
                        v
                    })
                    .collect();
                obj.set("leases", Value::Arr(leases));
            }
            Message::Wait { backoff_ms } => {
                obj.set("type", Value::Str("wait".into()));
                obj.set("backoff_ms", Value::UInt(*backoff_ms));
            }
            Message::Done => {
                obj.set("type", Value::Str("done".into()));
            }
            Message::StatusReport(report) => {
                obj.set("type", Value::Str("status_report".into()));
                obj.set("campaign", Value::Str(report.campaign.clone()));
                obj.set("total", Value::UInt(report.total));
                obj.set("completed", Value::UInt(report.completed));
                obj.set("failed", Value::UInt(report.failed));
                obj.set("queued", Value::UInt(report.queued));
                obj.set("leased", Value::UInt(report.leased));
                obj.set("draining", Value::Bool(report.draining));
            }
            Message::TraceReport(report) => {
                obj = report.to_value();
                obj.set("type", Value::Str("trace_report".into()));
            }
            Message::Error { message } => {
                obj.set("type", Value::Str("error".into()));
                obj.set("message", Value::Str(message.clone()));
            }
        }
        obj.to_json()
    }

    /// Decodes one line back into a message.
    ///
    /// # Errors
    ///
    /// Fails on invalid JSON, a missing/unknown `type` tag, or missing
    /// required fields.
    pub fn parse(line: &str) -> Result<Message, String> {
        let v = Value::parse(line).map_err(|e| e.to_string())?;
        let tag = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("message missing type tag")?;
        let str_field = |name: &str| crate::proto::str_field(&v, tag, name);
        let u64_field = |name: &str| crate::proto::u64_field(&v, tag, name);
        match tag {
            "hello" => Ok(Message::Hello {
                worker: str_field("worker")?,
                protocol: u64_field("protocol")?,
                token: opt_str_field(&v, "token"),
            }),
            "lease_request" => Ok(Message::LeaseRequest {
                worker: str_field("worker")?,
                max_jobs: u64_field("max_jobs")?,
                trace: opt_str_field(&v, "trace"),
            }),
            "heartbeat" => {
                let lease_ids = v
                    .get("lease_ids")
                    .and_then(Value::as_array)
                    .ok_or("heartbeat missing lease_ids")?
                    .iter()
                    .map(|id| id.as_u64().ok_or("bad lease id"))
                    .collect::<Result<Vec<u64>, _>>()?;
                Ok(Message::Heartbeat {
                    worker: str_field("worker")?,
                    lease_ids,
                })
            }
            "result" => Ok(Message::Result {
                worker: str_field("worker")?,
                lease_id: u64_field("lease_id")?,
                line: str_field("line")?,
                trace: opt_str_field(&v, "trace"),
            }),
            "status" => Ok(Message::Status),
            "trace" => Ok(Message::Trace {
                max: u64_field("max")?,
            }),
            "drain" => Ok(Message::Drain),
            "goodbye" => Ok(Message::Goodbye {
                worker: str_field("worker")?,
            }),
            "welcome" => Ok(Message::Welcome {
                campaign: str_field("campaign")?,
                seed: u64_field("seed")?,
                total: u64_field("total")?,
                heartbeat_ms: u64_field("heartbeat_ms")?,
            }),
            "grant" => {
                let leases = v
                    .get("leases")
                    .and_then(Value::as_array)
                    .ok_or("grant missing leases")?
                    .iter()
                    .map(|l| -> Result<Lease, String> {
                        Ok(Lease {
                            lease_id: l
                                .get("lease_id")
                                .and_then(Value::as_u64)
                                .ok_or("lease missing lease_id")?,
                            key: l
                                .get("key")
                                .and_then(Value::as_str)
                                .ok_or("lease missing key")?
                                .to_string(),
                            seed: l
                                .get("seed")
                                .and_then(Value::as_u64)
                                .ok_or("lease missing seed")?,
                            deadline_ms: l
                                .get("deadline_ms")
                                .and_then(Value::as_u64)
                                .ok_or("lease missing deadline_ms")?,
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Message::Grant { leases })
            }
            "wait" => Ok(Message::Wait {
                backoff_ms: u64_field("backoff_ms")?,
            }),
            "done" => Ok(Message::Done),
            "status_report" => Ok(Message::StatusReport(StatusReport {
                campaign: str_field("campaign")?,
                total: u64_field("total")?,
                completed: u64_field("completed")?,
                failed: u64_field("failed")?,
                queued: u64_field("queued")?,
                leased: u64_field("leased")?,
                draining: bool_field(&v, tag, "draining")?,
            })),
            "trace_report" => Ok(Message::TraceReport(TraceReport::from_value(&v, tag)?)),
            "error" => Ok(Message::Error {
                message: str_field("message")?,
            }),
            other => Err(format!("unknown message type {other:?}")),
        }
    }
}

impl WireMessage for Message {
    fn to_line(&self) -> String {
        Message::to_line(self)
    }

    fn parse(line: &str) -> Result<Message, String> {
        Message::parse(line)
    }
}

impl StatusReport {
    /// The report as pretty-enough JSON for the `status` subcommand.
    pub fn to_json(&self) -> String {
        Message::StatusReport(self.clone()).to_line()
    }
}

/// Writes one message as a line and flushes it (one message = one
/// `write_all` under the caller's lock, so concurrent writers — the
/// worker's main loop and its heartbeat thread — never interleave bytes).
pub fn write_message<W: Write, M: WireMessage>(writer: &mut W, message: &M) -> io::Result<()> {
    let mut line = message.to_line();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Reads the next message. `Ok(None)` means the peer closed the
/// connection cleanly; a malformed line is an error (the protocol has no
/// resync point). Blank lines are skipped.
pub fn read_message<R: BufRead, M: WireMessage>(reader: &mut R) -> io::Result<Option<M>> {
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Ok(None);
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            continue;
        }
        return M::parse(trimmed)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_messages_round_trip() {
        let messages = vec![
            Message::Hello {
                worker: "w1".into(),
                protocol: PROTOCOL_VERSION,
                token: None,
            },
            Message::Hello {
                worker: "w2".into(),
                protocol: PROTOCOL_VERSION,
                token: Some("sesame".into()),
            },
            Message::LeaseRequest {
                worker: "w1".into(),
                max_jobs: 4,
                trace: None,
            },
            Message::LeaseRequest {
                worker: "w1".into(),
                max_jobs: 4,
                trace: Some("00-0000000000000000deadbeefcafef00d-0123456789abcdef-01".into()),
            },
            Message::Heartbeat {
                worker: "w1".into(),
                lease_ids: vec![1, 2, 3],
            },
            Message::Result {
                worker: "w1".into(),
                lease_id: 9,
                line: "{\"key\":\"a/b\",\"seed\":1,\"status\":\"ok\",\"payload\":7}".into(),
                trace: Some("00-0000000000000000deadbeefcafef00d-0123456789abcdef-01".into()),
            },
            Message::Status,
            Message::Trace { max: 16 },
            Message::TraceReport(TraceReport {
                slo: SloSummary {
                    count: 100,
                    p50_ns: 4096,
                    p99_ns: 65_536,
                    objective_ns: 1_000_000,
                    target: 0.99,
                    over_objective: 1,
                    error_rate: 0.01,
                    budget_burn: 1.0,
                },
                slowest: vec![TraceSummary {
                    trace_id: 0xDEAD_BEEF_CAFE_F00D,
                    root_name: "dispatch.request".into(),
                    start_us: 17,
                    dur_us: 912,
                    spans: 3,
                    orphans: 0,
                }],
                recent: vec![],
            }),
            Message::Drain,
            Message::Goodbye {
                worker: "w1".into(),
            },
            Message::Welcome {
                campaign: "run_all".into(),
                seed: u64::MAX - 1,
                total: 140,
                heartbeat_ms: 2000,
            },
            Message::Grant {
                leases: vec![Lease {
                    lease_id: 1,
                    key: "table2/tachyon-1/proposed/0".into(),
                    seed: 0xDEAD_BEEF_CAFE_F00D,
                    deadline_ms: 30_000,
                }],
            },
            Message::Wait { backoff_ms: 500 },
            Message::Done,
            Message::StatusReport(StatusReport {
                campaign: "suite".into(),
                total: 45,
                completed: 40,
                failed: 1,
                queued: 2,
                leased: 2,
                draining: true,
            }),
            Message::Error {
                message: "protocol mismatch".into(),
            },
        ];
        for message in messages {
            let line = message.to_line();
            assert!(!line.contains('\n'), "single line: {line}");
            let back = Message::parse(&line).expect("parse");
            assert_eq!(back, message, "round trip of {line}");
        }
    }

    #[test]
    fn result_lines_with_quotes_survive_embedding() {
        let inner =
            "{\"key\":\"x\",\"seed\":2,\"status\":\"panicked\",\"error\":\"said \\\"no\\\"\"}";
        let message = Message::Result {
            worker: "w".into(),
            lease_id: 1,
            line: inner.into(),
            trace: None,
        };
        let back = Message::parse(&message.to_line()).expect("parse");
        assert_eq!(back, message);
    }

    #[test]
    fn stream_reader_handles_eof_and_blank_lines() {
        let text = "\n{\"type\":\"done\"}\n";
        let mut reader = std::io::BufReader::new(text.as_bytes());
        assert_eq!(
            read_message(&mut reader).expect("read"),
            Some(Message::Done)
        );
        assert_eq!(read_message::<_, Message>(&mut reader).expect("read"), None);
    }

    #[test]
    fn malformed_lines_are_errors() {
        let mut reader = std::io::BufReader::new("not json\n".as_bytes());
        assert!(read_message::<_, Message>(&mut reader).is_err());
        assert!(Message::parse("{\"type\":\"warp\"}").is_err());
        assert!(Message::parse("{\"no_type\":1}").is_err());
        assert!(Message::parse(&"[".repeat(100_000)).is_err());
    }
}
