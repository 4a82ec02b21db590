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

use std::io::{self, BufRead, Read, Write};

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

/// A strict reader over one parsed JSON object (the hand-written form of
/// `#[serde(deny_unknown_fields)]`). Getters hand out fields by name and
/// mark them read; a required field that is missing or mistyped is an
/// error, and once decoding is done any key no getter read — unknown, or
/// a repeat of a read key — is an error too. Objects hold at most 64 keys.
pub struct Fields<'a> {
    tag: &'a str,
    fields: &'a [(String, Value)],
    /// Bit `i` is set once `fields[i]` has been read.
    read: u64,
}

impl<'a> Fields<'a> {
    /// Decodes the object `v` with `decode`, then rejects every key
    /// `decode` did not read. `tag` names the object in errors.
    ///
    /// # Errors
    ///
    /// Fails when `v` is not an object of at most 64 keys, when `decode`
    /// fails, or on an unknown or repeated key.
    pub fn strict<T>(
        v: &'a Value,
        tag: &'a str,
        decode: impl FnOnce(&mut Fields<'a>) -> Result<T, String>,
    ) -> Result<T, String> {
        let Value::Obj(fields) = v else {
            return Err(format!("{tag} is not an object"));
        };
        if fields.len() > 64 {
            return Err(format!("{tag} has more than 64 fields"));
        }
        let mut f = Fields {
            tag,
            fields,
            read: 0,
        };
        let value = decode(&mut f)?;
        match fields
            .iter()
            .enumerate()
            .find(|(i, _)| f.read & (1 << i) == 0)
        {
            None => Ok(value),
            Some((i, (name, _))) if fields[..i].iter().any(|(key, _)| key == name) => {
                Err(format!("{} message repeats field {name:?}", f.tag))
            }
            Some((_, (name, _))) => Err(format!("{} message has unknown field {name:?}", f.tag)),
        }
    }

    /// [`Fields::strict`] over a message object, named by its `"type"`
    /// tag ([`Fields::tag`]).
    ///
    /// # Errors
    ///
    /// As [`Fields::strict`], and when the `"type"` tag is missing.
    pub fn message<T>(
        v: &'a Value,
        decode: impl FnOnce(&mut Fields<'a>) -> Result<T, String>,
    ) -> Result<T, String> {
        Fields::strict(v, "untyped", |f| {
            f.tag = f.get("type", Value::as_str)?;
            decode(f)
        })
    }

    /// The message type, or the name of the nested object being read.
    pub fn tag(&self) -> &'a str {
        self.tag
    }

    /// An optional field.
    pub fn opt(&mut self, name: &str) -> Option<&'a Value> {
        let i = self.fields.iter().position(|(key, _)| key == name)?;
        self.read |= 1 << i;
        Some(&self.fields[i].1)
    }

    fn get<T>(
        &mut self,
        name: &str,
        as_t: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        self.opt(name)
            .and_then(as_t)
            .ok_or_else(|| format!("{} message missing {name:?}", self.tag))
    }

    /// A required string field (the getters below fail when their field
    /// is missing or mistyped).
    pub fn str(&mut self, name: &str) -> Result<String, String> {
        self.get(name, Value::as_str).map(str::to_string)
    }

    /// An optional string field.
    pub fn opt_str(&mut self, name: &str) -> Result<Option<String>, String> {
        match self.opt(name) {
            None => Ok(None),
            Some(_) => self.str(name).map(Some),
        }
    }

    /// A required unsigned integer field.
    pub fn u64(&mut self, name: &str) -> Result<u64, String> {
        self.get(name, Value::as_u64)
    }

    /// A required number field.
    pub fn f64(&mut self, name: &str) -> Result<f64, String> {
        self.get(name, Value::as_f64)
    }

    /// A required bool field.
    pub fn bool(&mut self, name: &str) -> Result<bool, String> {
        self.get(name, Value::as_bool)
    }

    /// A required 16-hex-digit id field. Trace and span ids travel as hex
    /// strings (not JSON numbers) so they survive readers that coerce
    /// every number through an `f64`.
    pub fn hex_id(&mut self, name: &str) -> Result<u64, String> {
        let tag = self.tag;
        self.get(name, |v| {
            v.as_str().and_then(|s| u64::from_str_radix(s, 16).ok())
        })
        .map_err(|_| format!("{tag} message has a bad hex id in {name:?}"))
    }

    /// A required array field, each element decoded by `each`.
    pub fn arr<T>(
        &mut self,
        name: &str,
        each: impl Fn(&'a Value) -> Option<T>,
    ) -> Result<Vec<T>, String> {
        let tag = self.tag;
        self.get(name, Value::as_array)?
            .iter()
            .map(|v| each(v).ok_or_else(|| format!("{tag} message has a bad element in {name:?}")))
            .collect()
    }

    /// A required nested object, read strictly by `decode`.
    pub fn obj<T>(
        &mut self,
        name: &'a str,
        decode: impl FnOnce(&mut Fields<'a>) -> Result<T, String>,
    ) -> Result<T, String> {
        Fields::strict(self.get(name, Some)?, name, decode)
    }

    /// A required array of nested objects, each read strictly by `decode`.
    pub fn objs<T>(
        &mut self,
        name: &'a str,
        decode: impl Fn(&mut Fields<'a>) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.get(name, Value::as_array)?
            .iter()
            .map(|v| Fields::strict(v, name, &decode))
            .collect()
    }
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

/// Reads an SLO summary object back ([`slo_to_value`]'s inverse) from a
/// strict cursor.
///
/// # Errors
///
/// Fails when any field is missing or mistyped.
pub fn slo_from_fields(f: &mut Fields<'_>) -> Result<SloSummary, String> {
    Ok(SloSummary {
        count: f.u64("count")?,
        p50_ns: f.u64("p50_ns")?,
        p99_ns: f.u64("p99_ns")?,
        objective_ns: f.u64("objective_ns")?,
        target: f.f64("target")?,
        over_objective: f.u64("over_objective")?,
        error_rate: f.f64("error_rate")?,
        budget_burn: f.f64("budget_burn")?,
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

fn trace_summary_from_fields(f: &mut Fields<'_>) -> Result<TraceSummary, String> {
    Ok(TraceSummary {
        trace_id: f.hex_id("trace_id")?,
        root_name: f.str("root")?,
        start_us: f.u64("start_us")?,
        dur_us: f.u64("dur_us")?,
        spans: f.u64("spans")?,
        orphans: f.u64("orphans")?,
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

    /// Reads a report body back ([`TraceReport::to_value`]'s inverse)
    /// from the message's strict cursor.
    ///
    /// # Errors
    ///
    /// Fails when any field is missing or mistyped.
    pub fn from_fields(f: &mut Fields<'_>) -> Result<TraceReport, String> {
        Ok(TraceReport {
            slo: f.obj("slo", slo_from_fields)?,
            slowest: f.objs("slowest", trace_summary_from_fields)?,
            recent: f.objs("recent", trace_summary_from_fields)?,
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
        Fields::message(&v, |f| match f.tag() {
            "hello" => Ok(Message::Hello {
                worker: f.str("worker")?,
                protocol: f.u64("protocol")?,
                token: f.opt_str("token")?,
            }),
            "lease_request" => Ok(Message::LeaseRequest {
                worker: f.str("worker")?,
                max_jobs: f.u64("max_jobs")?,
                trace: f.opt_str("trace")?,
            }),
            "heartbeat" => Ok(Message::Heartbeat {
                worker: f.str("worker")?,
                lease_ids: f.arr("lease_ids", Value::as_u64)?,
            }),
            "result" => Ok(Message::Result {
                worker: f.str("worker")?,
                lease_id: f.u64("lease_id")?,
                line: f.str("line")?,
                trace: f.opt_str("trace")?,
            }),
            "status" => Ok(Message::Status),
            "trace" => Ok(Message::Trace { max: f.u64("max")? }),
            "drain" => Ok(Message::Drain),
            "goodbye" => Ok(Message::Goodbye {
                worker: f.str("worker")?,
            }),
            "welcome" => Ok(Message::Welcome {
                campaign: f.str("campaign")?,
                seed: f.u64("seed")?,
                total: f.u64("total")?,
                heartbeat_ms: f.u64("heartbeat_ms")?,
            }),
            "grant" => Ok(Message::Grant {
                leases: f.objs("leases", |l| {
                    Ok(Lease {
                        lease_id: l.u64("lease_id")?,
                        key: l.str("key")?,
                        seed: l.u64("seed")?,
                        deadline_ms: l.u64("deadline_ms")?,
                    })
                })?,
            }),
            "wait" => Ok(Message::Wait {
                backoff_ms: f.u64("backoff_ms")?,
            }),
            "done" => Ok(Message::Done),
            "status_report" => Ok(Message::StatusReport(StatusReport {
                campaign: f.str("campaign")?,
                total: f.u64("total")?,
                completed: f.u64("completed")?,
                failed: f.u64("failed")?,
                queued: f.u64("queued")?,
                leased: f.u64("leased")?,
                draining: f.bool("draining")?,
            })),
            "trace_report" => Ok(Message::TraceReport(TraceReport::from_fields(f)?)),
            "error" => Ok(Message::Error {
                message: f.str("message")?,
            }),
            other => Err(format!("unknown message type {other:?}")),
        })
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

/// Longest line [`read_message`] accepts, newline included (1 MiB). A
/// peer cannot make a reader buffer more than this for one message.
pub const MAX_LINE_BYTES: u64 = 1 << 20;

/// Reads the next message. `Ok(None)` means the peer closed the
/// connection cleanly; a malformed line, or one longer than
/// [`MAX_LINE_BYTES`], is an [`io::ErrorKind::InvalidData`] error (the
/// protocol has no resync point). Blank lines are skipped.
pub fn read_message<R: BufRead, M: WireMessage>(reader: &mut R) -> io::Result<Option<M>> {
    loop {
        let mut line = String::new();
        let n = reader
            .by_ref()
            .take(MAX_LINE_BYTES + 1)
            .read_line(&mut line)?;
        if n == 0 {
            return Ok(None);
        }
        if n as u64 > MAX_LINE_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line longer than {MAX_LINE_BYTES} bytes"),
            ));
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

    #[test]
    fn oversized_lines_are_errors() {
        // A message padded to exactly the cap (newline included) reads;
        // one byte more is an error, not a bigger buffer.
        let padded = |len: usize| {
            let mut line = Message::Done.to_line();
            line.push_str(&" ".repeat(len - 1 - line.len()));
            line.push('\n');
            line
        };
        let cap = MAX_LINE_BYTES as usize;
        let (at_cap, over_cap) = (padded(cap), padded(cap + 1));
        let mut reader = std::io::BufReader::new(at_cap.as_bytes());
        assert_eq!(
            read_message(&mut reader).expect("read"),
            Some(Message::Done)
        );
        let mut reader = std::io::BufReader::new(over_cap.as_bytes());
        let err = read_message::<_, Message>(&mut reader).expect_err("over the cap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("longer than"), "{err}");
    }
}
