//! The serving wire protocol: newline-delimited JSON over TCP.
//!
//! One JSON object per line, tagged with a `"type"` field — the same
//! framing the dispatch protocol uses, reused here through
//! [`thermorl_dispatch::proto::WireMessage`] so both protocols share
//! `write_message` / `read_message` and their torn-line semantics.
//!
//! Clients speak first. A session begins with `attach` (answered by
//! `attached`, which reports how far a resumed session had already
//! advanced), then streams `observe` samples with strictly increasing
//! per-die sequence numbers. Every observe is answered by an `ack`; when
//! the sample closed a decision epoch, the ack carries the [`Decision`].
//! Because the supervisor snapshots sessions at decision-epoch
//! boundaries, a client that replays observes from `acked_seq + 1` after
//! a server restart receives a decision stream identical to an
//! uninterrupted run (see `session` module docs).

use thermorl_dispatch::proto::{slo_from_fields, slo_to_value, Fields, TraceReport, WireMessage};
use thermorl_sim::json::Value;
use thermorl_telemetry::SloSummary;

/// Protocol version sent in `attach`; the supervisor rejects mismatches.
pub const SERVE_PROTOCOL_VERSION: u64 = 1;

/// One epoch decision, as carried on the wire inside an `ack`.
///
/// `stress`/`aging`/`reward`/`alpha` round-trip bit-exactly (the JSON
/// layer prints shortest-round-trip floats), so two decision streams can
/// be compared for equality straight off the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Decision epoch count after this decision (1-based).
    pub epoch: u64,
    /// Chosen action index in the session's action space.
    pub action: u64,
    /// Thread-assignment name of the chosen action (e.g. `packed`).
    pub assignment: String,
    /// Governor of the chosen action (e.g. `userspace[2]`).
    pub governor: String,
    /// Window stress hazard observed this epoch.
    pub stress: f64,
    /// Window aging hazard observed this epoch.
    pub aging: f64,
    /// Reward granted to the previous action.
    pub reward: f64,
    /// Learning rate at decision time.
    pub alpha: f64,
}

impl Decision {
    fn to_value(&self) -> Value {
        let mut v = Value::object();
        v.set("epoch", Value::UInt(self.epoch))
            .set("action", Value::UInt(self.action))
            .set("assignment", Value::Str(self.assignment.clone()))
            .set("governor", Value::Str(self.governor.clone()))
            .set("stress", Value::num(self.stress))
            .set("aging", Value::num(self.aging))
            .set("reward", Value::num(self.reward))
            .set("alpha", Value::num(self.alpha));
        v
    }

    fn from_fields(f: &mut Fields<'_>) -> Result<Decision, String> {
        Ok(Decision {
            epoch: f.u64("epoch")?,
            action: f.u64("action")?,
            assignment: f.str("assignment")?,
            governor: f.str("governor")?,
            stress: f.f64("stress")?,
            aging: f.f64("aging")?,
            reward: f.f64("reward")?,
            alpha: f.f64("alpha")?,
        })
    }
}

/// Aggregate supervisor counters returned by `stats`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReport {
    /// Sessions currently attached.
    pub sessions_active: u64,
    /// Sessions ever attached (including resumed ones).
    pub sessions_total: u64,
    /// Observe samples applied.
    pub observes_total: u64,
    /// Epoch decisions produced.
    pub decisions_total: u64,
    /// Session snapshots written to the store.
    pub snapshot_writes: u64,
    /// Session snapshots the store failed to write.
    pub snapshot_failures: u64,
    /// Requests answered `overloaded` because their shard's queue was
    /// full.
    pub rejected: u64,
    /// SLO state of the supervisor's `serve.request` span (all-zero when
    /// telemetry is off).
    pub slo: SloSummary,
}

/// A serve protocol message (both directions).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: open (or resume) the session for one die.
    Attach {
        /// Protocol version ([`SERVE_PROTOCOL_VERSION`]).
        protocol: u64,
        /// Die identifier; also the snapshot key in the store.
        die: String,
        /// Number of cores on the die.
        cores: usize,
        /// Number of application threads to place.
        threads: usize,
        /// Observation mode: `"power"` or `"temps"`.
        mode: String,
        /// Policy id from the zoo (`"das_dac14"` when absent — older
        /// clients keep getting the paper agent).
        policy: Option<String>,
    },
    /// Server → client: the session is live.
    Attached {
        /// Die identifier.
        die: String,
        /// Whether the session was restored from a snapshot.
        resumed: bool,
        /// Highest sequence number covered by the restored state; replay
        /// observes from `acked_seq + 1`. Zero for a fresh session.
        acked_seq: u64,
        /// Decision epochs already completed by the restored agent.
        epochs: u64,
    },
    /// Client → server: one sensor sample for an attached die.
    Observe {
        /// Die identifier.
        die: String,
        /// Per-die sequence number, starting at 1, gap-free.
        seq: u64,
        /// Per-core payload: watts in `power` mode, °C in `temps` mode.
        values: Vec<f64>,
        /// Optional W3C-style `traceparent` — the server's handling spans
        /// join the client's trace when present (and tracing is on).
        trace: Option<String>,
    },
    /// Server → client: the observe was processed.
    Ack {
        /// Die identifier.
        die: String,
        /// Echoed sequence number.
        seq: u64,
        /// True when `seq` was at or below the session's high-water mark
        /// (a retransmit); the sample was not re-applied.
        duplicate: bool,
        /// Present when this sample closed a decision epoch.
        decision: Option<Decision>,
    },
    /// Client → server: close the session (snapshots it first).
    Detach {
        /// Die identifier.
        die: String,
    },
    /// Server → client: the session is closed.
    Detached {
        /// Die identifier.
        die: String,
        /// Decision epochs the session had completed.
        epochs: u64,
    },
    /// Client → server: report supervisor counters.
    Stats,
    /// Server → client: the counters.
    Report(StatsReport),
    /// Client → server: report sampled traces and the request-span SLO.
    Trace {
        /// Upper bound on slowest/recent rows returned.
        max: u64,
    },
    /// Server → client: sampled traces and request SLO.
    Traces(TraceReport),
    /// Client → server: stop the supervisor. `hard` skips the final
    /// snapshot pass, simulating a crash.
    Shutdown {
        /// Skip final snapshots when true.
        hard: bool,
    },
    /// Server → client: shutdown acknowledged.
    ShuttingDown,
    /// Server → client: the request failed.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl WireMessage for Message {
    fn to_line(&self) -> String {
        let mut v = Value::object();
        match self {
            Message::Attach {
                protocol,
                die,
                cores,
                threads,
                mode,
                policy,
            } => {
                v.set("type", Value::Str("attach".into()))
                    .set("protocol", Value::UInt(*protocol))
                    .set("die", Value::Str(die.clone()))
                    .set("cores", Value::UInt(*cores as u64))
                    .set("threads", Value::UInt(*threads as u64))
                    .set("mode", Value::Str(mode.clone()));
                if let Some(policy) = policy {
                    v.set("policy", Value::Str(policy.clone()));
                }
            }
            Message::Attached {
                die,
                resumed,
                acked_seq,
                epochs,
            } => {
                v.set("type", Value::Str("attached".into()))
                    .set("die", Value::Str(die.clone()))
                    .set("resumed", Value::Bool(*resumed))
                    .set("acked_seq", Value::UInt(*acked_seq))
                    .set("epochs", Value::UInt(*epochs));
            }
            Message::Observe {
                die,
                seq,
                values,
                trace,
            } => {
                v.set("type", Value::Str("observe".into()))
                    .set("die", Value::Str(die.clone()))
                    .set("seq", Value::UInt(*seq))
                    .set(
                        "values",
                        Value::Arr(values.iter().map(|x| Value::num(*x)).collect()),
                    );
                if let Some(trace) = trace {
                    v.set("trace", Value::Str(trace.clone()));
                }
            }
            Message::Ack {
                die,
                seq,
                duplicate,
                decision,
            } => {
                v.set("type", Value::Str("ack".into()))
                    .set("die", Value::Str(die.clone()))
                    .set("seq", Value::UInt(*seq))
                    .set("duplicate", Value::Bool(*duplicate));
                if let Some(decision) = decision {
                    v.set("decision", decision.to_value());
                }
            }
            Message::Detach { die } => {
                v.set("type", Value::Str("detach".into()))
                    .set("die", Value::Str(die.clone()));
            }
            Message::Detached { die, epochs } => {
                v.set("type", Value::Str("detached".into()))
                    .set("die", Value::Str(die.clone()))
                    .set("epochs", Value::UInt(*epochs));
            }
            Message::Stats => {
                v.set("type", Value::Str("stats".into()));
            }
            Message::Report(report) => {
                v.set("type", Value::Str("stats_report".into()))
                    .set("sessions_active", Value::UInt(report.sessions_active))
                    .set("sessions_total", Value::UInt(report.sessions_total))
                    .set("observes_total", Value::UInt(report.observes_total))
                    .set("decisions_total", Value::UInt(report.decisions_total))
                    .set("snapshot_writes", Value::UInt(report.snapshot_writes))
                    .set("snapshot_failures", Value::UInt(report.snapshot_failures))
                    .set("rejected", Value::UInt(report.rejected))
                    .set("slo", slo_to_value(&report.slo));
            }
            Message::Trace { max } => {
                v.set("type", Value::Str("trace".into()))
                    .set("max", Value::UInt(*max));
            }
            Message::Traces(report) => {
                v = report.to_value();
                v.set("type", Value::Str("trace_report".into()));
            }
            Message::Shutdown { hard } => {
                v.set("type", Value::Str("shutdown".into()))
                    .set("hard", Value::Bool(*hard));
            }
            Message::ShuttingDown => {
                v.set("type", Value::Str("shutting_down".into()));
            }
            Message::Error { message } => {
                v.set("type", Value::Str("error".into()))
                    .set("message", Value::Str(message.clone()));
            }
        }
        v.to_json()
    }

    fn parse(line: &str) -> Result<Message, String> {
        let v = Value::parse(line).map_err(|e| format!("invalid message JSON: {}", e.0))?;
        Fields::message(&v, |f| match f.tag() {
            "attach" => Ok(Message::Attach {
                protocol: f.u64("protocol")?,
                die: f.str("die")?,
                cores: f.u64("cores")? as usize,
                threads: f.u64("threads")? as usize,
                mode: f.str("mode")?,
                policy: f.opt_str("policy")?,
            }),
            "attached" => Ok(Message::Attached {
                die: f.str("die")?,
                resumed: f.bool("resumed")?,
                acked_seq: f.u64("acked_seq")?,
                epochs: f.u64("epochs")?,
            }),
            "observe" => Ok(Message::Observe {
                die: f.str("die")?,
                seq: f.u64("seq")?,
                values: f.arr("values", Value::as_f64)?,
                trace: f.opt_str("trace")?,
            }),
            "ack" => Ok(Message::Ack {
                die: f.str("die")?,
                seq: f.u64("seq")?,
                duplicate: f.bool("duplicate")?,
                decision: f
                    .opt("decision")
                    .map(|d| Fields::strict(d, "decision", Decision::from_fields))
                    .transpose()?,
            }),
            "detach" => Ok(Message::Detach { die: f.str("die")? }),
            "detached" => Ok(Message::Detached {
                die: f.str("die")?,
                epochs: f.u64("epochs")?,
            }),
            "stats" => Ok(Message::Stats),
            "stats_report" => Ok(Message::Report(StatsReport {
                sessions_active: f.u64("sessions_active")?,
                sessions_total: f.u64("sessions_total")?,
                observes_total: f.u64("observes_total")?,
                decisions_total: f.u64("decisions_total")?,
                snapshot_writes: f.u64("snapshot_writes")?,
                snapshot_failures: f.u64("snapshot_failures")?,
                rejected: f.u64("rejected")?,
                slo: f.obj("slo", slo_from_fields)?,
            })),
            "trace" => Ok(Message::Trace { max: f.u64("max")? }),
            "trace_report" => Ok(Message::Traces(TraceReport::from_fields(f)?)),
            "shutdown" => Ok(Message::Shutdown {
                hard: f.bool("hard")?,
            }),
            "shutting_down" => Ok(Message::ShuttingDown),
            "error" => Ok(Message::Error {
                message: f.str("message")?,
            }),
            other => Err(format!("unknown message type {other:?}")),
        })
    }
}
