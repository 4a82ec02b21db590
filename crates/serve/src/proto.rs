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

use thermorl_dispatch::proto::{
    bool_field, f64_arr_field, f64_field, opt_str_field, slo_from_value, slo_to_value, str_field,
    u64_field, TraceReport, WireMessage,
};
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

    fn from_value(v: &Value) -> Result<Decision, String> {
        Ok(Decision {
            epoch: u64_field(v, "decision", "epoch")?,
            action: u64_field(v, "decision", "action")?,
            assignment: str_field(v, "decision", "assignment")?,
            governor: str_field(v, "decision", "governor")?,
            stress: f64_field(v, "decision", "stress")?,
            aging: f64_field(v, "decision", "aging")?,
            reward: f64_field(v, "decision", "reward")?,
            alpha: f64_field(v, "decision", "alpha")?,
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
        let tag = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| "message missing \"type\"".to_string())?
            .to_string();
        match tag.as_str() {
            "attach" => Ok(Message::Attach {
                protocol: u64_field(&v, &tag, "protocol")?,
                die: str_field(&v, &tag, "die")?,
                cores: u64_field(&v, &tag, "cores")? as usize,
                threads: u64_field(&v, &tag, "threads")? as usize,
                mode: str_field(&v, &tag, "mode")?,
                policy: opt_str_field(&v, "policy"),
            }),
            "attached" => Ok(Message::Attached {
                die: str_field(&v, &tag, "die")?,
                resumed: bool_field(&v, &tag, "resumed")?,
                acked_seq: u64_field(&v, &tag, "acked_seq")?,
                epochs: u64_field(&v, &tag, "epochs")?,
            }),
            "observe" => Ok(Message::Observe {
                die: str_field(&v, &tag, "die")?,
                seq: u64_field(&v, &tag, "seq")?,
                values: f64_arr_field(&v, &tag, "values")?,
                trace: opt_str_field(&v, "trace"),
            }),
            "ack" => Ok(Message::Ack {
                die: str_field(&v, &tag, "die")?,
                seq: u64_field(&v, &tag, "seq")?,
                duplicate: bool_field(&v, &tag, "duplicate")?,
                decision: match v.get("decision") {
                    Some(d) => Some(Decision::from_value(d)?),
                    None => None,
                },
            }),
            "detach" => Ok(Message::Detach {
                die: str_field(&v, &tag, "die")?,
            }),
            "detached" => Ok(Message::Detached {
                die: str_field(&v, &tag, "die")?,
                epochs: u64_field(&v, &tag, "epochs")?,
            }),
            "stats" => Ok(Message::Stats),
            "stats_report" => Ok(Message::Report(StatsReport {
                sessions_active: u64_field(&v, &tag, "sessions_active")?,
                sessions_total: u64_field(&v, &tag, "sessions_total")?,
                observes_total: u64_field(&v, &tag, "observes_total")?,
                decisions_total: u64_field(&v, &tag, "decisions_total")?,
                snapshot_writes: u64_field(&v, &tag, "snapshot_writes")?,
                rejected: u64_field(&v, &tag, "rejected")?,
                slo: slo_from_value(
                    v.get("slo")
                        .ok_or_else(|| format!("{tag} message missing \"slo\""))?,
                    &tag,
                )?,
            })),
            "trace" => Ok(Message::Trace {
                max: u64_field(&v, &tag, "max")?,
            }),
            "trace_report" => Ok(Message::Traces(TraceReport::from_value(&v, &tag)?)),
            "shutdown" => Ok(Message::Shutdown {
                hard: bool_field(&v, &tag, "hard")?,
            }),
            "shutting_down" => Ok(Message::ShuttingDown),
            "error" => Ok(Message::Error {
                message: str_field(&v, &tag, "message")?,
            }),
            other => Err(format!("unknown message type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) {
        let line = msg.to_line();
        assert!(!line.contains('\n'), "one line: {line:?}");
        let back = Message::parse(&line).expect("parse");
        assert_eq!(back, msg, "round trip of {line}");
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(Message::Attach {
            protocol: SERVE_PROTOCOL_VERSION,
            die: "die-3".into(),
            cores: 4,
            threads: 4,
            mode: "power".into(),
            policy: None,
        });
        round_trip(Message::Attach {
            protocol: SERVE_PROTOCOL_VERSION,
            die: "die-3".into(),
            cores: 4,
            threads: 4,
            mode: "power".into(),
            policy: Some("ucb1".into()),
        });
        round_trip(Message::Attached {
            die: "die-3".into(),
            resumed: true,
            acked_seq: 40,
            epochs: 4,
        });
        round_trip(Message::Observe {
            die: "die-3".into(),
            seq: 41,
            values: vec![3.5, 0.25, 1.0e-9, 12.125],
            trace: None,
        });
        round_trip(Message::Observe {
            die: "die-3".into(),
            seq: 42,
            values: vec![3.5],
            trace: Some("00-0000000000000000deadbeefcafef00d-0123456789abcdef-01".into()),
        });
        round_trip(Message::Ack {
            die: "die-3".into(),
            seq: 41,
            duplicate: false,
            decision: None,
        });
        round_trip(Message::Ack {
            die: "die-3".into(),
            seq: 50,
            duplicate: false,
            decision: Some(Decision {
                epoch: 5,
                action: 7,
                assignment: "packed".into(),
                governor: "userspace[2]".into(),
                stress: 0.123456789,
                aging: 1.0 / 3.0,
                reward: -0.875,
                alpha: 0.2,
            }),
        });
        round_trip(Message::Detach {
            die: "die-3".into(),
        });
        round_trip(Message::Detached {
            die: "die-3".into(),
            epochs: 5,
        });
        round_trip(Message::Stats);
        round_trip(Message::Report(StatsReport {
            sessions_active: 2,
            sessions_total: 9,
            observes_total: 1000,
            decisions_total: 100,
            snapshot_writes: 25,
            rejected: 3,
            slo: SloSummary {
                count: 1000,
                p50_ns: 8192,
                p99_ns: 131_072,
                objective_ns: 1_000_000,
                target: 0.99,
                over_objective: 3,
                error_rate: 0.003,
                budget_burn: 0.3,
            },
        }));
        round_trip(Message::Trace { max: 8 });
        round_trip(Message::Traces(TraceReport {
            slo: SloSummary {
                objective_ns: 1_000_000,
                target: 0.99,
                ..SloSummary::default()
            },
            slowest: vec![thermorl_telemetry::TraceSummary {
                trace_id: 0xAB,
                root_name: "client.observe".into(),
                start_us: 4,
                dur_us: 900,
                spans: 4,
                orphans: 0,
            }],
            recent: vec![],
        }));
        round_trip(Message::Shutdown { hard: true });
        round_trip(Message::ShuttingDown);
        round_trip(Message::Error {
            message: "no such die".into(),
        });
    }

    #[test]
    fn decision_floats_round_trip_bit_exactly() {
        let d = Decision {
            epoch: 1,
            action: 0,
            assignment: "os-default".into(),
            governor: "ondemand".into(),
            stress: 0.1 + 0.2, // not representable exactly; bits must survive
            aging: f64::MIN_POSITIVE,
            reward: -1.0e300,
            alpha: 0.3333333333333333,
        };
        let msg = Message::Ack {
            die: "d".into(),
            seq: 10,
            duplicate: false,
            decision: Some(d.clone()),
        };
        let back = Message::parse(&msg.to_line()).expect("parse");
        match back {
            Message::Ack {
                decision: Some(got),
                ..
            } => {
                assert_eq!(got.stress.to_bits(), d.stress.to_bits());
                assert_eq!(got.aging.to_bits(), d.aging.to_bits());
                assert_eq!(got.reward.to_bits(), d.reward.to_bits());
                assert_eq!(got.alpha.to_bits(), d.alpha.to_bits());
            }
            other => panic!("unexpected message: {other:?}"),
        }
    }

    #[test]
    fn unknown_and_missing_fields_error() {
        assert!(Message::parse(&"[".repeat(100_000)).is_err());
        assert!(Message::parse("{\"type\":\"warp\"}").is_err());
        assert!(Message::parse("{\"die\":\"d\"}").is_err());
        assert!(Message::parse("{\"type\":\"observe\",\"die\":\"d\"}").is_err());
        assert!(Message::parse("not json").is_err());
    }
}
