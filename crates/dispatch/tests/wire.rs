//! The dispatch wire schema. Every message round-trips; the parser is
//! strict (an unknown or repeated key, at the top level or in a nested
//! object, is an error); and no input — random bytes, random JSON, or a
//! mutated valid line — makes `Message::parse` or `read_message` panic
//! or accept anything but an exact message.

use std::io;

use proptest::prelude::*;
use thermorl_dispatch::proto::{read_message, Lease, StatusReport, TraceReport};
use thermorl_dispatch::{Message, PROTOCOL_VERSION};
use thermorl_sim::json::Value;
use thermorl_telemetry::{SloSummary, TraceSummary};

const TRACEPARENT: &str = "00-0000000000000000deadbeefcafef00d-0123456789abcdef-01";

/// One of every message, with and without its optional fields.
fn corpus() -> Vec<Message> {
    vec![
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
            trace: Some(TRACEPARENT.into()),
        },
        Message::Heartbeat {
            worker: "w1".into(),
            lease_ids: vec![1, 2, 3],
        },
        Message::Result {
            worker: "w1".into(),
            lease_id: 9,
            line: "{\"key\":\"a/b\",\"seed\":1,\"status\":\"ok\",\"payload\":7}".into(),
            trace: Some(TRACEPARENT.into()),
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
    ]
}

#[test]
fn all_messages_round_trip() {
    for message in corpus() {
        let line = message.to_line();
        assert!(!line.contains('\n'), "single line: {line}");
        let back = Message::parse(&line).expect("parse");
        assert_eq!(back, message, "round trip of {line}");
    }
}

#[test]
fn result_lines_with_quotes_survive_embedding() {
    let inner = "{\"key\":\"x\",\"seed\":2,\"status\":\"panicked\",\"error\":\"said \\\"no\\\"\"}";
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
fn unknown_and_repeated_fields_are_errors() {
    for line in [
        r#"{"type":"status","bogus":1}"#,
        r#"{"type":"goodbye","worker":"a","worker":"b"}"#,
        r#"{"type":"status","type":"status"}"#,
        r#"{"type":"grant","leases":[{"lease_id":1,"key":"k","seed":2,"deadline_ms":3,"x":0}]}"#,
        r#"{"type":"hello","worker":"w","protocol":1,"token":7}"#,
        r#"{"type":"trace","max":18446744073709551616}"#,
    ] {
        let err = Message::parse(line).expect_err(line);
        assert!(
            err.contains("field") || err.contains("missing"),
            "{line}: {err}"
        );
    }
    // Any key added to any valid message, at the top level, is rejected.
    for message in corpus() {
        let line = message.to_line();
        let extra = format!("{},\"extra\":0}}", &line[..line.len() - 1]);
        let err = Message::parse(&extra).expect_err(&extra);
        assert!(err.contains("unknown field \"extra\""), "{extra}: {err}");
    }
    // The same inside the nested SLO and trace-row objects.
    let report = corpus()
        .into_iter()
        .find(|m| matches!(m, Message::TraceReport(_)))
        .expect("corpus has a trace report")
        .to_line();
    for nested in ["\"over_objective\":1", "\"orphans\":0"] {
        let line = report.replacen(nested, &format!("{nested},\"extra\":0"), 1);
        assert_ne!(line, report);
        assert!(Message::parse(&line).is_err(), "{line}");
    }
}

/// Objects with sorted keys and integral numbers as integers, so two
/// parses of the same message compare equal however they were written.
fn canonical(v: Value) -> Value {
    match v {
        Value::Obj(mut fields) => {
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Obj(fields.into_iter().map(|(k, v)| (k, canonical(v))).collect())
        }
        Value::Arr(items) => Value::Arr(items.into_iter().map(canonical).collect()),
        Value::Num(n) if n.fract() == 0.0 && (0.0..18_446_744_073_709_551_616.0).contains(&n) => {
            Value::UInt(n as u64)
        }
        other => other,
    }
}

/// `parse` accepts a line only when the line is exactly the message it
/// decodes to — nothing dropped, added or repeated — and `read_message`
/// reads any bytes to a message, EOF, or `InvalidData`.
fn check(line: &str) -> Result<(), String> {
    if let Ok(message) = Message::parse(line) {
        let again = message.to_line();
        prop_assert_eq!(
            Message::parse(&again).map(|m| m.to_line()),
            Ok(again.clone())
        );
        let (given, encoded) = (Value::parse(line), Value::parse(&again));
        prop_assert!(
            given.map(canonical) == encoded.map(canonical),
            "accepted {line:?} as {again:?}"
        );
    }
    let mut bytes = line.as_bytes();
    loop {
        match read_message::<_, Message>(&mut bytes) {
            Ok(Some(_)) => {}
            Ok(None) => break,
            Err(e) => {
                prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                break;
            }
        }
    }
    Ok(())
}

/// JSON-ish tokens: structure, this protocol's tags and keys, and odd
/// values, so random token strings often parse as JSON objects.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"type\"",
    "\"status\"",
    "\"grant\"",
    "\"trace_report\"",
    "\"heartbeat\"",
    "\"worker\"",
    "\"leases\"",
    "\"lease_ids\"",
    "\"slo\"",
    "\"max\"",
    "\"count\"",
    "\"trace_id\"",
    "\"ab\"",
    "0",
    "-1",
    "1.5",
    "1e999",
    "18446744073709551616",
    "null",
    "true",
    "\"\\u0000\"",
    "\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        check(&String::from_utf8_lossy(&bytes))?;
        let mut raw = &bytes[..];
        while let Ok(Some(_)) = read_message::<_, Message>(&mut raw) {}
    }

    #[test]
    fn random_json_is_exact_or_rejected(picks in proptest::collection::vec(0usize..TOKENS.len(), 0..40)) {
        let line: String = picks.iter().map(|&i| TOKENS[i]).collect();
        check(&line)?;
    }

    #[test]
    fn mutated_valid_lines_are_exact_or_rejected(
        which in 0usize..corpus().len(),
        edits in proptest::collection::vec((0usize..4096, 0u8..=255, 0u8..3), 1..4),
    ) {
        let mut bytes = corpus()[which].to_line().into_bytes();
        for (at, byte, op) in edits {
            let at = at % (bytes.len() + 1);
            match op {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        check(&String::from_utf8_lossy(&bytes))?;
    }
}
