//! The serve wire schema. Every message round-trips (decision floats
//! bit-exactly); the parser is strict (an unknown or repeated key, at the
//! top level or in a nested object, is an error); and no input — random
//! bytes, random JSON, or a mutated valid line — makes `Message::parse`
//! or `read_message` panic or accept anything but an exact message.

use std::io;

use proptest::prelude::*;
use thermorl_dispatch::proto::{read_message, TraceReport, WireMessage};
use thermorl_serve::{Decision, Message, StatsReport, SERVE_PROTOCOL_VERSION};
use thermorl_sim::json::Value;
use thermorl_telemetry::SloSummary;

/// One of every message, with and without its optional fields.
fn corpus() -> Vec<Message> {
    vec![
        Message::Attach {
            protocol: SERVE_PROTOCOL_VERSION,
            die: "die-3".into(),
            cores: 4,
            threads: 4,
            mode: "power".into(),
            policy: None,
        },
        Message::Attach {
            protocol: SERVE_PROTOCOL_VERSION,
            die: "die-3".into(),
            cores: 4,
            threads: 4,
            mode: "power".into(),
            policy: Some("ucb1".into()),
        },
        Message::Attached {
            die: "die-3".into(),
            resumed: true,
            acked_seq: 40,
            epochs: 4,
        },
        Message::Observe {
            die: "die-3".into(),
            seq: 41,
            values: vec![3.5, 0.25, 1.0e-9, 12.125],
            trace: None,
        },
        Message::Observe {
            die: "die-3".into(),
            seq: 42,
            values: vec![3.5],
            trace: Some("00-0000000000000000deadbeefcafef00d-0123456789abcdef-01".into()),
        },
        Message::Ack {
            die: "die-3".into(),
            seq: 41,
            duplicate: false,
            decision: None,
        },
        Message::Ack {
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
        },
        Message::Detach {
            die: "die-3".into(),
        },
        Message::Detached {
            die: "die-3".into(),
            epochs: 5,
        },
        Message::Stats,
        Message::Report(StatsReport {
            sessions_active: 2,
            sessions_total: 9,
            observes_total: 1000,
            decisions_total: 100,
            snapshot_writes: 25,
            snapshot_failures: 1,
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
        }),
        Message::Trace { max: 8 },
        Message::Traces(TraceReport {
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
        }),
        Message::Shutdown { hard: true },
        Message::ShuttingDown,
        Message::Error {
            message: "no such die".into(),
        },
    ]
}

#[test]
fn every_variant_round_trips() {
    for msg in corpus() {
        let line = msg.to_line();
        assert!(!line.contains('\n'), "one line: {line:?}");
        let back = Message::parse(&line).expect("parse");
        assert_eq!(back, msg, "round trip of {line}");
    }
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

#[test]
fn unknown_and_repeated_fields_are_errors() {
    for line in [
        r#"{"type":"stats","bogus":1}"#,
        r#"{"type":"detach","die":"a","die":"b"}"#,
        r#"{"type":"observe","die":"d","seq":1,"values":[1.0],"die":"d"}"#,
        r#"{"type":"ack","die":"d","seq":2,"duplicate":false,"decision":{"epoch":1,"action":0,"assignment":"packed","governor":"ondemand","stress":0.5,"aging":0.5,"reward":0,"alpha":0.2,"bogus":1}}"#,
        r#"{"type":"attach","protocol":1,"die":"d","cores":4,"threads":4,"mode":"power","policy":3}"#,
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
    "\"stats\"",
    "\"observe\"",
    "\"ack\"",
    "\"detach\"",
    "\"die\"",
    "\"seq\"",
    "\"values\"",
    "\"decision\"",
    "\"epoch\"",
    "\"hard\"",
    "\"shutdown\"",
    "0",
    "-1",
    "1.5",
    "1e999",
    "\"nan\"",
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
