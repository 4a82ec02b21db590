//! Single-thread replay of a serve workload's request stream through the
//! public wire and session calls, timing each call: `Message::parse`,
//! `Session::begin_step`, `Session::finish_step`, the ack's `to_line`,
//! and — at the epochs the supervisor snapshots — `Session::snapshot_line`
//! and `CheckpointStore::ingest`.
//!
//! The die model is not advanced between the two session phases (that
//! step is crate-private and measured as `thermal.batch_step` in the
//! supervisor), so sensors read the unadvanced die.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use thermorl_control::ControlConfig;
use thermorl_dispatch::proto::WireMessage;
use thermorl_dispatch::CheckpointStore;
use thermorl_policy::PolicyId;
use thermorl_runner::job_seed;
use thermorl_serve::{BeginOutcome, Message, ServeConfig, Session, SessionMode};

use crate::serve_load::{die_name, observe_line, slot, CORES, DIES, EPOCH_SAMPLES};

/// Mean cost of each public call over the replayed stream.
pub struct ReplayTimes {
    pub requests: u64,
    pub decode_ns: f64,
    pub encode_ns: f64,
    pub begin_ns: f64,
    pub finish_ns: f64,
    pub snapshot_line_ns: f64,
    pub ingest_us: f64,
}

/// Replays the first `requests` requests of the seed's stream.
pub fn run(seed: u64, requests: u64, dir: &Path) -> Result<ReplayTimes, String> {
    let serve = ServeConfig::default();
    let cfg = ControlConfig {
        epoch_samples: EPOCH_SAMPLES as usize,
        ..ControlConfig::default()
    };
    let mut sessions: Vec<Session> = (0..DIES)
        .map(|d| {
            let die = die_name(d);
            let seed = job_seed(serve.seed, &die);
            Session::new(
                die,
                CORES,
                CORES,
                SessionMode::Power,
                PolicyId::DasDac14,
                seed,
                cfg.clone(),
            )
        })
        .collect();
    let store_path = dir.join("replay-store.jsonl");
    let mut store = CheckpointStore::open(&store_path, false).map_err(|e| e.to_string())?;
    let lines: Vec<String> = (0..requests)
        .map(|i| {
            let (d, seq) = slot(i);
            observe_line(seed, d, seq)
        })
        .collect();

    let (mut decode, mut encode, mut begin, mut finish, mut snap, mut ingest) =
        (0u128, 0u128, 0u128, 0u128, 0u128, 0u128);
    let mut snapshots = 0u64;
    for (i, line) in lines.iter().enumerate() {
        let (d, _) = slot(i as u64);
        let t = Instant::now();
        let msg = Message::parse(line)?;
        decode += t.elapsed().as_nanos();
        let Message::Observe {
            die, seq, values, ..
        } = msg
        else {
            return Err("replayed line is not an observe".into());
        };
        let session = &mut sessions[d];
        let t = Instant::now();
        let began = session.begin_step(seq, &values)?;
        begin += t.elapsed().as_nanos();
        if began != BeginOutcome::Ready {
            return Err(format!("replayed observe {die}/{seq} was not applied"));
        }
        let t = Instant::now();
        let outcome = session.finish_step(seq, &values);
        finish += t.elapsed().as_nanos();
        let snapshot_due = outcome.decision.is_some()
            && serve.snapshot_every > 0
            && session.epochs().is_multiple_of(serve.snapshot_every);
        let ack = Message::Ack {
            die,
            seq,
            duplicate: false,
            decision: outcome.decision,
        };
        let t = Instant::now();
        black_box(ack.to_line());
        encode += t.elapsed().as_nanos();
        if snapshot_due {
            let t = Instant::now();
            let snapshot = session.snapshot_line();
            snap += t.elapsed().as_nanos();
            let t = Instant::now();
            store.ingest(&snapshot).map_err(|e| e.to_string())?;
            ingest += t.elapsed().as_nanos();
            snapshots += 1;
        }
    }
    let n = requests.max(1) as f64;
    let s = snapshots.max(1) as f64;
    Ok(ReplayTimes {
        requests,
        decode_ns: decode as f64 / n,
        encode_ns: encode as f64 / n,
        begin_ns: begin as f64 / n,
        finish_ns: finish as f64 / n,
        snapshot_line_ns: snap as f64 / s,
        ingest_us: ingest as f64 / s / 1e3,
    })
}
