//! Micro-batched stepping of shard sessions.
//!
//! The shard worker drains its request channel into a micro-batch; every
//! power-mode observe that passes validation ([`Session::begin_step`])
//! parks here as a [`PendingObserve`] instead of advancing its die
//! inline. At flush time the [`ShardBatcher`] groups the pending dies by
//! shape — `(cores, sampling_interval)` — and advances each group of two
//! or more through one shared [`DieBatch`]: copy state in, one propagator
//! GEMM for the whole group, copy temperatures back. Singleton groups
//! advance through their own model (skipping the copies).
//!
//! Both paths are bit-identical — the batched advance is bit-exact
//! against the scalar one by the thermal crate's `batch_agrees_with_scalar`
//! contract — so snapshots, decisions, and crash recovery are unchanged
//! by whether a die happened to share its step with neighbours.

use std::collections::HashMap;

use thermorl_telemetry::TraceSpan;
use thermorl_thermal::{DieBatch, DieModel, DieParams, Floorplan};

use crate::session::Session;
use crate::supervisor::Reply;

/// An observe admitted to the current micro-batch: validated, powers
/// applied to its die, waiting for the shared advance and its reply.
pub(crate) struct PendingObserve {
    /// The die the observe targets (a live power-mode session).
    pub die: String,
    /// The observe's sequence number (already validated as `seq + 1`).
    pub seq: u64,
    /// The per-core watts payload (already applied to the model).
    pub values: Vec<f64>,
    /// The observe's open `shard.observe` span; closes after the ack.
    /// Its context parents/links the batch step's span.
    pub span: Option<TraceSpan>,
    /// Where the `Ack` goes once the batch flushes.
    pub reply: Reply,
}

/// Per-shard batched-stepping scratch: one [`DieBatch`] per die shape
/// seen on the shard, grown geometrically and reused across
/// micro-batches, plus a temperature copy-back buffer.
pub(crate) struct ShardBatcher {
    /// Keyed by `(cores, sampling_interval.to_bits())` — dies advance
    /// together only when both their floorplan and their step match.
    groups: HashMap<(usize, u64), DieBatch>,
    temps: Vec<f64>,
}

impl ShardBatcher {
    pub fn new() -> Self {
        ShardBatcher {
            groups: HashMap::new(),
            temps: Vec::new(),
        }
    }

    /// Advances every pending die by its sampling interval. Groups of two
    /// or more same-shape dies step through a shared [`DieBatch`] (one
    /// GEMM); singletons step their own model. Call once per micro-batch,
    /// before finishing the individual observes.
    pub fn advance(&mut self, pending: &[PendingObserve], sessions: &mut HashMap<String, Session>) {
        let mut by_shape: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
        for (i, p) in pending.iter().enumerate() {
            let session = sessions.get(&p.die).expect("pending die is attached");
            let key = (session.cores(), session.sampling_interval().to_bits());
            by_shape.entry(key).or_default().push(i);
        }
        for ((cores, dt_bits), members) in by_shape {
            if members.len() == 1 {
                sessions
                    .get_mut(&pending[members[0]].die)
                    .expect("pending die is attached")
                    .advance_model();
                continue;
            }
            let batch = self
                .groups
                .entry((cores, dt_bits))
                .or_insert_with(|| new_batch(cores, members.len()));
            if batch.width() < members.len() {
                *batch = new_batch(cores, members.len());
            }
            for (slot, &i) in members.iter().enumerate() {
                let model = sessions
                    .get(&pending[i].die)
                    .and_then(Session::model)
                    .expect("power-mode session has a model");
                let (temps, powers, ambient) = model.thermal_state();
                batch.load_die(slot, &temps, &powers, ambient);
            }
            batch.advance(f64::from_bits(dt_bits));
            self.temps.resize(batch.nodes(), 0.0);
            for (slot, &i) in members.iter().enumerate() {
                batch.store_die(slot, &mut self.temps);
                sessions
                    .get_mut(&pending[i].die)
                    .and_then(Session::model_mut)
                    .expect("power-mode session has a model")
                    .set_node_temperatures(&self.temps);
            }
        }
    }
}

/// A fresh batch for `cores`-wide dies, sized to the next power of two at
/// or above `need` so repeated small growth doesn't thrash reallocation.
fn new_batch(cores: usize, need: usize) -> DieBatch {
    let proto = DieModel::new(Floorplan::grid(cores, 1), DieParams::default());
    DieBatch::new(&proto, need.next_power_of_two())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{BeginOutcome, SessionMode};
    use std::sync::mpsc;
    use thermorl_control::ControlConfig;
    use thermorl_policy::PolicyId;

    const CORES: usize = 4;

    fn cfg() -> ControlConfig {
        ControlConfig {
            epoch_samples: 5,
            sampling_interval: 1.0,
            ..ControlConfig::default()
        }
    }

    fn values(die: usize, seq: u64) -> Vec<f64> {
        (0..CORES)
            .map(|c| 4.0 + ((seq * 31 + die as u64 * 7 + c as u64 * 3) % 13) as f64)
            .collect()
    }

    /// Dies stepped through the shard batcher emit decision streams and
    /// snapshot lines byte-identical to the same dies stepped one at a
    /// time through [`Session::step`] — the serve-layer face of the
    /// thermal crate's batch-vs-scalar bit-exactness contract.
    #[test]
    fn batched_sessions_match_scalar_sessions_byte_for_byte() {
        const DIES: usize = 6;
        let mut batched: HashMap<String, Session> = HashMap::new();
        let mut scalar: Vec<Session> = Vec::new();
        for d in 0..DIES {
            let die = format!("die-{d}");
            batched.insert(
                die.clone(),
                Session::new(
                    die.clone(),
                    CORES,
                    CORES,
                    SessionMode::Power,
                    PolicyId::DasDac14,
                    d as u64,
                    cfg(),
                ),
            );
            scalar.push(Session::new(
                die,
                CORES,
                CORES,
                SessionMode::Power,
                PolicyId::DasDac14,
                d as u64,
                cfg(),
            ));
        }
        let mut batcher = ShardBatcher::new();
        let (tx, _rx) = mpsc::channel();
        for seq in 1..=20u64 {
            // Batched path: admit all dies, one shared advance, finish.
            let mut pending: Vec<PendingObserve> = Vec::new();
            for d in 0..DIES {
                let die = format!("die-{d}");
                let vals = values(d, seq);
                let begun = batched
                    .get_mut(&die)
                    .unwrap()
                    .begin_step(seq, &vals)
                    .expect("begin");
                assert_eq!(begun, BeginOutcome::Ready);
                pending.push(PendingObserve {
                    die,
                    seq,
                    values: vals,
                    span: None,
                    reply: Reply::new(0, tx.clone()),
                });
            }
            batcher.advance(&pending, &mut batched);
            for p in &pending {
                let b = batched
                    .get_mut(&p.die)
                    .unwrap()
                    .finish_step(p.seq, &p.values);
                let s = scalar[p
                    .die
                    .strip_prefix("die-")
                    .unwrap()
                    .parse::<usize>()
                    .unwrap()]
                .step(seq, &p.values)
                .expect("scalar step");
                assert_eq!(b, s, "die {} seq {seq} outcome diverged", p.die);
            }
        }
        for (d, s) in scalar.iter().enumerate() {
            let b = &batched[&format!("die-{d}")];
            assert_eq!(
                b.snapshot_line(),
                s.snapshot_line(),
                "die {d}: batched snapshot must be byte-identical"
            );
        }
    }

    /// Singleton flushes take the scalar fast path and one-die batches
    /// stay bit-identical too (batch width 1 degrades gracefully).
    #[test]
    fn singleton_flush_matches_scalar() {
        let mut sessions: HashMap<String, Session> = HashMap::new();
        sessions.insert(
            "solo".into(),
            Session::new(
                "solo",
                CORES,
                CORES,
                SessionMode::Power,
                PolicyId::DasDac14,
                42,
                cfg(),
            ),
        );
        let mut twin = Session::new(
            "solo",
            CORES,
            CORES,
            SessionMode::Power,
            PolicyId::DasDac14,
            42,
            cfg(),
        );
        let mut batcher = ShardBatcher::new();
        let (tx, _rx) = mpsc::channel();
        for seq in 1..=12u64 {
            let vals = values(0, seq);
            sessions
                .get_mut("solo")
                .unwrap()
                .begin_step(seq, &vals)
                .expect("begin");
            let pending = vec![PendingObserve {
                die: "solo".into(),
                seq,
                values: vals.clone(),
                span: None,
                reply: Reply::new(0, tx.clone()),
            }];
            batcher.advance(&pending, &mut sessions);
            let b = sessions.get_mut("solo").unwrap().finish_step(seq, &vals);
            let s = twin.step(seq, &vals).expect("scalar step");
            assert_eq!(b, s, "seq {seq}");
        }
        assert_eq!(sessions["solo"].snapshot_line(), twin.snapshot_line());
    }
}
