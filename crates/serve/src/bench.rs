//! The synthetic open-loop load generator (`serve bench`).
//!
//! Drives N concurrent dies against a running supervisor at a target
//! aggregate observe rate, with a fixed die → connection assignment
//! (die *d* lives on connection `d % C`) so every die's samples stay
//! FIFO. Each connection splits into a paced writer and a reply reader,
//! so sends never wait on acks — queueing delay shows up in the measured
//! latency instead of silently throttling the offered load. Latencies
//! land in the workspace's shared log2 [`Histogram`]; the report is
//! published as `BENCH_serve.json`.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use thermorl_dispatch::proto::{read_message, write_message};
use thermorl_sim::json::Value;
use thermorl_telemetry as tel;
use thermorl_telemetry::Histogram;

use crate::proto::{Message, SERVE_PROTOCOL_VERSION};

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Supervisor address (`host:port`).
    pub addr: String,
    /// Number of concurrent dies to attach.
    pub dies: usize,
    /// Cores per die.
    pub cores: usize,
    /// Target aggregate observe rate (requests/second) across all dies.
    pub rate: f64,
    /// Total observes to send (spread round-robin over the dies).
    pub requests: u64,
    /// Client connections (dies are spread over them `d % C`).
    pub connections: usize,
    /// Whether this run used the `--quick` CI preset (recorded in the
    /// report so committed numbers are comparable run-to-run).
    pub quick: bool,
    /// Where to write the JSON report (`None` skips the file).
    pub out: Option<PathBuf>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            addr: String::new(),
            dies: 8,
            cores: 4,
            rate: 2000.0,
            requests: 4000,
            connections: 4,
            quick: false,
            out: Some(PathBuf::from("BENCH_serve.json")),
        }
    }
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The generator parameters that produced the numbers (pinned in the
    /// report's `config` object).
    pub config: BenchConfig,
    /// Dies driven.
    pub dies: usize,
    /// Observes sent.
    pub requests: u64,
    /// Connections used.
    pub connections: usize,
    /// Offered rate (requests/second).
    pub rate_target: f64,
    /// Drive-phase wall time (seconds).
    pub wall_s: f64,
    /// Sustained observe throughput (acks/second).
    pub achieved_rps: f64,
    /// Epoch decisions received.
    pub decisions_total: u64,
    /// Sustained decision throughput (decisions/second).
    pub decisions_per_sec: f64,
    /// Dies whose sessions resumed from a server-side snapshot.
    pub resumed_dies: u64,
    /// Round-trip latency of the slowest observe, microseconds.
    pub slowest_us: u64,
    /// Trace id of the slowest observe (its request ids are derived
    /// deterministically from `(die, seq)`, so the id can be looked up
    /// in a server-side `trace` reply or a Chrome trace dump). Zero when
    /// nothing was measured.
    pub slowest_trace: u64,
    /// Observe round-trip latencies in microseconds.
    pub latency_us: Histogram,
}

impl BenchReport {
    /// The JSON form written to `BENCH_serve.json`.
    pub fn to_value(&self) -> Value {
        let mut latency = Value::object();
        latency
            .set("count", Value::UInt(self.latency_us.count()))
            .set("mean_us", Value::num(self.latency_us.mean()))
            .set("p50_us", Value::UInt(percentile(&self.latency_us, 0.50)))
            .set("p90_us", Value::UInt(percentile(&self.latency_us, 0.90)))
            .set("p99_us", Value::UInt(percentile(&self.latency_us, 0.99)))
            .set(
                "log2_buckets",
                Value::Arr(
                    self.latency_us
                        .fold(20)
                        .into_iter()
                        .map(Value::UInt)
                        .collect(),
                ),
            );
        let mut config = Value::object();
        config
            .set("dies", Value::UInt(self.config.dies as u64))
            .set("cores", Value::UInt(self.config.cores as u64))
            .set("rate_rps", Value::num(self.config.rate))
            .set("requests", Value::UInt(self.config.requests))
            .set("connections", Value::UInt(self.config.connections as u64));
        let mut v = Value::object();
        v.set("name", Value::Str("serve_loadgen".into()))
            .set("quick", Value::Bool(self.config.quick))
            .set("config", config)
            .set("dies", Value::UInt(self.dies as u64))
            .set("requests", Value::UInt(self.requests))
            .set("connections", Value::UInt(self.connections as u64))
            .set("rate_target_rps", Value::num(self.rate_target))
            .set("wall_s", Value::num(self.wall_s))
            .set("achieved_rps", Value::num(self.achieved_rps))
            .set("decisions_total", Value::UInt(self.decisions_total))
            .set("decisions_per_sec", Value::num(self.decisions_per_sec))
            .set("resumed_dies", Value::UInt(self.resumed_dies))
            .set("slowest_us", Value::UInt(self.slowest_us))
            .set(
                "slowest_trace",
                Value::Str(format!("{:016x}", self.slowest_trace)),
            )
            .set("latency_us", latency);
        v
    }
}

/// The p-th latency quantile, reported as the inclusive upper bound of
/// the log2 bucket the quantile sample falls in (now provided by
/// [`Histogram::percentile`]; kept as the bench's public name).
pub fn percentile(hist: &Histogram, p: f64) -> u64 {
    hist.percentile(p)
}

/// The deterministic trace id of the observe for `(die, seq)`. Both the
/// load generator and anyone post-processing a trace dump can compute
/// it, so a slow request found in the report is findable in the trace
/// without any id plumbing. The request's root span id equals the trace
/// id (the seeded-root convention).
pub fn request_trace_id(die: usize, seq: u64) -> u64 {
    tel::trace_id_from_seed((die as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seq)
}

/// The deterministic per-core power trace the generator streams: a
/// wiggle over ~4–10 W that walks every die through several states.
pub fn power_values(die: usize, seq: u64, cores: usize) -> Vec<f64> {
    (0..cores)
        .map(|core| {
            let phase = (seq.wrapping_mul(31) + (die as u64) * 17 + core as u64 * 7) % 13;
            4.0 + 0.5 * phase as f64
        })
        .collect()
}

/// Runs the load generator against a live supervisor.
///
/// # Errors
///
/// Fails on connection errors or any `error` reply from the server.
pub fn run_bench(cfg: &BenchConfig) -> Result<BenchReport, String> {
    if cfg.dies == 0 || cfg.requests == 0 || cfg.rate <= 0.0 {
        return Err("bench needs dies > 0, requests > 0, rate > 0".into());
    }
    let connections = cfg.connections.clamp(1, cfg.dies);
    // All writers start their schedules together, right after every die
    // has attached.
    let start_gate = Arc::new(Barrier::new(connections + 1));

    let mut handles = Vec::with_capacity(connections);
    for conn_id in 0..connections {
        let cfg = cfg.clone();
        let gate = Arc::clone(&start_gate);
        handles.push(thread::spawn(move || {
            drive_connection(conn_id, connections, &cfg, &gate)
        }));
    }
    start_gate.wait();
    let t0 = Instant::now();

    let mut latency_us = Histogram::new();
    let mut decisions_total = 0;
    let mut resumed_dies = 0;
    let mut slowest = (0u64, 0u64);
    for handle in handles {
        let (hist, decisions, resumed, conn_slowest) = handle
            .join()
            .map_err(|_| "bench connection thread panicked".to_string())??;
        latency_us.merge(&hist);
        decisions_total += decisions;
        resumed_dies += resumed;
        if conn_slowest.0 > slowest.0 {
            slowest = conn_slowest;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);

    let report = BenchReport {
        config: cfg.clone(),
        dies: cfg.dies,
        requests: cfg.requests,
        connections,
        rate_target: cfg.rate,
        wall_s,
        achieved_rps: latency_us.count() as f64 / wall_s,
        decisions_total,
        decisions_per_sec: decisions_total as f64 / wall_s,
        resumed_dies,
        slowest_us: slowest.0,
        slowest_trace: slowest.1,
        latency_us,
    };
    if let Some(out) = &cfg.out {
        std::fs::write(out, report.to_value().to_json() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    }
    Ok(report)
}

/// One connection: attach its dies, then paced writer + reply reader.
/// Returns `(latency histogram, decisions, resumed dies, slowest)`
/// where `slowest` is the `(latency_us, trace_id)` of this connection's
/// slowest observe.
fn drive_connection(
    conn_id: usize,
    connections: usize,
    cfg: &BenchConfig,
    gate: &Barrier,
) -> Result<(Histogram, u64, u64, (u64, u64)), String> {
    let stream = thermorl_dispatch::net::connect(&cfg.addr)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);

    // Attach phase: this connection owns dies d with d % connections == conn_id.
    let my_dies: Vec<usize> = (0..cfg.dies)
        .filter(|d| d % connections == conn_id)
        .collect();
    let mut next_seq = vec![0u64; cfg.dies];
    let mut resumed_dies = 0;
    for &d in &my_dies {
        write_message(
            &mut writer,
            &Message::Attach {
                protocol: SERVE_PROTOCOL_VERSION,
                die: die_name(d),
                cores: cfg.cores,
                threads: cfg.cores,
                mode: "power".into(),
                policy: None,
            },
        )
        .map_err(|e| e.to_string())?;
        match read_message::<_, Message>(&mut reader).map_err(|e| e.to_string())? {
            Some(Message::Attached {
                acked_seq, resumed, ..
            }) => {
                next_seq[d] = acked_seq + 1;
                resumed_dies += u64::from(resumed);
            }
            Some(Message::Error { message }) => return Err(format!("attach failed: {message}")),
            other => return Err(format!("unexpected attach reply: {other:?}")),
        }
    }

    // This connection's slots in the global round-robin schedule.
    let my_slots: Vec<u64> = (0..cfg.requests)
        .filter(|k| (*k as usize % cfg.dies) % connections == conn_id)
        .collect();
    let expected_acks = my_slots.len() as u64;
    // Each entry is the send instant, the request's deterministic trace
    // id, and the open `client.observe` root span (created on the writer
    // thread, closed by the reader when the ack lands — so the span's
    // duration is the full client-observed round trip).
    type Flight = VecDeque<(Instant, u64, tel::TraceSpan)>;
    let in_flight: Arc<Mutex<Flight>> = Arc::new(Mutex::new(VecDeque::new()));

    let reader_flight = Arc::clone(&in_flight);
    let reader_thread = thread::spawn(move || -> Result<(Histogram, u64, (u64, u64)), String> {
        let mut hist = Histogram::new();
        let mut decisions = 0;
        let mut slowest = (0u64, 0u64);
        for _ in 0..expected_acks {
            match read_message::<_, Message>(&mut reader).map_err(|e| e.to_string())? {
                Some(Message::Ack { decision, .. }) => {
                    let (sent, trace_id, span) = reader_flight
                        .lock()
                        .expect("in-flight lock")
                        .pop_front()
                        .ok_or("ack without a matching in-flight send")?;
                    let us = sent.elapsed().as_micros() as u64;
                    drop(span);
                    hist.record(us);
                    if us > slowest.0 {
                        slowest = (us, trace_id);
                    }
                    if decision.is_some() {
                        decisions += 1;
                    }
                }
                Some(Message::Error { message }) => {
                    return Err(format!("observe failed: {message}"))
                }
                other => return Err(format!("unexpected observe reply: {other:?}")),
            }
        }
        Ok((hist, decisions, slowest))
    });

    gate.wait();
    let start = Instant::now();
    for &k in &my_slots {
        let due = Duration::from_secs_f64(k as f64 / cfg.rate);
        let now = start.elapsed();
        if due > now {
            thread::sleep(due - now);
        }
        let d = k as usize % cfg.dies;
        let seq = next_seq[d];
        next_seq[d] += 1;
        let values = power_values(d, seq, cfg.cores);
        let trace_id = request_trace_id(d, seq);
        let ctx = tel::SpanContext {
            trace_id,
            span_id: trace_id,
        };
        let span = tel::TraceSpan::detached_with_ids("client.observe", trace_id, trace_id);
        in_flight
            .lock()
            .expect("in-flight lock")
            .push_back((Instant::now(), trace_id, span));
        write_message(
            &mut writer,
            &Message::Observe {
                die: die_name(d),
                seq,
                values,
                trace: Some(ctx.to_traceparent()),
            },
        )
        .map_err(|e| e.to_string())?;
    }
    let (hist, decisions, slowest) = reader_thread
        .join()
        .map_err(|_| "bench reader thread panicked".to_string())??;

    // Orderly teardown: detach every die (snapshots it server-side). The
    // reader is done and nothing is in flight, so read replies inline.
    let mut reader = BufReader::new(stream);
    for &d in &my_dies {
        write_message(&mut writer, &Message::Detach { die: die_name(d) })
            .map_err(|e| e.to_string())?;
        match read_message::<_, Message>(&mut reader).map_err(|e| e.to_string())? {
            Some(Message::Detached { .. }) => {}
            Some(Message::Error { message }) => return Err(format!("detach failed: {message}")),
            other => return Err(format!("unexpected detach reply: {other:?}")),
        }
    }
    Ok((hist, decisions, resumed_dies, slowest))
}

/// The die identifier the bench uses for index `d`.
pub fn die_name(d: usize) -> String {
    format!("bench-die-{d}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_walks_the_buckets() {
        let mut h = Histogram::new();
        for v in [1u64, 1, 1, 100, 100, 10_000] {
            h.record(v);
        }
        assert_eq!(percentile(&h, 0.5), 2, "3 of 6 samples in bucket [0,2)");
        assert_eq!(percentile(&h, 0.8), 128, "100µs bucket upper bound");
        assert_eq!(percentile(&h, 1.0), 16_384);
        assert_eq!(percentile(&Histogram::new(), 0.99), 0);
    }

    #[test]
    fn request_trace_ids_are_deterministic_nonzero_and_distinct() {
        assert_eq!(request_trace_id(3, 41), request_trace_id(3, 41));
        assert_ne!(request_trace_id(3, 41), request_trace_id(3, 42));
        assert_ne!(request_trace_id(3, 41), request_trace_id(4, 41));
        for d in 0..8 {
            for seq in 0..64 {
                assert_ne!(request_trace_id(d, seq), 0);
            }
        }
    }

    #[test]
    fn power_values_are_deterministic_and_bounded() {
        let a = power_values(3, 41, 4);
        let b = power_values(3, 41, 4);
        assert_eq!(a, b);
        assert!(a.iter().all(|w| (4.0..=10.0).contains(w)));
        assert_ne!(power_values(3, 41, 4), power_values(3, 42, 4));
    }
}
