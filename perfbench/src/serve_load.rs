//! The serve workloads: a real `serve run` supervisor process, started
//! fresh with a fresh snapshot store for every measurement, driven by
//! this benchmark's own load generator over loopback TCP.
//!
//! * `serve_steady` — open loop: one connection, a paced writer thread
//!   and a reply reader, requests due at a fixed rate well below the
//!   knee. Each request is timed from the moment it was due.
//! * `serve_saturate` — closed loop: two connections, one thread each,
//!   every die with exactly one observe outstanding. Measures capacity.
//!
//! Both drive [`DIES`] dies × [`CORES`] cores in `power` mode; request
//! *i* goes to die `i % DIES` with per-die sequence `i / DIES + 1`, and
//! its per-core watts come from the run's seed.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use thermorl_control::ControlConfig;
use thermorl_dispatch::proto::WireMessage;
use thermorl_serve::{control, Message, StatsReport, SERVE_PROTOCOL_VERSION};
use thermorl_sim::json::Value;

use crate::stats::{file_len, mean_u64, median_f64, mix, peak_rss_mb, quantile};
use crate::{replay, Args, Report};

/// Dies attached in every serve workload.
pub const DIES: usize = 64;
/// Cores per die.
pub const CORES: usize = 4;
/// Samples per decision epoch, pinned on the supervisor command line so
/// the decision-count check does not depend on a default.
pub const EPOCH_SAMPLES: u64 = 10;
/// Offered rate of `serve_steady` (requests/s), well below the
/// one-connection knee.
const STEADY_RATE: f64 = 2000.0;
/// Connections of `serve_saturate` (one load-generator thread each).
const SATURATE_CONNECTIONS: usize = 2;
/// Supervisor set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Latency quantiles: p50 and p75 are the end-to-end metrics; p90, p99
/// and p99.9 are printed and traced but not bounded, because bursts of
/// host scheduling stalls on a shared 2-vCPU machine move them by
/// milliseconds between identical runs.
const QUANTILES: [f64; 5] = [0.5, 0.75, 0.9, 0.99, 0.999];
/// A request slower than this counts as a stall (the 32–65 ms bucket
/// where Nagle / delayed-ACK interactions land).
const STALL_NS: u64 = 32_000_000;

/// Which serve workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Open loop at [`STEADY_RATE`] on one connection.
    Steady,
    /// Closed loop, one observe outstanding per die, two connections.
    Saturate,
}

/// Wire name of die `d`.
pub fn die_name(d: usize) -> String {
    format!("die-{d:02}")
}

/// `(die, seq)` of request `i` of the stream.
pub fn slot(i: u64) -> (usize, u64) {
    ((i % DIES as u64) as usize, i / DIES as u64 + 1)
}

/// Per-core watts of `(die, seq)`: 2.00–8.00 W in 0.01 W steps.
pub fn power_values(seed: u64, die: usize, seq: u64) -> Vec<f64> {
    (0..CORES)
        .map(|core| {
            let r = mix(seed ^ mix(((die as u64) << 48) ^ (seq << 4) ^ core as u64));
            (200 + r % 601) as f64 / 100.0
        })
        .collect()
}

/// The observe line (without newline) for `(die, seq)`.
pub fn observe_line(seed: u64, die: usize, seq: u64) -> String {
    Message::Observe {
        die: die_name(die),
        seq,
        values: power_values(seed, die, seq),
        trace: None,
    }
    .to_line()
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A running `serve run` child process with its own fresh store.
struct Supervisor {
    child: Child,
    addr: String,
    dir: PathBuf,
}

impl Supervisor {
    /// Starts `perfbench supervisor` (= `serve run`) in `dir`, fresh, and
    /// waits until it has written its bound address.
    fn spawn(dir: &Path, traced: bool) -> Result<Supervisor, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let addr_file = dir.join("addr");
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.arg("supervisor")
            .args(["--addr", "127.0.0.1:0", "--fresh", "--quiet"])
            .args(["--epoch-samples", &EPOCH_SAMPLES.to_string()])
            .arg("--addr-file")
            .arg(&addr_file)
            .arg("--store")
            .arg(dir.join("store.jsonl"));
        if traced {
            cmd.arg("--telemetry")
                .arg(dir.join("telemetry.json"))
                .arg("--trace");
        }
        let child = cmd
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start supervisor: {e}"))?;
        let mut sup = Supervisor {
            child,
            addr: String::new(),
            dir: dir.to_path_buf(),
        };
        let t0 = Instant::now();
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.ends_with('\n') {
                    sup.addr = text.trim().to_string();
                    return Ok(sup);
                }
            }
            if let Ok(Some(status)) = sup.child.try_wait() {
                return Err(format!("supervisor exited early: {status}"));
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("supervisor did not publish its address in 30 s".into());
            }
            thread::sleep(Duration::from_micros(100));
        }
    }

    fn stats(&self) -> Result<StatsReport, String> {
        match control(&self.addr, &Message::Stats)? {
            Message::Report(r) => Ok(r),
            other => Err(format!("expected stats_report, got {other:?}")),
        }
    }

    /// Orderly shutdown; waits (at most 30 s) for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        control(&self.addr, &Message::Shutdown { hard: false })?;
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("supervisor exited with {status}")),
                Ok(None) if t0.elapsed() < Duration::from_secs(30) => {
                    thread::sleep(Duration::from_millis(1));
                }
                Ok(None) => return Err("supervisor did not stop within 30 s".into()),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Spawns a supervisor, opens `conns` connections and attaches every die
/// over the first one. Returns the supervisor, the open streams, the
/// set-up time and how many attaches reported `resumed`.
///
/// Any connection may speak for any die, so attaching over one keeps the
/// set-up time free of the race between a later connect and the
/// supervisor's 10 ms accept poll (which made it bimodal).
fn set_up(
    dir: &Path,
    traced: bool,
    conns: usize,
) -> Result<(Supervisor, Vec<TcpStream>, f64, u64), String> {
    let t0 = Instant::now();
    let sup = Supervisor::spawn(dir, traced)?;
    let mut streams = Vec::with_capacity(conns);
    for _ in 0..conns {
        let s = TcpStream::connect(&sup.addr).map_err(|e| format!("{}: {e}", sup.addr))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        streams.push(s);
    }
    let mut reader = BufReader::new(streams[0].try_clone().map_err(|e| e.to_string())?);
    let mut resumed = 0;
    let mut line = String::new();
    for d in 0..DIES {
        let attach = Message::Attach {
            protocol: SERVE_PROTOCOL_VERSION,
            die: die_name(d),
            cores: CORES,
            threads: CORES,
            mode: "power".into(),
            policy: None,
        };
        (&streams[0])
            .write_all((attach.to_line() + "\n").as_bytes())
            .map_err(|e| e.to_string())?;
        line.clear();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        match Message::parse(line.trim_end()) {
            Ok(Message::Attached { resumed: r, .. }) => resumed += u64::from(r),
            other => return Err(format!("attach of {} failed: {other:?}", die_name(d))),
        }
    }
    Ok((sup, streams, t0.elapsed().as_secs_f64(), resumed))
}

/// What one load phase observed, from the client side.
#[derive(Default)]
struct Load {
    /// Latency per measured request (from due time on the open loop,
    /// from send time on the closed loop), ns.
    latency_ns: Vec<u64>,
    /// Send-to-ack round trip per measured request, ns.
    rtt_ns: Vec<u64>,
    /// How late each send ran against its schedule (open loop), ns.
    lag_ns: Vec<u64>,
    sent: u64,
    acked: u64,
    errors: u64,
    /// Acks that did not match the request they answer.
    stray: u64,
    decisions: u64,
    per_die: Vec<u64>,
    /// Acks received inside the measurement window, and its length.
    window_acks: u64,
    window_s: f64,
    first_error: Option<String>,
}

impl Load {
    fn merge(&mut self, other: Load) {
        self.latency_ns.extend(other.latency_ns);
        self.rtt_ns.extend(other.rtt_ns);
        self.lag_ns.extend(other.lag_ns);
        self.sent += other.sent;
        self.acked += other.acked;
        self.errors += other.errors;
        self.stray += other.stray;
        self.decisions += other.decisions;
        for (a, b) in self.per_die.iter_mut().zip(other.per_die) {
            *a += b;
        }
        self.window_acks += other.window_acks;
        self.window_s = self.window_s.max(other.window_s);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    fn throughput(&self) -> f64 {
        self.window_acks as f64 / self.window_s.max(1e-9)
    }

    /// Records the reply to the observe `(d, seq)`.
    fn on_reply(&mut self, msg: Result<Message, String>, d: usize, seq: u64) {
        match msg {
            Ok(Message::Ack {
                die,
                seq: got,
                duplicate,
                decision,
            }) => {
                if die != die_name(d) || got != seq || duplicate {
                    self.stray += 1;
                }
                self.acked += 1;
                self.per_die[d] += 1;
                self.decisions += u64::from(decision.is_some());
            }
            Ok(Message::Error { message }) => {
                self.errors += 1;
                self.first_error.get_or_insert(message);
            }
            other => {
                self.errors += 1;
                self.first_error.get_or_insert(format!("{other:?}"));
            }
        }
    }
}

fn warmup_s(seconds: f64) -> f64 {
    (seconds * 0.1).min(1.0)
}

/// Open loop on one connection: a paced writer thread and a reader.
fn drive_steady(stream: TcpStream, seed: u64, seconds: f64) -> Result<Load, String> {
    let period = 1.0 / STEADY_RATE;
    let total = (seconds * STEADY_RATE).round().max(1.0) as u64;
    let warmup_ns = (warmup_s(seconds) * 1e9) as u64;
    let sent_ns: Arc<Vec<AtomicU64>> = Arc::new((0..total).map(|_| AtomicU64::new(0)).collect());
    let start = Instant::now() + Duration::from_millis(2);
    let due_ns = move |i: u64| (i as f64 * period * 1e9) as u64;

    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let writer_sent = Arc::clone(&sent_ns);
    let writer_thread = thread::spawn(move || -> Result<Vec<u64>, String> {
        let mut lags = Vec::with_capacity(total as usize);
        for i in 0..total {
            let (d, seq) = slot(i);
            let line = observe_line(seed, d, seq) + "\n";
            let due = start + Duration::from_nanos(due_ns(i));
            let now = Instant::now();
            if now < due {
                thread::sleep(due - now);
            }
            let t = Instant::now();
            writer_sent[i as usize].store(ns(t - start), Ordering::Release);
            lags.push(ns(t.saturating_duration_since(due)));
            writer
                .write_all(line.as_bytes())
                .map_err(|e| e.to_string())?;
        }
        // The stats reply arrives after every ack on this connection and
        // tells the reader it is done.
        writer
            .write_all((Message::Stats.to_line() + "\n").as_bytes())
            .map_err(|e| e.to_string())?;
        Ok(lags)
    });

    let mut load = Load {
        per_die: vec![0; DIES],
        sent: total,
        window_s: seconds - warmup_s(seconds),
        ..Load::default()
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut i = 0u64;
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("supervisor closed the connection".into());
        }
        let now = ns(Instant::now().saturating_duration_since(start));
        let msg = Message::parse(line.trim_end());
        if matches!(msg, Ok(Message::Report(_))) {
            break;
        }
        if i >= total {
            return Err("more replies than requests".into());
        }
        let (d, seq) = slot(i);
        load.on_reply(msg, d, seq);
        let due = due_ns(i);
        if due >= warmup_ns {
            load.latency_ns.push(now.saturating_sub(due));
            let sent = sent_ns[i as usize].load(Ordering::Acquire);
            load.rtt_ns.push(now.saturating_sub(sent));
            if now < (seconds * 1e9) as u64 {
                load.window_acks += 1;
            }
        }
        i += 1;
    }
    load.lag_ns = writer_thread
        .join()
        .map_err(|_| "writer thread panicked".to_string())??;
    Ok(load)
}

/// Closed loop on one connection: every die of `dies` keeps exactly one
/// observe outstanding until `end`.
fn drive_closed(
    stream: TcpStream,
    dies: Vec<usize>,
    seed: u64,
    start: Instant,
    seconds: f64,
) -> Result<Load, String> {
    let warm = start + Duration::from_secs_f64(warmup_s(seconds));
    let end = start + Duration::from_secs_f64(seconds);
    let mut load = Load {
        per_die: vec![0; DIES],
        window_s: seconds - warmup_s(seconds),
        ..Load::default()
    };
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut next_seq = vec![1u64; DIES];
    let mut sent_at = vec![start; DIES];
    let now = Instant::now();
    if now < start {
        thread::sleep(start - now);
    }
    let mut send = |d: usize, seq: u64, sent_at: &mut Vec<Instant>| -> Result<(), String> {
        let line = observe_line(seed, d, seq) + "\n";
        sent_at[d] = Instant::now();
        writer.write_all(line.as_bytes()).map_err(|e| e.to_string())
    };
    for &d in &dies {
        send(d, 1, &mut sent_at)?;
        load.sent += 1;
    }
    let mut outstanding = dies.len();
    let mut line = String::new();
    while outstanding > 0 {
        line.clear();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("supervisor closed the connection".into());
        }
        let now = Instant::now();
        let msg = Message::parse(line.trim_end());
        let d = match &msg {
            Ok(Message::Ack { die, .. }) => die
                .strip_prefix("die-")
                .and_then(|n| n.parse::<usize>().ok())
                .filter(|d| dies.contains(d))
                .ok_or_else(|| format!("ack for unknown die {die:?}"))?,
            other => return Err(format!("closed-loop request failed: {other:?}")),
        };
        load.on_reply(msg, d, next_seq[d]);
        if sent_at[d] >= warm && now < end {
            let rtt = ns(now - sent_at[d]);
            load.latency_ns.push(rtt);
            load.rtt_ns.push(rtt);
        }
        if now >= warm && now < end {
            load.window_acks += 1;
        }
        next_seq[d] += 1;
        if now < end {
            send(d, next_seq[d], &mut sent_at)?;
            load.sent += 1;
        } else {
            outstanding -= 1;
        }
    }
    Ok(load)
}

fn drive_saturate(streams: Vec<TcpStream>, seed: u64, seconds: f64) -> Result<Load, String> {
    let conns = streams.len();
    let start = Instant::now() + Duration::from_millis(2);
    let mut streams = streams.into_iter();
    let first = streams.next().ok_or("no connection")?;
    let others: Vec<_> = streams
        .enumerate()
        .map(|(k, s)| {
            let dies = (0..DIES).filter(|d| d % conns == k + 1).collect();
            thread::spawn(move || drive_closed(s, dies, seed, start, seconds))
        })
        .collect();
    let mut load = drive_closed(
        first,
        (0..DIES).filter(|d| d % conns == 0).collect(),
        seed,
        start,
        seconds,
    )?;
    for h in others {
        load.merge(
            h.join()
                .map_err(|_| "connection thread panicked".to_string())??,
        );
    }
    Ok(load)
}

/// One measured phase: fresh supervisor, set-up, load, stats, shutdown.
struct Phase {
    load: Load,
    stats: StatsReport,
    setup_s: f64,
    resumed: u64,
    peak_rss_mb: f64,
    store_bytes: u64,
    /// The supervisor's `--telemetry` export (traced phases only).
    telemetry: Option<Value>,
}

fn phase(dir: &Path, mode: Mode, seed: u64, seconds: f64, traced: bool) -> Result<Phase, String> {
    let conns = match mode {
        Mode::Steady => 1,
        Mode::Saturate => SATURATE_CONNECTIONS,
    };
    let (sup, streams, setup_s, resumed) = set_up(dir, traced, conns)?;
    let load = match mode {
        Mode::Steady => drive_steady(
            streams.into_iter().next().ok_or("no stream")?,
            seed,
            seconds,
        )?,
        Mode::Saturate => drive_saturate(streams, seed, seconds)?,
    };
    let stats = sup.stats()?;
    let peak_rss_mb = peak_rss_mb(sup.child.id())?;
    let dir = sup.dir.clone();
    sup.shutdown()?;
    let telemetry = if traced {
        let path = dir.join("telemetry.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let slim = drop_array(
            &drop_array(&text, "events", "events_dropped"),
            "trace_spans",
            "trace_spans_dropped",
        );
        Some(Value::parse(&slim).map_err(|e| format!("telemetry export: {}", e.0))?)
    } else {
        None
    };
    Ok(Phase {
        load,
        stats,
        setup_s,
        resumed,
        peak_rss_mb,
        store_bytes: file_len(&dir.join("store.jsonl")),
        telemetry,
    })
}

/// Empties the `"name":[...]` array of a telemetry export (the field
/// `next` follows it). Only aggregates are read here, and `sim::json`
/// re-validates the rest of the input for every string character, so
/// parsing the multi-megabyte span and event rings would take minutes.
fn drop_array(text: &str, name: &str, next: &str) -> String {
    let open = format!("\"{name}\":[");
    let close = format!("],\"{next}\"");
    match (text.find(&open), text.find(&close)) {
        (Some(a), Some(b)) if a + open.len() <= b => {
            format!("{}{}", &text[..a + open.len()], &text[b..])
        }
        _ => text.to_string(),
    }
}

/// The correctness checks every serve phase must pass.
fn check_phase(report: &mut Report, p: &Phase) {
    let l = &p.load;
    report.attempted += l.sent;
    report.failed += l.errors + l.stray + l.sent.saturating_sub(l.acked + l.errors);
    if let Some(e) = &l.first_error {
        println!("first error reply: {e}");
    }
    report.check(
        l.errors == 0 && l.stray == 0 && l.acked == l.sent,
        &format!(
            "every observe acked in order without error ({} sent, {} acked, {} errors, {} mismatched)",
            l.sent, l.acked, l.errors, l.stray
        ),
    );
    let expected: u64 = l.per_die.iter().map(|n| n / EPOCH_SAMPLES).sum();
    report.check(
        p.stats.decisions_total == expected && l.decisions == expected,
        &format!(
            "decisions = per-die observes / epoch_samples ({} in stats, {} in acks, {expected} expected)",
            p.stats.decisions_total, l.decisions
        ),
    );
    report.check(
        p.resumed == 0,
        &format!("resumed_dies = 0 on a fresh store ({})", p.resumed),
    );
    report.check(
        p.stats.observes_total == l.sent,
        &format!(
            "stats.observes_total = requests sent ({} vs {})",
            p.stats.observes_total, l.sent
        ),
    );
}

/// Quantiles of the workload's latency samples, in µs, at [`QUANTILES`].
fn latency_summary(load: &mut Load) -> [f64; 5] {
    QUANTILES.map(|q| quantile(&mut load.latency_ns, q) as f64 / 1e3)
}

/// Runs one serve workload and fills `report`.
pub fn run(args: &Args, mode: Mode, report: &mut Report) -> Result<(), String> {
    let name = match mode {
        Mode::Steady => "serve_steady",
        Mode::Saturate => "serve_saturate",
    };
    let work = args.work_dir.join(format!("{name}-{}", std::process::id()));
    let result = if args.trace {
        run_traced(args, mode, &work, report)
    } else {
        run_untraced(args, mode, &work, report)
    };
    let _ = std::fs::remove_dir_all(&work);
    result?;
    println!(
        "inputs: {DIES} dies x {CORES} cores, power mode, seed {}, {}",
        args.seed,
        match mode {
            Mode::Steady => format!("open loop at {STEADY_RATE} req/s on 1 connection"),
            Mode::Saturate =>
                format!("closed loop, 1 outstanding per die, {SATURATE_CONNECTIONS} connections"),
        }
    );
    Ok(())
}

fn run_untraced(args: &Args, mode: Mode, work: &Path, report: &mut Report) -> Result<(), String> {
    let conns = if mode == Mode::Steady {
        1
    } else {
        SATURATE_CONNECTIONS
    };
    let mut setups = Vec::with_capacity(SETUPS);
    for k in 1..SETUPS {
        let (sup, streams, setup_s, _) = set_up(&work.join(format!("setup-{k}")), false, conns)?;
        setups.push(setup_s);
        drop(streams);
        sup.shutdown()?;
    }
    let mut p = phase(&work.join("measured"), mode, args.seed, args.seconds, false)?;
    setups.push(p.setup_s);
    check_phase(report, &p);
    let throughput = p.load.throughput();
    let n = p.load.latency_ns.len();
    let [p50, p75, p90, p99, p999] = latency_summary(&mut p.load);
    let sampling_s = ControlConfig::default().sampling_interval;
    println!(
        "{n} latency samples ({}); p50 {p50:.1} us, p75 {p75:.1} us, p90 {p90:.1} us, \
         p99 {p99:.1} us, p99.9 {p999:.1} us; {throughput:.1} acks/s; median of {} set-ups {:.5} s; \
         supervisor peak RSS {:.2} MB",
        if mode == Mode::Steady {
            "from due time"
        } else {
            "send to ack"
        },
        setups.len(),
        median_f64(&setups),
        p.peak_rss_mb
    );
    report.set("setup_s", median_f64(&setups));
    report.set("peak_rss_mb", p.peak_rss_mb);
    report.set("latency_p50_us", p50);
    report.set("latency_p75_us", p75);
    report.set("throughput_per_s", throughput);
    report.set("sim_s_per_wall_s", throughput * sampling_s);
    Ok(())
}

/// `spans.<name>` of a telemetry export: (count, total ns, p99 bound ns).
fn span(tel: &Value, name: &str) -> (u64, u64, u64) {
    let Some(s) = tel.get("spans").and_then(|s| s.get(name)) else {
        return (0, 0, 0);
    };
    let count = s.get("count").and_then(Value::as_u64).unwrap_or(0);
    let total = s.get("total_ns").and_then(Value::as_u64).unwrap_or(0);
    let mut seen = 0;
    let mut p99 = 0;
    for b in s.get("buckets").and_then(Value::as_array).unwrap_or(&[]) {
        seen += b.get("count").and_then(Value::as_u64).unwrap_or(0);
        p99 = b.get("le_ns").and_then(Value::as_u64).unwrap_or(0);
        if seen as f64 >= 0.99 * count as f64 {
            break;
        }
    }
    (count, total, p99)
}

fn counter(tel: &Value, name: &str) -> u64 {
    tel.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn run_traced(args: &Args, mode: Mode, work: &Path, report: &mut Report) -> Result<(), String> {
    let half = args.seconds / 2.0;
    // Untraced reference phase, then the traced phase on a fresh
    // supervisor: the difference is the telemetry overhead.
    let mut plain = phase(&work.join("plain"), mode, args.seed, half, false)?;
    check_phase(report, &plain);
    let mut p = phase(&work.join("traced"), mode, args.seed, half, true)?;
    check_phase(report, &p);
    let cost = |load: &mut Load| match mode {
        Mode::Steady => latency_summary(load)[0],
        Mode::Saturate => 1.0 / load.throughput().max(1e-9),
    };
    let overhead_pct = (cost(&mut p.load) / cost(&mut plain.load) - 1.0) * 100.0;
    let tel = p.telemetry.take().ok_or("traced phase has no telemetry")?;

    let replay = replay::run(args.seed, p.load.sent.min(32_000), &work.join("replay"))?;

    let (req_n, req_total, req_p99) = span(&tel, "serve.request");
    let (obs_n, obs_total, _) = span(&tel, "shard.observe");
    let (_, handle_total, _) = span(&tel, "shard.handle");
    let (step_n, step_total, _) = span(&tel, "thermal.batch_step");
    let observes = p.stats.observes_total.max(1);
    let per_req = |total: u64| total as f64 / req_n.max(1) as f64 / 1e3;
    let route_wait_total = req_total as f64 - obs_total as f64 - handle_total as f64;
    let rtt_mean_us = mean_u64(&p.load.rtt_ns) / 1e3;
    let request_mean_us = per_req(req_total);
    let coverage =
        ((replay.decode_ns + replay.encode_ns) / 1e3 + request_mean_us) / rtt_mean_us.max(1e-9);

    // Layer table: self time of each server-side span, as a share of
    // serve.request. The shard spans are measured and must nest inside
    // serve.request (and the batch step inside shard.observe) within the
    // tolerance; what remains of serve.request is route, queue and reply.
    const TOLERANCE: f64 = 0.05;
    let rows = [
        ("serve.request (route, queue, reply)", route_wait_total),
        (
            "shard.observe (session + policy)",
            obs_total as f64 - step_total as f64,
        ),
        ("thermal.batch_step", step_total as f64),
        ("shard.handle (attach)", handle_total as f64),
    ];
    println!("layer table (traced supervisor, {req_n} serve.request spans):");
    println!("  {:<38} {:>12} {:>8}", "layer", "self ms", "share");
    for (layer, self_ns) in rows {
        println!(
            "  {layer:<38} {:>12.3} {:>7.1}%",
            self_ns / 1e6,
            100.0 * self_ns / req_total.max(1) as f64
        );
    }
    let shard_total = (obs_total + handle_total) as f64;
    report.check(
        shard_total <= (1.0 + TOLERANCE) * req_total as f64
            && step_total as f64 <= (1.0 + TOLERANCE) * obs_total as f64,
        &format!(
            "serve stages add up to serve.request within {:.0}%: shard spans {:.3} ms + \
             route/queue/reply {:.3} ms = {:.3} ms",
            TOLERANCE * 100.0,
            shard_total / 1e6,
            route_wait_total / 1e6,
            req_total as f64 / 1e6
        ),
    );
    report.check(
        coverage > 0.0 && coverage <= 1.0 + TOLERANCE,
        &format!(
            "decode + serve.request + encode ({:.1} us) fit in the client round trip ({rtt_mean_us:.1} us)",
            coverage * rtt_mean_us
        ),
    );
    report.check(
        obs_n == p.stats.observes_total,
        &format!(
            "one shard.observe span per observe ({obs_n} vs {})",
            p.stats.observes_total
        ),
    );

    let stalls = p.load.latency_ns.iter().filter(|&&l| l > STALL_NS).count();
    let lag_p99_us = quantile(&mut p.load.lag_ns, 0.99) as f64 / 1e3;
    let [_, _, _, client_p99, client_p999] = latency_summary(&mut p.load);
    report.set("serve.request_mean_us", request_mean_us);
    report.set("serve.request_p99_us", req_p99 as f64 / 1e3);
    report.set(
        "shard.observe_mean_us",
        obs_total as f64 / obs_n.max(1) as f64 / 1e3,
    );
    report.set(
        "serve.route_wait_mean_us",
        per_req(route_wait_total.max(0.0) as u64),
    );
    // Observes per shard flush (one `thermal.batch_step` span each);
    // `thermal.batch_advances` counts only flushes of two or more dies.
    report.set(
        "serve.batch_width_mean",
        observes as f64 / step_n.max(1) as f64,
    );
    report.set(
        "serve.snapshot_writes_per_kobs",
        1e3 * p.stats.snapshot_writes as f64 / observes as f64,
    );
    report.set(
        "store.bytes_per_observe",
        p.store_bytes as f64 / observes as f64,
    );
    report.set("serve.stalls_over_32ms", stalls as f64);
    report.set("serve.stage_coverage", coverage);
    report.set("wire.decode_ns", replay.decode_ns);
    report.set("wire.encode_ns", replay.encode_ns);
    report.set("session.begin_step_ns", replay.begin_ns);
    report.set("session.finish_step_ns", replay.finish_ns);
    report.set("session.snapshot_line_ns", replay.snapshot_line_ns);
    report.set("store.ingest_us", replay.ingest_us);
    report.set(
        "thermal.step_share",
        step_total as f64 / req_total.max(1) as f64,
    );
    report.set(
        "thermal.batch_step_mean_us",
        step_total as f64 / step_n.max(1) as f64 / 1e3,
    );
    for name in [
        "thermal.propagator_builds",
        "thermal.adaptive_steps",
        "thermal.cg_iterations",
    ] {
        report.set(name, counter(&tel, name) as f64);
    }
    report.set("policy.decisions", p.stats.decisions_total as f64);
    report.set("telemetry.overhead_pct", overhead_pct);
    report.set(
        "trace.spans_dropped",
        tel.get("trace_spans_dropped")
            .and_then(Value::as_u64)
            .unwrap_or(0) as f64,
    );
    report.set("loadgen.lag_p99_us", lag_p99_us);
    report.set("loadgen.requests_sent", p.load.sent as f64);
    report.set("loadgen.samples", p.load.latency_ns.len() as f64);
    report.set("loadgen.latency_p99_us", client_p99);
    report.set("loadgen.latency_p999_us", client_p999);
    report.set("loadgen.rtt_mean_us", rtt_mean_us);
    println!(
        "replay of {} requests on one thread: decode {:.0} ns, begin_step {:.0} ns, \
         finish_step {:.0} ns, encode {:.0} ns, snapshot_line {:.0} ns, ingest {:.1} us",
        replay.requests,
        replay.decode_ns,
        replay.begin_ns,
        replay.finish_ns,
        replay.encode_ns,
        replay.snapshot_line_ns,
        replay.ingest_us
    );
    println!("{stalls} request(s) over 32 ms; telemetry overhead {overhead_pct:.1}%");
    Ok(())
}
