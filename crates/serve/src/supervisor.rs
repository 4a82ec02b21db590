//! The serving supervisor: a TCP front door over sharded session workers.
//!
//! One supervisor owns every [`Session`] in the process. Sessions are
//! sharded across worker threads by die-id hash
//! ([`thermorl_runner::shard_of`]), so all samples for one die serialize
//! through one thread (no locks around agent state) while distinct dies
//! proceed in parallel. Connection threads are thin and pipelined: each
//! reads a *round* — one blocking line, then every complete line already
//! buffered, up to 256 — and moves every die request onto its
//! shard's bounded queue as soon as it is parsed, tagged with its slot in
//! the round and the connection's one completion channel. The thread then
//! collects the completions and writes the round's replies in request
//! order with one flush. `stats`, `trace` and `shutdown` are answered on
//! the connection thread after every earlier reply of the round is
//! written, so they see (and follow) the requests sent before them. Any
//! client can speak for any die, and several clients can share a die
//! without corrupting its stream: one connection's requests reach a
//! shard in read order.
//!
//! Accept, the address file, connection threads, their reaping and
//! close run on the connection layer the dispatch coordinator shares
//! ([`thermorl_dispatch::net`]); so does the answer to a line that cannot
//! be parsed, which gets the round's owed replies, an `error`, then EOF.
//!
//! # Crash safety
//!
//! Shards snapshot a session into the shared [`CheckpointStore`] every
//! [`ServeConfig::snapshot_every`] decision epochs, on `detach`, and on
//! orderly shutdown (a `shutdown` with `hard: true` skips the final
//! pass, simulating a crash). Snapshot lines are tagged
//! [`SNAPSHOT_STATUS`], which the store treats as non-final — it appends
//! every one, and on startup the supervisor resolves last-wins per die,
//! then compacts the store down to one line per die.

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};

use thermorl_control::ControlConfig;
use thermorl_dispatch::net::{hang_up, Listener, Server};
use thermorl_dispatch::proto::{read_message, WireMessage};
use thermorl_dispatch::CheckpointStore;
use thermorl_policy::PolicyId;
use thermorl_runner::{job_seed, shard_of};
use thermorl_sim::json::Value;
use thermorl_telemetry as tel;

use crate::batcher::{PendingObserve, ShardBatcher};
use crate::proto::{Message, StatsReport, SERVE_PROTOCOL_VERSION};
use crate::session::{BeginOutcome, Session, SessionMode, SNAPSHOT_STATUS};

/// Supervisor configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// When set, the bound address is written here (for scripts that
    /// need the ephemeral port).
    pub addr_file: Option<PathBuf>,
    /// Path of the snapshot store (JSONL).
    pub store: PathBuf,
    /// Restore sessions from an existing store; `false` starts fresh.
    pub resume: bool,
    /// Session worker threads.
    pub shards: usize,
    /// Server seed; each die's session seed is `job_seed(seed, die)`.
    pub seed: u64,
    /// Snapshot a session every this many decision epochs (0 disables
    /// periodic snapshots; detach/shutdown snapshots still happen).
    pub snapshot_every: u64,
    /// Decision epoch length (sensor samples per epoch) for new sessions.
    pub epoch_samples: usize,
    /// SLO objective for the `serve.request` span, in microseconds
    /// (`stats` and `trace` replies report p50/p99 and error-budget burn
    /// against it).
    pub slo_objective_us: u64,
    /// Suppress progress output.
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            addr_file: None,
            store: PathBuf::from("serve-snapshots.jsonl"),
            resume: true,
            shards: 2,
            seed: 0xDAC14,
            snapshot_every: 2,
            epoch_samples: ControlConfig::default().epoch_samples,
            slo_objective_us: 1000,
            quiet: false,
        }
    }
}

/// What the supervisor reports after it stops.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// The address the supervisor was bound to.
    pub addr: SocketAddr,
    /// Final counters.
    pub stats: StatsReport,
}

#[derive(Default)]
struct Stats {
    sessions_active: AtomicU64,
    sessions_total: AtomicU64,
    observes_total: AtomicU64,
    decisions_total: AtomicU64,
    snapshot_writes: AtomicU64,
    snapshot_failures: AtomicU64,
    rejected: AtomicU64,
}

impl Stats {
    fn report(&self, slo: &tel::SloConfig) -> StatsReport {
        StatsReport {
            sessions_active: self.sessions_active.load(Ordering::Relaxed),
            sessions_total: self.sessions_total.load(Ordering::Relaxed),
            observes_total: self.observes_total.load(Ordering::Relaxed),
            decisions_total: self.decisions_total.load(Ordering::Relaxed),
            snapshot_writes: self.snapshot_writes.load(Ordering::Relaxed),
            snapshot_failures: self.snapshot_failures.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            slo: request_slo(slo),
        }
    }
}

/// The current SLO state of the `serve.request` span histogram.
fn request_slo(cfg: &tel::SloConfig) -> tel::SloSummary {
    tel::snapshot()
        .spans
        .get("serve.request")
        .map(|s| tel::slo_summary(&s.hist, cfg))
        .unwrap_or_else(|| tel::SloSummary {
            objective_ns: cfg.objective_ns,
            target: cfg.target,
            ..tel::SloSummary::default()
        })
}

/// Capacity of each shard's request queue. A request that finds its
/// shard's queue full is answered [`OVERLOADED`] at once, never queued
/// without bound or dropped. One connection has at most [`MAX_ROUND`]
/// requests queued, so only many connections bursting at one shard can
/// fill it. The queue holds boxed requests: its slots are allocated up
/// front, and a pointer per slot keeps that small.
const SHARD_QUEUE: usize = 1024;

/// Most requests one connection reads into a round before answering them
/// (the same bound as a shard's micro-batch drain).
const MAX_ROUND: usize = MAX_DRAIN;

/// The error a request gets when its shard's queue is full.
const OVERLOADED: &str = "overloaded: shard queue full";

/// A die request on its way to the owning shard.
struct ShardRequest {
    msg: Message,
    /// The `serve.request` span's context — the shard's spans nest under
    /// the connection thread's, keeping one trace across both threads.
    ctx: Option<tel::SpanContext>,
    reply: Reply,
}

/// Where one request's answer goes: its slot in the connection's current
/// round, over the connection's completion channel. Every `Reply` answers
/// exactly once — if it is dropped unsent (a panicked shard), it answers
/// `request dropped`, so its connection never waits forever.
pub(crate) struct Reply {
    slot: usize,
    tx: Option<Sender<(usize, Message)>>,
}

impl Reply {
    pub(crate) fn new(slot: usize, tx: Sender<(usize, Message)>) -> Reply {
        Reply { slot, tx: Some(tx) }
    }

    /// Sends the answer. The client may have hung up; a dead completion
    /// channel is fine.
    pub(crate) fn send(mut self, reply: Message) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send((self.slot, reply));
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send((
                self.slot,
                Message::Error {
                    message: "request dropped".into(),
                },
            ));
        }
    }
}

/// Everything a connection thread needs.
struct Shared {
    shards: Vec<SyncSender<Box<ShardRequest>>>,
    stats: Arc<Stats>,
    stop: Arc<AtomicBool>,
    hard: Arc<AtomicBool>,
    slo: tel::SloConfig,
}

/// A running supervisor: inspect the bound address, stop it, join it.
pub struct SupervisorHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    hard: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<ServeReport>>,
}

impl SupervisorHandle {
    /// The address the supervisor listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a stop. `hard` skips the final snapshot pass — every
    /// session state not already snapshotted is lost, as in a crash.
    pub fn shutdown(&self, hard: bool) {
        if hard {
            self.hard.store(true, Ordering::SeqCst);
        }
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Waits for the supervisor to stop and returns its report.
    ///
    /// # Errors
    ///
    /// Propagates listener I/O failures.
    ///
    /// # Panics
    ///
    /// Panics if the supervisor thread itself panicked.
    pub fn join(self) -> io::Result<ServeReport> {
        self.thread.join().expect("supervisor thread panicked")
    }
}

/// The serving supervisor entry points.
pub struct Supervisor;

impl Supervisor {
    /// Binds, restores snapshots, and starts serving in the background.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound or the store cannot be
    /// opened.
    pub fn spawn(config: ServeConfig) -> io::Result<SupervisorHandle> {
        let listener = Listener::bind(&config.addr, config.addr_file.as_deref())?;
        let addr = listener.addr();

        // Restore-and-compact: collect the newest snapshot per die from
        // the previous run, then rewrite the store with exactly those
        // lines so it never grows across restarts.
        let restored = if config.resume {
            load_snapshots(&config.store)?
        } else {
            HashMap::new()
        };
        let mut store = CheckpointStore::open(&config.store, false)?;
        for line in restored.values() {
            store.ingest(&line.to_json())?;
        }
        if !config.quiet {
            eprintln!(
                "[serve] listening on {addr}, {} session(s) restorable from {}",
                restored.len(),
                config.store.display()
            );
        }
        let store = Arc::new(Mutex::new(store));

        let stats = Arc::new(Stats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let hard = Arc::new(AtomicBool::new(false));

        // Partition restored snapshots by shard and launch the workers.
        let shards = config.shards.max(1);
        let mut per_shard: Vec<HashMap<String, Value>> =
            (0..shards).map(|_| HashMap::new()).collect();
        for (die, snap) in restored {
            per_shard[shard_of(&die, shards)].insert(die, snap);
        }
        let mut senders = Vec::with_capacity(shards);
        let mut shard_handles = Vec::with_capacity(shards);
        for pending in per_shard {
            let (tx, rx) = mpsc::sync_channel::<Box<ShardRequest>>(SHARD_QUEUE);
            senders.push(tx);
            let store = Arc::clone(&store);
            let stats = Arc::clone(&stats);
            let hard = Arc::clone(&hard);
            let cfg = config.clone();
            shard_handles.push(thread::spawn(move || {
                run_shard(rx, pending, store, stats, hard, cfg)
            }));
        }

        let shared = Arc::new(Shared {
            shards: senders,
            stats: Arc::clone(&stats),
            stop: Arc::clone(&stop),
            hard: Arc::clone(&hard),
            slo: slo_config(&config),
        });
        let server = {
            let shared = Arc::clone(&shared);
            listener.serve(move |stream| {
                let _ = handle_connection(stream, &shared);
            })?
        };
        let quiet = config.quiet;
        let thread =
            thread::spawn(move || serve_until_stopped(server, addr, shared, shard_handles, quiet));
        Ok(SupervisorHandle {
            addr,
            stop,
            hard,
            thread,
        })
    }

    /// Runs a supervisor to completion (blocks until a client sends
    /// `shutdown`).
    ///
    /// # Errors
    ///
    /// See [`Supervisor::spawn`].
    pub fn run(config: ServeConfig) -> io::Result<ServeReport> {
        Supervisor::spawn(config)?.join()
    }
}

/// The SLO the supervisor evaluates `serve.request` against.
fn slo_config(config: &ServeConfig) -> tel::SloConfig {
    tel::SloConfig {
        objective_ns: config.slo_objective_us.saturating_mul(1000),
        ..tel::SloConfig::default()
    }
}

/// Scans the store for [`SNAPSHOT_STATUS`] lines, newest per die wins.
fn load_snapshots(path: &std::path::Path) -> io::Result<HashMap<String, Value>> {
    let mut latest = HashMap::new();
    if !path.exists() {
        return Ok(latest);
    }
    let reader = BufReader::new(File::open(path)?);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let Ok(v) = Value::parse(&line) else {
            continue; // torn tail of a crashed run
        };
        let (Some(key), Some(status)) = (
            v.get("key").and_then(Value::as_str),
            v.get("status").and_then(Value::as_str),
        ) else {
            continue;
        };
        if status == SNAPSHOT_STATUS {
            latest.insert(key.to_string(), v);
        }
    }
    Ok(latest)
}

/// Accepts until a `shutdown` request or [`SupervisorHandle::shutdown`],
/// then closes every connection and stops the shards.
fn serve_until_stopped(
    mut server: Server,
    addr: SocketAddr,
    shared: Arc<Shared>,
    shard_handles: Vec<JoinHandle<()>>,
    quiet: bool,
) -> io::Result<ServeReport> {
    let mut accepting = Ok(());
    while accepting.is_ok() && !shared.stop.load(Ordering::SeqCst) {
        accepting = server.poll();
    }
    server.close();
    let stats = Arc::clone(&shared.stats);
    let slo = shared.slo;
    // Dropping the last shard senders disconnects the channels; shards
    // run their final snapshot pass (unless `hard`) and exit.
    drop(shared);
    for handle in shard_handles {
        let _ = handle.join();
    }
    accepting?;
    let report = ServeReport {
        addr,
        stats: stats.report(&slo),
    };
    if !quiet {
        eprintln!(
            "[serve] stopped: {} session(s), {} decision(s), {} snapshot write(s)",
            report.stats.sessions_total, report.stats.decisions_total, report.stats.snapshot_writes
        );
    }
    Ok(report)
}

/// One connection's requests read since its replies were last written.
struct Round {
    /// One reply per request, in read order; `None` while a shard owes it.
    replies: Vec<Option<Message>>,
    /// Each request's `serve.request` span, open from its parse until its
    /// reply is written.
    spans: Vec<tel::TraceSpan>,
    /// Routed requests whose completion has not arrived yet.
    outstanding: usize,
    /// The connection's completion channel: every routed request carries
    /// a clone of `tx` in its [`Reply`].
    tx: Sender<(usize, Message)>,
    rx: Receiver<(usize, Message)>,
}

impl Round {
    fn new() -> Round {
        let (tx, rx) = mpsc::channel();
        Round {
            replies: Vec::with_capacity(MAX_ROUND),
            spans: Vec::with_capacity(MAX_ROUND),
            outstanding: 0,
            tx,
            rx,
        }
    }

    fn len(&self) -> usize {
        self.replies.len()
    }

    /// Opens a slot for a request a shard will answer.
    fn owe(&mut self, span: tel::TraceSpan) -> Reply {
        let reply = Reply::new(self.replies.len(), self.tx.clone());
        self.replies.push(None);
        self.spans.push(span);
        self.outstanding += 1;
        reply
    }

    /// Fills a slot with a reply the connection thread made itself.
    fn answer(&mut self, reply: Message, span: tel::TraceSpan) {
        self.replies.push(Some(reply));
        self.spans.push(span);
    }

    /// Waits for every routed request, writes all replies in request
    /// order, flushes once, and closes the requests' spans.
    fn settle(&mut self, writer: &mut impl Write) -> io::Result<()> {
        while self.outstanding > 0 {
            let (slot, reply) = self.rx.recv().expect("the round holds a sender");
            self.replies[slot] = Some(reply);
            self.outstanding -= 1;
        }
        for reply in self.replies.drain(..) {
            write_line(
                writer,
                &reply.expect("every request of a settled round is answered"),
            )?;
        }
        writer.flush()?;
        // Innermost first: each drop pops the top of the span stack.
        while self.spans.pop().is_some() {}
        Ok(())
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    // Room for a full round of replies, so a round leaves in one write.
    let mut writer = BufWriter::with_capacity(1 << 16, stream);
    let mut round = Round::new();
    loop {
        // Read a round: block for one request, then take every complete
        // line the reader already holds.
        let (mut last, mut shutdown) = (false, false);
        loop {
            match read_message::<_, Message>(&mut reader) {
                Ok(Some(msg)) => {
                    if !start_request(msg, shared, &mut round, &mut writer)? {
                        (last, shutdown) = (true, true);
                        break;
                    }
                }
                Ok(None) => {
                    last = true;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    // Answer what is owed, then say why and close.
                    round.settle(&mut writer)?;
                    hang_up(&mut reader, &mut writer, &e, |message| Message::Error {
                        message,
                    });
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
            if round.len() >= MAX_ROUND || !line_buffered(&mut reader) {
                break;
            }
        }
        let settled = round.settle(&mut writer);
        if shutdown {
            // Only once the reply is out: the accept loop shuts every live
            // connection down as soon as it sees the flag.
            shared.stop.store(true, Ordering::SeqCst);
        }
        settled?;
        if last {
            return Ok(());
        }
    }
}

/// Buffers one reply line (the caller flushes).
fn write_line(writer: &mut impl Write, reply: &Message) -> io::Result<()> {
    writer.write_all(reply.to_line().as_bytes())?;
    writer.write_all(b"\n")
}

/// Whether the reader already holds a complete non-blank line, so reading
/// the next request cannot block. Leading blank-line bytes are consumed
/// (`read_message` skips blank lines, and must not block on the line
/// after them while this round's replies are owed).
fn line_buffered(reader: &mut BufReader<TcpStream>) -> bool {
    let blank = reader
        .buffer()
        .iter()
        .take_while(|&&b| b == b'\n' || b == b'\r')
        .count();
    reader.consume(blank);
    reader.buffer().contains(&b'\n')
}

/// Starts one parsed request. A die request moves to its shard's queue;
/// `stats`, `trace` and `shutdown` first settle the round so far, then are
/// answered here. Returns `false` after `shutdown`, the connection's last
/// request; the caller stops the supervisor once the reply is written.
fn start_request(
    msg: Message,
    shared: &Shared,
    round: &mut Round,
    writer: &mut impl Write,
) -> io::Result<bool> {
    // An observe carrying a traceparent joins the client's trace;
    // everything else roots a fresh one. Either way the span feeds the
    // aggregate `serve.request` stats (and so the SLO).
    let parent = match &msg {
        Message::Observe {
            trace: Some(trace), ..
        } => tel::SpanContext::parse_traceparent(trace),
        _ => None,
    };
    let span = tel::TraceSpan::with_parent("serve.request", parent);
    let ctx = span.context();
    if let Message::Attach { die, .. } | Message::Observe { die, .. } | Message::Detach { die } =
        &msg
    {
        let shard = shard_of(die, shared.shards.len());
        let reply = round.owe(span);
        route(shared, shard, Box::new(ShardRequest { msg, ctx, reply }));
        return Ok(true);
    }
    round.settle(writer)?;
    let reply = match msg {
        Message::Stats => Message::Report(shared.stats.report(&shared.slo)),
        Message::Trace { max } => Message::Traces(thermorl_dispatch::proto::build_trace_report(
            &tel::snapshot(),
            "serve.request",
            &shared.slo,
            max.min(256) as usize,
        )),
        Message::Shutdown { hard } => {
            if hard {
                shared.hard.store(true, Ordering::SeqCst);
            }
            Message::ShuttingDown
        }
        other => Message::Error {
            message: format!("unexpected client message: {other:?}"),
        },
    };
    let more = !matches!(reply, Message::ShuttingDown);
    round.answer(reply, span);
    Ok(more)
}

/// Queues a die request on its shard without blocking. A full queue
/// answers [`OVERLOADED`] at once and counts the rejection; a stopped
/// shard answers that the supervisor is shutting down.
fn route(shared: &Shared, shard: usize, req: Box<ShardRequest>) {
    match shared.shards[shard].try_send(req) {
        Ok(()) => {}
        Err(TrySendError::Full(req)) => {
            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            tel::counter!("serve.rejected");
            req.reply.send(Message::Error {
                message: OVERLOADED.into(),
            });
        }
        Err(TrySendError::Disconnected(req)) => req.reply.send(Message::Error {
            message: "supervisor is shutting down".into(),
        }),
    }
}

/// Most requests a shard drains from its channel into one micro-batch
/// before processing (bounds batch latency and per-flush memory).
const MAX_DRAIN: usize = 256;

/// One session worker: owns every session whose die hashes to it.
///
/// Requests are drained in micro-batches: one blocking `recv`, then
/// whatever else is already queued. Power-mode observes that validate
/// cleanly park in a [`PendingObserve`] list — their dies advance
/// *together* through the shard's [`ShardBatcher`] (one propagator GEMM
/// per same-shape group) — while everything else flushes the batch first
/// and is handled inline, preserving strict FIFO effects. With a single
/// client streaming one die the drain holds one request and behaviour is
/// identical to unbatched serving, bit for bit.
fn run_shard(
    rx: Receiver<Box<ShardRequest>>,
    mut pending: HashMap<String, Value>,
    store: Arc<Mutex<CheckpointStore>>,
    stats: Arc<Stats>,
    hard: Arc<AtomicBool>,
    cfg: ServeConfig,
) {
    let mut sessions: HashMap<String, Session> = HashMap::new();
    let mut batcher = ShardBatcher::new();
    let mut queue: VecDeque<ShardRequest> = VecDeque::new();
    let mut batch: Vec<PendingObserve> = Vec::new();
    loop {
        match rx.recv() {
            Ok(req) => queue.push_back(*req),
            Err(_) => break,
        }
        while queue.len() < MAX_DRAIN {
            match rx.try_recv() {
                Ok(req) => queue.push_back(*req),
                Err(_) => break,
            }
        }
        while let Some(req) = queue.pop_front() {
            match try_admit(req, &mut sessions, &mut batch) {
                None => {}
                Some(req) => {
                    // Not batchable: flush what's pending (keeping FIFO
                    // effect order), then handle inline.
                    flush_batch(
                        &mut batcher,
                        &mut batch,
                        &mut sessions,
                        &store,
                        &stats,
                        &cfg,
                    );
                    let _g = tel::TraceSpan::with_parent("shard.handle", req.ctx);
                    let reply = handle_shard_message(
                        req.msg,
                        &mut sessions,
                        &mut pending,
                        &store,
                        &stats,
                        &cfg,
                    );
                    req.reply.send(reply);
                }
            }
        }
        flush_batch(
            &mut batcher,
            &mut batch,
            &mut sessions,
            &store,
            &stats,
            &cfg,
        );
    }
    if !hard.load(Ordering::SeqCst) {
        for session in sessions.values() {
            write_snapshot(session, &store, &stats);
        }
    }
}

/// Admits `req` to the current micro-batch when it is a power-mode
/// observe that will advance its die (in-sequence, right payload length,
/// die not already pending this batch). Returns the request back when it
/// must be handled inline instead.
fn try_admit(
    req: ShardRequest,
    sessions: &mut HashMap<String, Session>,
    batch: &mut Vec<PendingObserve>,
) -> Option<ShardRequest> {
    let admissible = if let Message::Observe {
        die, seq, values, ..
    } = &req.msg
    {
        !batch.iter().any(|p| &p.die == die)
            && sessions.get(die).is_some_and(|s| {
                s.mode() == SessionMode::Power && *seq == s.seq() + 1 && values.len() == s.cores()
            })
    } else {
        false
    };
    if !admissible {
        return Some(req);
    }
    let Message::Observe {
        die, seq, values, ..
    } = req.msg
    else {
        unreachable!("admissibility checked above")
    };
    // The observe's span lives in the pending entry: it opens here, spans
    // the batched advance, and closes right after the ack is sent.
    let span = tel::TraceSpan::with_parent("shard.observe", req.ctx);
    let session = sessions.get_mut(&die).expect("admissibility checked above");
    match session.begin_step(seq, &values) {
        Ok(BeginOutcome::Ready) => {
            batch.push(PendingObserve {
                die,
                seq,
                values,
                span: Some(span),
                reply: req.reply,
            });
            None
        }
        // Unreachable given the admissibility checks, but degrade to the
        // scalar protocol answers rather than panicking a shard.
        Ok(BeginOutcome::Duplicate) => {
            req.reply.send(Message::Ack {
                die,
                seq,
                duplicate: true,
                decision: None,
            });
            None
        }
        Err(message) => {
            req.reply.send(Message::Error { message });
            None
        }
    }
}

/// Advances every pending die (grouped through the batcher), then
/// finishes each observe in admission order: sensor read, agent sample,
/// stats, epoch snapshots, and the `Ack` reply.
fn flush_batch(
    batcher: &mut ShardBatcher,
    batch: &mut Vec<PendingObserve>,
    sessions: &mut HashMap<String, Session>,
    store: &Arc<Mutex<CheckpointStore>>,
    stats: &Arc<Stats>,
    cfg: &ServeConfig,
) {
    if batch.is_empty() {
        return;
    }
    // The shared thermal step belongs to the first member's trace (so at
    // least one client trace contains the batch step end to end) and
    // links to every member it fanned in.
    let mut step = tel::TraceSpan::with_parent(
        "thermal.batch_step",
        batch[0].span.as_ref().and_then(tel::TraceSpan::context),
    );
    for p in batch.iter().skip(1) {
        if let Some(ctx) = p.span.as_ref().and_then(tel::TraceSpan::context) {
            step.add_link(ctx);
        }
    }
    batcher.advance(batch, sessions);
    drop(step);
    for p in batch.drain(..) {
        let session = sessions.get_mut(&p.die).expect("pending die is attached");
        let outcome = session.finish_step(p.seq, &p.values);
        stats.observes_total.fetch_add(1, Ordering::Relaxed);
        if outcome.decision.is_some() {
            stats.decisions_total.fetch_add(1, Ordering::Relaxed);
            tel::counter!("serve.decisions_total");
            if cfg.snapshot_every > 0 && session.epochs().is_multiple_of(cfg.snapshot_every) {
                write_snapshot(session, store, stats);
            }
        }
        p.reply.send(Message::Ack {
            die: p.die,
            seq: p.seq,
            duplicate: false,
            decision: outcome.decision,
        });
    }
}

fn handle_shard_message(
    msg: Message,
    sessions: &mut HashMap<String, Session>,
    pending: &mut HashMap<String, Value>,
    store: &Arc<Mutex<CheckpointStore>>,
    stats: &Arc<Stats>,
    cfg: &ServeConfig,
) -> Message {
    match msg {
        Message::Attach {
            protocol,
            die,
            cores,
            threads,
            mode,
            policy,
        } => {
            if protocol != SERVE_PROTOCOL_VERSION {
                return Message::Error {
                    message: format!(
                        "protocol mismatch: client speaks v{protocol}, server v{SERVE_PROTOCOL_VERSION}"
                    ),
                };
            }
            let mode = match SessionMode::parse(&mode) {
                Ok(m) => m,
                Err(e) => return Message::Error { message: e },
            };
            let policy_id = match policy.as_deref().map(PolicyId::parse) {
                None => PolicyId::DasDac14,
                Some(Ok(id)) => id,
                Some(Err(e)) => return Message::Error { message: e },
            };
            // Re-attach to a live session is idempotent (a reconnecting
            // client learns how far it had got).
            if let Some(session) = sessions.get(&die) {
                if session.cores() != cores
                    || session.mode() != mode
                    || session.policy_id() != policy_id
                {
                    return Message::Error {
                        message: format!("die {die:?} is attached with a different shape"),
                    };
                }
                return Message::Attached {
                    die,
                    resumed: true,
                    acked_seq: session.seq(),
                    epochs: session.epochs(),
                };
            }
            // A rejected attach must not consume the snapshot: validate
            // against the pending entry in place and remove it only once
            // the restored session is accepted.
            let (session, resumed) = if let Some(snap) = pending.get(&die) {
                let restored = snap
                    .get("session")
                    .ok_or_else(|| format!("snapshot for die {die:?} missing session"))
                    .and_then(Session::restore);
                match restored {
                    Ok(s) => {
                        if s.cores() != cores || s.mode() != mode || s.policy_id() != policy_id {
                            return Message::Error {
                                message: format!(
                                    "die {die:?} snapshot has a different shape; \
                                     attach with the original cores/mode/policy or start a fresh store"
                                ),
                            };
                        }
                        pending.remove(&die);
                        (s, true)
                    }
                    Err(e) => return Message::Error { message: e },
                }
            } else {
                let session_cfg = ControlConfig {
                    epoch_samples: cfg.epoch_samples,
                    ..ControlConfig::default()
                };
                (
                    Session::new(
                        die.clone(),
                        cores,
                        threads,
                        mode,
                        policy_id,
                        job_seed(cfg.seed, &die),
                        session_cfg,
                    ),
                    false,
                )
            };
            stats.sessions_total.fetch_add(1, Ordering::Relaxed);
            let active = stats.sessions_active.fetch_add(1, Ordering::Relaxed) + 1;
            tel::gauge!("serve.sessions_active", active as f64);
            tel::event!("serve.attach", "{die} resumed={resumed}");
            let reply = Message::Attached {
                die: die.clone(),
                resumed,
                acked_seq: session.seq(),
                epochs: session.epochs(),
            };
            sessions.insert(die, session);
            reply
        }
        Message::Observe {
            die, seq, values, ..
        } => {
            let Some(session) = sessions.get_mut(&die) else {
                return Message::Error {
                    message: format!("die {die:?} is not attached"),
                };
            };
            match session.step(seq, &values) {
                Ok(outcome) => {
                    if !outcome.duplicate {
                        stats.observes_total.fetch_add(1, Ordering::Relaxed);
                    }
                    if outcome.decision.is_some() {
                        stats.decisions_total.fetch_add(1, Ordering::Relaxed);
                        tel::counter!("serve.decisions_total");
                        if cfg.snapshot_every > 0 && session.epochs() % cfg.snapshot_every == 0 {
                            write_snapshot(session, store, stats);
                        }
                    }
                    Message::Ack {
                        die,
                        seq,
                        duplicate: outcome.duplicate,
                        decision: outcome.decision,
                    }
                }
                Err(message) => Message::Error { message },
            }
        }
        Message::Detach { die } => {
            let Some(session) = sessions.remove(&die) else {
                return Message::Error {
                    message: format!("die {die:?} is not attached"),
                };
            };
            write_snapshot(&session, store, stats);
            let active = stats
                .sessions_active
                .fetch_sub(1, Ordering::Relaxed)
                .saturating_sub(1);
            tel::gauge!("serve.sessions_active", active as f64);
            tel::event!("serve.detach", "{die}");
            Message::Detached {
                die,
                epochs: session.epochs(),
            }
        }
        other => Message::Error {
            message: format!("shard cannot handle message: {other:?}"),
        },
    }
}

fn write_snapshot(session: &Session, store: &Arc<Mutex<CheckpointStore>>, stats: &Arc<Stats>) {
    let line = session.snapshot_line();
    let mut store = store.lock().expect("store lock poisoned");
    if let Err(e) = store.ingest(&line) {
        stats.snapshot_failures.fetch_add(1, Ordering::Relaxed);
        tel::counter!("serve.snapshot_failures");
        eprintln!(
            "[serve] warning: snapshot of {:?} failed: {e}",
            session.die()
        );
        return;
    }
    stats.snapshot_writes.fetch_add(1, Ordering::Relaxed);
    tel::counter!("serve.snapshot_writes");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full shard queue answers the next request `overloaded` at once
    /// and counts it: the connection neither blocks nor loses the request.
    #[test]
    fn full_shard_queue_rejects_with_a_typed_error() {
        let (queue, _stalled_shard) = mpsc::sync_channel(SHARD_QUEUE);
        let shared = Shared {
            shards: vec![queue],
            stats: Arc::default(),
            stop: Arc::default(),
            hard: Arc::default(),
            slo: tel::SloConfig::default(),
        };
        let mut round = Round::new();
        for seq in 1..=SHARD_QUEUE as u64 + 1 {
            let reply = round.owe(tel::TraceSpan::with_parent("serve.request", None));
            let msg = Message::Observe {
                die: "d".into(),
                seq,
                values: vec![1.0],
                trace: None,
            };
            route(
                &shared,
                0,
                Box::new(ShardRequest {
                    msg,
                    ctx: None,
                    reply,
                }),
            );
        }
        assert_eq!(
            round
                .rx
                .try_recv()
                .expect("the rejection is answered at once"),
            (
                SHARD_QUEUE,
                Message::Error {
                    message: OVERLOADED.into()
                }
            )
        );
        assert!(round.rx.try_recv().is_err(), "queued requests stay owed");
        assert_eq!(shared.stats.report(&shared.slo).rejected, 1);
    }

    /// A request dropped unanswered (as a panicking shard drops its
    /// queue) still completes its slot, so its connection never hangs.
    #[test]
    fn dropped_reply_answers_request_dropped() {
        let (tx, rx) = mpsc::channel();
        drop(Reply::new(7, tx.clone()));
        Reply::new(8, tx).send(Message::ShuttingDown);
        let dropped = Message::Error {
            message: "request dropped".into(),
        };
        assert_eq!(rx.try_recv(), Ok((7, dropped)));
        assert_eq!(rx.try_recv(), Ok((8, Message::ShuttingDown)));
        assert!(rx.try_recv().is_err(), "a sent reply answers only once");
    }
}
