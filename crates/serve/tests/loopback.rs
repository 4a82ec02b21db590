//! Loopback tests of the serving supervisor: full TCP round trips, the
//! kill-and-restart recovery contract, stats, telemetry, pipelined
//! requests, and the wire error paths.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use thermorl_dispatch::proto::{read_message, write_message, WireMessage, MAX_LINE_BYTES};
use thermorl_serve::bench::power_values;
use thermorl_serve::{
    Decision, Message, ServeConfig, Supervisor, SupervisorHandle, SERVE_PROTOCOL_VERSION,
};
use thermorl_telemetry as tel;

const CORES: usize = 4;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "thermorl-serve-loopback-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn config(store: &Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        addr_file: None,
        store: store.to_path_buf(),
        resume: true,
        shards: 2,
        seed: 99,
        snapshot_every: 1,
        epoch_samples: 3,
        slo_objective_us: 1000,
        quiet: true,
    }
}

fn die_name(i: usize) -> String {
    format!("die-{i}")
}

/// A synchronous request/reply client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(handle: &SupervisorHandle) -> Client {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn roundtrip(&mut self, msg: &Message) -> Message {
        write_message(&mut self.writer, msg).expect("write");
        read_message::<_, Message>(&mut self.reader)
            .expect("read")
            .expect("reply")
    }

    /// Attaches `die` in power mode; returns `(resumed, acked_seq)`.
    fn attach(&mut self, die: &str) -> (bool, u64) {
        match self.roundtrip(&Message::Attach {
            protocol: SERVE_PROTOCOL_VERSION,
            die: die.into(),
            cores: CORES,
            threads: CORES,
            mode: "power".into(),
            policy: None,
        }) {
            Message::Attached {
                resumed, acked_seq, ..
            } => (resumed, acked_seq),
            other => panic!("attach got {other:?}"),
        }
    }

    /// Attaches `die` in power mode under a named zoo policy.
    fn attach_policy(&mut self, die: &str, policy: &str) -> Message {
        self.roundtrip(&Message::Attach {
            protocol: SERVE_PROTOCOL_VERSION,
            die: die.into(),
            cores: CORES,
            threads: CORES,
            mode: "power".into(),
            policy: Some(policy.into()),
        })
    }

    /// Sends one observe; returns the epoch decision if one closed.
    fn observe(&mut self, die_idx: usize, seq: u64) -> Option<Decision> {
        let die = die_name(die_idx);
        match self.roundtrip(&Message::Observe {
            die: die.clone(),
            seq,
            values: power_values(die_idx, seq, CORES),
            trace: None,
        }) {
            Message::Ack {
                seq: got,
                duplicate,
                decision,
                ..
            } => {
                assert_eq!(got, seq);
                assert!(!duplicate, "seq {seq} of {die} unexpectedly duplicate");
                decision
            }
            other => panic!("observe got {other:?}"),
        }
    }
}

/// Drives `seqs` for every die in lockstep, collecting each die's
/// decision stream as `(seq, decision)` pairs.
fn drive(
    client: &mut Client,
    dies: usize,
    seqs: std::ops::RangeInclusive<u64>,
) -> HashMap<usize, Vec<(u64, Decision)>> {
    let mut streams: HashMap<usize, Vec<(u64, Decision)>> = HashMap::new();
    for seq in seqs {
        for d in 0..dies {
            if let Some(decision) = client.observe(d, seq) {
                streams.entry(d).or_default().push((seq, decision));
            }
        }
    }
    streams
}

/// The tentpole contract: a supervisor that is hard-killed mid-run and
/// restarted from its snapshot store produces — after the client replays
/// from `acked_seq + 1` — decision streams identical to a supervisor
/// that never went down.
#[test]
fn kill_and_restart_reproduces_the_decision_stream() {
    const DIES: usize = 3;
    const TOTAL: u64 = 30;
    const CUT: u64 = 17;
    let dir = temp_dir("kill-restart");

    // Reference: one uninterrupted run over the full observe stream.
    let reference = {
        let handle = Supervisor::spawn(config(&dir.join("ref.jsonl"))).expect("spawn");
        let mut client = Client::connect(&handle);
        for d in 0..DIES {
            assert_eq!(client.attach(&die_name(d)), (false, 0));
        }
        let streams = drive(&mut client, DIES, 1..=TOTAL);
        assert_eq!(
            client.roundtrip(&Message::Shutdown { hard: false }),
            Message::ShuttingDown
        );
        handle.join().expect("join");
        streams
    };
    assert!(
        reference.values().all(|s| s.len() as u64 == TOTAL / 3),
        "every die decides once per epoch_samples"
    );

    // Interrupted: same seed, same store dir, killed hard at CUT.
    let store = dir.join("victim.jsonl");
    let before_kill = {
        let handle = Supervisor::spawn(config(&store)).expect("spawn");
        let mut client = Client::connect(&handle);
        for d in 0..DIES {
            assert_eq!(client.attach(&die_name(d)), (false, 0));
        }
        let streams = drive(&mut client, DIES, 1..=CUT);
        // Hard shutdown: no final snapshot pass — states newer than the
        // last periodic snapshot are lost, exactly as in a crash.
        handle.shutdown(true);
        handle.join().expect("join");
        streams
    };

    // Restart from the store, replay from acked_seq + 1, run to TOTAL.
    let handle = Supervisor::spawn(config(&store)).expect("respawn");
    let mut client = Client::connect(&handle);
    let mut acked = None;
    for d in 0..DIES {
        let (resumed, acked_seq) = client.attach(&die_name(d));
        assert!(resumed, "die {d} must resume from its snapshot");
        assert!(
            acked_seq > 0 && acked_seq < CUT,
            "snapshot covers part of the interrupted run (got {acked_seq})"
        );
        // Lockstep drive + per-epoch snapshots put every die at the same
        // boundary.
        assert_eq!(*acked.get_or_insert(acked_seq), acked_seq);
    }
    let acked = acked.expect("at least one die");
    let after_restart = drive(&mut client, DIES, acked + 1..=TOTAL);
    assert_eq!(
        client.roundtrip(&Message::Shutdown { hard: false }),
        Message::ShuttingDown
    );
    handle.join().expect("join");

    for d in 0..DIES {
        let reference = &reference[&d];
        let replayed = after_restart.get(&d).map(Vec::as_slice).unwrap_or(&[]);
        // The stitched stream: decisions the victim produced up to the
        // snapshot, then everything the restarted supervisor produced.
        let mut stitched: Vec<(u64, Decision)> = before_kill
            .get(&d)
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .filter(|(seq, _)| *seq <= acked)
            .cloned()
            .collect();
        stitched.extend(replayed.iter().cloned());
        assert_eq!(
            &stitched, reference,
            "die {d}: stitched decision stream must equal the uninterrupted one"
        );
        // And the replayed overlap (acked+1 ..= CUT) reproduces what the
        // victim had already decided, bit for bit.
        let victim_tail: Vec<(u64, Decision)> = before_kill[&d]
            .iter()
            .filter(|(seq, _)| *seq > acked)
            .cloned()
            .collect();
        let replay_overlap: Vec<(u64, Decision)> = replayed
            .iter()
            .filter(|(seq, _)| *seq <= CUT)
            .cloned()
            .collect();
        assert_eq!(replay_overlap, victim_tail, "die {d}: replay overlap");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Serve metrics reach both telemetry export formats (JSON keeps dotted
/// names, Prometheus sanitizes them), and the stats message agrees.
#[test]
fn metrics_flow_to_stats_json_and_prometheus() {
    let dir = temp_dir("metrics");
    tel::set_enabled(true);
    let baseline = tel::snapshot();

    let handle = Supervisor::spawn(config(&dir.join("store.jsonl"))).expect("spawn");
    let mut client = Client::connect(&handle);
    assert_eq!(client.attach("m-die"), (false, 0));
    let mut decisions = 0;
    for seq in 1..=6u64 {
        match client.roundtrip(&Message::Observe {
            die: "m-die".into(),
            seq,
            values: power_values(0, seq, CORES),
            trace: None,
        }) {
            Message::Ack { decision, .. } => decisions += u64::from(decision.is_some()),
            other => panic!("observe got {other:?}"),
        }
    }
    assert_eq!(decisions, 2, "6 samples at epoch_samples=3");

    // Counters via the stats message...
    match client.roundtrip(&Message::Stats) {
        Message::Report(report) => {
            assert_eq!(report.sessions_active, 1);
            assert!(report.observes_total >= 6);
            assert!(report.decisions_total >= 2);
            assert!(report.snapshot_writes >= 2, "snapshot_every=1 epoch");
        }
        other => panic!("stats got {other:?}"),
    }

    // ...and via the telemetry registry, in both export formats.
    let delta = tel::snapshot().since(&baseline);
    let json = delta.to_json();
    assert!(json.contains("\"serve.decisions_total\""), "json: {json}");
    assert!(json.contains("\"serve.snapshot_writes\""), "json: {json}");
    assert!(json.contains("serve.request"), "request span in {json}");
    let full = tel::snapshot();
    assert!(full.to_json().contains("\"serve.sessions_active\""));
    let prom = full.to_prometheus();
    assert!(prom.contains("serve_decisions_total"), "prom: {prom}");
    assert!(prom.contains("serve_sessions_active"), "prom: {prom}");
    assert!(prom.contains("serve_snapshot_writes"), "prom: {prom}");

    match client.roundtrip(&Message::Detach {
        die: "m-die".into(),
    }) {
        Message::Detached { epochs, .. } => assert_eq!(epochs, 2),
        other => panic!("detach got {other:?}"),
    }
    assert_eq!(
        client.roundtrip(&Message::Shutdown { hard: false }),
        Message::ShuttingDown
    );
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

/// A die attached under a zoo policy keeps that brain across a hard
/// kill: the snapshot store records the policy id, the restarted
/// supervisor restores the same contender, and re-attaching under a
/// different policy (or an unknown one) is rejected instead of silently
/// swapping brains mid-run.
#[test]
fn zoo_policy_attach_survives_restart_and_rejects_mismatch() {
    let dir = temp_dir("zoo-policy");
    let store = dir.join("store.jsonl");

    {
        let handle = Supervisor::spawn(config(&store)).expect("spawn");
        let mut client = Client::connect(&handle);
        match client.attach_policy("z", "ucb1") {
            Message::Attached { resumed: false, .. } => {}
            other => panic!("fresh zoo attach got {other:?}"),
        }
        match client.attach_policy("z", "thompson") {
            Message::Error { message } => {
                assert!(message.contains("different shape"), "{message}")
            }
            other => panic!("mismatched re-attach got {other:?}"),
        }
        match client.attach_policy("z2", "not-a-policy") {
            Message::Error { message } => {
                assert!(message.contains("unknown policy"), "{message}")
            }
            other => panic!("unknown policy attach got {other:?}"),
        }
        for seq in 1..=7u64 {
            client.roundtrip(&Message::Observe {
                die: "z".into(),
                seq,
                values: power_values(0, seq, CORES),
                trace: None,
            });
        }
        handle.shutdown(true);
        handle.join().expect("join");
    }

    let handle = Supervisor::spawn(config(&store)).expect("respawn");
    let mut client = Client::connect(&handle);
    // The snapshot pins the policy: the wrong id cannot adopt the state…
    match client.attach_policy("z", "egreedy") {
        Message::Error { message } => assert!(message.contains("shape"), "{message}"),
        other => panic!("wrong-policy resume got {other:?}"),
    }
    // …while the original id resumes from the last epoch snapshot.
    match client.attach_policy("z", "ucb1") {
        Message::Attached {
            resumed: true,
            acked_seq,
            ..
        } => assert!(acked_seq > 0, "snapshot covers the interrupted run"),
        other => panic!("zoo resume got {other:?}"),
    }
    assert_eq!(
        client.roundtrip(&Message::Shutdown { hard: false }),
        Message::ShuttingDown
    );
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

/// The wire error paths: bad protocol, unattached dies, sequence gaps,
/// retransmits, and shape mismatches all answer cleanly.
#[test]
fn protocol_errors_answer_cleanly() {
    let dir = temp_dir("errors");
    let handle = Supervisor::spawn(config(&dir.join("store.jsonl"))).expect("spawn");
    let mut client = Client::connect(&handle);

    let err = |m: Message| match m {
        Message::Error { message } => message,
        other => panic!("expected error, got {other:?}"),
    };

    let msg = err(client.roundtrip(&Message::Attach {
        protocol: SERVE_PROTOCOL_VERSION + 1,
        die: "e".into(),
        cores: CORES,
        threads: CORES,
        mode: "power".into(),
        policy: None,
    }));
    assert!(msg.contains("protocol mismatch"), "{msg}");

    let msg = err(client.roundtrip(&Message::Attach {
        protocol: SERVE_PROTOCOL_VERSION,
        die: "e".into(),
        cores: CORES,
        threads: CORES,
        mode: "psychic".into(),
        policy: None,
    }));
    assert!(msg.contains("unknown session mode"), "{msg}");

    let msg = err(client.roundtrip(&Message::Observe {
        die: "ghost".into(),
        seq: 1,
        values: vec![1.0; CORES],
        trace: None,
    }));
    assert!(msg.contains("not attached"), "{msg}");

    assert_eq!(client.attach("e"), (false, 0));
    // Re-attach with a different shape is rejected; same shape is
    // idempotent.
    let msg = err(client.roundtrip(&Message::Attach {
        protocol: SERVE_PROTOCOL_VERSION,
        die: "e".into(),
        cores: CORES + 1,
        threads: CORES,
        mode: "power".into(),
        policy: None,
    }));
    assert!(msg.contains("different shape"), "{msg}");
    assert_eq!(client.attach("e"), (true, 0));

    let msg = err(client.roundtrip(&Message::Observe {
        die: "e".into(),
        seq: 5,
        values: vec![1.0; CORES],
        trace: None,
    }));
    assert!(msg.contains("sequence gap"), "{msg}");

    let first = client.roundtrip(&Message::Observe {
        die: "e".into(),
        seq: 1,
        values: vec![1.0; CORES],
        trace: None,
    });
    assert!(matches!(
        first,
        Message::Ack {
            duplicate: false,
            ..
        }
    ));
    let retransmit = client.roundtrip(&Message::Observe {
        die: "e".into(),
        seq: 1,
        values: vec![1.0; CORES],
        trace: None,
    });
    assert!(matches!(
        retransmit,
        Message::Ack {
            duplicate: true,
            ..
        }
    ));

    let msg = err(client.roundtrip(&Message::Detach {
        die: "ghost".into(),
    }));
    assert!(msg.contains("not attached"), "{msg}");

    assert_eq!(
        client.roundtrip(&Message::Shutdown { hard: true }),
        Message::ShuttingDown
    );
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

impl Client {
    /// Writes every message in `msgs` with one `write_all` (a pipelined
    /// burst: no reply is read in between).
    fn burst(&mut self, msgs: &[Message]) {
        let mut bytes = String::new();
        for msg in msgs {
            bytes.push_str(&msg.to_line());
            bytes.push('\n');
        }
        self.writer
            .write_all(bytes.as_bytes())
            .expect("write burst");
    }

    /// Reads one reply line, without its newline (`None` at EOF).
    fn read_line(&mut self) -> Option<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read");
        (n > 0).then(|| line.trim_end().to_string())
    }

    /// Reads one reply.
    fn read(&mut self) -> Message {
        Message::parse(&self.read_line().expect("reply")).expect("parse reply")
    }
}

fn observe(die_idx: usize, seq: u64) -> Message {
    Message::Observe {
        die: die_name(die_idx),
        seq,
        values: power_values(die_idx, seq, CORES),
        trace: None,
    }
}

/// Sixteen dies, the first few of which land on each of the test
/// config's two shards.
const PIPE_DIES: usize = 16;

fn assert_dies_span_both_shards() {
    let shards: std::collections::HashSet<usize> = (0..PIPE_DIES)
        .map(|d| thermorl_runner::shard_of(&die_name(d), config(Path::new("x")).shards))
        .collect();
    assert_eq!(shards.len(), 2, "the test dies must exercise both shards");
}

/// A pipelined burst — 64 observes spread over both shards, then
/// `stats`, in one write — is answered in request order, and `stats`
/// counts every observe sent before it.
#[test]
fn pipelined_burst_is_answered_in_request_order() {
    assert_dies_span_both_shards();
    let dir = temp_dir("pipeline-order");
    let handle = Supervisor::spawn(config(&dir.join("store.jsonl"))).expect("spawn");
    let mut client = Client::connect(&handle);
    for d in 0..PIPE_DIES {
        assert_eq!(client.attach(&die_name(d)), (false, 0));
    }
    let mut burst: Vec<Message> = (1..=4u64)
        .flat_map(|seq| (0..PIPE_DIES).map(move |d| observe(d, seq)))
        .collect();
    assert_eq!(burst.len(), 64);
    burst.push(Message::Stats);
    client.burst(&burst);
    for sent in &burst[..64] {
        let Message::Observe { die, seq, .. } = sent else {
            unreachable!("the burst starts with observes")
        };
        match client.read() {
            Message::Ack {
                die: got_die,
                seq: got_seq,
                duplicate: false,
                ..
            } => assert_eq!((&got_die, got_seq), (die, *seq), "reply out of order"),
            other => panic!("observe {die}/{seq} got {other:?}"),
        }
    }
    match client.read() {
        Message::Report(report) => assert_eq!(report.observes_total, 64),
        other => panic!("stats got {other:?}"),
    }
    assert_eq!(
        client.roundtrip(&Message::Shutdown { hard: true }),
        Message::ShuttingDown
    );
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

/// The store compacted the way a restart compacts it: the last snapshot
/// line per die, ordered by die.
fn compacted_store(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("read store");
    let mut latest: std::collections::BTreeMap<String, String> = Default::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = thermorl_sim::json::Value::parse(line).expect("store line parses");
        let key = v.get("key").and_then(|k| k.as_str()).expect("keyed line");
        latest.insert(key.to_string(), line.to_string());
    }
    latest.into_values().collect()
}

/// Pipelining changes nothing but timing: the same seeded streams, sent
/// stop-and-wait or with every die's next observe in one burst, produce
/// byte-identical reply streams and byte-identical compacted stores.
#[test]
fn pipelined_and_stop_and_wait_runs_are_byte_identical() {
    const SEQS: u64 = 12;
    assert_dies_span_both_shards();
    let dir = temp_dir("pipeline-identical");
    let run = |store: &Path, pipelined: bool| -> Vec<String> {
        let handle = Supervisor::spawn(config(store)).expect("spawn");
        let mut client = Client::connect(&handle);
        for d in 0..PIPE_DIES {
            assert_eq!(client.attach(&die_name(d)), (false, 0));
        }
        let mut replies = Vec::new();
        for seq in 1..=SEQS {
            let msgs: Vec<Message> = (0..PIPE_DIES).map(|d| observe(d, seq)).collect();
            if pipelined {
                client.burst(&msgs);
            }
            for msg in &msgs {
                if !pipelined {
                    write_message(&mut client.writer, msg).expect("write");
                }
                replies.push(client.read_line().expect("reply"));
            }
        }
        assert_eq!(
            client.roundtrip(&Message::Shutdown { hard: false }),
            Message::ShuttingDown
        );
        handle.join().expect("join");
        replies
    };
    let (serial_store, piped_store) = (dir.join("serial.jsonl"), dir.join("piped.jsonl"));
    let serial = run(&serial_store, false);
    let piped = run(&piped_store, true);
    assert_eq!(serial.len(), PIPE_DIES * SEQS as usize);
    assert!(
        serial.iter().any(|l| l.contains("\"decision\"")),
        "the streams include decisions"
    );
    assert_eq!(serial, piped, "ack/decision streams must be byte-identical");
    let compacted = compacted_store(&serial_store);
    assert_eq!(compacted.len(), PIPE_DIES);
    assert_eq!(
        compacted,
        compacted_store(&piped_store),
        "compacted snapshot stores must be byte-identical"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A hard `shutdown` in the middle of a burst answers every request
/// before it first, then `shutting_down`, then closes; nothing after it
/// is served.
#[test]
fn shutdown_mid_burst_answers_earlier_requests_first() {
    let dir = temp_dir("pipeline-shutdown");
    let handle = Supervisor::spawn(config(&dir.join("store.jsonl"))).expect("spawn");
    let mut client = Client::connect(&handle);
    for d in 0..4 {
        assert_eq!(client.attach(&die_name(d)), (false, 0));
    }
    let mut burst: Vec<Message> = (0..4).map(|d| observe(d, 1)).collect();
    burst.push(Message::Shutdown { hard: true });
    burst.extend((0..4).map(|d| observe(d, 2)));
    client.burst(&burst);
    for d in 0..4 {
        match client.read() {
            Message::Ack { die, seq: 1, .. } => assert_eq!(die, die_name(d)),
            other => panic!("observe {d}/1 got {other:?}"),
        }
    }
    assert_eq!(client.read(), Message::ShuttingDown);
    assert_eq!(
        client.read_line(),
        None,
        "the connection closes after shutdown"
    );
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

/// A line the server cannot parse — oversized or malformed — gets the
/// replies already owed, then a typed `error`, then EOF: the client
/// never hangs.
#[test]
fn hostile_lines_get_an_error_then_eof() {
    let dir = temp_dir("hostile");
    let handle = Supervisor::spawn(config(&dir.join("store.jsonl"))).expect("spawn");
    let oversized = format!(
        "{{\"type\":\"stats\",\"pad\":\"{}\"}}\n",
        "x".repeat(2 * MAX_LINE_BYTES as usize)
    );
    for hostile in [oversized.as_str(), "{\"type\":\"stats\"\n", "not json\n"] {
        let mut client = Client::connect(&handle);
        let mut bytes = Message::Stats.to_line();
        bytes.push('\n');
        bytes.push_str(hostile);
        client.writer.write_all(bytes.as_bytes()).expect("write");
        assert!(
            matches!(client.read(), Message::Report(_)),
            "the reply owed before the bad line comes first"
        );
        match client.read() {
            Message::Error { message } => assert!(message.contains("bad request"), "{message}"),
            other => panic!("hostile line got {other:?}"),
        }
        assert_eq!(client.read_line(), None, "then the connection closes");
    }
    // The supervisor itself is unharmed.
    let mut client = Client::connect(&handle);
    assert!(matches!(
        client.roundtrip(&Message::Stats),
        Message::Report(_)
    ));
    assert_eq!(
        client.roundtrip(&Message::Shutdown { hard: true }),
        Message::ShuttingDown
    );
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

/// Blank lines after a pipelined request are skipped without waiting
/// for another request: the reply owed for the request comes back.
#[test]
fn trailing_blank_lines_do_not_stall_a_round() {
    let dir = temp_dir("blank-lines");
    let handle = Supervisor::spawn(config(&dir.join("store.jsonl"))).expect("spawn");
    let mut client = Client::connect(&handle);
    client
        .writer
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    let mut bytes = Message::Stats.to_line();
    bytes.push_str("\n\n\r\n");
    client.writer.write_all(bytes.as_bytes()).expect("write");
    assert!(matches!(client.read(), Message::Report(_)));
    assert_eq!(
        client.roundtrip(&Message::Shutdown { hard: true }),
        Message::ShuttingDown
    );
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot the store cannot write is counted in `stats`, not just
/// logged, and the detach that triggered it is still answered.
#[test]
fn failed_snapshot_writes_are_counted() {
    let handle = Supervisor::spawn(ServeConfig {
        resume: false,
        ..config(Path::new("/dev/full"))
    })
    .expect("spawn");
    let mut client = Client::connect(&handle);
    assert_eq!(client.attach("die-full"), (false, 0));
    assert!(matches!(
        client.roundtrip(&Message::Detach {
            die: "die-full".into()
        }),
        Message::Detached { .. }
    ));
    match client.roundtrip(&Message::Stats) {
        Message::Report(report) => {
            assert_eq!(report.snapshot_failures, 1);
            assert_eq!(report.snapshot_writes, 0);
        }
        other => panic!("stats got {other:?}"),
    }
    assert_eq!(
        client.roundtrip(&Message::Shutdown { hard: true }),
        Message::ShuttingDown
    );
    handle.join().expect("join");
}
