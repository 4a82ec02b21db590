//! End-to-end loopback tests: a real coordinator and real workers over
//! 127.0.0.1, including a worker killed mid-lease. The authoritative
//! store must end up byte-identical (sorted by key) to a serial
//! single-process run of the same campaign — the determinism promise the
//! whole dispatch design is built around.

use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;

use thermorl_dispatch::proto::{read_message, write_message};
use thermorl_dispatch::{
    control, Coordinator, CoordinatorConfig, Message, WorkerConfig, PROTOCOL_VERSION,
};
use thermorl_runner::{Campaign, Codec, RunnerConfig};
use thermorl_sim::json::{JsonError, Value};

const CAMPAIGN_SEED: u64 = 0x7EE7_0001;
const JOBS: usize = 12;

fn u64_codec() -> Codec<u64> {
    Codec {
        encode: |v| Value::UInt(*v),
        decode: |v| v.as_u64().ok_or_else(|| JsonError::new("expected u64")),
    }
}

/// A small deterministic campaign: each job's payload is a pure function
/// of its derived seed, so any correct execution produces the same lines.
fn build_campaign() -> Campaign<u64> {
    let mut campaign = Campaign::new("loopback", CAMPAIGN_SEED).with_codec(u64_codec());
    for i in 0..JOBS {
        campaign.push(format!("grid/{i}"), |seed| {
            seed.rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15
        });
    }
    campaign
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "thermorl-dispatch-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The checkpoint's lines sorted by their embedded key (schedule order
/// differs between runs; content must not).
fn sorted_lines(path: &std::path::Path) -> Vec<String> {
    let mut lines: Vec<String> = std::fs::read_to_string(path)
        .expect("read checkpoint")
        .lines()
        .map(str::to_string)
        .collect();
    lines.sort();
    lines
}

/// Connects as a raw protocol client, takes one lease, and vanishes
/// without a goodbye, a result, or a single heartbeat — the closest a
/// test gets to `kill -9` on a worker mid-job. Returns the leased key.
fn killer_takes_a_lease(addr: &str) -> String {
    let stream = TcpStream::connect(addr).expect("killer connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    write_message(
        &mut writer,
        &Message::Hello {
            worker: "killer".into(),
            protocol: PROTOCOL_VERSION,
            token: None,
        },
    )
    .expect("hello");
    match read_message(&mut reader).expect("welcome") {
        Some(Message::Welcome { campaign, .. }) => assert_eq!(campaign, "loopback"),
        other => panic!("expected welcome, got {other:?}"),
    }
    write_message(
        &mut writer,
        &Message::LeaseRequest {
            worker: "killer".into(),
            max_jobs: 1,
            trace: None,
        },
    )
    .expect("lease request");
    match read_message(&mut reader).expect("grant") {
        Some(Message::Grant { leases }) => {
            assert_eq!(leases.len(), 1, "one lease requested");
            leases[0].key.clone()
        }
        other => panic!("expected grant, got {other:?}"),
    }
    // Dropping both halves closes the socket; the coordinator must
    // recover via the lease deadline, not the disconnect.
}

#[test]
fn distributed_run_with_killed_worker_matches_serial_run() {
    let dir = temp_dir("loopback");

    // Reference: one serial in-process run with a local checkpoint.
    let serial_path = dir.join("serial.jsonl");
    let serial_report = build_campaign().run(&RunnerConfig {
        workers: 1,
        progress: false,
        checkpoint: Some(serial_path.clone()),
        ..RunnerConfig::default()
    });
    assert!(serial_report.failures().is_empty(), "reference run clean");

    // Distributed: coordinator on an ephemeral port, short leases so the
    // killed worker's key re-queues within the test's lifetime.
    let store_path = dir.join("dispatch.jsonl");
    let coordinator = Coordinator::bind(
        &build_campaign(),
        CoordinatorConfig {
            addr: "127.0.0.1:0".into(),
            store: store_path.clone(),
            lease_ms: 250,
            heartbeat_ms: 50,
            wait_backoff_ms: 25,
            progress: false,
            ..CoordinatorConfig::default()
        },
    )
    .expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let serve = std::thread::spawn(move || coordinator.serve());

    // One worker dies holding a lease...
    let killed_key = killer_takes_a_lease(&addr);

    // ...then two honest workers drain the campaign, including the
    // re-queued key once its lease expires.
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let campaign = build_campaign();
                thermorl_dispatch::run_worker(
                    &campaign,
                    &WorkerConfig {
                        coordinator: addr,
                        workers: 2,
                        name: format!("w{i}"),
                        progress: false,
                        ..WorkerConfig::default()
                    },
                )
            })
        })
        .collect();
    let mut completed = 0;
    for worker in workers {
        let summary = worker.join().expect("worker thread").expect("worker ok");
        assert_eq!(summary.failed, 0, "no job fails locally");
        completed += summary.completed;
    }
    assert_eq!(
        completed, JOBS as u64,
        "the two surviving workers run every job (incl. {killed_key:?})"
    );

    let report = serve.join().expect("serve thread").expect("serve ok");
    assert_eq!(report.total, JOBS as u64);
    assert_eq!(report.completed, JOBS as u64);
    assert_eq!(report.failed, 0);
    assert_eq!(report.queued, 0);
    assert_eq!(report.leased, 0);

    // The determinism contract: same lines, byte for byte, once sorted.
    let serial = sorted_lines(&serial_path);
    let distributed = sorted_lines(&store_path);
    assert_eq!(serial.len(), JOBS);
    assert_eq!(
        distributed, serial,
        "distributed store must be byte-identical to the serial checkpoint"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Raw handshake against a coordinator; returns the reply message.
fn handshake(addr: &str, token: Option<&str>) -> Message {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    write_message(
        &mut writer,
        &Message::Hello {
            worker: "auth-probe".into(),
            protocol: PROTOCOL_VERSION,
            token: token.map(str::to_string),
        },
    )
    .expect("hello");
    read_message(&mut reader)
        .expect("reply")
        .expect("coordinator replies before closing")
}

#[test]
fn auth_token_gates_the_handshake() {
    let dir = temp_dir("auth");
    let coordinator = Coordinator::bind(
        &build_campaign(),
        CoordinatorConfig {
            addr: "127.0.0.1:0".into(),
            store: dir.join("store.jsonl"),
            wait_backoff_ms: 25,
            progress: false,
            auth_token: Some("sesame".into()),
            ..CoordinatorConfig::default()
        },
    )
    .expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let serve = std::thread::spawn(move || coordinator.serve());

    // No token and a wrong token both get a clean error reply.
    match handshake(&addr, None) {
        Message::Error { message } => assert!(
            message.contains("authentication failed") && message.contains("no"),
            "unexpected error: {message}"
        ),
        other => panic!("expected error, got {other:?}"),
    }
    match handshake(&addr, Some("open says me")) {
        Message::Error { message } => {
            assert!(
                message.contains("mismatched"),
                "unexpected error: {message}"
            )
        }
        other => panic!("expected error, got {other:?}"),
    }
    // The right token is welcomed.
    match handshake(&addr, Some("sesame")) {
        Message::Welcome { campaign, .. } => assert_eq!(campaign, "loopback"),
        other => panic!("expected welcome, got {other:?}"),
    }

    // A full worker with the token drains the campaign; and the rejected
    // handshakes surface to the worker loop as a fatal error.
    let rejected = thermorl_dispatch::run_worker(
        &build_campaign(),
        &WorkerConfig {
            coordinator: addr.clone(),
            workers: 1,
            name: "intruder".into(),
            progress: false,
            connect_attempts: 1,
            auth_token: Some("wrong".into()),
            ..WorkerConfig::default()
        },
    );
    match rejected {
        Err(e) => assert!(
            e.contains("rejected") && e.contains("authentication failed"),
            "unexpected worker error: {e}"
        ),
        Ok(s) => panic!("intruder must not run jobs, got {s:?}"),
    }
    let summary = thermorl_dispatch::run_worker(
        &build_campaign(),
        &WorkerConfig {
            coordinator: addr,
            workers: 2,
            name: "trusted".into(),
            progress: false,
            auth_token: Some("sesame".into()),
            ..WorkerConfig::default()
        },
    )
    .expect("authorized worker ok");
    assert_eq!(summary.completed, JOBS as u64);

    let report = serve.join().expect("serve thread").expect("serve ok");
    assert_eq!(report.completed, JOBS as u64);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_stops_an_idle_coordinator_and_reports_status() {
    let dir = temp_dir("drain");
    let coordinator = Coordinator::bind(
        &build_campaign(),
        CoordinatorConfig {
            addr: "127.0.0.1:0".into(),
            store: dir.join("store.jsonl"),
            progress: false,
            ..CoordinatorConfig::default()
        },
    )
    .expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let serve = std::thread::spawn(move || coordinator.serve());

    let status = control(&addr, &Message::Status).expect("status");
    assert_eq!(status.campaign, "loopback");
    assert_eq!(status.total, JOBS as u64);
    assert_eq!(status.completed, 0);
    assert_eq!(status.queued, JOBS as u64);
    assert!(!status.draining);

    let drained = control(&addr, &Message::Drain).expect("drain");
    assert!(drained.draining);

    // With no leases outstanding a draining coordinator resolves even
    // though the queue is full; nothing was completed.
    let report = serve.join().expect("serve thread").expect("serve ok");
    assert!(report.draining);
    assert_eq!(report.completed, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resumed_coordinator_serves_only_unfinished_keys() {
    let dir = temp_dir("resume");
    let store_path = dir.join("store.jsonl");

    // Pre-complete half the campaign via a plain serial run.
    let full = build_campaign();
    let half: Vec<String> = full.job_keys().into_iter().take(JOBS / 2).collect();
    let mut partial = Campaign::new("loopback", CAMPAIGN_SEED).with_codec(u64_codec());
    for key in &half {
        partial.push(key.clone(), |seed| {
            seed.rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15
        });
    }
    let report = partial.run(&RunnerConfig {
        workers: 1,
        progress: false,
        checkpoint: Some(store_path.clone()),
        ..RunnerConfig::default()
    });
    assert!(report.failures().is_empty());

    // A resuming coordinator over the same store only queues the rest.
    let coordinator = Coordinator::bind(
        &build_campaign(),
        CoordinatorConfig {
            addr: "127.0.0.1:0".into(),
            store: store_path.clone(),
            resume: true,
            wait_backoff_ms: 25,
            progress: false,
            ..CoordinatorConfig::default()
        },
    )
    .expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let serve = std::thread::spawn(move || coordinator.serve());

    let status = control(&addr, &Message::Status).expect("status");
    assert_eq!(status.completed, (JOBS / 2) as u64);
    assert_eq!(status.queued, (JOBS - JOBS / 2) as u64);

    let campaign = build_campaign();
    let summary = thermorl_dispatch::run_worker(
        &campaign,
        &WorkerConfig {
            coordinator: addr,
            workers: 2,
            name: "resumer".into(),
            progress: false,
            ..WorkerConfig::default()
        },
    )
    .expect("worker ok");
    assert_eq!(summary.completed, (JOBS - JOBS / 2) as u64);

    let report = serve.join().expect("serve thread").expect("serve ok");
    assert_eq!(report.completed, JOBS as u64);
    assert_eq!(report.failed, 0);

    // And the combined store still matches a from-scratch serial run.
    let serial_path = dir.join("serial.jsonl");
    let serial_report = build_campaign().run(&RunnerConfig {
        workers: 1,
        progress: false,
        checkpoint: Some(serial_path.clone()),
        ..RunnerConfig::default()
    });
    assert!(serial_report.failures().is_empty());
    assert_eq!(sorted_lines(&store_path), sorted_lines(&serial_path));
    std::fs::remove_dir_all(&dir).ok();
}

/// An idle coordinator on an ephemeral port that lingers `linger_ms`
/// for open connections once drained.
fn idle_coordinator(
    tag: &str,
    linger_ms: u64,
) -> (
    String,
    std::thread::JoinHandle<std::io::Result<thermorl_dispatch::StatusReport>>,
    PathBuf,
) {
    let dir = temp_dir(tag);
    let coordinator = Coordinator::bind(
        &build_campaign(),
        CoordinatorConfig {
            addr: "127.0.0.1:0".into(),
            store: dir.join("store.jsonl"),
            linger_ms,
            progress: false,
            ..CoordinatorConfig::default()
        },
    )
    .expect("bind coordinator");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    (addr, std::thread::spawn(move || coordinator.serve()), dir)
}

/// A line the coordinator cannot parse — oversized, malformed, or with a
/// field the protocol does not have — gets the replies already owed,
/// then a typed `error`, then EOF: the peer never hangs, and the
/// coordinator keeps serving.
#[test]
fn hostile_lines_get_an_error_then_eof() {
    use std::io::{BufRead, Write};
    let (addr, serve, dir) = idle_coordinator("hostile", 2_000);
    let oversized = format!(
        "{{\"type\":\"status\",\"pad\":\"{}\"}}\n",
        "x".repeat(2 * thermorl_dispatch::proto::MAX_LINE_BYTES as usize)
    );
    for hostile in [
        oversized.as_str(),
        "{\"type\":\"status\"\n",
        "not json\n",
        "{\"type\":\"status\",\"bogus\":1}\n",
    ] {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut bytes = Message::Status.to_line();
        bytes.push('\n');
        bytes.push_str(hostile);
        stream.write_all(bytes.as_bytes()).expect("write");
        assert!(matches!(
            read_message(&mut reader).expect("owed reply"),
            Some(Message::StatusReport(_))
        ));
        match read_message(&mut reader).expect("error reply") {
            Some(Message::Error { message }) => {
                assert!(message.contains("bad request"), "{message}")
            }
            other => panic!("hostile line got {other:?}"),
        }
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).expect("read"), 0, "then EOF");
    }
    // The coordinator itself is unharmed.
    assert_eq!(
        control(&addr, &Message::Status).expect("status").total,
        JOBS as u64
    );
    control(&addr, &Message::Drain).expect("drain");
    serve.join().expect("serve thread").expect("serve ok");
    std::fs::remove_dir_all(&dir).ok();
}

/// `Server::close` shuts every live connection down and returns only
/// after every handler has — even handlers still busy after their
/// socket closed.
#[test]
fn close_joins_every_handler() {
    use std::io::Read;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use thermorl_dispatch::net::Listener;
    let finished = Arc::new(AtomicUsize::new(0));
    let listener = Listener::bind("127.0.0.1:0", None).expect("bind");
    let addr = listener.addr();
    let mut server = {
        let finished = Arc::clone(&finished);
        listener
            .serve(move |mut stream| {
                let _ = stream.read(&mut [0u8; 1]); // until close() hangs up
                std::thread::sleep(std::time::Duration::from_millis(50));
                finished.fetch_add(1, Ordering::SeqCst);
            })
            .expect("serve")
    };
    let peers: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    while server.open_connections() < peers.len() {
        server.poll().expect("poll");
    }
    server.close();
    assert_eq!(finished.load(Ordering::SeqCst), peers.len());
}

/// Peers still connected when `Coordinator::serve` returns (the linger
/// ran out) have been hung up on.
#[test]
fn serve_hangs_up_on_idle_peers_before_returning() {
    use std::io::Read;
    let (addr, serve, dir) = idle_coordinator("hang-up", 500);
    let mut idle: Vec<TcpStream> = Vec::new();
    for _ in 0..4 {
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone stream");
        // One answered request proves the handler is running.
        write_message(&mut writer, &Message::Status).expect("status");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        assert!(matches!(
            read_message(&mut reader).expect("reply"),
            Some(Message::StatusReport(_))
        ));
        idle.push(stream);
    }
    control(&addr, &Message::Drain).expect("drain");
    serve.join().expect("serve thread").expect("serve ok");
    for mut stream in idle {
        let mut byte = [0u8; 1];
        assert_eq!(stream.read(&mut byte).expect("read"), 0, "hung up");
    }
    std::fs::remove_dir_all(&dir).ok();
}
