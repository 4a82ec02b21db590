//! The coordinator keeps no resources for closed connections: many short
//! connections leave the process's open-fd count where it started. In
//! its own test binary so no other test's sockets move the count.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use thermorl_dispatch::proto::read_message;
use thermorl_dispatch::{control, Coordinator, CoordinatorConfig, Message};
use thermorl_runner::Campaign;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

#[test]
fn short_connections_do_not_leak_fds() {
    const CYCLES: usize = 500;
    const SLACK: usize = 8;
    let dir = std::env::temp_dir().join(format!("thermorl-dispatch-fds-{}", std::process::id()));
    let mut campaign = Campaign::new("fds", 1);
    campaign.push("job/0", |seed| seed);
    let coordinator = Coordinator::bind(
        &campaign,
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
    let start = open_fds();
    for _ in 0..CYCLES {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(b"{\"type\":\"status\"}\n").expect("write");
        let mut reader = BufReader::new(&stream);
        match read_message::<_, Message>(&mut reader).expect("read") {
            Some(Message::StatusReport(_)) => {}
            other => panic!("status got {other:?}"),
        }
    }
    // Each handler exits (and closes its socket) once it reads the
    // client's EOF; give the last few a moment.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut now = open_fds();
    while now > start + SLACK && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        now = open_fds();
    }
    assert!(
        now <= start + SLACK,
        "{CYCLES} closed connections left {now} fds open (started with {start})"
    );
    control(&addr, &Message::Drain).expect("drain");
    serve.join().expect("serve thread").expect("serve ok");
    std::fs::remove_dir_all(&dir).ok();
}
