//! The supervisor keeps no resources for closed connections: many short
//! connections leave the process's open-fd count where it started. In
//! its own test binary so no other test's sockets move the count.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use thermorl_dispatch::proto::read_message;
use thermorl_serve::{Message, ServeConfig, Supervisor};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

#[test]
fn short_connections_do_not_leak_fds() {
    const CYCLES: usize = 500;
    const SLACK: usize = 8;
    let dir = std::env::temp_dir().join(format!("thermorl-serve-fds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let handle = Supervisor::spawn(ServeConfig {
        store: dir.join("store.jsonl"),
        quiet: true,
        ..ServeConfig::default()
    })
    .expect("spawn");
    let start = open_fds();
    for _ in 0..CYCLES {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.write_all(b"{\"type\":\"stats\"}\n").expect("write");
        let mut reader = BufReader::new(&stream);
        match read_message::<_, Message>(&mut reader).expect("read") {
            Some(Message::Report(_)) => {}
            other => panic!("stats got {other:?}"),
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
    handle.shutdown(true);
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}
