//! The one connection layer under both NDJSON servers — the dispatch
//! coordinator and the serve supervisor — and their clients.
//!
//! **Server side.** [`Listener::bind`] binds and writes the bound address
//! to the address file at once, so a script can connect while the server
//! is still restoring state. [`Listener::serve`] turns it into a
//! [`Server`], which the owner polls from its own loop: one
//! [`Server::poll`] accepts at most one connection, or waits — 1 ms after
//! start or an accept, doubling while idle up to [`ACCEPT_POLL`] (10 ms).
//! Every accepted socket gets `TCP_NODELAY` and a thread of its own
//! running the owner's handler. The server keeps only live sockets: each
//! handler deregisters its socket when it returns and finished threads
//! are reaped on every accept, so short connections leak neither fds nor
//! join handles. An accept error that belongs to one
//! connection — out of fds (`EMFILE`/`ENFILE`), a connection aborted
//! before it was accepted, an interrupted call — is counted in the
//! `net.accept_errors` telemetry counter and retried after one poll
//! interval; it never ends the server. [`Server::close`] shuts every live
//! socket down, which unblocks its handler, and joins them all.
//!
//! [`hang_up`] is both servers' answer to a line they cannot parse: an
//! `error` reply, then EOF.
//!
//! **Client side.** [`connect`] (with `TCP_NODELAY`), [`resolve_addr`]
//! (`--addr` or the address file) and [`request`] (one message out, one
//! reply back).

use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use thermorl_telemetry as tel;

use crate::proto::{read_message, write_message, WireMessage};

/// The longest [`Server::poll`] waits when no connection is pending, and
/// its wait after an accept error.
pub const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// The first wait after start or after an accept; each idle poll doubles
/// it up to [`ACCEPT_POLL`]. A client that connects just after bind, or
/// just after another client, then waits about a millisecond for its
/// `accept` instead of up to a whole poll interval.
const FIRST_POLL: Duration = Duration::from_millis(1);

/// A bound listen socket whose address is already published.
pub struct Listener {
    inner: TcpListener,
    addr: SocketAddr,
}

impl Listener {
    /// Binds `addr` (port 0 picks an ephemeral port) and, when
    /// `addr_file` is set, writes the bound address there as one line,
    /// creating its parent directories.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound or the file written.
    pub fn bind(addr: &str, addr_file: Option<&Path>) -> io::Result<Listener> {
        let inner = TcpListener::bind(addr)?;
        let addr = inner.local_addr()?;
        if let Some(path) = addr_file {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(path, format!("{addr}\n"))?;
        }
        Ok(Listener { inner, addr })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts accepting: every connection [`Server::poll`] accepts runs
    /// `handler` on its own thread.
    ///
    /// # Errors
    ///
    /// Fails when the socket cannot be made nonblocking.
    pub fn serve<F>(self, handler: F) -> io::Result<Server>
    where
        F: Fn(TcpStream) + Send + Sync + 'static,
    {
        self.inner.set_nonblocking(true)?;
        Ok(Server {
            listener: self.inner,
            handler: Arc::new(handler),
            live: Arc::default(),
            handlers: Vec::new(),
            next_id: 0,
            wait: FIRST_POLL,
        })
    }
}

type Live = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// An accepting listener and its connection threads.
pub struct Server {
    listener: TcpListener,
    handler: Arc<dyn Fn(TcpStream) + Send + Sync>,
    /// A clone of every live connection's socket, for [`Server::close`].
    live: Live,
    handlers: Vec<JoinHandle<()>>,
    next_id: u64,
    /// The next idle wait, from [`FIRST_POLL`] up to [`ACCEPT_POLL`].
    wait: Duration,
}

impl Server {
    /// Accepts one pending connection, or waits up to one [`ACCEPT_POLL`].
    ///
    /// # Errors
    ///
    /// Fails only when the listener itself is broken; errors that belong
    /// to one connection are counted and retried.
    pub fn poll(&mut self) -> io::Result<()> {
        match self.listener.accept() {
            Ok((stream, _peer)) => {
                self.wait = FIRST_POLL;
                self.start(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(self.wait);
                self.wait = (self.wait * 2).min(ACCEPT_POLL);
            }
            Err(e) if belongs_to_one_connection(&e) => {
                tel::counter!("net.accept_errors");
                thread::sleep(ACCEPT_POLL);
            }
            Err(e) => return Err(e),
        }
        Ok(())
    }

    fn start(&mut self, stream: TcpStream) {
        self.handlers.retain(|h| !h.is_finished());
        // Replies leave as soon as they are written, not when the peer's
        // next request happens to arrive.
        let Ok(watch) = stream.set_nodelay(true).and_then(|()| stream.try_clone()) else {
            tel::counter!("net.accept_errors");
            return; // out of fds: drop just this connection
        };
        let id = self.next_id;
        self.next_id += 1;
        lock(&self.live).insert(id, watch);
        let (handler, live) = (Arc::clone(&self.handler), Arc::clone(&self.live));
        let spawned = thread::Builder::new().spawn(move || {
            handler(stream);
            lock(&live).remove(&id);
        });
        match spawned {
            Ok(handle) => self.handlers.push(handle),
            Err(_) => {
                tel::counter!("net.accept_errors");
                lock(&self.live).remove(&id);
            }
        }
    }

    /// Connections whose handler has not returned yet.
    pub fn open_connections(&self) -> usize {
        lock(&self.live).len()
    }

    /// Stops accepting, shuts every live socket down (a handler blocked
    /// in a read sees EOF) and joins every handler.
    pub fn close(self) {
        for stream in lock(&self.live).values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for handle in self.handlers {
            let _ = handle.join();
        }
    }
}

fn lock(live: &Mutex<HashMap<u64, TcpStream>>) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
    live.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Accept errors that lose one connection but leave the listener sound.
/// `EMFILE` and `ENFILE` (24 and 23 on Linux, macOS and the BSDs) have no
/// `ErrorKind` of their own.
fn belongs_to_one_connection(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
    ) || matches!(e.raw_os_error(), Some(23 | 24))
}

/// Closes a connection whose input cannot be parsed (`cause`): the
/// protocol has no resync point. Writes the protocol's `error` (built by
/// `error` from the reason), shuts the write side so the peer reads EOF
/// right after it, then discards what the peer is still sending for up
/// to a second — closing a socket with unread input resets the
/// connection and can destroy the error reply before the peer reads it.
pub fn hang_up<M: WireMessage>(
    reader: &mut BufReader<TcpStream>,
    writer: &mut impl Write,
    cause: &io::Error,
    error: impl FnOnce(String) -> M,
) {
    let reply = error(format!("bad request, closing connection: {cause}"));
    if write_message(writer, &reply).is_err() {
        return;
    }
    let stream = reader.get_mut();
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut sink = [0u8; 1 << 14];
    while Instant::now() < deadline {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Connects to `addr` with `TCP_NODELAY` set.
///
/// # Errors
///
/// Fails when the server is unreachable.
pub fn connect(addr: &str) -> Result<TcpStream, String> {
    TcpStream::connect(addr)
        .and_then(|stream| stream.set_nodelay(true).map(|()| stream))
        .map_err(|e| format!("{addr}: {e}"))
}

/// The server address: read from `addr_file` when one is given (as
/// [`Listener::bind`] writes it), else `addr` itself.
///
/// # Errors
///
/// Fails when the address file cannot be read.
pub fn resolve_addr(addr: &str, addr_file: Option<&Path>) -> Result<String, String> {
    match addr_file {
        Some(path) => std::fs::read_to_string(path)
            .map(|text| text.trim().to_string())
            .map_err(|e| format!("address file {}: {e}", path.display())),
        None => Ok(addr.to_string()),
    }
}

/// Sends one message on a fresh connection and reads one reply.
///
/// # Errors
///
/// Fails when the server is unreachable, the exchange breaks, or the
/// server closes the connection without replying.
pub fn request<M: WireMessage>(addr: &str, message: &M) -> Result<M, String> {
    let mut stream = connect(addr)?;
    write_message(&mut stream, message).map_err(|e| format!("{addr}: {e}"))?;
    read_message(&mut BufReader::new(stream))
        .map_err(|e| format!("{addr}: {e}"))?
        .ok_or_else(|| format!("{addr} closed the connection"))
}
