//! The event-driven serving core (DESIGN §11): one reactor thread
//! multiplexes every accepted connection over `poll(2)` and answers every
//! request that cannot block itself; only a request the tier's `inline`
//! predicate rejects goes to a bounded [`hec_core::pool::WorkerPool`].
//! Connection count is decoupled from thread count, and HTTP/1.1
//! keep-alive and pipelined parsing let one connection carry many
//! requests.
//!
//! Layering: this module knows HTTP framing, connection lifecycle and
//! admission accounting but nothing about routes. `hec-serve`'s listener
//! and the `hec-cluster` router both instantiate [`start_core`] with
//! their own handler closure, `inline` predicate and queue-full
//! rejection body; the core owns what the two tiers have in common
//! ([`Frontend`]: request counters, connection gauges, queue gauge,
//! shutdown latch and the shared part of `/metrics`) — one reactor, two
//! services.
//!
//! Per-connection state machine (level-triggered):
//!
//! ```text
//!   Reading --parse--+-- inline: handler on the reactor --------+
//!      ^             |                                          |
//!      |             +-- pooled: Dispatched --completion--------+
//!      |             |                                          |
//!      |             +-- queue full: 503 ------------------------+
//!      |                                                        v
//!      |                                        answer appended to `out`
//!      |                                                        |
//!      +-- next buffered request, unless pooled / close / `out` full
//!                                                               |
//!                                              Writing: one write for all
//!                                                               |
//!              Connection: close / stop / parse error --> Closed
//! ```
//!
//! The reactor polls `POLLIN` only while it is willing to buffer more
//! request bytes (per-connection flow control: one dispatched request at
//! a time, buffer capped at [`MAX_REQUEST_BYTES`]) and `POLLOUT` only
//! while response bytes are pending or a capped connection awaits its
//! turn, so the loop never spins. The answers to one connection's
//! buffered requests leave in one write per iteration. Answering pauses
//! once the pending output reaches [`MAX_REQUEST_BYTES`] and resumes on
//! the next iteration after the socket drains, so a client that
//! pipelines without reading holds at most that plus one response, and
//! no connection answers more than that per iteration while others wait.
//! Workers push finished responses onto a completion list and wake the
//! reactor through a loopback socket pair — the same channel `/shutdown`
//! uses — keeping the whole core on `std` with a single `extern "C"`
//! line.
//!
//! Shutdown drains: accepting stops, idle keep-alive connections close,
//! dispatched requests complete and their responses flush, then the
//! worker pool joins. In-flight work is never dropped.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hec_core::json::Json;
use hec_core::pool::{QueueGauge, Threads, WorkerPool};
use hec_core::sync::Mutex;

/// Largest request head+body the server reads; larger requests get 400.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;
/// `Retry-After` seconds advertised on queue-full 503s.
pub const RETRY_AFTER_SECS: u64 = 1;

/// Reactor poll timeout: a liveness tick, not a scheduling quantum —
/// every state change arrives as an fd event or a wake byte.
const POLL_TICK_MS: i32 = 250;

#[cfg(unix)]
mod sys {
    //! The platform shim: `poll(2)` through one `extern "C"` declaration
    //! against the platform libc already linked into every Rust binary —
    //! no libc *crate*. `PollFd` mirrors `struct pollfd` (identical
    //! layout on Linux and the BSDs); the event bits below are the
    //! POSIX-mandated values shared by those platforms.
    use std::io;
    pub use std::os::fd::{AsRawFd, RawFd};

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[repr(C)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        fn poll(
            fds: *mut PollFd,
            nfds: core::ffi::c_ulong,
            timeout: core::ffi::c_int,
        ) -> core::ffi::c_int;
    }

    /// Blocks until some fd is ready or `timeout_ms` elapses; retries
    /// `EINTR` so signals never surface as readiness errors.
    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as core::ffi::c_ulong, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(not(unix))]
compile_error!("hec-serve's reactor needs poll(2): unix targets only");

use sys::AsRawFd;

// ---------------------------------------------------------------------
// Incremental HTTP/1.1 request parsing
// ---------------------------------------------------------------------

/// One parsed HTTP request: method, split target, raw body.
pub struct Request {
    /// Request method (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the target, always starting with `/`.
    pub path: String,
    /// Query component (after `?`), possibly empty, undecoded.
    pub query: String,
    /// Request body as text (delimited by `Content-Length`).
    pub body: String,
}

impl Request {
    /// The original request target: path plus `?query` when non-empty.
    pub fn target(&self) -> String {
        if self.query.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, self.query)
        }
    }
}

/// Outcome of one parse attempt over a connection's buffered bytes.
pub enum Parse {
    /// Not enough bytes yet — keep reading.
    Incomplete,
    /// One full request, the bytes it consumed, and whether the client
    /// negotiated keep-alive (HTTP/1.1 default yes, HTTP/1.0 default no).
    Complete { req: Request, consumed: usize, keep_alive: bool },
}

/// Position one past the head terminator (`\r\n\r\n` or bare `\n\n`,
/// matching the liberal line handling of the original blocking parser).
fn head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if i + 1 < buf.len() && buf[i + 1] == b'\n' {
                return Some(i + 2);
            }
            if i + 2 < buf.len() && buf[i + 1] == b'\r' && buf[i + 2] == b'\n' {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

/// Incremental request parser over a connection's receive buffer,
/// bounded by [`MAX_REQUEST_BYTES`]. Never consumes on `Incomplete`, so
/// the reactor can retry as bytes arrive (partial and byte-at-a-time
/// writers are handled for free).
pub fn parse_request(buf: &[u8]) -> Result<Parse, String> {
    let Some(head_len) = head_end(buf) else {
        if buf.len() >= MAX_REQUEST_BYTES {
            return Err("request head too large".into());
        }
        return Ok(Parse::Incomplete);
    };
    if head_len > MAX_REQUEST_BYTES {
        return Err("request head too large".into());
    }
    let head = std::str::from_utf8(&buf[..head_len]).map_err(|_| "non-utf8 request head")?;
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("HTTP/1.1").to_string();
    if method.is_empty() || !target.starts_with('/') {
        return Err("malformed request line".into());
    }
    let mut content_length = 0usize;
    let mut connection = String::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length =
                    value.trim().parse().map_err(|_| "bad Content-Length".to_string())?;
            } else if name.eq_ignore_ascii_case("connection") {
                connection = value.trim().to_ascii_lowercase();
            }
        }
    }
    // The reactor buffers at most MAX_REQUEST_BYTES per connection, so a
    // request that cannot fit would wait forever for its last bytes.
    // `head_len <= MAX_REQUEST_BYTES` above, so the subtraction cannot
    // underflow, and comparing before adding keeps a client-chosen
    // Content-Length from overflowing.
    if content_length > MAX_REQUEST_BYTES - head_len {
        return Err("request too large".into());
    }
    let total = head_len + content_length;
    if buf.len() < total {
        return Ok(Parse::Incomplete);
    }
    let keep_alive = if version.eq_ignore_ascii_case("HTTP/1.0") {
        connection.contains("keep-alive")
    } else {
        !connection.contains("close")
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    let body = String::from_utf8_lossy(&buf[head_len..total]).into_owned();
    Ok(Parse::Complete { req: Request { method, path, query, body }, consumed: total, keep_alive })
}

/// Serializes one response with explicit keep-alive/close framing.
pub fn emit_response(code: u16, extra_headers: &[String], body: &str, keep_alive: bool) -> Vec<u8> {
    let mut out = Vec::new();
    write_response(&mut out, code, extra_headers, body, keep_alive);
    out
}

/// Appends one response to `out` — head written in place, no staging
/// string — so a connection's reused output buffer costs no allocation.
fn write_response(
    out: &mut Vec<u8>,
    code: u16,
    extra_headers: &[String],
    body: &str,
    keep_alive: bool,
) {
    // io::Write for Vec<u8> only grows the vector; it cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {code} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status_text(code),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for h in extra_headers {
        out.extend_from_slice(h.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body.as_bytes());
}

/// Canonical reason phrase for the status codes this dialect uses.
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// The standard one-field error document.
pub fn error_body(msg: &str) -> String {
    Json::obj([("error", Json::Str(msg.to_string()))]).emit_pretty()
}

// ---------------------------------------------------------------------
// Shared core state
// ---------------------------------------------------------------------

/// A finished request: the handler's verdict, headed back to its
/// connection. The reactor frames it (keep-alive vs close) at delivery.
struct Completion {
    token: u64,
    code: u16,
    headers: Vec<String>,
    body: String,
}

/// The counters and gauges behind the common `/metrics` sections.
#[derive(Default)]
struct Counters {
    /// Every request answered: admitted, shed (queue full) or unparseable.
    requests: AtomicU64,
    /// Answers with status >= 400, sheds and parse failures included.
    errors: AtomicU64,
    /// Requests shed with `503` because the admission queue was full.
    rejected: AtomicU64,
    /// Currently registered connections.
    open: AtomicU64,
    accepted: AtomicU64,
    max_open: AtomicU64,
    /// Requests parsed off connections (admitted or shed).
    parsed: AtomicU64,
    /// Requests handed to the worker pool (the rest ran on the reactor).
    dispatched: AtomicU64,
    /// Largest pending output any connection has held, bytes: the test
    /// of the output cap reads it; release builds do not keep it.
    #[cfg(test)]
    max_out: AtomicU64,
    /// Requests served on an already-used connection — the keep-alive
    /// win: `parsed - accepted` when every client reuses perfectly.
    keepalive: AtomicU64,
    /// Reactor loop iterations (readiness wakeups + liveness ticks).
    iterations: AtomicU64,
}

/// What every tier's front end has in common, owned by the core: the
/// admission counters, the connection and reactor gauges, the queue
/// gauge, the shutdown latch and the wake channel into the reactor.
/// The handler gets a `&Frontend` with every request; a tier keeps only
/// the state that is its own.
pub struct Frontend {
    started: Instant,
    counters: Counters,
    queue: QueueGauge,
    stop: AtomicBool,
    completions: Mutex<Vec<Completion>>,
    /// Write end of the loopback pair in the reactor's poll set.
    wake: TcpStream,
}

impl Frontend {
    /// Requests a graceful stop and wakes the reactor. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake();
    }

    /// True once a stop has been requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Requests waiting for a worker right now.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Currently registered connections, raw. Read out-of-band (not over
    /// a connection to this service) — e.g. after the reactor exits,
    /// where a fully drained service reads exactly 0. The cluster's
    /// retirement path records this.
    pub fn open_connections(&self) -> u64 {
        self.counters.open.load(Ordering::Relaxed)
    }

    /// The `/metrics` document: the sections every tier serves
    /// (`uptime_secs`, `requests`, `errors`, `rejected`, `connections`,
    /// `reactor`, `queue`) followed by the tier's `own`.
    /// `connections.open` excludes the connection carrying the
    /// observation itself — a `/metrics` request always arrives over a
    /// live one — so a drained service reads 0.
    pub fn metrics_doc(&self, own: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        let num = |c: &AtomicU64| Json::Num(c.load(Ordering::Relaxed) as f64);
        let c = &self.counters;
        let common = [
            ("uptime_secs", Json::Num(self.started.elapsed().as_secs_f64())),
            ("requests", num(&c.requests)),
            ("errors", num(&c.errors)),
            ("rejected", num(&c.rejected)),
            (
                "connections",
                Json::obj([
                    ("open", Json::Num(self.open_connections().saturating_sub(1) as f64)),
                    ("accepted", num(&c.accepted)),
                    ("max_open", num(&c.max_open)),
                    ("keepalive_requests", num(&c.keepalive)),
                ]),
            ),
            (
                "reactor",
                Json::obj([
                    ("iterations", num(&c.iterations)),
                    ("requests_parsed", num(&c.parsed)),
                    ("dispatched", num(&c.dispatched)),
                ]),
            ),
            (
                "queue",
                Json::obj([
                    ("depth", Json::Num(self.queue.len() as f64)),
                    ("capacity", Json::Num(self.queue.capacity() as f64)),
                ]),
            ),
        ];
        Json::obj(common.into_iter().chain(own))
    }

    fn wake(&self) {
        let _ = (&self.wake).write(&[1]);
    }

    fn complete(&self, c: Completion) {
        self.completions.lock().push(c);
        self.wake();
    }
}

/// What a tier tells the core: where to bind, how to size the worker
/// pool and its admission queue, which requests the reactor answers
/// itself, and what a queue-full rejection says.
pub struct CoreConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Worker threads executing the handler for pooled requests.
    pub workers: usize,
    /// Admission-queue bound (requests waiting for a worker).
    pub queue: usize,
    /// True for a request whose handler cannot block: the reactor runs
    /// it in place, and it is never queued or shed. Every other request
    /// goes to the worker pool. Decided from the request alone.
    pub inline: fn(&Request) -> bool,
    /// Body of the `503` answered when the admission queue is full.
    pub reject_body: String,
}

/// Request handler: `(request, parse instant, the core's shared state)`
/// to `(status, extra headers, body)`. Runs on the reactor thread when
/// [`CoreConfig::inline`] accepts the request — where a slow answer
/// delays every connection — and on a worker thread otherwise. The
/// parse instant lets the service record latency inclusive of queue
/// wait. The core counts the request and, for a status >= 400, the error.
pub type Handler = dyn Fn(&Request, Instant, &Frontend) -> (u16, Vec<String>, String) + Send + Sync;

/// A running reactor core. Dropping it does not stop it — call
/// [`Frontend::shutdown`] then [`Core::join`].
pub struct Core {
    addr: SocketAddr,
    front: Arc<Frontend>,
    thread: std::thread::JoinHandle<()>,
}

impl Core {
    /// The bound address (`127.0.0.1` with the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared front-end state; the handle outlives [`Core::join`].
    pub fn frontend(&self) -> &Arc<Frontend> {
        &self.front
    }

    /// Waits for the reactor to drain and its worker pool to join.
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Binds `127.0.0.1:cfg.port`, builds the worker pool and the
/// [`Frontend`], and spawns the reactor thread. Returns once the socket
/// is accepting. `on_drained` (if any) runs on the reactor thread after
/// the pool has drained — the router uses it to stop its health checker
/// and replicas in order.
pub fn start_core(
    cfg: CoreConfig,
    handler: Arc<Handler>,
    on_drained: Option<Box<dyn FnOnce() + Send>>,
) -> std::io::Result<Core> {
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    // Wake channel: a loopback socket pair. Workers and shutdown write a
    // byte; the reactor's poll set includes the read end.
    let wake_listener = TcpListener::bind(("127.0.0.1", 0))?;
    let wake = TcpStream::connect(wake_listener.local_addr()?)?;
    wake.set_nonblocking(true)?;
    let (wake_rx, _) = wake_listener.accept()?;
    wake_rx.set_nonblocking(true)?;

    let pool = WorkerPool::new(Threads::new(cfg.workers), cfg.queue);
    let front = Arc::new(Frontend {
        started: Instant::now(),
        counters: Counters::default(),
        queue: pool.queue_gauge(),
        stop: AtomicBool::new(false),
        completions: Mutex::new(Vec::new()),
        wake,
    });

    let reactor = Reactor {
        listener,
        wake_rx,
        pool,
        front: Arc::clone(&front),
        handler,
        inline: cfg.inline,
        reject_body: cfg.reject_body,
    };
    let thread = std::thread::spawn(move || {
        run_reactor(reactor);
        // run_reactor already drained the pool; optional service-level
        // teardown (checker, replicas) happens strictly after.
        if let Some(f) = on_drained {
            f();
        }
    });
    Ok(Core { addr, front, thread })
}

// ---------------------------------------------------------------------
// The reactor loop
// ---------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    /// Unconsumed request bytes (may hold several pipelined requests).
    buf: Vec<u8>,
    /// Response bytes not yet accepted by the kernel.
    out: Vec<u8>,
    sent: usize,
    /// Answering stopped with `out` at its cap while whole requests may
    /// remain in `buf`; resume on the next iteration.
    backlog: bool,
    /// One request is with the worker pool; reads pause until it lands.
    dispatched: bool,
    /// Keep-alive verdict of the request currently dispatched.
    keep_current: bool,
    close_after_write: bool,
    /// Peer half-closed (EOF seen); finish writing, admit nothing new.
    peer_closed: bool,
    /// Requests fully served on this connection.
    served: u64,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            sent: 0,
            backlog: false,
            dispatched: false,
            keep_current: true,
            close_after_write: false,
            peer_closed: false,
            served: 0,
            dead: false,
        }
    }

    fn write_pending(&self) -> bool {
        self.sent < self.out.len()
    }

    /// Poll for `POLLOUT`: bytes to write, or — with none pending — an
    /// immediate turn to answer the backlog.
    fn wants_write(&self) -> bool {
        self.write_pending() || self.backlog
    }

    fn wants_read(&self) -> bool {
        !self.dispatched
            && !self.peer_closed
            && !self.close_after_write
            && self.buf.len() < MAX_REQUEST_BYTES
    }

    /// Idle: safe to close at shutdown without dropping admitted work.
    fn idle(&self) -> bool {
        !self.dispatched && !self.write_pending()
    }

    /// Appends a handler's answer, framed keep-alive only when the request
    /// asked for it and the service is not stopping, and counts it.
    fn answer(
        &mut self,
        front: &Frontend,
        code: u16,
        headers: &[String],
        body: &str,
        keep_alive: bool,
    ) {
        let keep = keep_alive && !front.stopping();
        write_response(&mut self.out, code, headers, body, keep);
        if !keep {
            self.close_after_write = true;
        }
        self.served += 1;
        if self.served > 1 {
            front.counters.keepalive.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct Reactor {
    listener: TcpListener,
    wake_rx: TcpStream,
    pool: WorkerPool,
    front: Arc<Frontend>,
    handler: Arc<Handler>,
    inline: fn(&Request) -> bool,
    reject_body: String,
}

fn run_reactor(r: Reactor) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut fds: Vec<sys::PollFd> = Vec::new();
    // fd slot -> connection token, parallel to `fds` past the fixed slots.
    let mut slots: Vec<u64> = Vec::new();

    loop {
        r.front.counters.iterations.fetch_add(1, Ordering::Relaxed);
        let stopping = r.front.stopping();
        if stopping {
            for c in conns.values_mut() {
                if c.idle() {
                    c.dead = true;
                }
            }
            reap(&mut conns, &r.front);
            if conns.is_empty() {
                break;
            }
        }

        fds.clear();
        slots.clear();
        fds.push(sys::PollFd { fd: r.wake_rx.as_raw_fd(), events: sys::POLLIN, revents: 0 });
        let accept_slot = if stopping {
            None
        } else {
            fds.push(sys::PollFd { fd: r.listener.as_raw_fd(), events: sys::POLLIN, revents: 0 });
            Some(1)
        };
        for (&token, c) in conns.iter() {
            let mut events = 0i16;
            if c.wants_read() {
                events |= sys::POLLIN;
            }
            if c.wants_write() {
                events |= sys::POLLOUT;
            }
            slots.push(token);
            fds.push(sys::PollFd { fd: c.stream.as_raw_fd(), events, revents: 0 });
        }

        if sys::wait(&mut fds, POLL_TICK_MS).is_err() {
            // poll itself failing is unrecoverable for this loop; bail
            // out through the drain path rather than spinning.
            r.front.shutdown();
            continue;
        }

        if fds[0].revents & sys::POLLIN != 0 {
            let mut sink = [0u8; 64];
            while matches!((&r.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        }

        // Deliver finished responses before I/O so a completed request's
        // bytes go out in this same iteration.
        let finished: Vec<Completion> = std::mem::take(&mut *r.front.completions.lock());
        let mut touched: Vec<u64> = Vec::with_capacity(finished.len());
        for comp in finished {
            let Some(c) = conns.get_mut(&comp.token) else { continue };
            c.dispatched = false;
            let keep = c.keep_current;
            c.answer(&r.front, comp.code, &comp.headers, &comp.body, keep);
            touched.push(comp.token);
        }

        if let Some(slot) = accept_slot {
            if fds[slot].revents & sys::POLLIN != 0 {
                loop {
                    match r.listener.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            conns.insert(next_token, Conn::new(stream));
                            next_token += 1;
                            r.front.counters.accepted.fetch_add(1, Ordering::Relaxed);
                            let open = r.front.counters.open.fetch_add(1, Ordering::Relaxed) + 1;
                            r.front.counters.max_open.fetch_max(open, Ordering::Relaxed);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    }
                }
            }
        }

        let first_conn_slot = fds.len() - slots.len();
        for (i, &token) in slots.iter().enumerate() {
            let revents = fds[first_conn_slot + i].revents;
            if revents == 0 {
                continue;
            }
            let Some(c) = conns.get_mut(&token) else { continue };
            if revents & sys::POLLNVAL != 0 {
                c.dead = true;
                continue;
            }
            // POLLHUP can accompany final data (peer half-close after a
            // pipelined burst): always attempt the read, then advance —
            // buffered requests still get served and written back.
            if revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0 && c.wants_read() {
                read_some(c);
            }
            if revents & sys::POLLERR != 0 && !c.write_pending() && c.idle() && c.buf.is_empty() {
                c.dead = true;
                continue;
            }
            advance(c, token, &r);
        }
        for token in touched {
            if let Some(c) = conns.get_mut(&token) {
                advance(c, token, &r);
            }
        }
        reap(&mut conns, &r.front);
    }

    drop(r.listener);
    // Queued-but-unstarted jobs still run here; their completions land
    // in `front` with nobody reading — harmless, the conns are gone.
    r.pool.shutdown();
}

fn reap(conns: &mut HashMap<u64, Conn>, front: &Frontend) {
    let before = conns.len();
    conns.retain(|_, c| !c.dead);
    let closed = (before - conns.len()) as u64;
    if closed > 0 {
        front.counters.open.fetch_sub(closed, Ordering::Relaxed);
    }
}

fn read_some(c: &mut Conn) {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match (&c.stream).read(&mut chunk) {
            Ok(0) => {
                c.peer_closed = true;
                return;
            }
            Ok(n) => {
                c.buf.extend_from_slice(&chunk[..n]);
                if c.buf.len() >= MAX_REQUEST_BYTES {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                c.peer_closed = true;
                return;
            }
        }
    }
}

/// Drives one connection as far as it can go right now: answer what is
/// buffered, then flush every answer with one write. A connection whose
/// answers stopped at the output cap resumes on the next iteration, once
/// every other ready connection has had its turn.
fn advance(c: &mut Conn, token: u64, r: &Reactor) {
    let starved = answer_buffered(c, token, r);
    c.backlog = false;
    #[cfg(test)]
    r.front.counters.max_out.fetch_max(c.out.len() as u64, Ordering::Relaxed);
    while c.write_pending() {
        match (&c.stream).write(&c.out[c.sent..]) {
            Ok(0) => {
                c.dead = true;
                return;
            }
            Ok(n) => c.sent += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                c.dead = true;
                return;
            }
        }
    }
    c.out.clear();
    c.sent = 0;
    if c.close_after_write {
        c.dead = true;
        return;
    }
    if c.dispatched {
        return;
    }
    if r.front.stopping() {
        // Drain mode: finished writing, nothing in flight — buffered
        // not-yet-admitted bytes are dropped with the connection.
        c.dead = true;
        return;
    }
    if !starved {
        c.backlog = true;
    } else if c.peer_closed {
        c.dead = true;
    }
}

/// Parses buffered requests and appends their answers to `c.out` —
/// inline ones straight from the handler — until one goes to the pool,
/// the connection is to close, `c.out` holds [`MAX_REQUEST_BYTES`], or
/// the service is stopping. Returns true when it stopped for want of a
/// whole request.
fn answer_buffered(c: &mut Conn, token: u64, r: &Reactor) -> bool {
    let counters = &r.front.counters;
    while !c.dispatched
        && !c.close_after_write
        && c.out.len() < MAX_REQUEST_BYTES
        && !r.front.stopping()
    {
        let (req, keep_alive) = match parse_request(&c.buf) {
            Ok(Parse::Incomplete) => return true,
            Ok(Parse::Complete { req, consumed, keep_alive }) => {
                c.buf.drain(..consumed);
                (req, keep_alive)
            }
            Err(msg) => {
                counters.requests.fetch_add(1, Ordering::Relaxed);
                counters.errors.fetch_add(1, Ordering::Relaxed);
                write_response(&mut c.out, 400, &[], &error_body(&msg), false);
                c.close_after_write = true;
                return false;
            }
        };
        counters.parsed.fetch_add(1, Ordering::Relaxed);
        counters.requests.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        if (r.inline)(&req) {
            // A panicking handler costs its request a 500, as a pooled
            // job's panic costs only that job — not the reactor.
            let (code, headers, body) =
                catch_unwind(AssertUnwindSafe(|| (r.handler)(&req, t0, &r.front)))
                    .unwrap_or_else(|_| (500, Vec::new(), error_body("handler panicked")));
            if code >= 400 {
                counters.errors.fetch_add(1, Ordering::Relaxed);
            }
            c.answer(&r.front, code, &headers, &body, keep_alive);
            continue;
        }
        c.keep_current = keep_alive;
        let handler = Arc::clone(&r.handler);
        let front = Arc::clone(&r.front);
        let job = move || {
            let (code, headers, body) = handler(&req, t0, &front);
            if code >= 400 {
                front.counters.errors.fetch_add(1, Ordering::Relaxed);
            }
            front.complete(Completion { token, code, headers, body });
        };
        if r.pool.try_submit(job).is_ok() {
            counters.dispatched.fetch_add(1, Ordering::Relaxed);
            c.dispatched = true;
            return false;
        }
        // Queue full: shed with 503 + Retry-After. The connection
        // survives (keep-alive permitting) so the client's
        // capped-Retry-After retry can land here again. A shed request
        // still counts as a request and an error.
        counters.rejected.fetch_add(1, Ordering::Relaxed);
        counters.errors.fetch_add(1, Ordering::Relaxed);
        let retry_after = [format!("Retry-After: {RETRY_AFTER_SECS}")];
        write_response(&mut c.out, 503, &retry_after, &r.reject_body, keep_alive);
        if !keep_alive {
            c.close_after_write = true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_incremental_arrival() {
        let full = b"GET /eval?app=gtc HTTP/1.1\r\nHost: h\r\n\r\n";
        for cut in 0..full.len() {
            match parse_request(&full[..cut]).unwrap() {
                Parse::Incomplete => {}
                Parse::Complete { .. } => panic!("complete at {cut} of {}", full.len()),
            }
        }
        match parse_request(full).unwrap() {
            Parse::Complete { req, consumed, keep_alive } => {
                assert_eq!(req.method, "GET");
                assert_eq!(req.path, "/eval");
                assert_eq!(req.query, "app=gtc");
                assert_eq!(consumed, full.len());
                assert!(keep_alive, "HTTP/1.1 defaults to keep-alive");
            }
            Parse::Incomplete => panic!("full request must parse"),
        }
    }

    #[test]
    fn parser_frames_bodies_and_pipelined_requests() {
        let two =
            b"POST /eval HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdGET /healthz HTTP/1.1\r\n\r\n";
        let Parse::Complete { req, consumed, .. } = parse_request(two).unwrap() else {
            panic!("first request must parse");
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, "abcd");
        let Parse::Complete { req: second, consumed: c2, .. } =
            parse_request(&two[consumed..]).unwrap()
        else {
            panic!("second pipelined request must parse");
        };
        assert_eq!(second.path, "/healthz");
        assert_eq!(consumed + c2, two.len());
    }

    #[test]
    fn parser_negotiates_keep_alive_per_version() {
        let cases: [(&[u8], bool); 4] = [
            (b"GET / HTTP/1.1\r\n\r\n", true),
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
        ];
        for (raw, want) in cases {
            let Parse::Complete { keep_alive, .. } = parse_request(raw).unwrap() else {
                panic!("must parse: {raw:?}");
            };
            assert_eq!(keep_alive, want, "{:?}", String::from_utf8_lossy(raw));
        }
    }

    #[test]
    fn parser_rejects_oversize_and_garbage() {
        let huge = vec![b'a'; MAX_REQUEST_BYTES];
        assert!(parse_request(&huge).is_err(), "unterminated max-size head must reject");
        assert!(parse_request(b"NOT-HTTP\r\n\r\n").is_err());
        let big_body =
            format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_REQUEST_BYTES + 1);
        assert!(parse_request(big_body.as_bytes()).is_err());
        // Head plus body must fit the buffer: one byte over is refused at
        // the head, an exact fit waits for its body.
        let head_for =
            |body_len: usize| format!("POST / HTTP/1.1\r\nContent-Length: {body_len:05}\r\n\r\n");
        let fit = MAX_REQUEST_BYTES - head_for(0).len();
        assert!(parse_request(head_for(fit + 1).as_bytes()).is_err());
        assert!(matches!(parse_request(head_for(fit).as_bytes()), Ok(Parse::Incomplete)));
        // A Content-Length near usize::MAX is refused, not wrapped.
        for len in [usize::MAX, usize::MAX - 10] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {len}\r\n\r\n");
            assert!(parse_request(raw.as_bytes()).is_err(), "Content-Length {len}");
        }
        assert!(parse_request(b"GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n").is_err());
    }

    #[test]
    fn emitted_responses_frame_connection_choice() {
        let keep = String::from_utf8(emit_response(200, &[], "{}", true)).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"), "{keep}");
        assert!(keep.ends_with("\r\n\r\n{}"));
        let close =
            String::from_utf8(emit_response(503, &["Retry-After: 1".into()], "x", false)).unwrap();
        assert!(close.contains("Connection: close\r\n"));
        assert!(close.contains("Retry-After: 1\r\n"));
    }

    #[test]
    fn a_panicking_inline_handler_costs_its_request_a_500_not_the_reactor() {
        let handler: Arc<Handler> = Arc::new(|req: &Request, _: Instant, _: &Frontend| {
            assert_ne!(req.path, "/boom", "a handler bug");
            (200, Vec::new(), "{}".to_string())
        });
        let cfg = CoreConfig {
            port: 0,
            workers: 1,
            queue: 1,
            inline: |_| true,
            reject_body: String::new(),
        };
        let core = start_core(cfg, handler, None).unwrap();
        let mut s = TcpStream::connect(core.addr()).unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
        s.write_all(b"GET /boom HTTP/1.1\r\n\r\nGET /ok HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut got = String::new();
        s.read_to_string(&mut got).unwrap();
        let statuses: Vec<&str> = got.split("HTTP/1.1 ").skip(1).map(|r| &r[..3]).collect();
        assert_eq!(statuses, ["500", "200"], "{got}");
        core.frontend().shutdown();
        core.join();
    }

    /// A client that pipelines requests until its send blocks and then
    /// reads nothing makes its connection hold at least the cap (answering
    /// did run ahead of the socket) and at most the cap plus one answer.
    #[test]
    fn pending_output_stops_at_the_cap_plus_one_answer() {
        const BODY: usize = 10_000;
        let handler: Arc<Handler> =
            Arc::new(|_: &Request, _: Instant, _: &Frontend| (200, Vec::new(), "x".repeat(BODY)));
        let cfg = CoreConfig {
            port: 0,
            workers: 1,
            queue: 1,
            inline: |_| true,
            reject_body: String::new(),
        };
        let core = start_core(cfg, handler, None).unwrap();
        let mut hostile = TcpStream::connect(core.addr()).unwrap();
        hostile.set_nonblocking(true).unwrap();
        let burst = b"GET / HTTP/1.1\r\n\r\n".repeat(1024);
        let mut off = 0;
        loop {
            match hostile.write(&burst[off..]) {
                Ok(n) => off = (off + n) % burst.len(),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => panic!("hostile client's send failed: {e}"),
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
        // A second connection is still answered while the first is stuck.
        let mut other = TcpStream::connect(core.addr()).unwrap();
        other.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
        other.write_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let mut got = Vec::new();
        other.read_to_end(&mut got).unwrap();
        assert!(got.starts_with(b"HTTP/1.1 200 OK\r\n"));

        let one = emit_response(200, &[], &"x".repeat(BODY), true).len();
        let max_out = core.frontend().counters.max_out.load(Ordering::Relaxed) as usize;
        assert!(max_out >= MAX_REQUEST_BYTES, "the cap was never reached ({max_out} B)");
        assert!(
            max_out < MAX_REQUEST_BYTES + one,
            "pending output {max_out} B exceeds the cap plus one {one} B answer"
        );
        drop(hostile);
        core.frontend().shutdown();
        core.join();
    }
}
