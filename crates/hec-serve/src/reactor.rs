//! The event-driven serving core (DESIGN §11): one reactor thread
//! multiplexes every accepted connection, and every upstream connection
//! a tier opens, over `poll(2)`. It answers every request that cannot
//! block itself; only work that blocks goes to a bounded
//! [`hec_core::pool::WorkerPool`]. Connection count is decoupled from
//! thread count, and HTTP/1.1 keep-alive and pipelined parsing let one
//! connection carry many requests.
//!
//! Layering: this module knows HTTP framing, connection lifecycle,
//! admission accounting, deadlines and upstream exchanges, but nothing
//! about routes. `hec-serve`'s listener and the `hec-cluster` router both
//! instantiate [`start_core`] with their own [`Service`]; the core owns
//! what the two tiers have in common ([`Frontend`]: request counters,
//! connection gauges, queue gauge, shutdown latch and the shared part of
//! `/metrics`) — one reactor, two services.
//!
//! Per-connection state machine (level-triggered):
//!
//! ```text
//!   Reading --parse--+-- answered now: handler on the reactor -----+
//!      ^             |                                             |
//!      |             +-- Waiting: pool job, or an upstream          |
//!      |             |   exchange / alarm driven by the service ---+
//!      |             |                                             |
//!      |             +-- queue full: 503 ---------------------------+
//!      |                                                           v
//!      |                                           answer appended to `out`
//!      |                                                           |
//!      +-- next buffered request, unless waiting / close / `out` full
//!                                                                  |
//!                                                 Writing: one write for all
//!                                                                  |
//!                 Connection: close / stop / parse error --> Closed
//! ```
//!
//! The reactor polls `POLLIN` only while it is willing to buffer more
//! request bytes (per-connection flow control: one waiting request at a
//! time, buffer capped at [`MAX_REQUEST_BYTES`]) and `POLLOUT` only while
//! response bytes are pending or a capped connection awaits its turn, so
//! the loop never spins. The answers to one connection's buffered
//! requests leave in one write per iteration. Answering pauses once the
//! pending output reaches [`MAX_REQUEST_BYTES`] and resumes on the next
//! iteration after the socket drains, so a client that pipelines without
//! reading holds at most that plus one response, and no connection
//! answers more than that per iteration while others wait.
//!
//! A service that must wait without blocking — the router forwarding to
//! a replica — uses [`Io`]: [`Io::exchange`] sends one request on a
//! non-blocking upstream connection in the same poll set (reusing an
//! idle kept-alive one when it can) and reports the response through
//! [`Service::exchanged`]; [`Io::alarm`] puts a deadline on the core's
//! one min-heap, whose nearest entry is the poll timeout, and reports it
//! through [`Service::alarm`]; [`Io::answer`] answers the waiting
//! connection. Pool jobs push their results onto a completion list and
//! wake the reactor through a loopback socket pair — the same channel
//! `/shutdown` uses — keeping the whole core on `std` with a single
//! `extern "C"` line. A tier that never exchanges nor sets alarms (a
//! replica) has an empty heap and no upstream sockets.
//!
//! Shutdown drains: accepting stops, idle keep-alive connections close,
//! waiting requests complete and their responses flush, then the worker
//! pool joins. In-flight work is never dropped.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hec_core::json::Json;
use hec_core::pool::{QueueGauge, Threads, WorkerPool};
use hec_core::sync::Mutex;

/// Largest request head+body the server reads; larger requests get 400.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;
/// `Retry-After` seconds advertised on queue-full 503s.
pub const RETRY_AFTER_SECS: u64 = 1;

/// Reactor poll timeout when no deadline is pending: a liveness tick, not
/// a scheduling quantum — every state change arrives as an fd event, a
/// wake byte or a due deadline.
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

/// A parsed HTTP response: what an upstream exchange (or the blocking
/// client) reads back.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Raw header lines (name-case preserved), without the status line.
    pub headers: Vec<(String, String)>,
    /// The body as text.
    pub body: String,
}

impl Response {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// The `Retry-After` header as whole seconds, when present and sane.
    pub fn retry_after_secs(&self) -> Option<u64> {
        self.header("Retry-After")?.trim().parse().ok()
    }
}

/// Parses one response off the front of `buf`: `Ok(None)` until it is
/// whole. `eof` says the peer has closed, which ends a body that has no
/// `Content-Length` and makes anything still missing an error. On
/// success returns the response, the bytes it used, and whether the
/// connection can carry another exchange (length-framed and
/// `Connection: keep-alive`).
pub fn parse_response(buf: &[u8], eof: bool) -> Result<Option<(Response, usize, bool)>, String> {
    let Some(head_len) = head_end(buf) else {
        return if eof {
            Err("connection closed before a whole response".into())
        } else {
            Ok(None)
        };
    };
    let head = std::str::from_utf8(&buf[..head_len]).map_err(|_| "non-utf8 response head")?;
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {status_line:?}"))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            let (k, v) = (k.trim().to_string(), v.trim().to_string());
            if k.eq_ignore_ascii_case("content-length") {
                content_length = Some(v.parse().map_err(|_| "bad Content-Length".to_string())?);
            }
            headers.push((k, v));
        }
    }
    let end = match content_length {
        Some(len) if buf.len() - head_len >= len => head_len + len,
        Some(_) if eof => return Err("connection closed mid-body".into()),
        None if eof => buf.len(),
        _ => return Ok(None),
    };
    let body = String::from_utf8_lossy(&buf[head_len..end]).into_owned();
    let response = Response { status, headers, body };
    let reusable = content_length.is_some()
        && response.header("Connection").is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"));
    Ok(Some((response, end, reusable)))
}

// ---------------------------------------------------------------------
// Shared core state
// ---------------------------------------------------------------------

/// What a service answers: status, extra header lines, body.
pub type Answer = (u16, Vec<String>, String);

/// A pool job's result, headed back to its connection: an answer the
/// reactor frames (keep-alive vs close) at delivery, or `None` to hand
/// the connection back to the service ([`Service::resumed`]).
struct Completion {
    token: u64,
    answer: Option<Answer>,
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
    /// Jobs handed to the worker pool (everything else ran on the reactor).
    dispatched: AtomicU64,
    /// Largest pending output any connection has held, bytes: the test
    /// of the output cap reads it; release builds do not keep it.
    #[cfg(test)]
    max_out: AtomicU64,
    /// Requests served on an already-used connection — the keep-alive
    /// win: `parsed - accepted` when every client reuses perfectly.
    keepalive: AtomicU64,
    /// Reactor loop iterations (readiness wakeups + deadline and
    /// liveness ticks).
    iterations: AtomicU64,
}

/// What every tier's front end has in common, owned by the core: the
/// admission counters, the connection and reactor gauges, the queue
/// gauge, the shutdown latch and the wake channel into the reactor.
/// Services reach it through [`Io::front`]; a tier keeps only the state
/// that is its own.
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
/// pool and its admission queue, and what a queue-full rejection says.
pub struct CoreConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Worker threads running the jobs a service hands to [`Io::spawn`].
    pub workers: usize,
    /// Admission-queue bound (jobs waiting for a worker).
    pub queue: usize,
    /// Body of the `503` answered when the admission queue is full.
    pub reject_body: String,
}

/// A tier's request logic. Every method runs on the reactor thread,
/// where anything slow delays every connection, so none may block: work
/// that blocks goes to the pool through [`Io::spawn`], and waiting on a
/// peer or a clock goes through [`Io::exchange`] and [`Io::alarm`]. The
/// core counts each request and, for a status >= 400, the error.
pub trait Service: Send + 'static {
    /// Handles the request parsed off connection `conn` at instant `at`
    /// (the parse instant, so a service can record latency inclusive of
    /// any wait). `Some` answers now. `None` leaves the connection
    /// waiting — nothing more is parsed from it — until its answer comes
    /// through [`Io::answer`] or a pool job [`Io::spawn`] started for it.
    fn handle(&mut self, conn: u64, req: Request, at: Instant, io: &mut Io) -> Option<Answer>;

    /// An alarm set with [`Io::alarm`] for `key` is due. Alarms are never
    /// cancelled, so a service checks that the wait is still its own.
    fn alarm(&mut self, _key: u64, _io: &mut Io) {}

    /// The exchange [`Io::exchange`] sent for `key` and returned `id` for
    /// has ended: its response, or the transport error or timeout that
    /// ended it.
    fn exchanged(&mut self, _key: u64, _id: u64, _result: std::io::Result<Response>, _io: &mut Io) {
    }

    /// A job [`Io::spawn`]ed for `conn` returned `None`: the connection is
    /// the service's again.
    fn resumed(&mut self, _conn: u64, _io: &mut Io) {}
}

/// A plain closure is a service that answers every request itself or
/// through the pool.
impl<F> Service for F
where
    F: FnMut(u64, Request, Instant, &mut Io) -> Option<Answer> + Send + 'static,
{
    fn handle(&mut self, conn: u64, req: Request, at: Instant, io: &mut Io) -> Option<Answer> {
        self(conn, req, at, io)
    }
}

/// A due time on the core's heap: a service's alarm, or the deadline of
/// an upstream exchange.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    Alarm(u64),
    Exchange(u64),
}

/// One request in flight on an upstream connection.
struct Exchange {
    addr: SocketAddr,
    stream: TcpStream,
    /// The request bytes, kept to resend once if a reused connection
    /// turns out to have been closed by the peer.
    request: Vec<u8>,
    sent: usize,
    buf: Vec<u8>,
    reused: bool,
    /// The service's key for the outcome; `None` once it lost interest:
    /// the reply is still read, and reported to nobody.
    key: Option<u64>,
}

/// A fresh non-blocking upstream connection. `std` has no non-blocking
/// connect, so the call itself blocks; to a loopback peer (every replica
/// is one) it completes or is refused at once.
fn dial(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

impl Exchange {
    /// Writes what the socket takes of the unsent request.
    fn flush(&mut self) -> std::io::Result<()> {
        while self.sent < self.request.len() {
            match (&self.stream).write(&self.request[self.sent..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Starts over on a fresh connection, once: the reused one was closed
    /// by the peer before a byte of its answer, so the request never
    /// reached a handler, and resending it is not a failover.
    fn redial(&mut self) -> std::io::Result<()> {
        self.stream = dial(self.addr)?;
        self.reused = false;
        self.sent = 0;
        self.buf.clear();
        self.flush()
    }
}

/// The core's side of a [`Service`] callback: the shared front end, the
/// worker pool, the deadline heap and the upstream connections.
pub struct Io {
    front: Arc<Frontend>,
    pool: WorkerPool,
    reject_body: String,
    /// Answers for waiting connections, delivered when the callback
    /// returns.
    answers: Vec<(u64, Answer)>,
    /// Alarms and exchange deadlines, nearest first. An exchange that
    /// ends before its deadline leaves a stale entry behind, so the heap
    /// is compacted once it doubles.
    timers: BinaryHeap<Reverse<(Instant, Timer)>>,
    compact_at: usize,
    exchanges: HashMap<u64, Exchange>,
    next_exchange: u64,
    /// Kept-alive upstream connections awaiting reuse, with their peers.
    idle: Vec<(SocketAddr, TcpStream)>,
}

impl Io {
    /// The shared front end: counters, shutdown latch, `/metrics` sections.
    pub fn front(&self) -> &Arc<Frontend> {
        &self.front
    }

    /// Answers the request connection `conn` is waiting on.
    pub fn answer(&mut self, conn: u64, answer: Answer) {
        self.answers.push((conn, answer));
    }

    /// Runs `job` on the worker pool for connection `conn`, which waits
    /// for it: `Some` answers it, `None` hands it back through
    /// [`Service::resumed`]. When the admission queue is full the request
    /// is shed instead — `503` with `Retry-After`, counted as rejected —
    /// and this returns false.
    pub fn spawn(
        &mut self,
        conn: u64,
        job: impl FnOnce() -> Option<Answer> + Send + 'static,
    ) -> bool {
        let front = Arc::clone(&self.front);
        let job = move || {
            let answer = job();
            front.complete(Completion { token: conn, answer });
        };
        if self.pool.try_submit(job).is_ok() {
            self.front.counters.dispatched.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        self.front.counters.rejected.fetch_add(1, Ordering::Relaxed);
        let retry_after = vec![format!("Retry-After: {RETRY_AFTER_SECS}")];
        self.answers.push((conn, (503, retry_after, self.reject_body.clone())));
        false
    }

    /// Calls [`Service::alarm`] with `key` once `at` has passed.
    pub fn alarm(&mut self, at: Instant, key: u64) {
        self.push_timer(at, Timer::Alarm(key));
    }

    /// Sends `request` (whole HTTP/1.1 bytes) to `addr` on an idle
    /// kept-alive connection to it, or a new one, and returns the
    /// exchange's id; [`Service::exchanged`] reports how it ended, with
    /// `key`, at the latest when `timeout` has passed, which closes the
    /// connection. A reused connection that fails before the first byte
    /// of its answer is retried once on a fresh one. `Err` when `addr`
    /// refuses at once.
    pub fn exchange(
        &mut self,
        addr: SocketAddr,
        request: Vec<u8>,
        timeout: Duration,
        key: u64,
    ) -> std::io::Result<u64> {
        let (stream, reused) = match self.idle.iter().rposition(|(a, _)| *a == addr) {
            Some(i) => (self.idle.swap_remove(i).1, true),
            None => (dial(addr)?, false),
        };
        let mut x =
            Exchange { addr, stream, request, sent: 0, buf: Vec::new(), reused, key: Some(key) };
        if let Err(e) = x.flush() {
            if !x.reused {
                return Err(e);
            }
            x.redial()?;
        }
        let id = self.next_exchange;
        self.next_exchange += 1;
        self.exchanges.insert(id, x);
        self.push_timer(Instant::now() + timeout, Timer::Exchange(id));
        Ok(id)
    }

    /// Drops interest in exchange `id`: its reply is still read (keeping
    /// the connection reusable) but not reported.
    pub fn abandon(&mut self, id: u64) {
        if let Some(x) = self.exchanges.get_mut(&id) {
            x.key = None;
        }
    }

    fn push_timer(&mut self, at: Instant, timer: Timer) {
        if self.timers.len() >= self.compact_at {
            let exchanges = &self.exchanges;
            self.timers.retain(|Reverse((_, t))| match t {
                Timer::Exchange(id) => exchanges.contains_key(id),
                Timer::Alarm(_) => true,
            });
            self.compact_at = 2 * self.timers.len() + 64;
        }
        self.timers.push(Reverse((at, timer)));
    }

    /// Milliseconds until the nearest deadline (rounded up, so a wake-up
    /// finds it due), capped at the liveness tick.
    fn poll_timeout(&self) -> i32 {
        match self.timers.peek() {
            None => POLL_TICK_MS,
            Some(Reverse((at, _))) => {
                let wait = at.saturating_duration_since(Instant::now()).as_micros().div_ceil(1000);
                wait.min(POLL_TICK_MS as u128) as i32
            }
        }
    }

    /// Pops the nearest deadline if it has passed (an empty heap reads
    /// no clock).
    fn due_timer(&mut self) -> Option<Timer> {
        let Reverse((at, _)) = self.timers.peek()?;
        if *at > Instant::now() {
            return None;
        }
        self.timers.pop().map(|Reverse((_, t))| t)
    }

    /// Ends exchange `id` at its deadline, closing its connection.
    fn expire(&mut self, id: u64) -> Option<(u64, std::io::Result<Response>)> {
        let x = self.exchanges.remove(&id)?;
        let timed_out = std::io::Error::new(ErrorKind::TimedOut, "upstream exchange timed out");
        Some((x.key?, Err(timed_out)))
    }

    /// Moves exchange `id` along after a readiness event: finishes the
    /// send, reads, and returns the outcome (with its key) once there is
    /// one to report.
    fn pump(&mut self, id: u64) -> Option<(u64, std::io::Result<Response>)> {
        let x = self.exchanges.get_mut(&id)?;
        let mut failure = x.flush().err();
        let mut eof = false;
        let mut chunk = [0u8; 16 * 1024];
        while failure.is_none() {
            match (&x.stream).read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    x.buf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => failure = Some(e),
            }
        }
        let closed = eof || failure.is_some();
        if closed && x.buf.is_empty() && x.reused {
            match x.redial() {
                Ok(()) => return None,
                Err(e) => failure = Some(e),
            }
        }
        if x.buf.is_empty() && !closed {
            return None;
        }
        let outcome = match parse_response(&x.buf, closed) {
            Ok(None) => return None,
            Ok(Some((response, used, reusable))) => {
                let x = self.exchanges.remove(&id)?;
                if reusable && !closed && used == x.buf.len() {
                    self.idle.push((x.addr, x.stream));
                }
                return Some((x.key?, Ok(response)));
            }
            Err(msg) => failure.unwrap_or_else(|| std::io::Error::new(ErrorKind::InvalidData, msg)),
        };
        let x = self.exchanges.remove(&id)?;
        Some((x.key?, Err(outcome)))
    }
}

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
/// [`Frontend`], and spawns the reactor thread running `service`.
/// Returns once the socket is accepting. `on_drained` (if any) runs on
/// the reactor thread after the pool has drained — the router uses it to
/// stop its replicas only once no routed request can still need them.
pub fn start_core(
    cfg: CoreConfig,
    service: impl Service,
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

    let io = Io {
        front: Arc::clone(&front),
        pool,
        reject_body: cfg.reject_body,
        answers: Vec::new(),
        timers: BinaryHeap::new(),
        compact_at: 64,
        exchanges: HashMap::new(),
        next_exchange: 0,
        idle: Vec::new(),
    };
    let thread = std::thread::spawn(move || {
        run_reactor(listener, wake_rx, io, service);
        // run_reactor already drained the pool; optional service-level
        // teardown (the router's replicas) happens strictly after.
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
    /// One request awaits an answer from the pool or the service; reads
    /// pause until it lands.
    waiting: bool,
    /// Keep-alive verdict of the request awaiting its answer.
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
            waiting: false,
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
        !self.waiting
            && !self.peer_closed
            && !self.close_after_write
            && self.buf.len() < MAX_REQUEST_BYTES
    }

    /// Idle: safe to close at shutdown without dropping admitted work.
    fn idle(&self) -> bool {
        !self.waiting && !self.write_pending()
    }

    /// Appends an answer, framed keep-alive only when the request asked
    /// for it and the service is not stopping, and counts it.
    fn answer(&mut self, front: &Frontend, (code, headers, body): Answer, keep_alive: bool) {
        if code >= 400 {
            front.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        let keep = keep_alive && !front.stopping();
        write_response(&mut self.out, code, &headers, &body, keep);
        if !keep {
            self.close_after_write = true;
        }
        self.served += 1;
        if self.served > 1 {
            front.counters.keepalive.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn run_reactor(listener: TcpListener, wake_rx: TcpStream, mut io: Io, mut service: impl Service) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut fds: Vec<sys::PollFd> = Vec::new();
    // fd slot -> connection token / exchange id, parallel to `fds` past
    // the fixed slots; idle upstream connections take the last slots.
    let mut slots: Vec<u64> = Vec::new();
    let mut upstream: Vec<u64> = Vec::new();
    let mut touched: Vec<u64> = Vec::new();

    loop {
        io.front.counters.iterations.fetch_add(1, Ordering::Relaxed);
        let stopping = io.front.stopping();
        if stopping {
            for c in conns.values_mut() {
                if c.idle() {
                    c.dead = true;
                }
            }
            reap(&mut conns, &io.front);
            if conns.is_empty() {
                break;
            }
        }

        fds.clear();
        slots.clear();
        upstream.clear();
        fds.push(sys::PollFd { fd: wake_rx.as_raw_fd(), events: sys::POLLIN, revents: 0 });
        let accept_slot = if stopping {
            None
        } else {
            fds.push(sys::PollFd { fd: listener.as_raw_fd(), events: sys::POLLIN, revents: 0 });
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
            // A connection waiting on its answer with nothing to write
            // stays out of the set (a negative fd is ignored), so a peer
            // that hangs up meanwhile cannot spin the loop on POLLHUP.
            let fd = if events == 0 { -1 } else { c.stream.as_raw_fd() };
            slots.push(token);
            fds.push(sys::PollFd { fd, events, revents: 0 });
        }
        for (&id, x) in io.exchanges.iter() {
            let events =
                if x.sent < x.request.len() { sys::POLLIN | sys::POLLOUT } else { sys::POLLIN };
            upstream.push(id);
            fds.push(sys::PollFd { fd: x.stream.as_raw_fd(), events, revents: 0 });
        }
        for (_, s) in &io.idle {
            fds.push(sys::PollFd { fd: s.as_raw_fd(), events: sys::POLLIN, revents: 0 });
        }

        if sys::wait(&mut fds, io.poll_timeout()).is_err() {
            // poll itself failing is unrecoverable for this loop; bail
            // out through the drain path rather than spinning.
            io.front.shutdown();
            continue;
        }

        // An idle upstream connection only ever becomes readable because
        // its peer closed it (or sent what nobody asked for): drop it.
        // Before any callback, so `idle` still matches its slots.
        let idle_base = fds.len() - io.idle.len();
        for i in (0..io.idle.len()).rev() {
            if fds[idle_base + i].revents != 0 {
                io.idle.swap_remove(i);
            }
        }

        if fds[0].revents & sys::POLLIN != 0 {
            let mut sink = [0u8; 64];
            while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        }

        // Deliver finished pool jobs before I/O so a completed request's
        // bytes go out in this same iteration.
        let finished: Vec<Completion> = std::mem::take(&mut *io.front.completions.lock());
        for comp in finished {
            match comp.answer {
                Some(answer) => io.answers.push((comp.token, answer)),
                None => service.resumed(comp.token, &mut io),
            }
        }

        while let Some(timer) = io.due_timer() {
            match timer {
                Timer::Alarm(key) => service.alarm(key, &mut io),
                Timer::Exchange(id) => {
                    if let Some((key, result)) = io.expire(id) {
                        service.exchanged(key, id, result, &mut io);
                    }
                }
            }
        }

        if let Some(slot) = accept_slot {
            if fds[slot].revents & sys::POLLIN != 0 {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            conns.insert(next_token, Conn::new(stream));
                            next_token += 1;
                            let counters = &io.front.counters;
                            counters.accepted.fetch_add(1, Ordering::Relaxed);
                            let open = counters.open.fetch_add(1, Ordering::Relaxed) + 1;
                            counters.max_open.fetch_max(open, Ordering::Relaxed);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    }
                }
            }
        }

        let first_conn_slot = accept_slot.map_or(1, |s| s + 1);
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
            advance(c, token, &mut io, &mut service);
        }

        let first_upstream_slot = first_conn_slot + slots.len();
        for (i, &id) in upstream.iter().enumerate() {
            if fds[first_upstream_slot + i].revents != 0 {
                if let Some((key, result)) = io.pump(id) {
                    service.exchanged(key, id, result, &mut io);
                }
            }
        }

        // Deliver the answers; answering lets a connection parse its next
        // request, whose handling may answer in turn.
        while !io.answers.is_empty() {
            touched.clear();
            for (token, answer) in std::mem::take(&mut io.answers) {
                let Some(c) = conns.get_mut(&token) else { continue };
                c.waiting = false;
                let keep = c.keep_current;
                c.answer(&io.front, answer, keep);
                touched.push(token);
            }
            for &token in &touched {
                if let Some(c) = conns.get_mut(&token) {
                    advance(c, token, &mut io, &mut service);
                }
            }
        }
        reap(&mut conns, &io.front);
    }

    drop(listener);
    // Queued-but-unstarted jobs still run here; their completions land
    // in `front` with nobody reading — harmless, the conns are gone.
    io.pool.shutdown();
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
fn advance(c: &mut Conn, token: u64, io: &mut Io, service: &mut impl Service) {
    let starved = answer_buffered(c, token, io, service);
    c.backlog = false;
    #[cfg(test)]
    io.front.counters.max_out.fetch_max(c.out.len() as u64, Ordering::Relaxed);
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
    if c.waiting {
        return;
    }
    if io.front.stopping() {
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

/// Parses buffered requests and appends the answers the service gives at
/// once to `c.out`, until one leaves the connection waiting, the
/// connection is to close, `c.out` holds [`MAX_REQUEST_BYTES`], or the
/// service is stopping. Returns true when it stopped for want of a whole
/// request.
fn answer_buffered(c: &mut Conn, token: u64, io: &mut Io, service: &mut impl Service) -> bool {
    while !c.waiting
        && !c.close_after_write
        && c.out.len() < MAX_REQUEST_BYTES
        && !io.front.stopping()
    {
        let (req, keep_alive) = match parse_request(&c.buf) {
            Ok(Parse::Incomplete) => return true,
            Ok(Parse::Complete { req, consumed, keep_alive }) => {
                c.buf.drain(..consumed);
                (req, keep_alive)
            }
            Err(msg) => {
                let counters = &io.front.counters;
                counters.requests.fetch_add(1, Ordering::Relaxed);
                counters.errors.fetch_add(1, Ordering::Relaxed);
                write_response(&mut c.out, 400, &[], &error_body(&msg), false);
                c.close_after_write = true;
                return false;
            }
        };
        io.front.counters.parsed.fetch_add(1, Ordering::Relaxed);
        io.front.counters.requests.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        // A panicking handler costs its request a 500, as a pool job's
        // panic costs only that job — not the reactor.
        match catch_unwind(AssertUnwindSafe(|| service.handle(token, req, t0, io))) {
            Ok(Some(answer)) => c.answer(&io.front, answer, keep_alive),
            Ok(None) => {
                c.keep_current = keep_alive;
                c.waiting = true;
            }
            Err(_) => {
                let answer = (500, Vec::new(), error_body("handler panicked"));
                c.answer(&io.front, answer, keep_alive);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> CoreConfig {
        CoreConfig { port: 0, workers: 1, queue: 1, reject_body: String::new() }
    }

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
        let service = |_: u64, req: Request, _: Instant, _: &mut Io| {
            assert_ne!(req.path, "/boom", "a handler bug");
            Some((200, Vec::new(), "{}".to_string()))
        };
        let core = start_core(test_config(), service, None).unwrap();
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
        let service =
            |_: u64, _: Request, _: Instant, _: &mut Io| Some((200, Vec::new(), "x".repeat(BODY)));
        let core = start_core(test_config(), service, None).unwrap();
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

    /// An alarm is a deadline on the core's heap, and the nearest one is
    /// the poll timeout: an answer parked 30 ms out leaves well before
    /// the 250 ms liveness tick would have woken the reactor.
    #[test]
    fn an_alarm_fires_at_its_deadline_not_at_the_liveness_tick() {
        struct Delayed;
        impl Service for Delayed {
            fn handle(
                &mut self,
                conn: u64,
                _: Request,
                at: Instant,
                io: &mut Io,
            ) -> Option<Answer> {
                io.alarm(at + Duration::from_millis(30), conn);
                None
            }
            fn alarm(&mut self, conn: u64, io: &mut Io) {
                io.answer(conn, (200, Vec::new(), "late".into()));
            }
        }
        let core = start_core(test_config(), Delayed, None).unwrap();
        let mut s = TcpStream::connect(core.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let t0 = Instant::now();
        s.write_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let mut got = String::new();
        s.read_to_string(&mut got).unwrap();
        let took = t0.elapsed();
        assert!(got.starts_with("HTTP/1.1 200 OK\r\n") && got.ends_with("late"), "{got}");
        assert!(took >= Duration::from_millis(30), "answered before its alarm: {took:?}");
        assert!(took < Duration::from_millis(POLL_TICK_MS as u64), "waited for the tick: {took:?}");
        core.frontend().shutdown();
        core.join();
    }

    /// An exchange on a reused upstream connection that the peer closed
    /// before answering is resent once on a fresh connection, and the
    /// service sees only the answer. The mock upstream answers the first
    /// request on its first connection, reads the second and hangs up.
    #[test]
    fn a_reused_upstream_connection_closed_unanswered_is_resent_once() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let up_addr = upstream.local_addr().unwrap();
        let mock = std::thread::spawn(move || {
            let ok = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok";
            let mut requests_per_connection = Vec::new();
            for (i, stream) in upstream.incoming().take(2).enumerate() {
                let mut s = stream.unwrap();
                let mut buf = [0u8; 1024];
                let mut seen = 0;
                while let Ok(n @ 1..) = s.read(&mut buf) {
                    seen += buf[..n].windows(4).filter(|w| w == b"\r\n\r\n").count();
                    if i == 0 && seen == 2 {
                        break; // the second request: hang up unanswered
                    }
                    s.write_all(ok).unwrap();
                    if i == 1 {
                        break;
                    }
                }
                requests_per_connection.push(seen);
            }
            requests_per_connection
        });
        struct Relay(SocketAddr);
        impl Service for Relay {
            fn handle(&mut self, conn: u64, _: Request, _: Instant, io: &mut Io) -> Option<Answer> {
                let request = b"GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n".to_vec();
                io.exchange(self.0, request, Duration::from_secs(30), conn).unwrap();
                None
            }
            fn exchanged(
                &mut self,
                conn: u64,
                _: u64,
                result: std::io::Result<Response>,
                io: &mut Io,
            ) {
                let answer = match result {
                    Ok(r) => (r.status, Vec::new(), r.body),
                    Err(e) => (500, Vec::new(), e.to_string()),
                };
                io.answer(conn, answer);
            }
        }
        let core = start_core(test_config(), Relay(up_addr), None).unwrap();
        for _ in 0..2 {
            let mut s = TcpStream::connect(core.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            s.write_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
            let mut got = String::new();
            s.read_to_string(&mut got).unwrap();
            assert!(got.starts_with("HTTP/1.1 200 OK\r\n") && got.ends_with("ok"), "{got}");
        }
        assert_eq!(
            mock.join().unwrap(),
            [2, 1],
            "two requests on the first connection, one resent"
        );
        core.frontend().shutdown();
        core.join();
    }
}
