//! The nonblocking event core: readiness-driven shards that serve many
//! pipelined connections per thread. It is the one connection core of
//! both daemons — the backend server and the cluster router each plug
//! in an [`EventHandler`] and call [`EventCore::start`].
//!
//! A fixed set of *shard* threads ([`auto_loops`] picks how many)
//! drives every connection with nonblocking reads and writes; no OS
//! thread is spent per connection. The first shard also watches the
//! listening socket: it accepts, counts each connection, turns it away
//! past the connection cap, and deals the rest out to the shards
//! round-robin.
//!
//! # Readiness and wakeups
//!
//! Each shard blocks in `epoll_wait` on its own epoll instance (Linux
//! only; the calls are std-only `extern "C"` declarations, so the core
//! adds no dependency). Connections are registered edge-triggered
//! (`EPOLLIN | EPOLLOUT | EPOLLRDHUP`) under a slab token that carries a
//! generation count, so a token that outlives its connection is
//! recognised as stale instead of ticking the slot's next tenant. A
//! shard ticks only the connections epoll reports, those on its *ready
//! list*, and, one pass per round, those whose last pass made progress
//! (so a flooding peer cannot starve the rest). Nothing else wakes it:
//!
//! * a [`Responder`] completed (or dropped) on another thread pushes its
//!   connection's token onto the ready list and writes the shard's
//!   `eventfd` — only when the waker is not already armed, so a
//!   pipelined burst of completions costs one wakeup;
//! * a hand-off from the accepting shard ([`ShardHandle::hand_off`])
//!   and daemon shutdown ([`Shutdown::request`]) wake the shard the
//!   same way;
//! * the wait's timeout is the earliest idle-timeout deadline on the
//!   shard or the shutdown-grace deadline, plus a short retry tick while
//!   some connection holds a job the full pool refused. Otherwise the
//!   wait is unbounded: an idle shard costs no CPU.
//!
//! Per connection the shard keeps a read buffer and a write buffer.
//! One wakeup decodes *every* complete newline-delimited frame in the
//! read buffer (up to the per-connection in-flight cap), so a
//! pipelining client pays one syscall for a burst of requests.
//! Responses complete out of worker-pool callbacks: each decoded
//! request claims an ordered *slot* in the connection's response queue
//! and a [`Responder`] that fills it from whatever thread finishes the
//! work. Slots flush strictly in order, so pipelined replies can never
//! be reordered no matter how the pool schedules the jobs.
//!
//! The connection lifecycle ([`crate::framing`]): the oversize cap
//! answers `malformed request: line exceeds N bytes` and closes, EOF
//! mid-frame answers `malformed request: truncated frame (EOF before
//! newline)`, the idle clock (which counts partial reads as activity)
//! answers `bye (idle timeout)`, the request budget answers `bye
//! (request limit)`, the connection cap answers `bye (connection
//! limit)` at accept, and daemon shutdown answers `bye (shutdown)` on
//! every connection before the shards exit.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::framing::{ConnEvent, ConnLimits};
use crate::pool::Job;
use crate::proto::{Request, Response};

/// How long shards keep flushing in-flight responses after shutdown is
/// requested before abandoning the remaining connections.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(10);

/// How soon a shard re-offers a job the full pool refused. Applies only
/// while some connection holds such a job.
const RETRY_TICK: Duration = Duration::from_millis(1);

/// Bytes per `read` syscall, into one buffer owned by the shard.
const READ_CHUNK: usize = 64 * 1024;

/// Readiness events taken per `epoll_wait`.
const MAX_EVENTS: usize = 256;

/// The epoll token of a shard's eventfd. Connection tokens never reach
/// it: their low half is a slab index.
const WAKE_TOKEN: u64 = u64::MAX;

/// The epoll token of the listening socket (first shard only). Like
/// [`WAKE_TOKEN`], out of reach of a slab index.
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// One ordered response slot in a connection's reply queue.
struct Slot {
    cell: Mutex<Option<Response>>,
    op: &'static str,
    started: Instant,
    /// Whether draining this slot reports to the `observe` callback
    /// (synthetic lifecycle replies — bye, oversize — do not).
    observed: bool,
}

/// The cross-thread half of one shard.
struct Wake {
    /// Tokens of connections with a slot completed off the loop.
    ready: Mutex<Vec<u64>>,
    /// Streams handed off by the accepting shard; `None` once the shard
    /// exits.
    inbox: Mutex<Option<Vec<TcpStream>>>,
    /// Set while a wakeup is pending or the shard is awake and will look
    /// at `ready` and `inbox` before it next blocks. Only the notifier
    /// that flips it writes the eventfd.
    armed: AtomicBool,
    poller: sys::Poller,
}

impl Wake {
    fn notify(&self) {
        if !self.armed.swap(true, Ordering::SeqCst) {
            self.poller.wake();
        }
    }
}

/// Any thread's side of one shard: the accepting shard hands it
/// streams, and a shutdown request wakes it.
#[derive(Clone)]
struct ShardHandle(Arc<Wake>);

impl ShardHandle {
    /// Give the shard a freshly accepted stream and wake it. Hands the
    /// stream back if the shard has already exited.
    fn hand_off(&self, stream: TcpStream) -> Result<(), TcpStream> {
        match self.0.inbox.lock().as_mut() {
            Some(inbox) => inbox.push(stream),
            None => return Err(stream),
        }
        self.0.notify();
        Ok(())
    }

    /// Make the shard run one pass now: it re-reads the daemon's
    /// shutdown flag, its inbox and its ready list.
    fn wake(&self) {
        self.0.notify();
    }
}

/// One connection's wake hook, shared by its responders.
struct ConnWake {
    token: u64,
    /// Whether `token` is on the ready list already, so a burst of
    /// completions pushes it once. Cleared when the shard ticks it.
    queued: AtomicBool,
    shard: Arc<Wake>,
}

impl ConnWake {
    fn notify(&self) {
        if !self.queued.swap(true, Ordering::SeqCst) {
            self.shard.ready.lock().push(self.token);
            self.shard.notify();
        }
    }
}

/// Completes one response slot from any thread. Dropping a responder
/// without calling [`Responder::complete`] fills the slot with an
/// error, so a worker dying between dequeue and reply can never wedge
/// the connection's ordered flush. Either way the owning shard is
/// woken to flush it.
pub struct Responder {
    slot: Option<Arc<Slot>>,
    wake: Arc<ConnWake>,
}

impl Responder {
    /// Fill the slot; the owning shard flushes it in order.
    pub fn complete(mut self, response: Response) {
        if let Some(slot) = self.slot.take() {
            *slot.cell.lock() = Some(response);
            self.wake.notify();
        }
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            let mut cell = slot.cell.lock();
            if cell.is_none() {
                *cell = Some(Response::error(
                    "request was dropped: server is shutting down",
                ));
            }
            drop(cell);
            self.wake.notify();
        }
    }
}

/// What the handler did with a decoded request.
pub enum Dispatch {
    /// Handled: the responder will complete the slot (it may already
    /// have, for requests answered inline on the loop thread).
    Accepted,
    /// The compute queue was full. The shard parks the prepared job and
    /// re-offers it via [`EventHandler::retry`] on a short retry tick,
    /// decoding no further frames from that connection until it is
    /// accepted — backpressure without stalling the whole shard.
    Busy(Job),
}

/// The daemon half of the event core: request dispatch plus the metric
/// and lifecycle callbacks.
pub trait EventHandler: Send + Sync + 'static {
    /// Route one decoded request. Cheap requests should be answered
    /// inline (complete the responder and return [`Dispatch::Accepted`]);
    /// compute-shaped ones should be packaged into a pool job that
    /// completes the responder when it runs.
    fn dispatch(&self, req: Request, responder: Responder) -> Dispatch;

    /// Re-offer a parked job. `Err` hands it back for the next tick.
    fn retry(&self, job: Job) -> Result<(), Job>;

    /// One served request: `(op, µs, ok)`.
    fn observe(&self, op: &'static str, us: u64, ok: bool);

    /// A connection was accepted or turned away, or a limit violation
    /// closed it.
    fn conn_event(&self, ev: ConnEvent);

    /// A served request asked for daemon-wide shutdown (its `bye` reply
    /// has already been queued on the issuing connection).
    fn wants_shutdown(&self);
}

/// Options for the event core.
#[derive(Clone, Copy, Debug)]
pub struct EventLoopOptions {
    /// Per-connection limits.
    pub limits: ConnLimits,
    /// Pipelined requests a single connection may have in flight before
    /// the shard stops reading from it.
    pub max_inflight_per_conn: usize,
}

/// What one service pass left behind (internal).
enum Tick {
    /// Still open; `moved` when the pass made progress, so another pass
    /// may make more (the shard runs it next round).
    Alive {
        moved: bool,
    },
    Closed,
}

/// Per-connection state owned by one shard.
struct Conn {
    stream: TcpStream,
    wake: Arc<ConnWake>,
    read_buf: Vec<u8>,
    /// Resume offset for the newline scan (bytes before it are known
    /// newline-free).
    scan_from: usize,
    write_buf: Vec<u8>,
    write_pos: usize,
    slots: VecDeque<Arc<Slot>>,
    /// A parked compute job (queue was full); decoding pauses until the
    /// pool accepts it.
    deferred: Option<Job>,
    served: usize,
    last_activity: Instant,
    /// No more reads; flush the remaining slots and close.
    closing: bool,
    peer_eof: bool,
    /// Input may be waiting in the socket: set by an epoll input edge,
    /// cleared by a read that would block. Edge triggering never
    /// re-reports bytes left unread at the in-flight cap.
    readable: bool,
    /// The shard round that last ticked this connection.
    round: u64,
}

impl Conn {
    fn new(stream: TcpStream, wake: Arc<ConnWake>) -> Self {
        Self {
            stream,
            wake,
            read_buf: Vec::new(),
            scan_from: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            slots: VecDeque::new(),
            deferred: None,
            served: 0,
            last_activity: Instant::now(),
            closing: false,
            peer_eof: false,
            readable: true,
            round: 0,
        }
    }

    /// Append a pre-completed reply (lifecycle byes and errors) that
    /// flushes after everything already in flight.
    fn push_synthetic(&mut self, response: Response) {
        self.slots.push_back(Arc::new(Slot {
            cell: Mutex::new(Some(response)),
            op: "",
            started: Instant::now(),
            observed: false,
        }));
    }

    /// Queue the shutdown bye (idempotent via `closing`).
    fn begin_shutdown(&mut self) {
        if self.closing {
            return;
        }
        self.push_synthetic(Response::Bye {
            reason: "shutdown".to_string(),
        });
        self.closing = true;
    }

    /// Whether the shard may read more bytes from this peer.
    fn may_read(&self, max_inflight: usize) -> bool {
        !self.closing
            && !self.peer_eof
            && self.deferred.is_none()
            && self.slots.len() < max_inflight
    }

    /// When the idle clock expires, if it runs. Only a connection with
    /// nothing pending in either direction can be idle (a request being
    /// computed, or a reply mid-flush, is activity: the clock only runs
    /// while waiting for the next line).
    fn idle_deadline(&self, idle_timeout: Duration) -> Option<Instant> {
        if self.closing
            || !self.slots.is_empty()
            || self.write_buf.len() != self.write_pos
            || self.deferred.is_some()
        {
            return None;
        }
        self.last_activity.checked_add(idle_timeout)
    }

    /// One service pass: retry deferred work, read + decode, check the
    /// idle clock, drain completed slots, flush the write buffer. Reads
    /// go through the shard's one `chunk` buffer.
    fn tick(
        &mut self,
        handler: &dyn EventHandler,
        opts: &EventLoopOptions,
        chunk: &mut [u8],
    ) -> Tick {
        let max_inflight = opts.max_inflight_per_conn.max(1);
        let mut moved = false;

        // Re-offer a parked compute job before anything else: its slot
        // is already in the queue and everything behind it is waiting.
        if let Some(job) = self.deferred.take() {
            match handler.retry(job) {
                Ok(()) => moved = true,
                Err(job) => self.deferred = Some(job),
            }
        }

        // Read until the socket would block, while the in-flight cap
        // allows.
        while self.readable && self.may_read(max_inflight) {
            match self.stream.read(chunk) {
                Ok(0) => {
                    self.peer_eof = true;
                    moved = true;
                }
                Ok(n) => {
                    moved = true;
                    self.last_activity = Instant::now();
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    if self.decode_frames(handler, &opts.limits, max_inflight) {
                        return Tick::Closed;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => self.readable = false,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Tick::Closed,
            }
        }

        // Frames buffered past the in-flight cap (or behind a deferred
        // job) were left undecoded by the read path; pick them up as
        // slots free, even when the peer sends nothing further.
        if !self.closing
            && self.deferred.is_none()
            && !self.read_buf.is_empty()
            && self.slots.len() < max_inflight
        {
            let buffered = self.read_buf.len();
            if self.decode_frames(handler, &opts.limits, max_inflight) {
                return Tick::Closed;
            }
            moved |= self.read_buf.len() != buffered;
        }

        // Peer EOF: only once no complete buffered frame remains can
        // the leftover be judged (a partial frame is truncated; bare
        // whitespace is a clean hangup).
        if self.peer_eof && !self.closing && !self.read_buf.contains(&b'\n') {
            self.on_eof(handler);
        }

        if self
            .idle_deadline(opts.limits.idle_timeout)
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            handler.conn_event(ConnEvent::IdleClose);
            self.push_synthetic(Response::Bye {
                reason: "idle timeout".to_string(),
            });
            self.closing = true;
        }

        // Drain completed slots, strictly in order, into the write
        // buffer.
        while let Some(front) = self.slots.front() {
            let response = front.cell.lock().take();
            let Some(response) = response else { break };
            let front = self.slots.pop_front().expect("front exists");
            moved = true;
            if front.observed {
                let ok = !matches!(response, Response::Error { .. });
                let us = front
                    .started
                    .elapsed()
                    .as_micros()
                    .min(u128::from(u64::MAX)) as u64;
                handler.observe(front.op, us, ok);
            }
            if let Response::Bye { reason } = &response {
                if !self.closing && reason == "shutdown" {
                    // A served shutdown request: tell the daemon once
                    // the bye is queued.
                    handler.wants_shutdown();
                }
                self.closing = true;
            }
            let mut line = response.encode();
            line.push('\n');
            self.write_buf.extend_from_slice(line.as_bytes());
        }

        // Flush as much of the write buffer as the socket accepts; an
        // `EPOLLOUT` edge resumes the rest.
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Tick::Closed,
                Ok(n) => {
                    self.write_pos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Tick::Closed,
            }
        }
        if self.write_pos == self.write_buf.len() && self.write_pos > 0 {
            self.write_buf.clear();
            self.write_pos = 0;
        }

        // Fully drained and told to close (or the peer hung up cleanly
        // with nothing left to answer): done.
        if (self.closing || self.peer_eof)
            && self.slots.is_empty()
            && self.deferred.is_none()
            && self.write_buf.len() == self.write_pos
        {
            return Tick::Closed;
        }
        Tick::Alive { moved }
    }

    /// EOF from the peer: leftover bytes are a truncated frame,
    /// whitespace-only leftovers a clean hangup.
    fn on_eof(&mut self, handler: &dyn EventHandler) {
        if self.closing {
            return;
        }
        let leftover = &self.read_buf[..];
        if !leftover.iter().all(|b| b.is_ascii_whitespace()) {
            handler.conn_event(ConnEvent::TruncatedFrame);
            self.push_synthetic(Response::error(
                "malformed request: truncated frame (EOF before newline)",
            ));
            self.closing = true;
        }
        self.read_buf.clear();
        self.scan_from = 0;
    }

    /// Decode every complete frame in the read buffer (bounded by the
    /// in-flight cap and the lifecycle limits). Returns `true` on a
    /// fatal framing failure (the connection must close with no reply).
    fn decode_frames(
        &mut self,
        handler: &dyn EventHandler,
        limits: &ConnLimits,
        max_inflight: usize,
    ) -> bool {
        loop {
            if self.closing || self.deferred.is_some() || self.slots.len() >= max_inflight {
                return false;
            }
            let nl = self.read_buf[self.scan_from..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|p| self.scan_from + p);
            let Some(nl) = nl else {
                // No complete frame. A partial frame that already blew
                // the cap is answered and closed right now — `read_buf`
                // growth is bounded no matter what arrives.
                if self.read_buf.len() > limits.max_line_bytes {
                    self.oversize(handler, limits);
                }
                self.scan_from = self.read_buf.len();
                return false;
            };
            // Frame length includes the newline.
            if nl + 1 > limits.max_line_bytes {
                self.oversize(handler, limits);
                return false;
            }
            let line: Vec<u8> = self.read_buf.drain(..=nl).collect();
            self.scan_from = 0;
            let Ok(text) = std::str::from_utf8(&line) else {
                // Invalid UTF-8 is not protocol text: close without a
                // reply.
                return true;
            };
            if text.trim().is_empty() {
                continue;
            }
            self.served += 1;
            if self.served > limits.max_requests_per_conn {
                handler.conn_event(ConnEvent::OverLimitClose);
                self.push_synthetic(Response::Bye {
                    reason: "request limit".to_string(),
                });
                self.closing = true;
                return false;
            }
            let started = Instant::now();
            match Request::decode(text.trim_end()) {
                Ok(req) => {
                    let slot = Arc::new(Slot {
                        cell: Mutex::new(None),
                        op: req.op(),
                        started,
                        observed: true,
                    });
                    self.slots.push_back(Arc::clone(&slot));
                    match handler.dispatch(
                        req,
                        Responder {
                            slot: Some(slot),
                            wake: Arc::clone(&self.wake),
                        },
                    ) {
                        Dispatch::Accepted => {}
                        Dispatch::Busy(job) => self.deferred = Some(job),
                    }
                }
                Err(e) => {
                    // The prefix is load-bearing: a correct client knows
                    // its frame was well-formed, so `malformed request`
                    // proves in-flight corruption and is safe to retry
                    // (see `RetryPolicy::is_retryable`).
                    let slot = Arc::new(Slot {
                        cell: Mutex::new(Some(Response::error(format!("malformed request: {e}")))),
                        op: "malformed",
                        started,
                        observed: true,
                    });
                    self.slots.push_back(slot);
                }
            }
        }
    }

    fn oversize(&mut self, handler: &dyn EventHandler, limits: &ConnLimits) {
        handler.conn_event(ConnEvent::OversizeClose);
        self.push_synthetic(Response::error(format!(
            "malformed request: line exceeds {} bytes",
            limits.max_line_bytes
        )));
        self.closing = true;
        self.read_buf.clear();
        self.scan_from = 0;
    }
}

/// A shard's connections by token. The low 32 bits of a token index
/// `entries`; the high 32 bits are the entry's generation, bumped on
/// every removal, so a token that outlives its connection misses.
#[derive(Default)]
struct Slab {
    entries: Vec<(u32, Option<Conn>)>,
    free: Vec<usize>,
    len: usize,
}

impl Slab {
    fn get_mut(&mut self, token: u64) -> Option<&mut Conn> {
        let (generation, conn) = self.entries.get_mut((token & 0xffff_ffff) as usize)?;
        if u64::from(*generation) == token >> 32 {
            conn.as_mut()
        } else {
            None
        }
    }

    /// Take ownership of a stream and register it with the shard's
    /// poller.
    fn adopt(&mut self, stream: TcpStream, shard: &Arc<Wake>) -> io::Result<u64> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let idx = self.free.pop().unwrap_or_else(|| {
            self.entries.push((0, None));
            self.entries.len() - 1
        });
        let token = u64::from(self.entries[idx].0) << 32 | idx as u64;
        if let Err(e) = shard.poller.register(&stream, token) {
            self.free.push(idx);
            return Err(e);
        }
        let wake = Arc::new(ConnWake {
            token,
            queued: AtomicBool::new(false),
            shard: Arc::clone(shard),
        });
        self.entries[idx].1 = Some(Conn::new(stream, wake));
        self.len += 1;
        Ok(token)
    }

    /// Drop a connection. Closing its stream also removes it from the
    /// epoll set.
    fn remove(&mut self, token: u64) {
        let idx = (token & 0xffff_ffff) as usize;
        let (generation, conn) = &mut self.entries[idx];
        *generation = generation.wrapping_add(1);
        *conn = None;
        self.free.push(idx);
        self.len -= 1;
    }

    fn tokens(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(idx, (generation, conn))| {
                conn.as_ref()
                    .map(|_| u64::from(*generation) << 32 | idx as u64)
            })
    }
}

/// Create one shard: the loop half, to run on its own thread, and the
/// handle other threads wake it through.
fn shard() -> io::Result<(ShardHandle, Shard)> {
    let wake = Arc::new(Wake {
        ready: Mutex::new(Vec::new()),
        inbox: Mutex::new(Some(Vec::new())),
        // The shard starts awake.
        armed: AtomicBool::new(true),
        poller: sys::Poller::new(WAKE_TOKEN)?,
    });
    Ok((
        ShardHandle(Arc::clone(&wake)),
        Shard {
            wake,
            acceptor: None,
        },
    ))
}

/// The listening half of the first shard.
struct Acceptor {
    listener: TcpListener,
    /// Every shard, this one first; new connections go round-robin.
    shards: Vec<ShardHandle>,
    next: usize,
    max_connections: usize,
}

impl Acceptor {
    /// Accept the pending connections (at most [`MAX_EVENTS`] a pass;
    /// the level-triggered listener reports the rest). Past the cap a
    /// connection gets `bye (connection limit)`; the others are dealt
    /// round-robin, and this shard's share is returned.
    fn accept(&mut self, handler: &dyn EventHandler, live: &AtomicUsize) -> Vec<TcpStream> {
        let mut mine = Vec::new();
        for _ in 0..MAX_EVENTS {
            let mut stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Drained (`WouldBlock`), or out of descriptors: the
                // listener stays readable and is reported again.
                Err(_) => break,
            };
            if live.load(Ordering::SeqCst) >= self.max_connections {
                handler.conn_event(ConnEvent::Rejected);
                let _ = write_response(
                    &mut stream,
                    &Response::Bye {
                        reason: "connection limit".to_string(),
                    },
                );
                continue;
            }
            handler.conn_event(ConnEvent::Accepted);
            live.fetch_add(1, Ordering::SeqCst);
            let target = self.next % self.shards.len();
            self.next = self.next.wrapping_add(1);
            if target == 0 {
                mine.push(stream);
            } else if let Err(mut stream) = self.shards[target].hand_off(stream) {
                // The shard is gone (only plausible during shutdown):
                // degrade with a reply, not a panic.
                live.fetch_sub(1, Ordering::SeqCst);
                handler.conn_event(ConnEvent::Rejected);
                let _ = write_response(
                    &mut stream,
                    &Response::error("server overloaded: event loop unavailable"),
                );
            }
        }
        mine
    }
}

/// The loop half of one shard.
struct Shard {
    wake: Arc<Wake>,
    /// The first shard's listener.
    acceptor: Option<Acceptor>,
}

impl Shard {
    /// Serve connections until the daemon's `shutdown` flag is set and
    /// [`ShardHandle::wake`] has woken the shard, keeping `live` in sync
    /// so the admission check and `tracked_connections` see the true
    /// count.
    fn run(
        self,
        handler: &Arc<dyn EventHandler>,
        opts: &EventLoopOptions,
        shutdown: &AtomicBool,
        live: &AtomicUsize,
    ) {
        let handler = handler.as_ref();
        let wake = &self.wake;
        let mut acceptor = self.acceptor;
        let mut accept_ready = false;
        let mut conns = Slab::default();
        let mut chunk = vec![0u8; READ_CHUNK];
        let mut events = vec![sys::Event::default(); MAX_EVENTS];
        // Tokens to tick this round; tokens whose pass made progress;
        // tokens holding a job the full pool refused.
        let (mut todo, mut again, mut retry) = (Vec::new(), Vec::new(), Vec::new());
        let mut next_idle: Option<Instant> = None;
        let mut shutdown_deadline: Option<Instant> = None;
        let mut round = 0u64;
        loop {
            round += 1;
            if shutdown_deadline.is_none() && shutdown.load(Ordering::SeqCst) {
                shutdown_deadline = Some(Instant::now() + SHUTDOWN_GRACE);
                todo.extend(conns.tokens());
                // Closing the listener stops accepting and takes it out
                // of the epoll set.
                acceptor = None;
            }
            let mut handed = wake
                .inbox
                .lock()
                .as_mut()
                .map(std::mem::take)
                .unwrap_or_default();
            if std::mem::take(&mut accept_ready) {
                if let Some(acceptor) = acceptor.as_mut() {
                    handed.extend(acceptor.accept(handler, live));
                }
            }
            for stream in handed {
                match conns.adopt(stream, wake) {
                    Ok(token) => todo.push(token),
                    Err(_) => {
                        live.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
            if next_idle.is_some_and(|deadline| Instant::now() >= deadline) {
                next_idle = None;
                todo.extend(conns.tokens());
            }
            todo.append(&mut retry);

            for token in todo.drain(..) {
                let Some(conn) = conns.get_mut(token) else {
                    continue; // closed since the token was queued
                };
                if conn.round == round {
                    continue;
                }
                conn.round = round;
                if shutdown_deadline.is_some() {
                    conn.begin_shutdown();
                }
                // Cleared before the pass: a slot completed after the
                // pass has looked at it queues the token again.
                conn.wake.queued.store(false, Ordering::SeqCst);
                match conn.tick(handler, opts, &mut chunk) {
                    Tick::Closed => {
                        conns.remove(token);
                        live.fetch_sub(1, Ordering::SeqCst);
                    }
                    Tick::Alive { moved } => {
                        if moved {
                            again.push(token);
                        }
                        if conn.deferred.is_some() {
                            retry.push(token);
                        }
                        if let Some(deadline) = conn.idle_deadline(opts.limits.idle_timeout) {
                            next_idle = Some(next_idle.map_or(deadline, |d| d.min(deadline)));
                        }
                    }
                }
            }

            if let Some(deadline) = shutdown_deadline {
                if conns.len == 0 || Instant::now() >= deadline {
                    let orphans = wake.inbox.lock().take().map_or(0, |v| v.len());
                    live.fetch_sub(conns.len + orphans, Ordering::SeqCst);
                    return;
                }
            }

            // Block only when no pass left work behind. Disarm first,
            // then look once more at everything a notifier publishes
            // before it reads the flag: whatever lands after this look
            // finds the waker disarmed and writes the eventfd.
            let timeout = if again.is_empty() {
                wake.armed.store(false, Ordering::SeqCst);
                let pending = !wake.ready.lock().is_empty()
                    || wake.inbox.lock().as_ref().is_some_and(|v| !v.is_empty())
                    || (shutdown_deadline.is_none() && shutdown.load(Ordering::SeqCst));
                let retry_at = (!retry.is_empty()).then(|| Instant::now() + RETRY_TICK);
                match [next_idle, shutdown_deadline, retry_at]
                    .into_iter()
                    .flatten()
                    .min()
                {
                    _ if pending => Some(Duration::ZERO),
                    Some(deadline) => Some(deadline.saturating_duration_since(Instant::now())),
                    None => None,
                }
            } else {
                Some(Duration::ZERO)
            };
            let n = wake.poller.wait(&mut events, timeout);
            wake.armed.store(true, Ordering::SeqCst);
            for event in &events[..n] {
                let token = event.token();
                if token == WAKE_TOKEN {
                    wake.poller.drain_wake();
                    continue;
                }
                if token == LISTEN_TOKEN {
                    accept_ready = true;
                    continue;
                }
                if event.has_input() {
                    if let Some(conn) = conns.get_mut(token) {
                        conn.readable = true;
                    }
                }
                todo.push(token);
            }
            todo.append(&mut again);
            todo.append(&mut wake.ready.lock());
        }
    }
}

/// The daemon-wide stop switch: set once, it wakes every shard.
#[derive(Default)]
pub struct Shutdown {
    requested: AtomicBool,
    shards: OnceLock<Vec<ShardHandle>>,
}

impl Shutdown {
    /// Stop the daemon: the listener closes, and every shard answers
    /// its connections `bye (shutdown)` and exits.
    pub fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
        for shard in self.shards.get().into_iter().flatten() {
            shard.wake();
        }
    }

    /// The flag [`Shutdown::request`] sets, for loops that poll it.
    pub fn flag(&self) -> &AtomicBool {
        &self.requested
    }
}

/// Shard threads for a configured count: `0` means one per host core,
/// capped at 4 (the loops are I/O-bound).
pub fn auto_loops(configured: usize) -> usize {
    match configured {
        0 => std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(4),
        n => n,
    }
}

/// A running event core: its shards.
pub struct EventCore {
    loops: Vec<JoinHandle<()>>,
    live: Arc<AtomicUsize>,
}

impl EventCore {
    /// Serve `listener` with `loops` shards (threads named after
    /// `name`) until `shutdown` is requested. At most `max_connections`
    /// connections are live at once; every accept and rejection is
    /// reported to the handler.
    pub fn start(
        name: &str,
        listener: TcpListener,
        handler: Arc<dyn EventHandler>,
        opts: EventLoopOptions,
        loops: usize,
        max_connections: usize,
        shutdown: &Arc<Shutdown>,
    ) -> io::Result<Self> {
        let (handles, mut shards): (Vec<_>, Vec<_>) = (0..loops.max(1))
            .map(|_| shard())
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .unzip();
        listener.set_nonblocking(true)?;
        shards[0].wake.poller.listen(&listener, LISTEN_TOKEN)?;
        shards[0].acceptor = Some(Acceptor {
            listener,
            shards: handles.clone(),
            next: 0,
            max_connections,
        });
        let _ = shutdown.shards.set(handles);
        let live = Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::with_capacity(shards.len());
        for (i, shard) in shards.into_iter().enumerate() {
            let (handler, live, shutdown) = (
                Arc::clone(&handler),
                Arc::clone(&live),
                Arc::clone(shutdown),
            );
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{name}-loop-{i}"))
                    .spawn(move || shard.run(&handler, &opts, &shutdown.requested, &live))?,
            );
        }
        Ok(Self {
            loops: threads,
            live,
        })
    }

    /// Connections currently owned by the shards.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Wait for the shards to exit (they do once the shutdown is
    /// requested, after flushing in-flight replies for at most a grace
    /// period).
    pub fn join(&mut self) {
        for h in self.loops.drain(..) {
            let _ = h.join();
        }
    }
}

/// Encode `response` and write it as one newline-terminated frame on a
/// freshly accepted (still blocking) stream.
fn write_response(writer: &mut TcpStream, response: &Response) -> io::Result<()> {
    let mut line = response.encode();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Epoll and eventfd through std-only `extern "C"` declarations.
#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::c_void;
    use std::io;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLET: u32 = 1 << 31;
    const EPOLL_CTL_ADD: i32 = 1;
    /// `EPOLL_CLOEXEC` and `EFD_CLOEXEC` (both `O_CLOEXEC`).
    const CLOEXEC: i32 = 0o2_000_000;
    /// `EFD_NONBLOCK` (`O_NONBLOCK`).
    const NONBLOCK: i32 = 0o4_000;

    /// `struct epoll_event`, which the x86-64 ABI packs.
    #[derive(Clone, Copy, Default)]
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    pub struct Event {
        events: u32,
        data: u64,
    }

    impl Event {
        pub fn token(self) -> u64 {
            self.data
        }

        /// Bytes, EOF or an error wait to be read.
        pub fn has_input(self) -> bool {
            self.events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0
        }
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
        fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: i32, buf: *const c_void, count: usize) -> isize;
    }

    fn owned(rc: i32) -> io::Result<OwnedFd> {
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            // SAFETY: a nonnegative return is a fresh descriptor we own.
            Ok(unsafe { OwnedFd::from_raw_fd(rc) })
        }
    }

    /// An epoll instance with an eventfd registered level-triggered
    /// under the wake token.
    pub struct Poller {
        epoll: OwnedFd,
        wake: OwnedFd,
    }

    impl Poller {
        pub fn new(wake_token: u64) -> io::Result<Self> {
            // SAFETY: plain syscalls on integer arguments.
            let epoll = owned(unsafe { epoll_create1(CLOEXEC) })?;
            let wake = owned(unsafe { eventfd(0, CLOEXEC | NONBLOCK) })?;
            let poller = Self { epoll, wake };
            poller.add(poller.wake.as_raw_fd(), EPOLLIN, wake_token)?;
            Ok(poller)
        }

        fn add(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
            let mut event = Event {
                events,
                data: token,
            };
            // SAFETY: `event` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epoll.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Watch a stream edge-triggered for input, output and hangup.
        pub fn register(&self, stream: &TcpStream, token: u64) -> io::Result<()> {
            let events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
            self.add(stream.as_raw_fd(), events, token)
        }

        /// Watch a listening socket, level-triggered: it is reported
        /// for as long as connections wait to be accepted.
        pub fn listen(&self, listener: &TcpListener, token: u64) -> io::Result<()> {
            self.add(listener.as_raw_fd(), EPOLLIN, token)
        }

        /// Block until readiness or the timeout (`None`: no timeout),
        /// rounded up to whole milliseconds so a deadline is never
        /// undershot. Returns the number of events filled in.
        pub fn wait(&self, events: &mut [Event], timeout: Option<Duration>) -> usize {
            let ms = timeout.map_or(-1, |t| {
                i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
            });
            let max = i32::try_from(events.len()).unwrap_or(i32::MAX);
            // SAFETY: the kernel writes at most `max` events into the
            // buffer, which holds `events.len()`.
            let rc = unsafe { epoll_wait(self.epoll.as_raw_fd(), events.as_mut_ptr(), max, ms) };
            // -1 is EINTR here (the arguments are valid): a spurious
            // wakeup.
            usize::try_from(rc).unwrap_or(0)
        }

        /// Post a wakeup. A full counter (never reached) still reads as
        /// readable, so a failed write loses nothing.
        pub fn wake(&self) {
            let one = 1u64;
            // SAFETY: writes 8 bytes from a live u64.
            unsafe { write(self.wake.as_raw_fd(), (&one as *const u64).cast(), 8) };
        }

        /// Reset the eventfd after it was reported readable.
        pub fn drain_wake(&self) {
            let mut count = 0u64;
            // SAFETY: reads 8 bytes into a live u64.
            unsafe { read(self.wake.as_raw_fd(), (&mut count as *mut u64).cast(), 8) };
        }
    }
}

/// The event core needs epoll: elsewhere creating a shard fails, and
/// the daemon reports it at start.
#[cfg(not(target_os = "linux"))]
mod sys {
    use std::io;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    #[derive(Clone, Copy, Default)]
    pub struct Event;

    impl Event {
        pub fn token(self) -> u64 {
            0
        }

        pub fn has_input(self) -> bool {
            false
        }
    }

    pub enum Poller {}

    impl Poller {
        pub fn new(_wake_token: u64) -> io::Result<Self> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the event core needs Linux epoll",
            ))
        }

        pub fn register(&self, _stream: &TcpStream, _token: u64) -> io::Result<()> {
            match *self {}
        }

        pub fn listen(&self, _listener: &TcpListener, _token: u64) -> io::Result<()> {
            match *self {}
        }

        pub fn wait(&self, _events: &mut [Event], _timeout: Option<Duration>) -> usize {
            match *self {}
        }

        pub fn wake(&self) {
            match *self {}
        }

        pub fn drain_wake(&self) {
            match *self {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::SocketAddr;
    use std::sync::mpsc;

    /// Every client read in these tests gives up after this long, so a
    /// missing wakeup fails the test instead of hanging it.
    const DEADLINE: Duration = Duration::from_secs(10);

    impl Responder {
        /// A responder on no connection, and a probe that takes the reply
        /// once something completes it.
        pub(crate) fn detached() -> (Self, impl Fn() -> Option<Response>) {
            let (handle, _shard) = shard().expect("the event core runs here");
            let slot = Arc::new(Slot {
                cell: Mutex::new(None),
                op: "detached",
                started: Instant::now(),
                observed: true,
            });
            let wake = Arc::new(ConnWake {
                token: 0,
                queued: AtomicBool::new(false),
                shard: handle.0,
            });
            let probe = Arc::clone(&slot);
            (
                Self {
                    slot: Some(slot),
                    wake,
                },
                move || probe.cell.lock().take(),
            )
        }
    }

    /// A handler that answers pings inline and never offloads.
    struct Echo;
    impl EventHandler for Echo {
        fn dispatch(&self, req: Request, responder: Responder) -> Dispatch {
            let resp = match req {
                Request::Ping => Response::Pong,
                Request::Shutdown => Response::Bye {
                    reason: "shutdown".to_string(),
                },
                _ => Response::error("echo handler only pings"),
            };
            responder.complete(resp);
            Dispatch::Accepted
        }
        fn retry(&self, _job: Job) -> Result<(), Job> {
            Ok(())
        }
        fn observe(&self, _op: &'static str, _us: u64, _ok: bool) {}
        fn conn_event(&self, _ev: ConnEvent) {}
        fn wants_shutdown(&self) {}
    }

    /// A handler that hands every responder to the test, numbered in
    /// dispatch order, to be completed off the loop thread.
    struct Offload(Mutex<(usize, mpsc::Sender<(usize, Responder)>)>);
    impl EventHandler for Offload {
        fn dispatch(&self, _req: Request, responder: Responder) -> Dispatch {
            let mut guard = self.0.lock();
            let (next, tx) = &mut *guard;
            tx.send((*next, responder))
                .expect("the test holds the receiver");
            *next += 1;
            Dispatch::Accepted
        }
        fn retry(&self, _job: Job) -> Result<(), Job> {
            Ok(())
        }
        fn observe(&self, _op: &'static str, _us: u64, _ok: bool) {}
        fn conn_event(&self, _ev: ConnEvent) {}
        fn wants_shutdown(&self) {}
    }

    /// A one-shard event core on an ephemeral port.
    struct Harness {
        addr: SocketAddr,
        shutdown: Arc<Shutdown>,
        core: EventCore,
        /// The shard thread's kernel thread id.
        tid: u32,
    }

    impl Harness {
        fn start(handler: Arc<dyn EventHandler>, opts: EventLoopOptions) -> Self {
            // A process-unique thread name, so the shard's thread id
            // can be found under /proc while other tests run.
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let name = format!("h{}", NEXT.fetch_add(1, Ordering::SeqCst));
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let shutdown = Arc::new(Shutdown::default());
            let core =
                EventCore::start(&name, listener, handler, opts, 1, 1024, &shutdown).unwrap();
            let comm = format!("{name}-loop-0\n");
            let until = Instant::now() + DEADLINE;
            let tid = loop {
                let found = std::fs::read_dir("/proc/self/task")
                    .unwrap()
                    .find_map(|task| {
                        let path = task.ok()?.path();
                        let named = std::fs::read_to_string(path.join("comm")).ok()? == comm;
                        named.then(|| path.file_name()?.to_str()?.parse().ok())?
                    });
                if let Some(tid) = found {
                    break tid;
                }
                assert!(Instant::now() < until, "the shard thread never started");
                std::thread::sleep(Duration::from_millis(1));
            };
            Self {
                addr,
                shutdown,
                core,
                tid,
            }
        }

        fn connect(&self) -> (TcpStream, BufReader<TcpStream>) {
            let stream = TcpStream::connect(self.addr).unwrap();
            stream.set_read_timeout(Some(DEADLINE)).unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            (stream, reader)
        }

        /// Wait (under the deadline) until the shard thread is blocked
        /// in `epoll_wait`. Kernels that hide `wchan` end the wait at
        /// the deadline; the caller's checks still hold.
        fn wait_until_parked(&self) {
            let wchan = format!("/proc/self/task/{}/wchan", self.tid);
            let until = Instant::now() + DEADLINE;
            while Instant::now() < until {
                if std::fs::read_to_string(&wchan).is_ok_and(|w| w == "ep_poll") {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        /// Stop the core, failing if the shard does not exit within the
        /// deadline.
        fn stop(self) {
            self.shutdown.request();
            let (done_tx, done_rx) = mpsc::channel();
            let mut core = self.core;
            let joiner = std::thread::spawn(move || {
                core.join();
                let _ = done_tx.send(());
            });
            assert_eq!(done_rx.recv_timeout(DEADLINE), Ok(()), "shard exits");
            joiner.join().unwrap();
        }
    }

    fn opts(limits: ConnLimits) -> EventLoopOptions {
        EventLoopOptions {
            limits,
            max_inflight_per_conn: 32,
        }
    }

    fn roomy() -> ConnLimits {
        ConnLimits {
            max_requests_per_conn: 1000,
            max_line_bytes: 1 << 20,
            idle_timeout: Duration::from_secs(30),
        }
    }

    fn read_line(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("a reply before the deadline");
        line
    }

    #[test]
    fn pipelined_pings_come_back_in_order() {
        let h = Harness::start(Arc::new(Echo), opts(roomy()));
        let (mut stream, mut reader) = h.connect();
        let burst = "{\"op\":\"ping\"}\n".repeat(50);
        stream.write_all(burst.as_bytes()).unwrap();
        for _ in 0..50 {
            let line = read_line(&mut reader);
            assert!(line.contains("pong"), "got {line:?}");
        }
        drop(reader);
        drop(stream);
        h.stop();
    }

    #[test]
    fn oversize_mid_pipeline_answers_pending_then_errors() {
        let h = Harness::start(
            Arc::new(Echo),
            opts(ConnLimits {
                max_line_bytes: 64,
                ..roomy()
            }),
        );
        let (mut stream, mut reader) = h.connect();
        let mut burst = String::from("{\"op\":\"ping\"}\n");
        burst.push_str(&"x".repeat(200));
        burst.push('\n');
        stream.write_all(burst.as_bytes()).unwrap();
        let line = read_line(&mut reader);
        assert!(line.contains("pong"), "got {line:?}");
        let line = read_line(&mut reader);
        assert!(line.contains("exceeds 64 bytes"), "got {line:?}");
        assert_eq!(read_line(&mut reader), "", "closed after");
        h.stop();
    }

    #[test]
    fn offthread_completion_wakes_an_idle_shard() {
        let (tx, rx) = mpsc::channel();
        let h = Harness::start(Arc::new(Offload(Mutex::new((0, tx)))), opts(roomy()));
        let (mut stream, mut reader) = h.connect();
        stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        let (_, responder) = rx.recv_timeout(DEADLINE).unwrap();
        // The shard has nothing left to do and blocks with no timeout;
        // only the completion's wakeup can get the reply out.
        h.wait_until_parked();
        std::thread::spawn(move || responder.complete(Response::Pong))
            .join()
            .unwrap();
        let line = read_line(&mut reader);
        assert!(line.contains("pong"), "got {line:?}");
        drop(stream);
        h.stop();
    }

    #[test]
    fn offthread_burst_past_the_inflight_cap_comes_back_whole_and_in_order() {
        const CAP: usize = 4;
        const BURST: usize = 4 * CAP;
        let (tx, rx) = mpsc::channel();
        let h = Harness::start(
            Arc::new(Offload(Mutex::new((0, tx)))),
            EventLoopOptions {
                limits: roomy(),
                max_inflight_per_conn: CAP,
            },
        );
        let (mut stream, mut reader) = h.connect();
        stream
            .write_all("{\"op\":\"ping\"}\n".repeat(BURST).as_bytes())
            .unwrap();
        // Complete from another thread, each window of up to CAP in
        // reverse, so slots fill out of order and the flush must wait
        // for the front.
        let completer = std::thread::spawn(move || {
            let mut done = 0;
            while done < BURST {
                let mut window = vec![rx.recv_timeout(DEADLINE).unwrap()];
                while let Ok(next) = rx.try_recv() {
                    window.push(next);
                }
                done += window.len();
                for (n, responder) in window.into_iter().rev() {
                    responder.complete(Response::error(format!("reply {n}")));
                }
            }
        });
        for n in 0..BURST {
            let line = read_line(&mut reader);
            assert!(
                line.contains(&format!("reply {n}\"")),
                "reply {n}: got {line:?}"
            );
        }
        completer.join().unwrap();
        drop(stream);
        h.stop();
    }

    #[test]
    fn an_idle_shard_shuts_down_promptly() {
        let h = Harness::start(Arc::new(Echo), opts(roomy()));
        let (mut stream, mut reader) = h.connect();
        // One round trip proves the shard owns the connection.
        stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        assert!(read_line(&mut reader).contains("pong"));
        h.wait_until_parked();
        h.stop();
        let line = read_line(&mut reader);
        assert!(line.contains("shutdown"), "got {line:?}");
    }
}
