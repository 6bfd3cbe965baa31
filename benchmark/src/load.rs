//! Closed-loop load from one process: [`CLIENTS`] threads, one
//! connection each. Every loop waits for its reply (or keeps a fixed
//! window of frames in flight), as every real client of the service
//! does. Requests are encoded with `Request::encode` and replies parsed
//! with `Response::decode` on a raw socket, so each exchange can be
//! split into encode / write / wait / decode spans.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use folearn_obs::Json;
use folearn_server::{Request, Response, TraceContext};

use crate::inputs::CLIENTS;
use crate::procfs;
use crate::spans::{Slices, SpanLog};

/// Reply lines a traced client keeps for the decode replay.
const KEPT_REPLIES: usize = 1000;
/// One traced solve in this many carries a trace context, so the
/// daemon binds its span subtree under the client's `wait` span.
const TRACE_SAMPLE: usize = 64;
/// Why a scheduled request failed without being sent.
pub const NOT_STARTED: &str = "not started before the wall-clock guard";

/// A reply check's judgement.
pub enum Verdict {
    /// Compared against the reference and equal.
    Pass,
    /// Wrong answer (counted as a failed request).
    Wrong(String),
}

/// Checks reply `i` of a client's schedule against its reference.
pub type Check<'a> = dyn Fn(usize, &Response) -> Verdict + Sync + 'a;

/// What one client thread observed.
pub struct ClientLog {
    /// Latency of every attempted request, µs; `INFINITY` when failed.
    pub lat_us: Vec<f64>,
    /// Requests that failed: transport, server error, or wrong answer.
    pub failed: u64,
    /// Replies compared against a reference answer and found equal.
    pub checked: u64,
    /// Time spent waiting on the daemon (socket writes and reads, or
    /// oracle calls), ns.
    pub busy_ns: u64,
    /// The thread's whole loop, ns.
    pub wall_ns: u64,
    /// Sum and count of successful solve latencies, µs.
    pub solve_us: (f64, u64),
    /// Reply bytes received and replies counted.
    pub reply_bytes: (u64, u64),
    /// The first reply lines (traced runs only), for the decode replay.
    pub kept_replies: Vec<String>,
    /// Successful requests started in untraced and in traced slices.
    pub done: [u64; 2],
    /// Spans (traced slices only).
    pub spans: SpanLog,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

impl ClientLog {
    /// An empty log for client `client`.
    pub fn new(client: usize) -> Self {
        Self {
            lat_us: Vec::new(),
            failed: 0,
            checked: 0,
            busy_ns: 0,
            wall_ns: 0,
            solve_us: (0.0, 0),
            reply_bytes: (0, 0),
            kept_replies: Vec::new(),
            done: [0, 0],
            spans: SpanLog::new(client),
            errors: Vec::new(),
        }
    }

    /// Record a failed request.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.lat_us.push(f64::INFINITY);
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    /// Record a successful request of `us` microseconds.
    pub fn ok(&mut self, us: f64, solve: bool, traced: bool) {
        self.lat_us.push(us);
        self.done[usize::from(traced)] += 1;
        if solve {
            self.solve_us.0 += us;
            self.solve_us.1 += 1;
        }
    }
}

/// The shared clock of one timed phase.
pub struct Phase {
    /// When the phase began (span offsets are relative to it).
    pub start: Instant,
    /// No request starts after this: the wall-clock guard on a
    /// fixed-count run.
    pub deadline: Instant,
    /// Traced runs alternate untraced and traced slices.
    pub slices: Option<Slices>,
}

impl Phase {
    /// Whether a request starting at `at` records spans.
    pub fn traced(&self, at: Instant) -> bool {
        self.slices.is_some_and(|s| s.traced(at))
    }

    /// Nanoseconds from the phase start to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.start).as_nanos() as u64
    }
}

/// Process-level observations over a timed phase.
pub struct PhaseStats {
    /// Wall time of the phase, seconds.
    pub wall_s: f64,
    /// Process CPU time spent during it, ns.
    pub cpu_ns: u64,
    /// Most threads seen (sampled every 10 ms; traced runs only).
    pub threads_peak: usize,
    /// Bytes the process sent to storage during it.
    pub write_bytes: u64,
}

/// Run `body` on [`CLIENTS`] threads and collect their logs. Stops
/// starting requests at `budget` past the start.
pub fn run_phase<F>(trace: bool, budget: Duration, body: F) -> (Vec<ClientLog>, PhaseStats)
where
    F: Fn(usize, &Phase, &mut ClientLog) + Sync,
{
    let cpu0 = procfs::process_cpu_ns();
    let io0 = procfs::storage_write_bytes();
    let start = Instant::now();
    let phase = Phase {
        start,
        deadline: start + budget,
        slices: trace.then(|| Slices::new(start, Duration::from_millis(500))),
    };
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (logs, threads_peak) = std::thread::scope(|scope| {
        let sampler = trace.then(|| {
            scope.spawn(|| {
                let mut peak = 0;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    peak = peak.max(procfs::thread_count());
                    std::thread::sleep(Duration::from_millis(10));
                }
                peak
            })
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (phase, body) = (&phase, &body);
                scope.spawn(move || {
                    let mut log = ClientLog::new(c);
                    let t = Instant::now();
                    body(c, phase, &mut log);
                    log.wall_ns = t.elapsed().as_nanos() as u64;
                    log
                })
            })
            .collect();
        let logs: Vec<ClientLog> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let peak = sampler.map_or(0, |h| h.join().expect("sampler thread panicked"));
        (logs, peak)
    });
    let stats = PhaseStats {
        wall_s: start.elapsed().as_secs_f64(),
        cpu_ns: procfs::process_cpu_ns() - cpu0,
        threads_peak,
        write_bytes: procfs::storage_write_bytes().saturating_sub(io0),
    };
    (logs, stats)
}

/// One raw protocol connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Read one reply line into `line` (cleared first).
    fn read(&mut self, line: &mut String) -> std::io::Result<()> {
        line.clear();
        if self.reader.read_line(line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(())
    }
}

/// A sampled traced solve gets a trace context naming its root span.
fn sampled<'r>(req: &'r Request, i: usize, traced: bool, root: u64) -> Cow<'r, Request> {
    match req {
        Request::Solve { .. } if traced && i % TRACE_SAMPLE == 0 => {
            let mut r = req.clone();
            if let Request::Solve { trace, .. } = &mut r {
                *trace = Some(TraceContext {
                    trace_id: root,
                    parent: root,
                });
            }
            Cow::Owned(r)
        }
        _ => Cow::Borrowed(req),
    }
}

/// Judge one decoded reply: error replies and undecodable lines fail
/// before the workload's check sees them.
fn judge(i: usize, reply: Result<Response, String>, check: &Check<'_>) -> Result<Response, String> {
    let resp = reply?;
    if let Response::Error { message, code } = &resp {
        return Err(format!("server error {code:?}: {message}"));
    }
    match check(i, &resp) {
        Verdict::Pass => Ok(resp),
        Verdict::Wrong(why) => Err(format!("wrong answer to request {i}: {why}")),
    }
}

/// The stage instants of one exchange, recorded for spans.
struct Marks {
    root: u64,
    /// When encoding and writing finished.
    at: [Instant; 2],
}

/// Book one finished exchange into the log.
#[allow(clippy::too_many_arguments)]
fn finish(
    log: &mut ClientLog,
    phase: &Phase,
    req: &Request,
    marks: Option<Marks>,
    t0: Instant,
    read_at: Instant,
    line: &str,
    verdict: Result<Response, String>,
) {
    let end = Instant::now();
    log.reply_bytes.0 += line.len() as u64;
    log.reply_bytes.1 += 1;
    let traced = marks.is_some();
    if traced && log.kept_replies.len() < KEPT_REPLIES {
        log.kept_replies.push(line.trim_end().to_string());
    }
    match verdict {
        Ok(resp) => {
            log.checked += 1;
            let us = end.duration_since(t0).as_nanos() as f64 / 1e3;
            log.ok(us, matches!(req, Request::Solve { .. }), traced);
            if let Some(m) = marks {
                let ns = [t0, m.at[0], m.at[1], read_at, end].map(|t| phase.ns(t));
                let wait = log.spans.request(m.root, ns);
                adopt_daemon_trace(log, m.root, wait, ns[2], &resp);
            }
        }
        Err(why) => log.fail(why),
    }
}

/// Attach the daemon's span subtree of a sampled, freshly computed solve.
fn adopt_daemon_trace(log: &mut ClientLog, root: u64, wait: u64, start_ns: u64, resp: &Response) {
    let Response::Solved(outcome) = resp else {
        return;
    };
    let Some(trace) = &outcome.trace else { return };
    let Ok(rec) = folearn_obs::export::span_from_json(trace) else {
        return;
    };
    let bound_here = rec
        .meta
        .iter()
        .any(|(k, v)| k == "trace_id" && v == &Json::str(format!("{root:016x}")));
    // Cache replays carry the span tree of the run that filled the
    // cache; only a tree bound to this request describes it.
    if bound_here {
        log.spans.adopt(root, wait, start_ns, &rec);
    }
}

/// One frame in flight on a pipelined connection.
struct Pending {
    i: usize,
    t0: Instant,
    marks: Option<Marks>,
}

/// Keep `window` frames in flight on one connection; replies come back
/// in request order. A window of 1 is strict request/reply. Requests the
/// wall-clock guard keeps from starting count as failed: a run's work is
/// fixed, so a run cut short must not pass for a fast one.
pub fn pipelined(
    addr: SocketAddr,
    schedule: &[Request],
    window: usize,
    check: &Check<'_>,
    phase: &Phase,
    log: &mut ClientLog,
) {
    let mut conn = None;
    let mut line = String::new();
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(window);
    let mut next = 0;
    loop {
        while inflight.len() < window && next < schedule.len() && Instant::now() < phase.deadline {
            let i = next;
            next += 1;
            let t0 = Instant::now();
            let traced = phase.traced(t0);
            let root = if traced { log.spans.id() } else { 0 };
            let mut frame = sampled(&schedule[i], i, traced, root).encode();
            frame.push('\n');
            let encoded = Instant::now();
            let c = match conn.take().map_or_else(|| Conn::open(addr), Ok) {
                Ok(c) => conn.insert(c),
                Err(e) => {
                    log.fail(format!("connect: {e}"));
                    continue;
                }
            };
            let io = c.writer.write_all(frame.as_bytes());
            let written = Instant::now();
            log.busy_ns += written.duration_since(encoded).as_nanos() as u64;
            if let Err(e) = io {
                conn = None;
                log.fail(format!("transport: {e}"));
                for _ in inflight.drain(..) {
                    log.fail("transport: connection lost with the frame in flight".into());
                }
                continue;
            }
            inflight.push_back(Pending {
                i,
                t0,
                marks: traced.then_some(Marks {
                    root,
                    at: [encoded, written],
                }),
            });
        }
        let Some(c) = conn.as_mut() else { break };
        if inflight.is_empty() {
            break;
        }
        let wait_from = Instant::now();
        let io = c.read(&mut line);
        let read_at = Instant::now();
        log.busy_ns += read_at.duration_since(wait_from).as_nanos() as u64;
        let p = inflight.pop_front().expect("checked non-empty");
        if let Err(e) = io {
            conn = None;
            log.fail(format!("transport: {e}"));
            for _ in inflight.drain(..) {
                log.fail("transport: connection lost with the frame in flight".into());
            }
            continue;
        }
        let reply =
            Response::decode(line.trim_end()).map_err(|e| format!("undecodable reply: {e}"));
        let verdict = judge(p.i, reply, check);
        finish(
            log,
            phase,
            &schedule[p.i],
            p.marks,
            p.t0,
            read_at,
            &line,
            verdict,
        );
    }
    for _ in next..schedule.len() {
        log.fail(NOT_STARTED.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_the_guard_keeps_from_starting_count_as_failed() {
        let start = Instant::now();
        let phase = Phase {
            start,
            deadline: start,
            slices: None,
        };
        // Past the deadline nothing connects, so no daemon is needed.
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let schedule = vec![Request::Ping; 5];
        let mut log = ClientLog::new(0);
        pipelined(addr, &schedule, 1, &|_, _| Verdict::Pass, &phase, &mut log);
        assert_eq!(log.failed, 5);
        assert_eq!(log.lat_us.len(), 5);
        assert!(log.lat_us.iter().all(|x| x.is_infinite()));
        assert_eq!(log.done, [0, 0]);
    }
}
