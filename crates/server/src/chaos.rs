//! A deterministic fault-injection proxy for the wire protocol.
//!
//! [`ChaosProxy`] sits between a client and a daemon on loopback,
//! forwards newline-delimited frames in both directions, and injects
//! faults — dropped, delayed, truncated, or garbled frames — under a
//! seeded RNG, so a "flaky network" run is exactly reproducible from
//! its seed. The fault tests (`remote_oracle.rs`, `cluster.rs`,
//! `loopback.rs`) drive the Lemma 7 reduction and loadgen mixes through
//! this proxy and assert the answers stay bit-identical to an
//! in-process run; the retry layer ([`crate::client::RetryingClient`])
//! is what makes that true.
//!
//! # Fault semantics
//!
//! * [`FaultKind::Drop`] — the frame is consumed and never forwarded.
//!   The waiting peer sees silence; a client with a read deadline times
//!   out and retries.
//! * [`FaultKind::Delay`] — the frame is forwarded after a fixed sleep.
//!   With a delay longer than the client's read deadline this looks
//!   like a drop that later wastes server work; shorter, it is pure
//!   added latency.
//! * [`FaultKind::Truncate`] — the first half of the frame is forwarded
//!   without its newline and the connection is torn down, so the
//!   receiver observes EOF mid-frame. The server answers with a
//!   `malformed request` error; a client sees a dead connection and
//!   reconnects.
//! * [`FaultKind::Garble`] — one payload byte is overwritten with
//!   `0x01`. A raw control byte is invalid inside a JSON string *and*
//!   invalid as structure, so the receiver is guaranteed a parse error
//!   — corruption is always detectable, never a silently different
//!   request. The server replies `malformed request: …` (retryable by
//!   construction); a client gets a protocol error and retries.
//! * [`FaultKind::Reset`] — the first half of the frame is forwarded,
//!   then the connection is aborted RST-style: `SO_LINGER(0)` on both
//!   sockets and no FIN handshake (on Linux; elsewhere the abort
//!   degrades to the truncate-style teardown). The peer sees the
//!   connection *reset* mid-frame — the "process yanked out from under
//!   the socket" shape, which is exactly what a SIGKILL'd backend looks
//!   like to its clients (experiment E24's network half).
//!
//! Frames are decided independently with probability
//! [`ChaosConfig::rate`], per direction, from a per-connection stream
//! seeded by [`ChaosConfig::seed`] — deterministic given the connection
//! order, which single-connection tests guarantee.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the proxy does to a frame it selects for injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Swallow the frame.
    Drop,
    /// Forward the frame after [`ChaosConfig::delay`].
    Delay,
    /// Forward half the frame, then tear the connection down.
    Truncate,
    /// Overwrite one payload byte with `0x01` (guaranteed parse error).
    Garble,
    /// Forward half the frame, then abort the connection without a FIN
    /// (`SO_LINGER(0)`, so the peer observes an RST).
    Reset,
}

impl FaultKind {
    /// Stable lowercase name (bench artifact keys).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Truncate => "truncate",
            FaultKind::Garble => "garble",
            FaultKind::Reset => "reset",
        }
    }
}

/// Which direction(s) of the relay inject faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Requests (client → server) only.
    ToServer,
    /// Responses (server → client) only.
    ToClient,
    /// Both directions.
    Both,
}

impl Direction {
    fn covers(self, to_server: bool) -> bool {
        match self {
            Direction::ToServer => to_server,
            Direction::ToClient => !to_server,
            Direction::Both => true,
        }
    }
}

/// Proxy configuration. `rate == 0.0` makes the proxy a transparent
/// relay.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Fault applied to selected frames.
    pub kind: FaultKind,
    /// Per-frame injection probability in `[0, 1]`.
    pub rate: f64,
    /// Sleep for [`FaultKind::Delay`]; ignored by the other kinds.
    pub delay: Duration,
    /// Which relay direction(s) inject.
    pub direction: Direction,
    /// Root seed; each connection half derives its own stream from it.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            kind: FaultKind::Drop,
            rate: 0.0,
            delay: Duration::from_millis(200),
            direction: Direction::Both,
            seed: 0,
        }
    }
}

/// How often a blocked proxy read re-checks the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// A running fault-injection proxy. Listens on its own loopback port
/// and relays every accepted connection to the upstream address.
pub struct ChaosProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    faults: Arc<AtomicU64>,
    acceptor: Option<JoinHandle<()>>,
    pumps: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ChaosProxy {
    /// Bind an ephemeral loopback port and start relaying to
    /// `upstream`.
    pub fn start(upstream: SocketAddr, config: ChaosConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let faults = Arc::new(AtomicU64::new(0));
        let pumps: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let faults = Arc::clone(&faults);
            let pumps = Arc::clone(&pumps);
            let config = config.clone();
            std::thread::Builder::new()
                .name("chaos-acceptor".to_string())
                .spawn(move || {
                    let mut conn_index = 0u64;
                    for incoming in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(client) = incoming else { continue };
                        let Ok(server) = TcpStream::connect(upstream) else {
                            // Upstream refused: drop the client; it will
                            // observe EOF and (if retrying) try again.
                            continue;
                        };
                        let mut handles = pumps.lock();
                        handles.retain(|h| !h.is_finished());
                        // Shared by this connection's two pumps: a reset
                        // fault on one half tells the sibling to drop
                        // its sockets *without* a FIN-sending shutdown.
                        let abort = Arc::new(AtomicBool::new(false));
                        for to_server in [true, false] {
                            let (from, to) = if to_server {
                                (client.try_clone(), server.try_clone())
                            } else {
                                (server.try_clone(), client.try_clone())
                            };
                            let (Ok(from), Ok(to)) = (from, to) else { continue };
                            // Distinct deterministic stream per
                            // connection half.
                            let half_seed = config
                                .seed
                                .wrapping_add(conn_index.wrapping_mul(2))
                                .wrapping_add(u64::from(!to_server));
                            let shutdown = Arc::clone(&shutdown);
                            let faults = Arc::clone(&faults);
                            let abort = Arc::clone(&abort);
                            let config = config.clone();
                            let handle = std::thread::Builder::new()
                                .name("chaos-pump".to_string())
                                .spawn(move || {
                                    pump(
                                        &from, &to, to_server, half_seed, &config, &shutdown,
                                        &abort, &faults,
                                    )
                                })
                                .expect("spawn chaos pump thread");
                            handles.push(handle);
                        }
                        conn_index += 1;
                    }
                })?
        };
        Ok(Self {
            addr,
            shutdown,
            faults,
            acceptor: Some(acceptor),
            pumps,
        })
    }

    /// The proxy's listen address — point clients here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total frames faulted (all kinds, both directions) so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Stop relaying and join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Poke the listener so a blocking accept() observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        loop {
            let handle = self.pumps.lock().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Relay frames `from → to`, injecting faults on this half if the
/// configured direction covers it. Returns (tearing both streams down)
/// on EOF, on a hard I/O error, on a truncate fault, or on proxy
/// shutdown; a reset fault (here or on the sibling half, via `abort`)
/// instead returns *without* the teardown so no FIN precedes the RST.
#[allow(clippy::too_many_arguments)]
fn pump(
    from: &TcpStream,
    to: &TcpStream,
    to_server: bool,
    seed: u64,
    config: &ChaosConfig,
    shutdown: &AtomicBool,
    abort: &AtomicBool,
    faults: &AtomicU64,
) {
    let _ = from.set_read_timeout(Some(POLL_INTERVAL));
    let _ = to.set_nodelay(true);
    let mut rng = StdRng::seed_from_u64(seed);
    let inject_here = config.direction.covers(to_server) && config.rate > 0.0;
    let mut reader = BufReader::new(from);
    let mut frame: Vec<u8> = Vec::new();
    loop {
        frame.clear();
        // Accumulate one newline-terminated frame, polling the shutdown
        // flag on read timeouts (partial bytes stay in `frame`).
        let complete = loop {
            if shutdown.load(Ordering::SeqCst) {
                return teardown(from, to);
            }
            if abort.load(Ordering::SeqCst) {
                // The sibling half injected a reset: drop our socket
                // handles without shutdown() so the linger(0) close
                // emits an RST, not a FIN.
                return;
            }
            match reader.read_until(b'\n', &mut frame) {
                Ok(0) => break false,
                Ok(_) => {
                    if frame.last() == Some(&b'\n') {
                        break true;
                    }
                    break false; // EOF mid-frame: relay what arrived
                }
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut
                        || e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return teardown(from, to),
            }
        };
        if frame.is_empty() {
            return teardown(from, to);
        }
        if complete && inject_here && rng.random_bool(config.rate) {
            faults.fetch_add(1, Ordering::Relaxed);
            folearn_obs::count(folearn_obs::Counter::FaultsInjected, 1);
            match config.kind {
                FaultKind::Drop => continue,
                FaultKind::Delay => std::thread::sleep(config.delay),
                FaultKind::Truncate => {
                    let mut w = to;
                    let _ = w.write_all(&frame[..frame.len() / 2]).and_then(|()| w.flush());
                    return teardown(from, to);
                }
                FaultKind::Garble => {
                    // Never the trailing newline: framing stays intact,
                    // the payload becomes unparseable.
                    if frame.len() > 1 {
                        let i = rng.random_range(0..frame.len() - 1);
                        frame[i] = 0x01;
                    }
                }
                FaultKind::Reset => {
                    let mut w = to;
                    let _ = w.write_all(&frame[..frame.len() / 2]).and_then(|()| w.flush());
                    set_linger_zero(from);
                    set_linger_zero(to);
                    abort.store(true, Ordering::SeqCst);
                    // No teardown: shutdown() would send a FIN first.
                    // Dropping the linger(0) sockets — ours now, the
                    // sibling's within one poll interval — makes the
                    // kernel discard pending data and send an RST.
                    return;
                }
            }
        }
        let mut writer = to;
        if writer.write_all(&frame).and_then(|()| writer.flush()).is_err() {
            return teardown(from, to);
        }
        if !complete {
            return teardown(from, to);
        }
    }
}

/// Shut both halves down so the opposite pump (blocked in a read)
/// observes EOF and exits too.
fn teardown(from: &TcpStream, to: &TcpStream) {
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Arm an abortive close: `SO_LINGER{on, 0s}`, so the socket's final
/// close discards queued data and answers with an RST instead of the
/// FIN handshake. Options are per-socket, not per-fd, so setting it on
/// this pump's handle covers the sibling's duplicate too.
#[cfg(target_os = "linux")]
fn set_linger_zero(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> i32;
    }
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            (&linger as *const Linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        )
    };
    debug_assert_eq!(rc, 0, "SO_LINGER on a live TCP socket cannot fail");
}

/// Off Linux the reset degrades to a plain abortive-ish close (the
/// partial write and missing newline still reach the peer).
#[cfg(not(target_os = "linux"))]
fn set_linger_zero(_stream: &TcpStream) {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// A trivial upstream echo server: reads frames, echoes them back.
    fn echo_upstream() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            // Serve a bounded number of connections, then exit.
            for _ in 0..8 {
                let Ok((stream, _)) = listener.accept() else { return };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {
                            if writer.write_all(line.as_bytes()).is_err() {
                                break;
                            }
                            let _ = writer.flush();
                        }
                    }
                }
            }
        });
        (addr, handle)
    }

    fn roundtrip(addr: SocketAddr, msg: &str) -> std::io::Result<String> {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_millis(500)))?;
        s.write_all(msg.as_bytes())?;
        let mut reader = BufReader::new(s);
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => Err(std::io::Error::new(ErrorKind::UnexpectedEof, "eof")),
            Ok(_) => Ok(line),
            Err(e) => Err(e),
        }
    }

    #[test]
    fn transparent_at_rate_zero() {
        let (upstream, _h) = echo_upstream();
        let proxy = ChaosProxy::start(upstream, ChaosConfig::default()).unwrap();
        let got = roundtrip(proxy.addr(), "hello chaos\n").unwrap();
        assert_eq!(got, "hello chaos\n");
        assert_eq!(proxy.faults_injected(), 0);
        proxy.shutdown();
    }

    #[test]
    fn drop_at_rate_one_times_out_and_counts() {
        let (upstream, _h) = echo_upstream();
        let proxy = ChaosProxy::start(
            upstream,
            ChaosConfig {
                kind: FaultKind::Drop,
                rate: 1.0,
                direction: Direction::ToServer,
                ..ChaosConfig::default()
            },
        )
        .unwrap();
        let err = roundtrip(proxy.addr(), "swallowed\n").unwrap_err();
        assert!(
            matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "expected a read timeout, got {err:?}"
        );
        assert_eq!(proxy.faults_injected(), 1);
        proxy.shutdown();
    }

    #[test]
    fn garble_corrupts_but_preserves_framing() {
        let (upstream, _h) = echo_upstream();
        let proxy = ChaosProxy::start(
            upstream,
            ChaosConfig {
                kind: FaultKind::Garble,
                rate: 1.0,
                direction: Direction::ToServer,
                seed: 7,
                ..ChaosConfig::default()
            },
        )
        .unwrap();
        let got = roundtrip(proxy.addr(), "abcdefgh\n").unwrap();
        assert!(got.ends_with('\n'), "framing newline survives");
        assert_ne!(got, "abcdefgh\n");
        assert!(
            got.bytes().filter(|&b| b == 0x01).count() == 1,
            "exactly one byte garbled: {got:?}"
        );
        proxy.shutdown();
    }

    #[test]
    fn truncate_tears_the_connection_down() {
        let (upstream, _h) = echo_upstream();
        let proxy = ChaosProxy::start(
            upstream,
            ChaosConfig {
                kind: FaultKind::Truncate,
                rate: 1.0,
                direction: Direction::ToClient,
                ..ChaosConfig::default()
            },
        )
        .unwrap();
        let mut s = TcpStream::connect(proxy.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        s.write_all(b"0123456789\n").unwrap();
        // The response frame is cut in half and the socket closed: we
        // read some prefix of the echo, then EOF — never a full frame.
        let mut buf = Vec::new();
        let mut reader = BufReader::new(s);
        let n = reader.read_to_end(&mut buf).unwrap();
        assert!(n < "0123456789\n".len(), "partial frame, got {buf:?}");
        assert!(!buf.contains(&b'\n'));
        assert_eq!(proxy.faults_injected(), 1);
        proxy.shutdown();
    }

    #[test]
    fn reset_aborts_the_connection_mid_frame() {
        let (upstream, _h) = echo_upstream();
        let proxy = ChaosProxy::start(
            upstream,
            ChaosConfig {
                kind: FaultKind::Reset,
                rate: 1.0,
                direction: Direction::ToClient,
                ..ChaosConfig::default()
            },
        )
        .unwrap();
        let mut s = TcpStream::connect(proxy.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        s.write_all(b"0123456789\n").unwrap();
        // The echo is cut in half and the connection aborted: some
        // prefix may arrive, then ECONNRESET (or EOF, depending on the
        // kernel's delivery order) — never a complete frame.
        let mut buf = Vec::new();
        let mut reader = BufReader::new(s);
        let _ = reader.read_to_end(&mut buf);
        assert!(!buf.contains(&b'\n'), "no complete frame, got {buf:?}");
        assert!(
            buf.len() < "0123456789\n".len(),
            "at most a partial frame, got {buf:?}"
        );
        assert_eq!(proxy.faults_injected(), 1);
        proxy.shutdown();
    }

    #[test]
    fn same_seed_same_reset_pattern() {
        // Reset kills the connection, so the pattern unit is one
        // connection per frame: connection order is what makes the
        // per-half RNG streams reproducible.
        let run = |seed: u64| -> Vec<bool> {
            let (upstream, _h) = echo_upstream();
            let proxy = ChaosProxy::start(
                upstream,
                ChaosConfig {
                    kind: FaultKind::Reset,
                    rate: 0.5,
                    direction: Direction::ToServer,
                    seed,
                    ..ChaosConfig::default()
                },
            )
            .unwrap();
            let mut outcomes = Vec::new();
            for i in 0..8 {
                let msg = format!("conn-{i}\n");
                outcomes.push(matches!(roundtrip(proxy.addr(), &msg), Ok(line) if line == msg));
            }
            proxy.shutdown();
            outcomes
        };
        let a = run(0xE24);
        let b = run(0xE24);
        let c = run(0xE25);
        assert_eq!(a, b, "same seed, same pattern");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
        assert_ne!(a, c, "different seed, different pattern");
    }

    #[test]
    fn same_seed_same_fault_pattern() {
        // Two proxies with the same seed and a fractional rate must
        // fault the same frames of an identical single-connection run.
        let run = |seed: u64| -> Vec<bool> {
            let (upstream, _h) = echo_upstream();
            let proxy = ChaosProxy::start(
                upstream,
                ChaosConfig {
                    kind: FaultKind::Garble,
                    rate: 0.5,
                    direction: Direction::ToServer,
                    seed,
                    ..ChaosConfig::default()
                },
            )
            .unwrap();
            let mut s = TcpStream::connect(proxy.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut reader = BufReader::new(s.try_clone().unwrap());
            let mut outcomes = Vec::new();
            for i in 0..16 {
                let msg = format!("frame-{i:02}\n");
                s.write_all(msg.as_bytes()).unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                outcomes.push(line != msg); // true = garbled
            }
            proxy.shutdown();
            outcomes
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed, same pattern");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
        assert_ne!(a, c, "different seed, different pattern");
    }
}
