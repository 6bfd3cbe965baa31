//! Shared connection framing for daemons speaking the newline-delimited
//! JSON protocol — the backend server and the cluster router run the
//! exact same front-door loop, differing only in how they *handle* a
//! decoded request.
//!
//! [`serve_framed`] owns one connection end to end: poll-read lines
//! (re-checking a shutdown flag each poll), enforce the frame-size /
//! idle / per-connection-request limits, decode, dispatch to the
//! caller's handler, and write the reply. Limit violations and per-op
//! outcomes are reported through callbacks so each daemon can feed its
//! own metrics sink.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::proto::{Request, Response};

/// How often a blocked read re-checks the shutdown flag (and, since the
/// idle timeout piggybacks on the same poll, the granularity of idle
/// detection).
pub const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Per-connection limits enforced by the framing loop.
#[derive(Clone, Copy, Debug)]
pub struct ConnLimits {
    /// Requests served per connection before the daemon closes it.
    pub max_requests_per_conn: usize,
    /// Longest request line the daemon will buffer.
    pub max_line_bytes: usize,
    /// Close a connection after this long without any activity — a
    /// completed request *or* partial bytes of an in-progress frame.
    pub idle_timeout: Duration,
}

/// A limit violation the framing loop handled by closing the
/// connection, surfaced so the daemon can count it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnEvent {
    /// A frame was cut short by EOF (rejected, not served).
    TruncatedFrame,
    /// A request line exceeded [`ConnLimits::max_line_bytes`].
    OversizeClose,
    /// No activity (completed request or partial bytes) within
    /// [`ConnLimits::idle_timeout`].
    IdleClose,
    /// The connection exceeded its request budget.
    OverLimitClose,
}

impl ConnEvent {
    /// The `stats` counter this event increments — the one place a
    /// lifecycle event is mapped to its name, for every daemon.
    pub fn name(self) -> &'static str {
        match self {
            ConnEvent::TruncatedFrame => "truncated_frames",
            ConnEvent::OversizeClose => "oversize_closes",
            ConnEvent::IdleClose => "idle_closes",
            ConnEvent::OverLimitClose => "over_limit_closes",
        }
    }
}

/// How the framing loop ended for one request line.
enum Framing {
    /// A complete newline-terminated frame is in the buffer.
    Complete,
    /// Clean EOF at a frame boundary: the peer is done.
    Eof,
    /// The peer hung up (or shut down its write half) mid-frame.
    Truncated,
    /// The frame exceeded [`ConnLimits::max_line_bytes`].
    Oversize,
    /// No activity within [`ConnLimits::idle_timeout`].
    Idle,
}

/// Encode `response` and write it as one newline-terminated frame.
pub fn write_response(writer: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut line = response.encode();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Serve one connection until it closes. Returns `true` iff the peer
/// issued a graceful `shutdown` request (the caller should then begin
/// daemon-wide shutdown).
///
/// `handle` maps each decoded request to its response; `observe` is
/// called once per served request with `(op, µs, ok)`; `event` reports
/// limit violations.
pub fn serve_framed(
    stream: TcpStream,
    limits: &ConnLimits,
    shutdown: &AtomicBool,
    mut handle: impl FnMut(Request) -> Response,
    mut observe: impl FnMut(&'static str, u64, bool),
    mut event: impl FnMut(ConnEvent),
) -> bool {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return false,
    };
    let mut reader = BufReader::new(stream);
    let mut served = 0usize;
    let mut line = String::new();
    let mut last_activity = Instant::now();
    loop {
        line.clear();
        let mut seen_len = 0usize;
        // Poll for a full line, re-checking the shutdown flag whenever
        // the read times out. Partial reads accumulate in `line` and
        // count as activity — a peer slowly streaming one legitimate
        // large frame must not be killed as idle mid-upload. The
        // defense against a slow-loris peer trickling bytes forever is
        // the oversize cap, not the idle clock.
        let framing = loop {
            if shutdown.load(Ordering::SeqCst) {
                let _ = write_response(
                    &mut writer,
                    &Response::Bye {
                        reason: "shutdown".to_string(),
                    },
                );
                return false;
            }
            match reader.read_line(&mut line) {
                // EOF with nothing buffered is a clean hangup; EOF with
                // a partial frame left over is a truncated request.
                Ok(0) => {
                    break if line.trim().is_empty() {
                        Framing::Eof
                    } else {
                        Framing::Truncated
                    }
                }
                Ok(_) => {
                    if line.len() > limits.max_line_bytes {
                        break Framing::Oversize;
                    }
                    if line.ends_with('\n') {
                        break Framing::Complete;
                    }
                    // `read_line` returns `Ok` without a trailing
                    // newline only at EOF: the frame was cut short.
                    break Framing::Truncated;
                }
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::TimedOut
                        || e.kind() == ErrorKind::Interrupted =>
                {
                    if line.len() > limits.max_line_bytes {
                        break Framing::Oversize;
                    }
                    if line.len() > seen_len {
                        // Bytes arrived since the last poll: the peer is
                        // alive, just slow. Partial progress resets the
                        // idle clock.
                        seen_len = line.len();
                        last_activity = Instant::now();
                    }
                    if last_activity.elapsed() >= limits.idle_timeout {
                        break Framing::Idle;
                    }
                }
                Err(_) => return false,
            }
        };
        match framing {
            Framing::Complete => {}
            Framing::Eof => return false,
            Framing::Truncated => {
                event(ConnEvent::TruncatedFrame);
                let _ = write_response(
                    &mut writer,
                    &Response::error("malformed request: truncated frame (EOF before newline)"),
                );
                return false;
            }
            Framing::Oversize => {
                event(ConnEvent::OversizeClose);
                let _ = write_response(
                    &mut writer,
                    &Response::error(format!(
                        "malformed request: line exceeds {} bytes",
                        limits.max_line_bytes
                    )),
                );
                return false;
            }
            Framing::Idle => {
                event(ConnEvent::IdleClose);
                let _ = write_response(
                    &mut writer,
                    &Response::Bye {
                        reason: "idle timeout".to_string(),
                    },
                );
                return false;
            }
        }
        if line.trim().is_empty() {
            continue;
        }

        served += 1;
        if served > limits.max_requests_per_conn {
            event(ConnEvent::OverLimitClose);
            let _ = write_response(
                &mut writer,
                &Response::Bye {
                    reason: "request limit".to_string(),
                },
            );
            return false;
        }

        let started = Instant::now();
        let (op, response) = match Request::decode(line.trim_end()) {
            Ok(req) => {
                let op = req.op();
                (op, handle(req))
            }
            Err(e) => (
                // The prefix is load-bearing: a correct client knows its
                // frame was well-formed, so a "malformed request" error
                // proves in-flight corruption and is safe to retry (see
                // `RetryPolicy::is_retryable`).
                "malformed",
                Response::error(format!("malformed request: {e}")),
            ),
        };
        let ok = !matches!(response, Response::Error { .. });
        let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        observe(op, us, ok);

        let closing = matches!(response, Response::Bye { .. });
        if write_response(&mut writer, &response).is_err() {
            return false;
        }
        last_activity = Instant::now();
        if closing {
            if let Response::Bye { reason } = &response {
                return reason == "shutdown";
            }
            return false;
        }
    }
}
