//! The connection contract shared by every daemon speaking the
//! newline-delimited JSON protocol: the per-connection limits the event
//! core enforces ([`ConnLimits`]) and the lifecycle events it reports
//! ([`ConnEvent`]). The backend server and the cluster router run the
//! same core ([`crate::event_loop`]) under this contract, differing only
//! in how they *handle* a decoded request.

use std::time::Duration;

/// Per-connection limits enforced by the event core.
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

/// A connection lifecycle event, surfaced so the daemon can count it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnEvent {
    /// A connection was accepted.
    Accepted,
    /// A fresh connection was turned away (connection cap reached, or
    /// no event loop left to take it).
    Rejected,
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
            ConnEvent::Accepted => "connections",
            ConnEvent::Rejected => "rejected_connections",
            ConnEvent::TruncatedFrame => "truncated_frames",
            ConnEvent::OversizeClose => "oversize_closes",
            ConnEvent::IdleClose => "idle_closes",
            ConnEvent::OverLimitClose => "over_limit_closes",
        }
    }
}
