//! Backend health: consecutive-failure ejection, traffic-driven
//! re-probes, and the cadence of the background anti-entropy pass.
//!
//! Health is primarily piggybacked on real traffic: every backend call
//! reports its outcome here. A backend that fails
//! [`Health::eject_after`] times in a row is *ejected*: the replica
//! selector skips it, so requests stop paying its connect timeout.
//! Ejected backends are still probed — every [`PROBE_PERIOD`]th
//! selection includes one ejected backend at the tail of the candidate
//! list — and a single success restores them.
//!
//! On top of that, the router runs one background maintenance thread
//! driven by [`run_probe_loop`]: each tick it fetches every backend's
//! structure hashes and repairs the diff against the router's placement
//! table (anti-entropy; the sweep itself lives in `router.rs`). The
//! sweep doubles as an active health probe — a successful exchange
//! restores an ejected backend even with zero client traffic, and a
//! dead one takes its strikes here instead of on a client's request.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// Include an ejected backend as a tail candidate once per this many
/// selections, so a recovered node rejoins without operator action.
pub const PROBE_PERIOD: u64 = 16;

/// Health state of one backend.
#[derive(Debug)]
pub struct Health {
    consecutive_failures: AtomicU32,
    ejected: AtomicBool,
    /// Consecutive failures that trigger ejection.
    eject_after: u32,
    /// Total ejection events (monotonic; feeds the `failovers` counter).
    ejections: AtomicU64,
}

impl Health {
    /// Fresh, live health state ejecting after `eject_after`
    /// consecutive failures (minimum 1).
    pub fn new(eject_after: u32) -> Self {
        Self {
            consecutive_failures: AtomicU32::new(0),
            ejected: AtomicBool::new(false),
            eject_after: eject_after.max(1),
            ejections: AtomicU64::new(0),
        }
    }

    /// Record a successful call: the backend is (back) in rotation.
    pub fn record_ok(&self) {
        self.consecutive_failures.store(0, Ordering::SeqCst);
        self.ejected.store(false, Ordering::SeqCst);
    }

    /// Record a failed call; returns `true` if this failure ejected the
    /// backend (transition live → ejected).
    pub fn record_failure(&self) -> bool {
        let n = self.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
        if n >= self.eject_after && !self.ejected.swap(true, Ordering::SeqCst) {
            self.ejections.fetch_add(1, Ordering::SeqCst);
            return true;
        }
        false
    }

    /// Whether the backend is currently in rotation.
    pub fn is_live(&self) -> bool {
        !self.ejected.load(Ordering::SeqCst)
    }

    /// Consecutive failures so far.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures.load(Ordering::SeqCst)
    }

    /// Total live → ejected transitions.
    pub fn ejections(&self) -> u64 {
        self.ejections.load(Ordering::SeqCst)
    }
}

/// Run `pass` every `interval` until `shutdown` flips, sleeping in
/// short slices (≤50ms) so shutdown latency stays bounded no matter how
/// long the interval is. The first pass runs one full interval after
/// start — a freshly booted router has nothing to repair yet.
pub fn run_probe_loop(shutdown: &AtomicBool, interval: Duration, mut pass: impl FnMut()) {
    let slice = if interval < Duration::from_millis(50) {
        interval.max(Duration::from_millis(1))
    } else {
        Duration::from_millis(50)
    };
    let mut since_pass = Duration::ZERO;
    while !shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(slice);
        since_pass += slice;
        if since_pass >= interval {
            since_pass = Duration::ZERO;
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            pass();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ejects_after_threshold_and_probes_back() {
        let h = Health::new(3);
        assert!(h.is_live());
        assert!(!h.record_failure());
        assert!(!h.record_failure());
        assert!(h.record_failure(), "third consecutive failure ejects");
        assert!(!h.is_live());
        assert!(!h.record_failure(), "already ejected: no second event");
        assert_eq!(h.ejections(), 1);
        h.record_ok();
        assert!(h.is_live());
        assert_eq!(h.consecutive_failures(), 0);
    }

    #[test]
    fn probe_loop_fires_and_stops_on_shutdown() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;

        let shutdown = Arc::new(AtomicBool::new(false));
        let ticks = Arc::new(AtomicUsize::new(0));
        let handle = {
            let shutdown = Arc::clone(&shutdown);
            let ticks = Arc::clone(&ticks);
            std::thread::spawn(move || {
                run_probe_loop(&shutdown, Duration::from_millis(5), || {
                    ticks.fetch_add(1, Ordering::SeqCst);
                });
            })
        };
        for _ in 0..200 {
            if ticks.load(Ordering::SeqCst) > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(ticks.load(Ordering::SeqCst) > 0, "the pass never fired");
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn probe_loop_exits_immediately_when_already_shut_down() {
        let shutdown = AtomicBool::new(true);
        let mut fired = false;
        run_probe_loop(&shutdown, Duration::from_millis(1), || fired = true);
        assert!(!fired);
    }

    #[test]
    fn success_resets_the_streak() {
        let h = Health::new(2);
        assert!(!h.record_failure());
        h.record_ok();
        assert!(!h.record_failure(), "streak restarted after a success");
        assert!(h.is_live());
    }
}
