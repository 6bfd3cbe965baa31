//! Windowed time-series — the data behind `folearn top`.
//!
//! A fixed ring of one-second buckets (default window: 60 s). Each
//! bucket accumulates the request/error counts, a latency
//! [`PowHistogram`], cache hit/miss counts, and hedge counters for its
//! second; a slot is lazily re-tagged (and reset) when the ring wraps
//! onto it, so recording is O(1) and the series never allocates after
//! construction. Each daemon's [`crate::Registry`] embeds one behind
//! its mutex and exposes it through `stats` as a `series` object, which
//! `folearn top` turns into rates.
//!
//! Every mutating method has an `_at(sec, …)` variant taking an
//! explicit second tag so tests are deterministic; the untagged
//! wrappers stamp `now_s()` from the series' own monotonic start.

use std::time::Instant;

use crate::hist::PowHistogram;
use crate::json::Json;

/// Ring width: how many one-second buckets the series retains.
pub const WINDOW_S: u64 = 60;

/// Empty-slot sentinel (a live tag is seconds-since-start, far below).
const EMPTY: u64 = u64::MAX;

#[derive(Clone, Debug, Default)]
struct Bucket {
    requests: u64,
    errors: u64,
    latency: PowHistogram,
    cache_hits: u64,
    cache_misses: u64,
    hedges_fired: u64,
    hedges_won: u64,
}

impl Bucket {
    fn to_json(&self, sec: u64) -> Json {
        Json::obj([
            ("t", Json::Num(sec as f64)),
            ("requests", Json::Num(self.requests as f64)),
            ("errors", Json::Num(self.errors as f64)),
            ("p50_us", Json::Num(self.latency.quantile(0.50) as f64)),
            ("p99_us", Json::Num(self.latency.quantile(0.99) as f64)),
            ("cache_hits", Json::Num(self.cache_hits as f64)),
            ("cache_misses", Json::Num(self.cache_misses as f64)),
            ("hedges_fired", Json::Num(self.hedges_fired as f64)),
            ("hedges_won", Json::Num(self.hedges_won as f64)),
        ])
    }
}

/// A ring of per-second buckets covering the last [`WINDOW_S`] seconds.
pub struct TimeSeries {
    slots: Vec<(u64, Bucket)>,
    start: Instant,
}

impl Default for TimeSeries {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeSeries {
    /// An empty series whose clock starts now.
    pub fn new() -> Self {
        Self {
            slots: vec![(EMPTY, Bucket::default()); WINDOW_S as usize],
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since construction — the tag the untagged
    /// recording wrappers stamp.
    pub fn now_s(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    fn slot_mut(&mut self, sec: u64) -> &mut Bucket {
        let idx = (sec % WINDOW_S) as usize;
        let slot = &mut self.slots[idx];
        if slot.0 != sec {
            // The ring wrapped onto a stale second: reset in place.
            slot.0 = sec;
            slot.1 = Bucket::default();
        }
        &mut slot.1
    }

    /// Record a finished request (latency in µs) into second `sec`.
    pub fn record_request_at(&mut self, sec: u64, latency_us: u64, ok: bool) {
        let b = self.slot_mut(sec);
        b.requests += 1;
        if !ok {
            b.errors += 1;
        }
        b.latency.record(latency_us);
    }

    /// Record a finished request into the current second.
    pub fn record_request(&mut self, latency_us: u64, ok: bool) {
        self.record_request_at(self.now_s(), latency_us, ok);
    }

    /// Record a solve-cache lookup into second `sec`.
    pub fn record_cache_at(&mut self, sec: u64, hit: bool) {
        let b = self.slot_mut(sec);
        if hit {
            b.cache_hits += 1;
        } else {
            b.cache_misses += 1;
        }
    }

    /// Record a solve-cache lookup into the current second.
    pub fn record_cache(&mut self, hit: bool) {
        self.record_cache_at(self.now_s(), hit);
    }

    /// Record a fired hedge (and whether it won) into second `sec`.
    pub fn record_hedge_at(&mut self, sec: u64, won: bool) {
        let b = self.slot_mut(sec);
        b.hedges_fired += 1;
        if won {
            b.hedges_won += 1;
        }
    }

    /// Record a fired hedge into the current second.
    pub fn record_hedge(&mut self, won: bool) {
        self.record_hedge_at(self.now_s(), won);
    }

    /// Mark an already-recorded hedge as won, in second `sec` (the win
    /// lands after the fire, possibly in a later bucket).
    pub fn record_hedge_won_at(&mut self, sec: u64) {
        self.slot_mut(sec).hedges_won += 1;
    }

    /// Mark an already-recorded hedge as won, in the current second.
    pub fn record_hedge_won(&mut self) {
        self.record_hedge_won_at(self.now_s());
    }

    /// The live window as of second `now`: buckets with tags in
    /// `(now − WINDOW_S, now]`, ascending, each a per-second summary.
    pub fn to_json_at(&self, now: u64) -> Json {
        let floor = now.saturating_sub(WINDOW_S - 1);
        let mut live: Vec<(u64, &Bucket)> = self
            .slots
            .iter()
            .filter(|(sec, _)| *sec != EMPTY && *sec >= floor && *sec <= now)
            .map(|(sec, b)| (*sec, b))
            .collect();
        live.sort_by_key(|(sec, _)| *sec);
        Json::obj([
            ("window_s", Json::Num(WINDOW_S as f64)),
            ("now_s", Json::Num(now as f64)),
            (
                "buckets",
                Json::Arr(live.iter().map(|(sec, b)| b.to_json(*sec)).collect()),
            ),
        ])
    }

    /// The live window as of the current second.
    pub fn to_json(&self) -> Json {
        self.to_json_at(self.now_s())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_renders_an_empty_window() {
        let s = TimeSeries::new();
        let v = s.to_json_at(0);
        assert_eq!(v.get("window_s").and_then(Json::as_usize), Some(60));
        assert_eq!(v.get("buckets").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
    }

    #[test]
    fn buckets_accumulate_and_render_ascending() {
        let mut s = TimeSeries::new();
        s.record_request_at(5, 100, true);
        s.record_request_at(5, 3000, false);
        s.record_cache_at(5, true);
        s.record_cache_at(3, false);
        s.record_hedge_at(5, true);
        let v = s.to_json_at(6);
        let buckets = v.get("buckets").and_then(Json::as_arr).unwrap();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].get("t").and_then(Json::as_usize), Some(3));
        assert_eq!(buckets[0].get("cache_misses").and_then(Json::as_usize), Some(1));
        let b5 = &buckets[1];
        assert_eq!(b5.get("t").and_then(Json::as_usize), Some(5));
        assert_eq!(b5.get("requests").and_then(Json::as_usize), Some(2));
        assert_eq!(b5.get("errors").and_then(Json::as_usize), Some(1));
        assert_eq!(b5.get("cache_hits").and_then(Json::as_usize), Some(1));
        assert_eq!(b5.get("hedges_fired").and_then(Json::as_usize), Some(1));
        assert_eq!(b5.get("hedges_won").and_then(Json::as_usize), Some(1));
        // p99 covers the 3000 µs sample's power-of-two bucket.
        assert!(b5.get("p99_us").and_then(Json::as_usize).unwrap() >= 3000);
    }

    #[test]
    fn ring_wrap_evicts_stale_seconds() {
        let mut s = TimeSeries::new();
        s.record_request_at(5, 10, true);
        // Second 65 lands on the same slot (65 % 60 == 5) and must reset it.
        s.record_request_at(65, 20, true);
        let v = s.to_json_at(65);
        let buckets = v.get("buckets").and_then(Json::as_arr).unwrap();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].get("t").and_then(Json::as_usize), Some(65));
        assert_eq!(buckets[0].get("requests").and_then(Json::as_usize), Some(1));
    }

    #[test]
    fn window_excludes_the_distant_past_but_keeps_the_edge() {
        let mut s = TimeSeries::new();
        s.record_request_at(0, 10, true);
        s.record_request_at(30, 10, true);
        // At now = 59 the tag-0 bucket is the oldest still inside the
        // 60 s window; at now = 60 it falls out.
        let at59 = s.to_json_at(59);
        assert_eq!(at59.get("buckets").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        let at60 = s.to_json_at(60);
        let buckets = at60.get("buckets").and_then(Json::as_arr).unwrap();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].get("t").and_then(Json::as_usize), Some(30));
    }

    #[test]
    fn wall_clock_wrappers_stamp_the_current_second() {
        let mut s = TimeSeries::new();
        s.record_request(42, true);
        s.record_cache(false);
        s.record_hedge(false);
        let v = s.to_json();
        let buckets = v.get("buckets").and_then(Json::as_arr).unwrap();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].get("requests").and_then(Json::as_usize), Some(1));
        assert_eq!(buckets[0].get("hedges_won").and_then(Json::as_usize), Some(0));
    }
}
