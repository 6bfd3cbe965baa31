//! Hierarchical spans and typed work counters.
//!
//! The capture model mirrors the workspace's sharded-arena execution
//! model (PR 1): every thread keeps a *private* span stack and root
//! buffer in thread-local storage, so probes never contend on a lock.
//! Coordinating threads collect worker-side measurements either by
//! [`Span::finish`]-ing a span into a detached [`SpanRecord`] and handing
//! it across (records are plain `Send` data), or by folding per-block
//! spans into a [`LocalStats`] accumulator carried in the worker's sweep
//! state and [`adopt`]-ing the merged record afterwards.
//!
//! Capture is off by default: [`span`] checks one relaxed atomic and
//! returns an inert guard, [`count`] is a load-and-branch. Enable it with
//! [`set_enabled`], drain finished top-level spans with
//! [`take_thread_roots`] *on the thread that produced them*. Compiling
//! the crate without the `capture` feature turns every probe into a
//! literal no-op (the "compiled out" point of E18's frozen overhead
//! figures in `BENCH_trace_overhead.json`).

use crate::json::Json;

/// The typed work counters the workspace accounts for. One fixed slot
/// per counter keeps [`CounterSet`] a flat array — adding a counter is a
/// one-line change here plus its `name`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// ERM-oracle invocations (Lemma 7 reduction).
    OracleCalls,
    /// Oracle invocations that found a 0-error hypothesis.
    RealizableCalls,
    /// Parameter tuples tallied to completion (Proposition 11 sweep).
    EvaluatedParams,
    /// Parameter tuples abandoned mid-tally by the shared bound.
    PrunedParams,
    /// Bounded-BFS runs.
    BfsRuns,
    /// Vertices enqueued across bounded-BFS runs (ball sizes).
    BfsVertices,
    /// Splitter-game rounds played (Fact 4).
    GameRounds,
    /// Result-cache hits.
    CacheHits,
    /// Result-cache misses.
    CacheMisses,
    /// Critical tuples found by the ND learner (Theorem 13).
    CriticalTuples,
    /// Ball centres selected by the ND learner's Vitali cover.
    Centers,
    /// Search branches explored by the ND learner.
    Branches,
    /// Client calls re-sent after a transport-level failure.
    Retries,
    /// Client connections re-established after a failure.
    Reconnects,
    /// Frames dropped/delayed/truncated/garbled by the chaos proxy.
    FaultsInjected,
    /// Worker-pool jobs that panicked (isolated; the worker survives).
    WorkerPanics,
    /// Bytecode-VM instructions dispatched (each batched over many lanes).
    VmInstructions,
    /// Lanes covered across VM instruction dispatches (batch widths).
    VmBatchLanes,
    /// `u64` bitset words read or written by VM instruction dispatches.
    VmWordsScanned,
    /// Hedge requests launched by the cluster router (primary was slow).
    HedgesFired,
    /// Hedge requests whose reply arrived before the primary's.
    HedgesWon,
    /// Read requests re-sent to the next replica after a failure.
    ReplicaRetries,
    /// Backends ejected from rotation by the router's health tracker.
    Failovers,
}

/// Number of counter slots.
pub const COUNTERS: usize = 23;

impl Counter {
    /// Every counter, in slot order.
    pub const ALL: [Counter; COUNTERS] = [
        Counter::OracleCalls,
        Counter::RealizableCalls,
        Counter::EvaluatedParams,
        Counter::PrunedParams,
        Counter::BfsRuns,
        Counter::BfsVertices,
        Counter::GameRounds,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CriticalTuples,
        Counter::Centers,
        Counter::Branches,
        Counter::Retries,
        Counter::Reconnects,
        Counter::FaultsInjected,
        Counter::WorkerPanics,
        Counter::VmInstructions,
        Counter::VmBatchLanes,
        Counter::VmWordsScanned,
        Counter::HedgesFired,
        Counter::HedgesWon,
        Counter::ReplicaRetries,
        Counter::Failovers,
    ];

    /// The stable snake_case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::OracleCalls => "oracle_calls",
            Counter::RealizableCalls => "realizable_calls",
            Counter::EvaluatedParams => "evaluated_params",
            Counter::PrunedParams => "pruned_params",
            Counter::BfsRuns => "bfs_runs",
            Counter::BfsVertices => "bfs_vertices",
            Counter::GameRounds => "game_rounds",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CriticalTuples => "critical_tuples",
            Counter::Centers => "centers",
            Counter::Branches => "branches",
            Counter::Retries => "retries",
            Counter::Reconnects => "reconnects",
            Counter::FaultsInjected => "faults_injected",
            Counter::WorkerPanics => "worker_panics",
            Counter::VmInstructions => "vm_instructions",
            Counter::VmBatchLanes => "vm_batch_lanes",
            Counter::VmWordsScanned => "vm_words_scanned",
            Counter::HedgesFired => "hedges_fired",
            Counter::HedgesWon => "hedges_won",
            Counter::ReplicaRetries => "replica_retries",
            Counter::Failovers => "failovers",
        }
    }

    /// Inverse of [`Counter::name`].
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.name() == name)
    }

    fn slot(self) -> usize {
        Counter::ALL
            .iter()
            .position(|c| *c == self)
            .expect("every counter is listed in ALL")
    }
}

/// A fixed-size bag of counter values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterSet {
    vals: [u64; COUNTERS],
}

impl CounterSet {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to counter `c`.
    pub fn add(&mut self, c: Counter, n: u64) {
        self.vals[c.slot()] += n;
    }

    /// Read counter `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c.slot()]
    }

    /// Fold another set into this one.
    pub fn merge(&mut self, other: &CounterSet) {
        for (a, b) in self.vals.iter_mut().zip(&other.vals) {
            *a += b;
        }
    }

    /// Whether every counter is zero.
    pub fn is_empty(&self) -> bool {
        self.vals.iter().all(|&v| v == 0)
    }

    /// The non-zero counters, in slot order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL
            .into_iter()
            .zip(self.vals)
            .filter(|&(_, v)| v != 0)
    }
}

/// One finished span: a named, timed tree node with counters and
/// free-form metadata. Plain `Send + Sync` data — this is what crosses
/// threads, goes over the wire, and lands in JSONL files.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Span name (stable identifier, e.g. `erm.sweep`).
    pub name: String,
    /// Wall time between open and close, monotonic clock.
    pub elapsed_ns: u64,
    /// Counters incremented while this span was innermost.
    pub counters: CounterSet,
    /// Free-form metadata (`meta` calls), insertion-ordered.
    pub meta: Vec<(String, Json)>,
    /// Child spans, in completion order.
    pub children: Vec<SpanRecord>,
}

impl SpanRecord {
    /// A fresh zero-duration record (used by the capture machinery and
    /// by code synthesising worker-side records).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            elapsed_ns: 0,
            counters: CounterSet::new(),
            meta: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Counter `c` summed over this span and all descendants.
    pub fn total(&self, c: Counter) -> u64 {
        self.counters.get(c) + self.children.iter().map(|ch| ch.total(c)).sum::<u64>()
    }

    /// All counters summed over this span and all descendants.
    pub fn counters_total(&self) -> CounterSet {
        let mut out = self.counters.clone();
        for ch in &self.children {
            out.merge(&ch.counters_total());
        }
        out
    }

    /// Number of spans in the tree (including this one).
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(SpanRecord::span_count).sum::<usize>()
    }

    /// Depth-first search for the first span named `name`.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|ch| ch.find(name))
    }
}

/// A `Send` accumulator for worker-side capture inside sweeps: workers
/// open a [`span`] per block, [`Span::finish`] it, and [`LocalStats::absorb`]
/// the record; the coordinating thread turns the merged stats into one
/// `<name>` child record per worker via [`LocalStats::into_record`].
#[derive(Clone, Debug, Default)]
pub struct LocalStats {
    /// Total busy time across absorbed block spans.
    pub busy_ns: u64,
    /// Number of absorbed block spans.
    pub blocks: u64,
    /// Counters folded from absorbed spans (descendants included).
    pub counters: CounterSet,
}

impl LocalStats {
    /// Empty stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one finished block span (if capture was live) into the stats.
    pub fn absorb(&mut self, rec: Option<SpanRecord>) {
        if let Some(r) = rec {
            self.busy_ns += r.elapsed_ns;
            self.blocks += 1;
            self.counters.merge(&r.counters_total());
        }
    }

    /// The merged record, or `None` if nothing was captured.
    pub fn into_record(self, name: &'static str) -> Option<SpanRecord> {
        (self.blocks > 0).then(|| SpanRecord {
            name: name.to_string(),
            elapsed_ns: self.busy_ns,
            counters: self.counters,
            meta: Vec::new(),
            children: Vec::new(),
        })
    }
}

// ---------------------------------------------------------------------------
// Capture machinery (feature = "capture")
// ---------------------------------------------------------------------------

#[cfg(feature = "capture")]
mod capture {
    use super::*;
    use std::cell::RefCell;
    use std::marker::PhantomData;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    static ENABLED: AtomicBool = AtomicBool::new(false);

    struct Frame {
        rec: SpanRecord,
        start: Instant,
    }

    thread_local! {
        static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
        static ROOTS: RefCell<Vec<SpanRecord>> = const { RefCell::new(Vec::new()) };
    }

    /// Turn capture on or off process-wide. Spans already open keep
    /// their frame and still close correctly.
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Whether capture is currently on (one relaxed load).
    #[inline]
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// RAII guard for an open span. Dropping it closes the span and
    /// attaches the record to the enclosing span (or the thread's root
    /// buffer). Not `Send`: a span must close on the thread that opened
    /// it — hand [`SpanRecord`]s across threads instead.
    #[must_use]
    pub struct Span {
        live: bool,
        _not_send: PhantomData<*const ()>,
    }

    /// Open a span. When capture is disabled this is one atomic load and
    /// returns an inert guard.
    #[inline]
    pub fn span(name: &'static str) -> Span {
        if !enabled() {
            return Span {
                live: false,
                _not_send: PhantomData,
            };
        }
        STACK.with(|s| {
            s.borrow_mut().push(Frame {
                rec: SpanRecord::new(name),
                start: Instant::now(),
            })
        });
        Span {
            live: true,
            _not_send: PhantomData,
        }
    }

    impl Span {
        /// Close the span and return its record *instead of* attaching
        /// it — the detached form worker threads use to hand
        /// measurements to a coordinator (which [`adopt`]s them).
        /// `None` when capture was off at open time.
        pub fn finish(mut self) -> Option<SpanRecord> {
            if !self.live {
                return None;
            }
            self.live = false;
            Some(pop_frame())
        }
    }

    impl Drop for Span {
        fn drop(&mut self) {
            if self.live {
                let rec = pop_frame();
                attach(rec);
            }
        }
    }

    fn pop_frame() -> SpanRecord {
        STACK.with(|s| {
            let f = s
                .borrow_mut()
                .pop()
                .expect("span guards close in LIFO order on their own thread");
            let mut rec = f.rec;
            rec.elapsed_ns = f.start.elapsed().as_nanos() as u64;
            rec
        })
    }

    fn attach(rec: SpanRecord) {
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            match s.last_mut() {
                Some(parent) => parent.rec.children.push(rec),
                None => ROOTS.with(|r| r.borrow_mut().push(rec)),
            }
        })
    }

    /// Attach a detached record (from [`Span::finish`] on another
    /// thread, or synthesised via [`LocalStats`]) as a child of the
    /// current thread's innermost open span.
    pub fn adopt(rec: SpanRecord) {
        attach(rec);
    }

    /// Add `n` to counter `c` on the innermost open span of this thread.
    /// Disabled or outside any span: a load-and-branch, then dropped.
    #[inline]
    pub fn count(c: Counter, n: u64) {
        if !enabled() {
            return;
        }
        STACK.with(|s| {
            if let Some(f) = s.borrow_mut().last_mut() {
                f.rec.counters.add(c, n);
            }
        })
    }

    /// Attach metadata to the innermost open span of this thread.
    pub fn meta(key: &'static str, v: Json) {
        if !enabled() {
            return;
        }
        STACK.with(|s| {
            if let Some(f) = s.borrow_mut().last_mut() {
                f.rec.meta.push((key.to_string(), v));
            }
        })
    }

    /// Drain the finished top-level spans of *this thread*, in
    /// completion order.
    pub fn take_thread_roots() -> Vec<SpanRecord> {
        ROOTS.with(|r| std::mem::take(&mut *r.borrow_mut()))
    }
}

#[cfg(feature = "capture")]
pub use capture::{adopt, count, enabled, meta, set_enabled, span, take_thread_roots, Span};

// ---------------------------------------------------------------------------
// No-op surface (capture compiled out)
// ---------------------------------------------------------------------------

#[cfg(not(feature = "capture"))]
mod noop {
    use super::*;

    /// Capture is compiled out: requests to enable are ignored.
    pub fn set_enabled(_on: bool) {}

    /// Always `false` without the `capture` feature.
    #[inline]
    pub fn enabled() -> bool {
        false
    }

    /// Inert span guard (capture compiled out).
    #[must_use]
    pub struct Span(());

    /// No-op: returns an inert guard.
    #[inline]
    pub fn span(_name: &'static str) -> Span {
        Span(())
    }

    impl Span {
        /// Always `None` without the `capture` feature.
        pub fn finish(self) -> Option<SpanRecord> {
            None
        }
    }

    /// No-op.
    pub fn adopt(_rec: SpanRecord) {}

    /// No-op.
    #[inline]
    pub fn count(_c: Counter, _n: u64) {}

    /// No-op.
    pub fn meta(_key: &'static str, _v: Json) {}

    /// Always empty without the `capture` feature.
    pub fn take_thread_roots() -> Vec<SpanRecord> {
        Vec::new()
    }
}

#[cfg(not(feature = "capture"))]
pub use noop::{adopt, count, enabled, meta, set_enabled, span, take_thread_roots, Span};

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "capture")]
    #[test]
    fn spans_nest_and_counters_attach_to_innermost() {
        set_enabled(true);
        take_thread_roots();
        {
            let _outer = span("outer");
            count(Counter::OracleCalls, 2);
            {
                let _inner = span("inner");
                count(Counter::OracleCalls, 5);
                meta("r", Json::int(3));
            }
            count(Counter::GameRounds, 1);
        }
        let roots = take_thread_roots();
        assert_eq!(roots.len(), 1);
        let outer = &roots[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.counters.get(Counter::OracleCalls), 2);
        assert_eq!(outer.counters.get(Counter::GameRounds), 1);
        assert_eq!(outer.children.len(), 1);
        let inner = &outer.children[0];
        assert_eq!(inner.counters.get(Counter::OracleCalls), 5);
        assert_eq!(inner.meta, vec![("r".to_string(), Json::int(3))]);
        assert_eq!(outer.total(Counter::OracleCalls), 7);
        assert_eq!(outer.span_count(), 2);
        assert!(outer.find("inner").is_some());
    }

    #[cfg(feature = "capture")]
    #[test]
    fn detached_spans_cross_threads_via_adopt() {
        set_enabled(true);
        take_thread_roots();
        let _parent = span("parent");
        let rec = std::thread::spawn(|| {
            let sp = span("worker");
            count(Counter::EvaluatedParams, 42);
            sp.finish().expect("capture is on")
        })
        .join()
        .unwrap();
        adopt(rec);
        drop(_parent);
        let roots = take_thread_roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].total(Counter::EvaluatedParams), 42);
        assert_eq!(roots[0].children[0].name, "worker");
    }

    #[cfg(feature = "capture")]
    #[test]
    fn local_stats_fold_block_spans() {
        set_enabled(true);
        let mut stats = LocalStats::new();
        for _ in 0..3 {
            let sp = span("block");
            count(Counter::BfsRuns, 2);
            stats.absorb(sp.finish());
        }
        assert_eq!(stats.blocks, 3);
        assert_eq!(stats.counters.get(Counter::BfsRuns), 6);
        let rec = stats.into_record("worker").unwrap();
        assert_eq!(rec.counters.get(Counter::BfsRuns), 6);
        assert!(LocalStats::new().into_record("worker").is_none());
    }

    #[cfg(not(feature = "capture"))]
    #[test]
    fn compiled_out_probes_are_inert() {
        set_enabled(true);
        assert!(!enabled());
        let sp = span("anything");
        count(Counter::OracleCalls, 1);
        meta("k", Json::Null);
        assert!(sp.finish().is_none());
        let _guard = span("dropped");
        drop(_guard);
        assert!(take_thread_roots().is_empty());
    }

    #[test]
    fn counter_names_round_trip() {
        for c in Counter::ALL {
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        assert_eq!(Counter::from_name("nope"), None);
    }

    #[test]
    fn counter_set_merges() {
        let mut a = CounterSet::new();
        a.add(Counter::CacheHits, 3);
        let mut b = CounterSet::new();
        b.add(Counter::CacheHits, 2);
        b.add(Counter::CacheMisses, 1);
        a.merge(&b);
        assert_eq!(a.get(Counter::CacheHits), 5);
        assert_eq!(a.iter_nonzero().count(), 2);
        assert!(!a.is_empty());
        assert!(CounterSet::new().is_empty());
    }
}
