//! The benchmark's own spans: one root per client request, children at
//! each call into a layer (encode, write, wait, decode), and the span
//! subtrees the daemons return for sampled solves. Spans stay in memory
//! per client thread and are written as JSONL when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use folearn_obs::{Json, SpanRecord};

/// One finished span. Times are nanoseconds since the timed phase began.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Shared by every span of one request (the root's id).
    pub trace_id: u64,
    /// Unique within the run.
    pub id: u64,
    /// The causing span; 0 for a root.
    pub parent: u64,
    /// Layer boundary name (`request`, `encode`, …, or `daemon:<span>`).
    pub name: String,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
}

/// A client thread's span buffer. Ids carry the client index in their
/// top bits, so buffers of different threads never collide.
pub struct SpanLog {
    base: u64,
    next: u64,
    /// Finished spans, in completion order.
    pub spans: Vec<SpanRec>,
}

impl SpanLog {
    /// An empty buffer for client `client`.
    pub fn new(client: usize) -> Self {
        Self {
            base: (client as u64 + 1) << 48,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// A fresh span id.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.base | self.next
    }

    /// Record one span.
    pub fn push(
        &mut self,
        trace_id: u64,
        id: u64,
        parent: u64,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(SpanRec {
            trace_id,
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
    }

    /// Record one request/reply exchange: a root plus its four stage
    /// children, from the five instants that bound them
    /// (`[start, encoded, written, reply read, decoded]`). Returns the
    /// ids of the root and of the `wait` child.
    pub fn request(&mut self, root_id: u64, marks: [u64; 5]) -> u64 {
        self.push(root_id, root_id, 0, "request", marks[0], marks[4]);
        let mut wait = 0;
        for (i, name) in ["encode", "write", "wait", "decode"]
            .into_iter()
            .enumerate()
        {
            let id = self.id();
            if name == "wait" {
                wait = id;
            }
            self.push(root_id, id, root_id, name, marks[i], marks[i + 1]);
        }
        wait
    }

    /// Attach a daemon-side span tree (the `trace` of a solve reply)
    /// under `parent`. The export carries durations but no offsets, so
    /// every node is placed at its parent's start.
    pub fn adopt(&mut self, trace_id: u64, parent: u64, start_ns: u64, rec: &SpanRecord) {
        let id = self.id();
        let name = format!("daemon:{}", rec.name);
        self.push(
            trace_id,
            id,
            parent,
            &name,
            start_ns,
            start_ns + rec.elapsed_ns,
        );
        for child in &rec.children {
            self.adopt(trace_id, id, start_ns, child);
        }
    }
}

/// Which requests of a traced run record spans: the timed phase
/// alternates untraced and traced slices, so the two modes see the same
/// drift and their throughputs give the tracing overhead.
#[derive(Clone, Copy)]
pub struct Slices {
    start: Instant,
    slice: Duration,
}

impl Slices {
    /// Slices of `slice` from `start`, untraced first.
    pub fn new(start: Instant, slice: Duration) -> Self {
        Self { start, slice }
    }

    /// Whether a request starting at `at` is traced.
    pub fn traced(&self, at: Instant) -> bool {
        (at.saturating_duration_since(self.start).as_nanos() / self.slice.as_nanos()) % 2 == 1
    }
}

/// Write every span as one JSON object per line.
pub fn write_jsonl<'a>(
    path: &Path,
    spans: impl Iterator<Item = &'a SpanRec>,
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Json::obj([
            ("trace_id", Json::str(format!("{:016x}", s.trace_id))),
            ("span_id", Json::str(format!("{:016x}", s.id))),
            ("parent", Json::str(format!("{:016x}", s.parent))),
            ("name", Json::str(s.name.clone())),
            ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
            ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

/// Mean duration in microseconds of the spans of each name, with the
/// number of spans: `name → (mean_us, count)`.
pub fn mean_by_name<'a>(spans: impl Iterator<Item = &'a SpanRec>) -> HashMap<String, (f64, usize)> {
    let mut sums: HashMap<String, (f64, usize)> = HashMap::new();
    for s in spans {
        let e = sums.entry(s.name.clone()).or_default();
        e.0 += (s.end_ns - s.start_ns) as f64 / 1e3;
        e.1 += 1;
    }
    sums.into_iter()
        .map(|(k, (sum, n))| (k, (sum / n as f64, n)))
        .collect()
}

/// The "where the time goes" table: the mean client latency split into
/// per-request layer contributions (each a replayed layer mean times
/// how often a request reaches that layer) plus the explicit remainder.
/// Means add; medians would not.
pub fn attribution_table(
    workload: &str,
    client_mean_us: f64,
    requests: usize,
    rows: &[(&str, f64)],
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "where the time goes: {workload} (mean client latency {client_mean_us:.1} us over {requests} traced requests)"
    );
    let _ = writeln!(out, "  {:<40} {:>12} {:>8}", "layer", "us/request", "share");
    let share = |us: f64| {
        if client_mean_us > 0.0 {
            100.0 * us / client_mean_us
        } else {
            0.0
        }
    };
    let mut attributed = 0.0;
    for (name, us) in rows {
        attributed += us;
        let _ = writeln!(out, "  {name:<40} {us:>12.2} {:>7.1}%", share(*us));
    }
    let rest = client_mean_us - attributed;
    let _ = writeln!(
        out,
        "  {:<40} {rest:>12.2} {:>7.1}%",
        "unattributed_us",
        share(rest)
    );
    let _ = writeln!(
        out,
        "  {:<40} {client_mean_us:>12.2} {:>7.1}%",
        "total", 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_spans_nest_under_one_root() {
        let mut log = SpanLog::new(1);
        let root = log.id();
        let wait = log.request(root, [0, 10, 30, 130, 140]);
        assert_eq!(log.spans.len(), 5);
        assert!(log.spans.iter().all(|s| s.trace_id == root));
        assert_eq!(log.spans.iter().filter(|s| s.parent == root).count(), 4);
        let means = mean_by_name(log.spans.iter());
        assert_eq!(means["wait"], (0.1, 1));
        assert_eq!(means["request"], (0.14, 1));
        let mut rec = SpanRecord::new("server.solve");
        rec.elapsed_ns = 50;
        rec.children.push(SpanRecord::new("solve"));
        log.adopt(root, wait, 30, &rec);
        let adopted: Vec<&SpanRec> = log
            .spans
            .iter()
            .filter(|s| s.name.starts_with("daemon:"))
            .collect();
        assert_eq!(adopted.len(), 2);
        assert_eq!(adopted[0].parent, wait);
        assert_eq!(adopted[1].parent, adopted[0].id);
        // A second client's ids never collide with the first's.
        assert_ne!(SpanLog::new(2).id(), SpanLog::new(1).id());
    }

    #[test]
    fn slices_alternate_starting_untraced() {
        let t0 = Instant::now();
        let s = Slices::new(t0, Duration::from_millis(10));
        assert!(!s.traced(t0));
        assert!(s.traced(t0 + Duration::from_millis(15)));
        assert!(!s.traced(t0 + Duration::from_millis(25)));
    }

    #[test]
    fn attribution_remainder_closes_the_sum() {
        let t = attribution_table("w", 100.0, 3, &[("a", 30.0), ("b", 50.0)]);
        assert!(t.contains("unattributed_us"), "{t}");
        assert!(t.contains("20.00"), "{t}");
    }
}
