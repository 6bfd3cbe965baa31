//! Shared experiment harness: table rendering, timing, workloads.
//!
//! Each experiment in DESIGN.md's per-experiment index is a binary in
//! `src/bin/exp_*.rs` that prints (a) the paper claim it validates,
//! (b) a table of measurements, and (c) a one-line verdict; a failed
//! verdict is also the process's exit status.

use std::time::{Duration, Instant};

use folearn_graph::{generators, ColorId, Graph, Vocabulary, V};

pub use folearn_server::proto::Json;

/// Write a benchmark result file: pretty-rendered JSON with stable key
/// order (insertion order of [`Json::Obj`]) and a trailing newline.
/// All `BENCH_*.json` artefacts go through this writer so their shape
/// is uniform and diffs stay reviewable.
pub fn write_json_file(path: &str, value: &Json) -> std::io::Result<()> {
    let mut text = value.render_pretty();
    text.push('\n');
    std::fs::write(path, text)
}

/// A simple fixed-width table printer (plain text, machine-greppable).
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (w, c) in widths.iter().zip(cells) {
                out.push_str(&format!("{c:>w$}  "));
            }
            println!("{}", out.trim_end());
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("{}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Format cells tersely.
#[macro_export]
macro_rules! cells {
    ($($x:expr),* $(,)?) => { &[$(format!("{}", $x)),*] };
}

/// Time a closure, returning `(result, elapsed)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Milliseconds with 2 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// The least-squares slope of `ln(y)` against `ln(x)` — the polynomial
/// degree estimate used by the scaling experiments.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Standard workload: a random tree with every `stride`-th vertex red.
pub fn red_tree(n: usize, stride: usize, seed: u64) -> Graph {
    let tree = generators::random_tree(n, Vocabulary::new(["Red"]), seed);
    generators::periodically_colored(&tree, ColorId(0), stride)
}

/// Standard workload: a red-striped path.
pub fn red_path(n: usize, stride: usize) -> Graph {
    let g = generators::path(n, Vocabulary::new(["Red"]));
    generators::periodically_colored(&g, ColorId(0), stride)
}

/// Planted target "within distance 1 of the hidden vertex `w`".
pub fn near_w_target(g: &Graph, w: V) -> impl Fn(&[V]) -> bool + '_ {
    move |t: &[V]| t[0] == w || g.has_edge(t[0], w)
}

/// Print the standard experiment banner.
pub fn banner(id: &str, claim: &str) {
    println!("=== {id} ===");
    println!("claim: {claim}");
    println!();
}

/// Print the standard verdict footer; a `FAIL` exits with status 1, so
/// scripts can gate on the exit status alone.
pub fn verdict(ok: bool, text: &str) {
    println!();
    println!("verdict: {} — {text}", if ok { "PASS" } else { "FAIL" });
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_quadratic_is_two() {
        let pts: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((loglog_slope(&pts) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(cells!(1, 2.5));
        t.print();
    }

    #[test]
    fn red_tree_has_reds() {
        let g = red_tree(20, 4, 1);
        assert!(!g.vertices_with_color(ColorId(0)).is_empty());
    }
}
