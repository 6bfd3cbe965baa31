//! Smoke test: every workload, untraced and traced, at a tiny request
//! count against real in-process daemons. Every answer must check out,
//! every check must have compared something, and the metrics reported
//! must be exactly the ones `BENCHMARK.json` declares, in its order.

use std::path::PathBuf;

use folearn_benchmark::metrics;
use folearn_benchmark::{run, RunOptions, Workload};

#[test]
fn every_workload_checks_its_answers_and_reports_the_declared_metrics() {
    let declared = metrics::declared();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared.workloads, names);
    let listed =
        |defs: &[metrics::Metric]| -> Vec<String> { defs.iter().map(|d| d.name.clone()).collect() };

    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("benchmark-smoke");
    std::fs::create_dir_all(&out_dir).expect("create the output directory");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = RunOptions {
                workload,
                seed: 1,
                seconds: 0.05,
                trace,
                out_dir: out_dir.clone(),
            };
            let o = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert_eq!(
                o.failed,
                0,
                "{} trace={trace}:\n{}",
                workload.name(),
                o.report
            );
            assert!(o.attempted > 0, "{}: nothing attempted", workload.name());
            assert!(o.checked > 0, "{}: no answer was compared", workload.name());
            let reported: Vec<String> = o.metrics.iter().map(|(n, _)| n.to_string()).collect();
            let expected = if trace {
                listed(&declared.per_layer)
            } else {
                listed(&declared.end_to_end)
            };
            assert_eq!(reported, expected, "{} trace={trace}", workload.name());
            if trace {
                assert!(o.report.contains("unattributed_us"), "{}", o.report);
            } else {
                for (name, v) in &o.metrics {
                    assert!(
                        v.is_finite() && *v > 0.0,
                        "{}: {name} = {v}",
                        workload.name()
                    );
                }
            }
        }
    }
}
