//! E5 — Theorem 13 / Theorem 2 (the nowhere-dense FPT learner).
//!
//! Claim: on nowhere dense classes (forests here) the learner achieves
//! `err ≤ ε* + ε`; the verdict checks exactly that. The runtime log-log
//! slopes of the learner and of the brute-force sweep are printed beside
//! it as observations, not gated: both depend on the type kernel's cost
//! per vertex as much as on the algorithms' shapes.

use folearn::bruteforce::optimal_error;
use folearn::ndlearner::{nd_learn, FinalRule, NdConfig, SearchMode};
use folearn::problem::{ErmInstance, TrainingSequence};
use folearn::shared_arena;
use folearn_bench::{banner, cells, loglog_slope, ms, timed, verdict, Json, Table};
use folearn_graph::splitter::GraphClass;
use folearn_graph::{generators, Vocabulary, V};

fn config() -> NdConfig {
    NdConfig {
        class: GraphClass::Forest,
        search: SearchMode::Exhaustive,
        final_rule: FinalRule::LocalAuto,
        locality_radius: Some(1),
        max_rounds: Some(3),
        max_branches: 80,
    }
}

fn main() {
    banner(
        "E5 (Theorem 13 / Theorem 2)",
        "on forests the learner returns err ≤ ε* + ε (runtime slopes \
         against brute force are reported, not gated)",
    );

    let mut table = Table::new(&[
        "n", "eps*", "nd-err", "ok", "rounds", "branches", "nd-ms", "bf-ms",
    ]);
    let mut nd_pts = Vec::new();
    let mut bf_pts = Vec::new();
    let mut reports: Vec<Json> = Vec::new();
    let mut all_ok = true;
    for n in [16usize, 32, 64, 128] {
        let g = generators::random_tree(n, Vocabulary::empty(), 13);
        let w = V(n as u32 / 2);
        let target = folearn_bench::near_w_target(&g, w);
        let mut examples = TrainingSequence::new();
        for v in g.vertices() {
            let mut label = target(&[v]);
            if v == V(1) {
                label = !label; // one adversarial flip: agnostic setting
            }
            examples.push(folearn::Example::new(vec![v], label));
        }
        let inst = ErmInstance::new(&g, examples, 1, 1, 1, 0.2);
        let arena = shared_arena(&g);
        let (eps_star, bf_time) = timed(|| optimal_error(&inst, &arena));
        let (report, nd_time) = timed(|| nd_learn(&inst, &config(), &arena));
        let ok = report.error <= eps_star + inst.epsilon + 1e-9;
        all_ok &= ok;
        nd_pts.push((n as f64, nd_time.as_secs_f64()));
        bf_pts.push((n as f64, bf_time.as_secs_f64()));
        table.row(cells!(
            n,
            format!("{:.3}", eps_star),
            format!("{:.3}", report.error),
            ok,
            report.rounds_used,
            report.branches_explored,
            ms(nd_time),
            ms(bf_time)
        ));
        // The machine-readable record reuses the report's own JSON
        // rendering instead of re-formatting fields by hand.
        let mut row = vec![("n".to_string(), Json::int(n))];
        if let Json::Obj(pairs) = report.to_json() {
            row.extend(pairs);
        }
        reports.push(Json::Obj(row));
    }
    table.print();
    println!();
    println!("learner reports (JSONL):");
    for r in &reports {
        println!("{}", r.render());
    }
    println!();
    println!(
        "log-log slopes (observed, not gated): nd-learner {:.2}, brute-force {:.2}",
        loglog_slope(&nd_pts),
        loglog_slope(&bf_pts)
    );
    verdict(all_ok, "err ≤ ε* + ε on every instance");
}
