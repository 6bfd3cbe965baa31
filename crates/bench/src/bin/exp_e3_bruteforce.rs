//! E3 — Proposition 11 (brute force is XP).
//!
//! Claim: Algorithm 1 sweeps all `n^ℓ` parameter tuples, each fitted in
//! `O(m · type-cost)`, so its runtime is polynomial with degree growing in
//! `ℓ`. The gate is the sequential touched count (`SolveReport::work`),
//! which must equal `n^ℓ` on every row of an unrealisable sample, with
//! every one of those tuples either evaluated or pruned; neither count
//! depends on thread count, pruning or the host. The log-log slopes of
//! wall time against `n` (≈ +1 per extra parameter) are printed as
//! observed, not gated.

use folearn::bruteforce::BruteForceOpts;
use folearn::fit::TypeMode;
use folearn::problem::{ErmInstance, Example, TrainingSequence};
use folearn::{shared_arena, solve_fo_erm, Solver};
use folearn_bench::{banner, cells, loglog_slope, ms, timed, verdict, Table};
use folearn_graph::V;

fn main() {
    banner(
        "E3 (Proposition 11 / Algorithm 1)",
        "brute-force ERM touches exactly n^ℓ parameter tuples on an \
         unrealisable sample: XP in ℓ, one polynomial degree per parameter",
    );

    let solver = Solver::BruteForce {
        mode: TypeMode::Local { r: 1 },
        opts: BruteForceOpts::default(),
    };
    let mut table = Table::new(&["ell", "n", "m", "work", "err", "time-ms"]);
    let mut slopes = Vec::new();
    let mut exhaustive = true;
    for ell in [0usize, 1, 2] {
        let mut pts = Vec::new();
        let ns: &[usize] = match ell {
            0 => &[40, 80, 160, 320],
            1 => &[20, 40, 80, 160],
            _ => &[10, 20, 40, 60],
        };
        for &n in ns {
            let g = folearn_bench::red_tree(n, 4, 11);
            // Pseudo-random labels plus vertex 0 repeated with its label
            // flipped: no hypothesis fits both copies, so no perfect fit
            // ends the sweep early.
            let mut examples =
                TrainingSequence::label_all_tuples(&g, 1, |t: &[V]| (t[0].0 * 2654435761) % 7 < 3);
            let first = examples.examples()[0].clone();
            examples.push(Example::new(first.tuple, !first.label));
            let m = examples.len();
            let inst = ErmInstance::new(&g, examples, 1, ell, 1, 0.0);
            let arena = shared_arena(&g);
            let (report, elapsed) = timed(|| solve_fo_erm(&inst, &solver, &arena));
            // Without a perfect fit every tuple is evaluated or pruned,
            // however the threads split them.
            exhaustive &= report.work == g.num_vertices().pow(ell as u32)
                && report.evaluated_params + report.pruned_params == report.work;
            pts.push((n as f64, elapsed.as_secs_f64()));
            table.row(cells!(
                ell,
                n,
                m,
                report.work,
                format!("{:.3}", report.error),
                ms(elapsed)
            ));
        }
        slopes.push(loglog_slope(&pts));
    }
    table.print();
    println!();
    println!(
        "log-log slopes of time (observed, not gated): ell=0: {:.2}, ell=1: {:.2}, ell=2: {:.2}",
        slopes[0], slopes[1], slopes[2]
    );
    verdict(
        exhaustive,
        "every row touches all n^ℓ parameter tuples and evaluates or \
         prunes each one: the sweep is exhaustive and its size is XP in ℓ, \
         as Proposition 11 predicts",
    );
}
