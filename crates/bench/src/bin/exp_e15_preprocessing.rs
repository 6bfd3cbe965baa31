//! E15 — the preprocessing model of \[21\] (Grohe–Löding–Ritzert):
//! MSO-definable position queries on strings.
//!
//! Claim: after an `O(n·|Q|)` preprocessing pass over the background
//! string, *each labelled example evaluates in O(1)* — so for m examples
//! the two-phase ERM costs `O(n + m)` against the naive `O(n · m)`.
//!
//! The verdict gates on exact automaton-step counts: preprocessing takes
//! `n·(|Q|+1)` steps per candidate, ERM exactly `|class|·m` table lookups
//! at every `n`, and the naive baseline `|class|·m·n` steps. Wall times
//! are printed as observed and not gated.

use folearn_bench::{banner, cells, loglog_slope, ms, timed, verdict, Table};
use folearn_strings::learn::{PosExample, StringLearner};
use folearn_strings::query::{before_exists, standard_class};
use folearn_strings::Word;

fn main() {
    banner(
        "E15 ([21]: learning MSO on strings with preprocessing)",
        "preprocessing is linear in n; afterwards each example costs O(1), \
         so two-phase ERM beats naive O(n·m) evaluation",
    );

    let sigma = 2u8;
    let class = standard_class(sigma);
    let states: Vec<usize> = class.iter().map(|q| q.automaton().num_states()).collect();
    let m = 400usize;
    let mut table = Table::new(&[
        "n",
        "pre-steps",
        "erm-lookups",
        "naive-steps",
        "err",
        "pre-ms",
        "erm-ms",
        "naive-ms",
    ]);
    let mut pre_pts = Vec::new();
    let mut per_example_us = Vec::new();
    let mut speedups = Vec::new();
    let mut all_zero = true;
    let mut pre_linear = true;
    let mut erm_exact = true;
    let mut naive_exact = true;
    let mut two_phase_cheaper = true;
    for n in [2_000usize, 8_000, 32_000, 128_000] {
        let w = Word::random(n, sigma, 13);
        let target = before_exists(sigma, 1);
        let target_pre = target.preprocess(&w);
        let examples: Vec<PosExample> = (0..m)
            .map(|i| {
                let pos = (i * 97) % n;
                PosExample {
                    pos,
                    label: target_pre.classify(pos),
                }
            })
            .collect();
        let (learner, pre_t) = timed(|| StringLearner::preprocess(&w, &class));
        let (result, erm_t) = timed(|| learner.erm(&examples));
        all_zero &= result.error == 0.0;
        // Naive baseline: full O(n) automaton run per (example, candidate).
        let (naive_steps, naive_t) = timed(|| {
            let mut steps = 0usize;
            for q in &class {
                for e in &examples {
                    steps += q.classify_naive_counted(&w, e.pos).1;
                }
            }
            steps
        });
        let pre_steps = learner.preprocess_steps();
        pre_linear &= pre_steps
            .iter()
            .zip(&states)
            .all(|(&steps, &q)| steps == n * (q + 1));
        erm_exact &= result.lookups == class.len() * m;
        naive_exact &= naive_steps == class.len() * m * n;
        let pre_total: usize = pre_steps.iter().sum();
        two_phase_cheaper &= pre_total + result.lookups < naive_steps;
        pre_pts.push((n as f64, pre_t.as_secs_f64()));
        per_example_us.push(erm_t.as_secs_f64() * 1e6 / m as f64);
        speedups.push(naive_t.as_secs_f64() / (pre_t + erm_t).as_secs_f64());
        table.row(cells!(
            n,
            pre_total,
            result.lookups,
            naive_steps,
            format!("{:.3}", result.error),
            ms(pre_t),
            ms(erm_t),
            ms(naive_t)
        ));
    }
    table.print();
    println!();
    println!(
        "gated counts: preprocessing n·(|Q|+1) steps per candidate ({}), \
         ERM |class|·m = {} lookups at every n ({}), naive |class|·m·n steps ({}), \
         two-phase steps below naive at every n ({})",
        pre_linear,
        class.len() * m,
        erm_exact,
        naive_exact,
        two_phase_cheaper,
    );
    println!(
        "observed, not gated: preprocessing log-log slope {:.2}; \
         per-example cost {:.2}–{:.2} µs across a 64× n range; \
         two-phase speedup over naive {:.0}×–{:.0}×",
        loglog_slope(&pre_pts),
        per_example_us.iter().cloned().fold(f64::INFINITY, f64::min),
        per_example_us.iter().cloned().fold(0.0, f64::max),
        speedups.iter().cloned().fold(f64::INFINITY, f64::min),
        speedups.iter().cloned().fold(0.0, f64::max),
    );
    let ok = all_zero && pre_linear && erm_exact && naive_exact && two_phase_cheaper;
    verdict(
        ok,
        "the example-evaluation phase is flat in n while preprocessing is \
         linear — the [21] regime, on an MSO query (even/parity-free class \
         incl. a non-FO modular query)",
    );
}
