//! The top-level `FO-ERM` solver facade.
//!
//! One entry point, [`solve_fo_erm`], dispatching to the workspace's three
//! learners — the exact brute force of Proposition 11, the
//! fixed-parameter-tractable nowhere-dense learner of Theorem 13, and the
//! sublinear local-access learner of reference \[22\] — with a uniform
//! report. Downstream users pick a solver by what they know about their
//! background structure:
//!
//! | you know…                            | pick                      |
//! |--------------------------------------|---------------------------|
//! | nothing (small graph)                | `Solver::BruteForce`      |
//! | a nowhere dense class (e.g. forest)  | `Solver::NowhereDense`    |
//! | bounded degree + few examples        | `Solver::LocalAccess`     |

use folearn_logic::vm::{self, EvalEngine};
use folearn_logic::Var;
use folearn_obs::Json;

use crate::bruteforce::{brute_force_erm_with, BruteForceOpts};
use crate::fit::TypeMode;
use crate::hypothesis::Hypothesis;
use crate::ndlearner::{nd_learn, NdConfig};
use crate::problem::ErmInstance;
use crate::sublinear::local_access_learn;
use crate::SharedArena;

/// Which learning algorithm to run.
#[derive(Debug, Clone)]
pub enum Solver {
    /// Proposition 11: exhaustive over parameter tuples; exact.
    BruteForce {
        /// Type notion used by the inner fit.
        mode: TypeMode,
        /// Engine knobs: thread count, pruning, block size. Every
        /// configuration returns the same hypothesis and error
        /// ([`BruteForceOpts`]); only wall-clock and the work accounting
        /// vary.
        opts: BruteForceOpts,
    },
    /// Theorem 13: the FPT learner for a nowhere dense class.
    NowhereDense(NdConfig),
    /// Reference \[22\]: parameters restricted to the examples'
    /// neighbourhoods; sublinear access on bounded degree.
    LocalAccess {
        /// Radius of the candidate-parameter balls around examples.
        param_radius: usize,
        /// Radius of the local types used for classification.
        type_radius: usize,
    },
}

/// Uniform result of [`solve_fo_erm`].
#[derive(Debug)]
pub struct SolveReport {
    /// The learned hypothesis.
    pub hypothesis: Hypothesis,
    /// Training error achieved.
    pub error: f64,
    /// Solver-specific work measure (parameter tuples touched, branches
    /// explored, or vertices touched), a function of the instance and
    /// solver config alone. For `BruteForce` this is
    /// [`BruteForceResult::touched_params`](crate::bruteforce::BruteForceResult::touched_params):
    /// the tuples the sequential scan touches, whatever the thread count
    /// or pruning did. Without a perfect fit it equals
    /// `evaluated_params + pruned_params`.
    pub work: usize,
    /// Parameter tuples whose example tally ran to completion. Only the
    /// brute-force engine fills this; other solvers report zero.
    pub evaluated_params: usize,
    /// Parameter tuples abandoned early because their running
    /// misclassification count exceeded the shared bound. Zero when
    /// pruning is off or for non-brute-force solvers.
    pub pruned_params: usize,
    /// Which solver produced this.
    pub solver_name: &'static str,
}

impl SolveReport {
    /// The shared machine-readable rendering used by the `exp_*` binaries
    /// and the CLI (same field names as the wire protocol's `solve`
    /// response).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("solver", Json::str(self.solver_name)),
            ("error", Json::Num(self.error)),
            ("work", Json::int(self.work)),
            ("evaluated_params", Json::int(self.evaluated_params)),
            ("pruned_params", Json::int(self.pruned_params)),
            ("hypothesis", Json::str(self.hypothesis.describe())),
        ])
    }
}

/// Solve an `FO-ERM` instance with the chosen algorithm.
///
/// When [`folearn_obs`] capture is enabled this opens a `solve` span
/// around the dispatched learner (which nests its own spans under it)
/// and tags it with the instance shape and the chosen solver.
pub fn solve_fo_erm(
    inst: &ErmInstance<'_>,
    solver: &Solver,
    arena: &SharedArena,
) -> SolveReport {
    solve_fo_erm_with_engine(inst, solver, arena, EvalEngine::TreeWalk)
}

/// [`solve_fo_erm`] with an explicit formula-evaluation engine.
///
/// The learners' parameter sweeps tally *types*, which are backend-
/// independent, so the engine does not change what is learned. What it
/// selects is the formula-evaluation backend used around the solve: with
/// [`EvalEngine::Vm`] the winning hypothesis is cross-validated — its
/// materialised formula ([`Hypothesis::to_formula`]) is compiled once and
/// batch-evaluated on the bytecode VM over every training example, and
/// the recomputed error must be bit-identical to the solver's. The
/// validation runs inside the `solve` span, so its `vm_*` work counters
/// surface in traces and the server's `stats` aggregate.
///
/// # Panics
/// Panics if the VM cross-validation diverges from the solver's reported
/// error — a committed engine-mismatch is a broken build, not a result.
pub fn solve_fo_erm_with_engine(
    inst: &ErmInstance<'_>,
    solver: &Solver,
    arena: &SharedArena,
    engine: EvalEngine,
) -> SolveReport {
    let sp = folearn_obs::span("solve");
    let report = solve_dispatch(inst, solver, arena);
    if engine == EvalEngine::Vm {
        vm_cross_validate(inst, &report);
    }
    folearn_obs::meta("solver", Json::str(report.solver_name));
    folearn_obs::meta("engine", Json::str(engine.name()));
    folearn_obs::meta("ell", Json::int(inst.ell));
    folearn_obs::meta("q", Json::int(inst.q));
    folearn_obs::meta("examples", Json::int(inst.examples.len()));
    drop(sp);
    report
}

/// Recompute the report's training error on the bytecode VM and assert
/// bit-identity. `k = 1` instances use one batched run (one lane per
/// vertex); higher arities bind each tuple through the environment.
fn vm_cross_validate(inst: &ErmInstance<'_>, report: &SolveReport) {
    // The materialised formula is over x0 … x{k−1} (the example tuple)
    // followed by the hypothesis's parameter variables x{k} … x{k+ℓ−1}.
    let phi = report.hypothesis.to_formula();
    let params = report.hypothesis.params();
    let vg = vm::VmGraph::new(inst.graph);
    let k = inst.k;
    let param_bindings = |base: usize| -> Vec<(Var, folearn_graph::V)> {
        params
            .iter()
            .enumerate()
            .map(|(j, &w)| ((base + j) as Var, w))
            .collect()
    };
    let wrong = if k == 1 {
        let assigned: Vec<Var> = (1..=params.len()).map(|j| j as Var).collect();
        let prog = vm::Program::compile(&phi, 0, &assigned);
        let mut ev = vm::Evaluator::new(&prog, &vg);
        let verdicts = ev.run(&param_bindings(1)).to_vec();
        inst.examples
            .iter()
            .filter(|e| vm::get_bit(&verdicts, e.tuple[0].index()) != e.label)
            .count()
    } else {
        let assigned: Vec<Var> = (0..k + params.len()).map(|j| j as Var).collect();
        let prog = vm::Program::compile_single(&phi, &assigned);
        let mut ev = vm::Evaluator::new(&prog, &vg);
        inst.examples
            .iter()
            .filter(|e| {
                let mut bindings: Vec<(Var, folearn_graph::V)> = e
                    .tuple
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (i as Var, v))
                    .collect();
                bindings.extend(param_bindings(k));
                ev.run_bool(&bindings) != e.label
            })
            .count()
    };
    let vm_error = if inst.examples.is_empty() {
        0.0
    } else {
        wrong as f64 / inst.examples.len() as f64
    };
    assert_eq!(
        vm_error.to_bits(),
        report.error.to_bits(),
        "VM cross-validation diverged: vm error {} vs solver error {}",
        vm_error,
        report.error
    );
}

fn solve_dispatch(
    inst: &ErmInstance<'_>,
    solver: &Solver,
    arena: &SharedArena,
) -> SolveReport {
    match solver {
        Solver::BruteForce { mode, opts } => {
            let res = brute_force_erm_with(inst, *mode, arena, opts);
            SolveReport {
                hypothesis: res.hypothesis,
                error: res.error,
                work: res.touched_params,
                evaluated_params: res.evaluated_params,
                pruned_params: res.pruned_params,
                solver_name: "brute-force (Prop 11)",
            }
        }
        Solver::NowhereDense(config) => {
            let res = nd_learn(inst, config, arena);
            SolveReport {
                hypothesis: res.hypothesis,
                error: res.error,
                work: res.branches_explored,
                evaluated_params: 0,
                pruned_params: 0,
                solver_name: "nowhere-dense (Thm 13)",
            }
        }
        Solver::LocalAccess {
            param_radius,
            type_radius,
        } => {
            let res = local_access_learn(inst, *param_radius, *type_radius, arena);
            SolveReport {
                hypothesis: res.hypothesis,
                error: res.error,
                work: res.vertices_touched,
                evaluated_params: 0,
                pruned_params: 0,
                solver_name: "local-access ([22])",
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use folearn_graph::{generators, Vocabulary, V};

    use crate::ndlearner::{FinalRule, SearchMode};
    use crate::problem::TrainingSequence;
    use crate::shared_arena;

    use super::*;

    #[test]
    fn all_solvers_meet_the_bound_on_a_shared_workload() {
        let g = generators::random_tree(24, Vocabulary::empty(), 7);
        let w = V(12);
        let target = |t: &[V]| t[0] == w || g.has_edge(t[0], w);
        let examples = TrainingSequence::label_all_tuples(&g, 1, target);
        let inst = ErmInstance::new(&g, examples, 1, 1, 1, 0.2);
        let arena = shared_arena(&g);
        let eps_star = crate::bruteforce::optimal_error(&inst, &arena);

        let solvers = [
            Solver::BruteForce {
                mode: TypeMode::Global,
                opts: BruteForceOpts::default(),
            },
            Solver::NowhereDense(NdConfig {
                class: folearn_graph::splitter::GraphClass::Forest,
                search: SearchMode::Exhaustive,
                final_rule: FinalRule::LocalAuto,
                locality_radius: Some(1),
                max_rounds: Some(3),
                max_branches: 150,
            }),
            Solver::LocalAccess {
                param_radius: 2,
                type_radius: 1,
            },
        ];
        for solver in &solvers {
            let report = solve_fo_erm(&inst, solver, &arena);
            assert!(
                report.error <= eps_star + inst.epsilon + 1e-9,
                "{}: err {} > ε* {} + ε",
                report.solver_name,
                report.error,
                eps_star
            );
            assert!(report.work >= 1);
        }
    }

    #[test]
    fn vm_engine_cross_validates_every_solver() {
        // The test is the internal bit-identity assertion: with the VM
        // engine, solve_fo_erm_with_engine recomputes the winning
        // hypothesis's error on the bytecode VM and panics on divergence.
        let g = generators::random_tree(24, Vocabulary::empty(), 7);
        let w = V(12);
        let target = |t: &[V]| t[0] == w || g.has_edge(t[0], w);
        let examples = TrainingSequence::label_all_tuples(&g, 1, target);
        let inst = ErmInstance::new(&g, examples, 1, 1, 1, 0.2);
        let arena = shared_arena(&g);
        let solvers = [
            Solver::BruteForce {
                mode: TypeMode::Global,
                opts: BruteForceOpts::default(),
            },
            Solver::NowhereDense(NdConfig {
                class: folearn_graph::splitter::GraphClass::Forest,
                search: SearchMode::Exhaustive,
                final_rule: FinalRule::LocalAuto,
                locality_radius: Some(1),
                max_rounds: Some(3),
                max_branches: 150,
            }),
            Solver::LocalAccess {
                param_radius: 2,
                type_radius: 1,
            },
        ];
        for solver in &solvers {
            let tree = solve_fo_erm_with_engine(&inst, solver, &arena, EvalEngine::TreeWalk);
            let vm = solve_fo_erm_with_engine(&inst, solver, &arena, EvalEngine::Vm);
            assert_eq!(tree.error.to_bits(), vm.error.to_bits(), "{}", vm.solver_name);
        }
    }

    #[test]
    fn vm_engine_cross_validates_pair_instances() {
        // k = 2 exercises the compile_single (per-tuple environment) path
        // of the cross-validation.
        let g = generators::path(8, Vocabulary::empty());
        let examples =
            TrainingSequence::label_all_tuples(&g, 2, |t| g.has_edge(t[0], t[1]));
        let inst = ErmInstance::new(&g, examples, 2, 0, 1, 0.0);
        let arena = shared_arena(&g);
        let report = solve_fo_erm_with_engine(
            &inst,
            &Solver::BruteForce {
                mode: TypeMode::Global,
                opts: BruteForceOpts::default(),
            },
            &arena,
            EvalEngine::Vm,
        );
        assert_eq!(report.error, 0.0);
    }

    #[test]
    fn brute_force_is_exact() {
        let g = generators::path(10, Vocabulary::empty());
        let examples = TrainingSequence::label_all_tuples(&g, 1, |t| t[0].0 < 5);
        let inst = ErmInstance::new(&g, examples, 1, 1, 1, 0.0);
        let arena = shared_arena(&g);
        let report = solve_fo_erm(
            &inst,
            &Solver::BruteForce {
                mode: TypeMode::Global,
                opts: BruteForceOpts::default(),
            },
            &arena,
        );
        assert_eq!(
            report.error,
            crate::bruteforce::optimal_error(&inst, &arena)
        );
    }

    #[test]
    fn brute_force_report_accounts_for_pruned_tuples() {
        // Conflicting labels forbid a perfect fit, so the sweep touches
        // all n^ℓ tuples and pruning shows up in the report.
        let g = generators::path(10, Vocabulary::empty());
        let mut pairs: Vec<(Vec<V>, bool)> =
            g.vertices().map(|v| (vec![v], v == V(4))).collect();
        pairs.push((vec![V(0)], true));
        let examples = TrainingSequence::from_pairs(pairs);
        let inst = ErmInstance::new(&g, examples, 1, 1, 1, 0.0);
        let arena = shared_arena(&g);
        let report = solve_fo_erm(
            &inst,
            &Solver::BruteForce {
                mode: TypeMode::Global,
                opts: crate::bruteforce::BruteForceOpts {
                    threads: Some(1),
                    prune: true,
                    block_size: None,
                },
            },
            &arena,
        );
        assert_eq!(report.work, report.evaluated_params + report.pruned_params);
        assert_eq!(report.work, 10, "no short-circuit: every tuple is touched");
        assert!(report.pruned_params > 0);
    }
}
