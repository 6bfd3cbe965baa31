//! The system under test, in process: daemons started with their
//! shipped defaults through `folearn_server::start` and
//! `folearn_cluster::start`, plus the in-process reference every answer
//! is checked against.

use std::net::SocketAddr;
use std::path::PathBuf;

use folearn::bruteforce::BruteForceOpts;
use folearn::ndlearner::NdConfig;
use folearn::{
    solve_fo_erm_with_engine, ErmInstance, SharedArena, SolveReport, Solver, TrainingSequence,
};
use folearn_cluster::{RouterConfig, RouterHandle};
use folearn_graph::{Graph, V};
use folearn_logic::vm::EvalEngine;
use folearn_server::{Client, ClientApi, ServerConfig, ServerHandle, SolverSpec, WireExample};

/// The running daemons of one workload.
pub struct Daemons {
    /// Backend daemons (one, or three behind the router).
    pub servers: Vec<ServerHandle>,
    /// The router, when the workload is a cluster.
    pub router: Option<RouterHandle>,
}

impl Daemons {
    /// One default daemon, durable when `data_dir` is set.
    pub fn single(data_dir: Option<PathBuf>) -> Result<Self, String> {
        Ok(Self {
            servers: vec![start_server(data_dir)?],
            router: None,
        })
    }

    /// `backends` default daemons behind a default router.
    pub fn cluster(backends: usize) -> Result<Self, String> {
        let servers = (0..backends)
            .map(|_| start_server(None))
            .collect::<Result<Vec<_>, _>>()?;
        let router = start_router(servers.iter().map(ServerHandle::addr).collect())?;
        Ok(Self {
            servers,
            router: Some(router),
        })
    }

    /// Where clients connect: the router if there is one.
    pub fn front(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or_else(|| self.servers[0].addr(), RouterHandle::addr)
    }

    /// Every backend daemon's address.
    pub fn backends(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(ServerHandle::addr).collect()
    }

    /// Stop everything and wait for every thread. Backends go first: a
    /// router stops only after its anti-entropy pass in progress ends,
    /// and with the backends gone that pass ends at once.
    pub fn shutdown(self) {
        for s in self.servers {
            s.shutdown();
        }
        if let Some(r) = self.router {
            r.shutdown();
        }
    }
}

/// A daemon with the shipped defaults.
pub fn start_server(data_dir: Option<PathBuf>) -> Result<ServerHandle, String> {
    folearn_server::start(&ServerConfig {
        data_dir,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))
}

/// A router with the shipped defaults over `backends`.
pub fn start_router(backends: Vec<SocketAddr>) -> Result<RouterHandle, String> {
    folearn_cluster::start(&RouterConfig {
        backends: backends.iter().map(SocketAddr::to_string).collect(),
        ..RouterConfig::default()
    })
    .map_err(|e| format!("router start: {e}"))
}

/// A control connection (set-up, stats, probes; never the load).
pub fn control(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// Register `text` and check the daemon files it under `hash`.
pub fn register(client: &mut Client, text: &str, hash: u64) -> Result<(), String> {
    match client.register(text) {
        Ok(h) if h == hash => Ok(()),
        Ok(h) => Err(format!("registered under {h:016x}, expected {hash:016x}")),
        Err(e) => Err(format!("register: {e}")),
    }
}

/// The learner and evaluation engine a wire solver spec selects — the
/// same mapping the daemon applies.
pub fn solver_of(spec: &SolverSpec) -> (Solver, EvalEngine) {
    match spec {
        SolverSpec::Brute {
            mode,
            threads,
            prune,
            engine,
        } => (
            Solver::BruteForce {
                mode: *mode,
                opts: BruteForceOpts {
                    threads: *threads,
                    prune: *prune,
                    block_size: None,
                },
            },
            *engine,
        ),
        SolverSpec::Nd => (
            Solver::NowhereDense(NdConfig::default()),
            EvalEngine::TreeWalk,
        ),
    }
}

/// The in-process answer to a solve: what a correct daemon must reply.
pub struct Reference {
    /// The full report (hypothesis, error, work counts).
    pub report: SolveReport,
    /// Canonical keys of the positive types, as the wire carries them.
    pub type_keys: Vec<u64>,
    /// The learner's span trees (work counters), when capture is on.
    pub spans: Vec<folearn_obs::SpanRecord>,
}

impl Reference {
    /// Parameters as the wire carries them.
    pub fn params(&self) -> Vec<u32> {
        self.report
            .hypothesis
            .params()
            .iter()
            .map(|v| v.0)
            .collect()
    }

    /// Predictions for unary or higher-arity tuples.
    pub fn predict(&self, g: &Graph, tuples: &[Vec<u32>]) -> Vec<bool> {
        tuples
            .iter()
            .map(|t| {
                let t: Vec<V> = t.iter().map(|&v| V(v)).collect();
                self.report.hypothesis.predict(g, &t)
            })
            .collect()
    }

    /// Whether a wire outcome carries exactly this answer: the same
    /// error bits, parameters and canonical type keys.
    pub fn matches(&self, o: &folearn_server::SolveOutcome) -> Result<(), String> {
        if o.error.to_bits() != self.report.error.to_bits() {
            return Err(format!(
                "error {} vs reference {}",
                o.error, self.report.error
            ));
        }
        if o.hypothesis.params != self.params() {
            return Err(format!(
                "params {:?} vs reference {:?}",
                o.hypothesis.params,
                self.params()
            ));
        }
        if o.hypothesis.type_keys != self.type_keys {
            return Err("type keys differ from the reference".to_string());
        }
        Ok(())
    }
}

/// Solve in process, exactly as the daemon would.
pub fn reference_solve(
    g: &Graph,
    examples: &[WireExample],
    ell: usize,
    q: usize,
    spec: &SolverSpec,
    arena: &SharedArena,
) -> Reference {
    let k = examples.first().map_or(1, |e| e.tuple.len());
    let seq = TrainingSequence::from_pairs(
        examples
            .iter()
            .map(|e| (e.tuple.iter().map(|&v| V(v)).collect::<Vec<_>>(), e.label)),
    );
    let inst = ErmInstance::new(g, seq, k, ell, q, 0.0);
    let (solver, engine) = solver_of(spec);
    // Drain whatever an earlier call left, so `spans` is this solve's.
    drop(folearn_obs::take_thread_roots());
    let report = solve_fo_erm_with_engine(&inst, &solver, arena, engine);
    let spans = folearn_obs::take_thread_roots();
    let type_keys = {
        let h = &report.hypothesis;
        let arena = h.arena().lock();
        folearn_types::canon::CanonKeys::new().key_set(&arena, h.positive_types().iter().copied())
    };
    Reference {
        report,
        type_keys,
        spans,
    }
}
