//! The daemons' two thread pools.
//!
//! [`WorkerPool`] executes solve-class requests. The event loop does
//! the cheap work (framing, registry lookups, cache hits) itself and
//! hands anything compute-shaped — solve, evaluate, model-check — to
//! this pool. The pool is the backpressure point: the job queue is a
//! bounded `sync_channel`, and when it is full [`WorkerPool::try_submit`]
//! hands the job back, so the loop parks it on its connection instead
//! of piling unbounded work onto the daemon.
//!
//! The pool is built on the `rayon` shim's primitives: each worker owns
//! a [`rayon::ThreadPool`] sized to its fair share of the host cores
//! and runs every job under [`rayon::ThreadPool::install`], so a job's
//! inner parallel sweep (`BruteForceOpts { threads: None, .. }`
//! inherits the ambient count) uses exactly that share — `W` workers
//! never oversubscribe the machine no matter what the request asks for.
//!
//! [`ElasticPool`] runs *blocking* calls — the router's jobs and each of
//! its backend attempts — which spend their time waiting on a socket,
//! not on a core. A fixed, core-sized set of workers would let blocked
//! primaries starve the hedges meant to route around them, so this pool
//! grows instead: a job goes to an idle thread, a thread is spawned only
//! when every existing one is busy, and a thread that finds no work for
//! [`IDLE_LINGER`] exits.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::proto::Response;

/// A unit of work: runs on a pool thread, replies through whatever
/// channel (or responder) the closure captured.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why [`WorkerPool::try_submit`] could not take a job.
pub enum TrySubmit {
    /// The queue is full; the job is returned so the caller can retry.
    Full(Job),
    /// The pool has shut down; the job was dropped.
    Closed,
}

/// Fixed-size worker pool with a bounded job queue.
///
/// Jobs run under `catch_unwind`: a panicking job is counted (see
/// [`WorkerPool::panic_count`]) and discarded, and the worker thread
/// survives to serve the next job — a poisoned request must cost one
/// error response, never a pool slot.
pub struct WorkerPool {
    sender: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    num_workers: usize,
    panics: Arc<AtomicU64>,
}

impl WorkerPool {
    /// Spawn `workers` threads (`0` = one per host core) behind a queue
    /// of `queue_depth` pending jobs.
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let num_workers = if workers == 0 { cores } else { workers };
        // Each worker's inner parallel operations get a fair share of
        // the cores; at least 1.
        let share = (cores / num_workers).max(1);
        let (sender, receiver) = std::sync::mpsc::sync_channel::<Job>(queue_depth.max(1));
        let receiver = Arc::new(Mutex::new(receiver));
        let panics = Arc::new(AtomicU64::new(0));
        let workers = (0..num_workers)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let panics = Arc::clone(&panics);
                std::thread::Builder::new()
                    .name(format!("folearn-worker-{i}"))
                    .spawn(move || worker_loop(&receiver, share, &panics))
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
            num_workers,
            panics,
        }
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Jobs that panicked (and were isolated) so far.
    pub fn panic_count(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Submit a job without blocking. A full queue hands the job back
    /// so the caller can park it and re-offer later — the event loop
    /// uses this to defer work per connection instead of stalling a
    /// whole readiness shard on one busy queue.
    pub fn try_submit(&self, job: Job) -> Result<(), TrySubmit> {
        use std::sync::mpsc::TrySendError;
        match &self.sender {
            Some(s) => match s.try_send(job) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(job)) => Err(TrySubmit::Full(job)),
                Err(TrySendError::Disconnected(_)) => Err(TrySubmit::Closed),
            },
            None => Err(TrySubmit::Closed),
        }
    }

    /// A clone of the panic counter, safe to capture inside submitted
    /// jobs. Jobs must never hold an `Arc<WorkerPool>` (the pool's own
    /// `Drop` joins the workers, so a job owning the last reference
    /// would join its own thread); the bare counter carries no such
    /// hazard.
    pub fn panic_cell(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.panics)
    }

    /// Drain the queue and join all workers. Idempotent.
    pub fn shutdown(&mut self) {
        self.sender.take(); // closes the channel; workers drain and exit
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(receiver: &Arc<Mutex<Receiver<Job>>>, share: usize, panics: &AtomicU64) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(share)
        .build()
        .expect("the rayon shim never fails to build");
    loop {
        // Take the next job while holding the lock, run it without.
        let job = {
            let rx = receiver.lock();
            rx.recv()
        };
        match job {
            Ok(job) => run_isolated(|| pool.install(job), panics),
            Err(_) => break, // channel closed: pool is shutting down
        }
    }
}

/// Run `job`, counting a panic instead of propagating it: the job's
/// reply handle was dropped during the unwind, so its submitter still
/// hears of the failure, and the calling thread stays in service.
fn run_isolated(job: impl FnOnce(), panics: &AtomicU64) {
    if catch_unwind(AssertUnwindSafe(job)).is_err() {
        panics.fetch_add(1, Ordering::Relaxed);
        folearn_obs::count(folearn_obs::Counter::WorkerPanics, 1);
    }
}

/// Run one request's work, turning a panic into the error reply
/// `"<op>: worker panicked: <message>"` (counted in `panics`), so a
/// poisoned request costs its client one error reply.
pub fn reply_or_panic(op: &str, panics: &AtomicU64, run: impl FnOnce() -> Response) -> Response {
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(response) => response,
        Err(payload) => {
            panics.fetch_add(1, Ordering::Relaxed);
            folearn_obs::count(folearn_obs::Counter::WorkerPanics, 1);
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            Response::error(format!("{op}: worker panicked: {message}"))
        }
    }
}

/// How long an [`ElasticPool`] thread waits for its next job before it
/// exits.
pub const IDLE_LINGER: Duration = Duration::from_secs(5);

/// A pool for blocking calls that grows with demand and shrinks when
/// idle (see the module docs). Jobs run under `catch_unwind`, like the
/// [`WorkerPool`]'s. Dropping the pool lets its idle threads exit at
/// once; busy ones finish their job first.
pub struct ElasticPool {
    shared: Arc<Elastic>,
}

struct Elastic {
    state: std::sync::Mutex<ElasticState>,
    work: Condvar,
    panics: Arc<AtomicU64>,
    name: &'static str,
}

#[derive(Default)]
struct ElasticState {
    /// Jobs handed to parked threads, not yet picked up.
    queue: VecDeque<Job>,
    /// Parked threads not yet promised one of the queued jobs.
    idle: usize,
    /// Live threads, busy or parked.
    threads: usize,
    closed: bool,
}

impl Elastic {
    fn lock(&self) -> std::sync::MutexGuard<'_, ElasticState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl ElasticPool {
    /// An empty pool whose threads are named `name`.
    pub fn new(name: &'static str) -> Self {
        Self {
            shared: Arc::new(Elastic {
                state: std::sync::Mutex::new(ElasticState::default()),
                work: Condvar::new(),
                panics: Arc::new(AtomicU64::new(0)),
                name,
            }),
        }
    }

    /// Run `job` on an idle thread, or on a new one when every thread is
    /// busy. If that thread cannot be spawned the job is handed back
    /// unrun.
    pub fn execute(&self, job: Job) -> Result<(), Job> {
        let mut state = self.shared.lock();
        if state.idle > 0 {
            state.idle -= 1;
            state.queue.push_back(job);
            drop(state);
            self.shared.work.notify_one();
            return Ok(());
        }
        state.threads += 1;
        drop(state);
        // The job rides in a shared cell so a failed spawn, which drops
        // the thread's closure, cannot take the job with it.
        let first = Arc::new(Mutex::new(Some(job)));
        let shared = Arc::clone(&self.shared);
        let cell = Arc::clone(&first);
        let spawned = std::thread::Builder::new()
            .name(self.shared.name.to_string())
            .spawn(move || {
                let job = cell.lock().take();
                if let Some(job) = job {
                    elastic_loop(&shared, job);
                }
            });
        match spawned {
            Ok(_) => Ok(()),
            Err(_) => {
                self.shared.lock().threads -= 1;
                Err(first
                    .lock()
                    .take()
                    .expect("an unspawned thread never took its job"))
            }
        }
    }

    /// A clone of the panic counter, for jobs that catch their own
    /// panics (see [`reply_or_panic`]).
    pub fn panic_cell(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.shared.panics)
    }
}

impl Drop for ElasticPool {
    fn drop(&mut self) {
        self.shared.lock().closed = true;
        self.shared.work.notify_all();
    }
}

/// One elastic thread: run a job, park for the next, and exit after
/// [`IDLE_LINGER`] without one (or at once when the pool is dropped).
fn elastic_loop(shared: &Elastic, mut job: Job) {
    loop {
        run_isolated(job, &shared.panics);
        let mut state = shared.lock();
        state.idle += 1;
        let deadline = Instant::now() + IDLE_LINGER;
        job = loop {
            // A queued job was promised to some parked thread by the
            // submitter, which already took that thread off `idle`.
            if let Some(job) = state.queue.pop_front() {
                break job;
            }
            let now = Instant::now();
            if state.closed || now >= deadline {
                state.idle -= 1;
                state.threads -= 1;
                return;
            }
            state = shared
                .work
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        };
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::thread::ThreadId;

    use super::*;

    /// Every wait in these tests gives up after this long, so a lost
    /// job fails the test instead of hanging it.
    const DEADLINE: Duration = Duration::from_secs(30);

    /// Offer `job` until the queue takes it.
    fn submit(pool: &WorkerPool, mut job: Job) {
        loop {
            match pool.try_submit(job) {
                Ok(()) => return,
                Err(TrySubmit::Full(back)) => {
                    job = back;
                    std::thread::yield_now();
                }
                Err(TrySubmit::Closed) => panic!("pool is live"),
            }
        }
    }

    #[test]
    fn jobs_run_and_reply() {
        let pool = WorkerPool::new(2, 4);
        let (tx, rx) = mpsc::channel();
        for i in 0..10usize {
            let tx = tx.clone();
            submit(
                &pool,
                Box::new(move || {
                    tx.send(i * i).unwrap();
                }),
            );
        }
        let mut got: Vec<usize> = rx.iter().take(10).collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn shutdown_joins_and_rejects_new_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut pool = WorkerPool::new(3, 2);
        for _ in 0..6 {
            let c = Arc::clone(&counter);
            submit(
                &pool,
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 6, "queued jobs drain");
        assert!(matches!(
            pool.try_submit(Box::new(|| {})),
            Err(TrySubmit::Closed)
        ));
        pool.shutdown(); // idempotent
    }

    #[test]
    fn panicking_jobs_are_isolated_and_the_worker_survives() {
        // One worker: if the panic killed the thread, the follow-up job
        // would never run and recv_timeout would fail (not hang).
        let pool = WorkerPool::new(1, 4);
        submit(&pool, Box::new(|| panic!("poisoned job")));
        submit(&pool, Box::new(|| panic!("still poisoned")));
        let (tx, rx) = mpsc::channel();
        submit(
            &pool,
            Box::new(move || {
                tx.send(7usize).unwrap();
            }),
        );
        assert_eq!(
            rx.recv_timeout(DEADLINE)
                .expect("worker survived both panics"),
            7
        );
        assert_eq!(pool.panic_count(), 2);
        assert_eq!(pool.num_workers(), 1);
    }

    #[test]
    fn try_submit_hands_a_full_queue_back() {
        // One worker parked on a gate; the queue (depth 1) fills behind
        // it and try_submit must return the overflow job intact.
        let gate = Arc::new(Barrier::new(2));
        let pool = WorkerPool::new(1, 1);
        let g = Arc::clone(&gate);
        submit(
            &pool,
            Box::new(move || {
                g.wait();
            }),
        );
        // Keep offering until a Full comes back (the first offers may
        // land while the worker is still picking up the gated job),
        // then prove the returned job still runs.
        let filled = Arc::new(AtomicUsize::new(0));
        let returned = loop {
            let f = Arc::clone(&filled);
            match pool.try_submit(Box::new(move || {
                f.fetch_add(1, Ordering::SeqCst);
            })) {
                Ok(()) => std::thread::yield_now(),
                Err(TrySubmit::Full(job)) => break job,
                Err(TrySubmit::Closed) => panic!("pool is live"),
            }
        };
        gate.wait(); // release the worker
        returned(); // the handed-back job is intact and runnable
        assert!(filled.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn workers_pin_their_core_share() {
        let pool = WorkerPool::new(2, 1);
        let (tx, rx) = mpsc::channel();
        submit(
            &pool,
            Box::new(move || {
                tx.send(rayon::current_num_threads()).unwrap();
            }),
        );
        let ambient = rx.recv_timeout(DEADLINE).unwrap();
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(ambient, (cores / 2).max(1));
    }

    /// Run one job on `pool` and wait for the id of the thread it ran
    /// on, then for that thread to park again.
    fn thread_of_one_job(pool: &ElasticPool) -> ThreadId {
        let (tx, rx) = mpsc::channel();
        pool.execute(Box::new(move || {
            tx.send(std::thread::current().id()).unwrap()
        }))
        .unwrap_or_else(|_| panic!("spawn"));
        let id = rx.recv_timeout(DEADLINE).expect("the job ran");
        wait_until_parked(pool);
        id
    }

    /// Wait until every live thread of `pool` is parked.
    fn wait_until_parked(pool: &ElasticPool) {
        let until = Instant::now() + DEADLINE;
        loop {
            let state = pool.shared.lock();
            if state.idle == state.threads || Instant::now() >= until {
                return;
            }
            drop(state);
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn sequential_elastic_jobs_reuse_one_thread() {
        let pool = ElasticPool::new("test-elastic");
        let first = thread_of_one_job(&pool);
        for _ in 0..20 {
            assert_eq!(
                thread_of_one_job(&pool),
                first,
                "the parked thread is reused"
            );
        }
        assert_eq!(pool.shared.lock().threads, 1);
    }

    #[test]
    fn a_blocked_elastic_job_does_not_delay_the_next() {
        let pool = ElasticPool::new("test-elastic");
        let gate = Arc::new(Barrier::new(2));
        let g = Arc::clone(&gate);
        // The first job blocks until the second has run: with a fixed
        // single worker this would deadlock.
        pool.execute(Box::new(move || {
            g.wait();
        }))
        .unwrap_or_else(|_| panic!("spawn"));
        let (tx, rx) = mpsc::channel();
        pool.execute(Box::new(move || tx.send(()).unwrap()))
            .unwrap_or_else(|_| panic!("spawn"));
        rx.recv_timeout(DEADLINE)
            .expect("the second job ran while the first was blocked");
        assert_eq!(
            pool.shared.lock().threads,
            2,
            "a thread is spawned only when all are busy"
        );
        gate.wait();
    }

    #[test]
    fn a_panicking_elastic_job_is_counted_and_its_thread_survives() {
        let pool = ElasticPool::new("test-elastic");
        let first = thread_of_one_job(&pool);
        pool.execute(Box::new(|| panic!("poisoned call")))
            .unwrap_or_else(|_| panic!("spawn"));
        let until = Instant::now() + DEADLINE;
        while pool.shared.panics.load(Ordering::Relaxed) == 0 && Instant::now() < until {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.shared.panics.load(Ordering::Relaxed), 1);
        wait_until_parked(&pool);
        assert_eq!(thread_of_one_job(&pool), first, "the same thread serves on");
        assert_eq!(pool.shared.lock().threads, 1);
    }
}
