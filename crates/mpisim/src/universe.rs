//! The universe: runs `p` simulated MPI processes under one of two
//! backends — an OS thread per rank, or the cooperative epoch scheduler
//! ([`crate::sched`]) that multiplexes stackless rank bodies over a small
//! worker pool and scales past the paper's 2^15 processes.
//!
//! ```
//! use mpisim::{Universe, SimConfig, Transport};
//!
//! let res = Universe::run(4, SimConfig::default(), |env| {
//!     let world = env.world.clone();
//!     let mut x = vec![world.rank() as u64];
//!     world.bcast(&mut x, 0).unwrap();
//!     x[0]
//! });
//! assert_eq!(res.per_rank, vec![0, 0, 0, 0]);
//! ```
//!
//! The same program as an async rank body on the cooperative scheduler,
//! at a rank count the thread backend cannot reach:
//!
//! ```
//! use mpisim::{Universe, SimConfig, Transport};
//!
//! let res = Universe::run_poll(1 << 10, SimConfig::cooperative(), |env| async move {
//!     env.world.allreduce_async(&[1u64], |a, b| a + b).await.unwrap()[0]
//! });
//! assert!(res.per_rank.iter().all(|&s| s == 1 << 10));
//! ```

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::comm::Comm;
use crate::faults::{FaultPlan, FaultState};
use crate::model::{CommitAlgo, CostModel, SortAlgo, VendorProfile};
use crate::proc::{ProcState, Router};
use crate::sched;
use crate::time::Time;

/// Which runtime executes the rank bodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// One OS thread per simulated rank. Simple and preemptive; practical
    /// up to a few hundred ranks.
    Threads,
    /// The cooperative epoch scheduler: every rank is a **pollable state
    /// machine** ([`crate::sched::poll::RankBody`]) multiplexed over
    /// [`SimConfig::coop_workers`] OS threads under an epoch discipline
    /// that makes runs **bit-for-bit deterministic in `(program, seed)`
    /// for any worker count** — message deliveries commit at epoch
    /// boundaries in global virtual-time order (see [`crate::sched`] and
    /// DESIGN.md §5). A rank costs the few hundred bytes of `Future`
    /// state the compiler's async transform retains, so universes reach
    /// p = 2^20 and beyond. Rank bodies must be async
    /// ([`Universe::run_poll`]); the synchronous [`Universe::run`]
    /// panics under this backend.
    Poll,
}

/// Configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The machine's α–β cost model.
    pub cost: CostModel,
    /// The MPI-implementation personality to simulate.
    pub vendor: VendorProfile,
    /// Wall-clock deadlock-detection timeout for blocking operations
    /// (thread backend; the poll backend detects deadlock exactly).
    pub recv_timeout: Duration,
    /// Base seed for per-rank deterministic RNG streams and the cooperative
    /// scheduler's initial run order.
    pub seed: u64,
    /// OS thread stack size per rank under [`Backend::Threads`].
    pub stack_size: usize,
    /// Which runtime executes rank bodies.
    pub backend: Backend,
    /// Worker threads of the cooperative scheduler. The epoch discipline
    /// makes the schedule — and therefore message-delivery order — a pure
    /// function of `(program, seed)` for **every** worker count, so this
    /// is purely a throughput knob: raise it to the host's core count to
    /// run independent ranks of each epoch in parallel with identical
    /// output.
    pub coop_workers: usize,
    /// How the cooperative scheduler's epoch commit delivers staged
    /// messages: [`CommitAlgo::Sharded`] (default) partitions the
    /// globally sorted run by destination rank and lets all idle workers
    /// push segments in parallel; [`CommitAlgo::Serial`] is the original
    /// single-threaded commit, kept as the correctness oracle. Both
    /// produce bit-identical output for every worker count; only
    /// wall-clock speed differs. Ignored by [`Backend::Threads`].
    pub commit_algo: CommitAlgo,
    /// How the cooperative scheduler puts an epoch's staged messages into
    /// commit order: [`SortAlgo::Merge`] (default) merges the pre-sorted
    /// per-task runs in a parallel work phase; [`SortAlgo::Sort`] is the
    /// original single-worker global sort, kept as the correctness
    /// oracle. Both produce bit-identical output for every worker count
    /// and commit algorithm; only wall-clock speed (and allocation
    /// behaviour) differs. Ignored by [`Backend::Threads`].
    pub sort_algo: SortAlgo,
    /// Upper bound on the claim units of one sharded commit (0 = auto:
    /// ~2 shards per worker, with small commits staying inline on the
    /// committing worker). Like `coop_workers`, this is purely a
    /// throughput knob — any value yields identical output.
    pub coop_commit_shards: usize,
    /// Seeded fault-injection plan (stragglers, crash-stop, message
    /// jitter); the default plan injects nothing. Faults are a pure
    /// function of `(program, seed, perturb_seed)` — never of the worker
    /// count or commit algorithm — so faulted runs keep the bit-identical
    /// determinism guarantees. See [`crate::faults`].
    pub faults: FaultPlan,
    /// Record a deterministic event trace ([`crate::obs::Trace`]): op
    /// spans, send/deliver edges, collective phase marks, fault and blame
    /// events, all stamped with virtual time. The trace is a pure
    /// function of `(program, seed, fault plan)` — byte-identical for
    /// every worker count and commit algorithm — and recording it changes
    /// **nothing** the simulation computes (observer effect zero; see
    /// DESIGN.md §9). Off by default: tracing costs memory proportional
    /// to the event count.
    pub trace: bool,
    /// Record the cooperative scheduler's wall-clock phase profile
    /// ([`crate::obs::SchedProfile`]): per-worker run/commit/idle timings
    /// and claim counts. Host-time diagnostics, **outside** the
    /// deterministic domain — never compare these across runs in tests.
    pub sched_profile: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cost: CostModel::supermuc_like(),
            vendor: VendorProfile::neutral(),
            recv_timeout: Duration::from_secs(30),
            seed: 0x5bc,
            stack_size: 1 << 20,
            backend: Backend::Threads,
            coop_workers: 1,
            commit_algo: CommitAlgo::Sharded,
            sort_algo: SortAlgo::Merge,
            coop_commit_shards: 0,
            faults: FaultPlan::default(),
            trace: false,
            sched_profile: false,
        }
    }
}

impl SimConfig {
    /// Default configuration on the cooperative scheduler
    /// ([`Backend::Poll`]; rank bodies go through [`Universe::run_poll`]).
    /// The
    /// worker-pool size honours the `MPISIM_COOP_WORKERS` environment
    /// variable (default 1), the commit algorithm honours
    /// `MPISIM_COOP_COMMIT` (`sharded`, the default, or `serial` for the
    /// oracle), the commit-ordering algorithm honours `MPISIM_COOP_SORT`
    /// (`merge`, the default, or `sort` for the single-worker oracle),
    /// and the shard cap honours `MPISIM_COOP_COMMIT_SHARDS`
    /// (0 = auto) — so sweeps and CI can exercise the whole matrix
    /// without code changes. Results are identical for every combination.
    /// The fault plan honours the `MPISIM_FAULT_SEED` / `MPISIM_FAULT_SLOW`
    /// / `MPISIM_FAULT_CRASH` / `MPISIM_FAULT_JITTER` knobs (strict
    /// parsing; see [`FaultPlan::from_env`]) — unlike the commit knobs,
    /// a fault plan *does* change what is simulated, deterministically.
    /// `MPISIM_TRACE=1` turns on the deterministic event trace and
    /// `MPISIM_SCHED_PROFILE=1` the wall-clock scheduler profile (both
    /// strict boolean knobs; see [`crate::env`]). `MPISIM_BACKEND`
    /// selects the execution mode (`poll`, the default, or `threads` to
    /// run the same async program one OS thread per rank).
    pub fn cooperative() -> SimConfig {
        use crate::env;
        SimConfig {
            backend: env::backend_from(env::var("MPISIM_BACKEND").as_deref()),
            coop_workers: env::coop_workers_from(env::var("MPISIM_COOP_WORKERS").as_deref()),
            commit_algo: env::commit_algo_from(env::var("MPISIM_COOP_COMMIT").as_deref()),
            sort_algo: env::coop_sort_from(env::var("MPISIM_COOP_SORT").as_deref()),
            coop_commit_shards: env::commit_shards_from(
                env::var("MPISIM_COOP_COMMIT_SHARDS").as_deref(),
            ),
            faults: FaultPlan::from_env(),
            trace: env::trace_from(env::var("MPISIM_TRACE").as_deref()),
            sched_profile: env::sched_profile_from(env::var("MPISIM_SCHED_PROFILE").as_deref()),
            ..SimConfig::default()
        }
    }

    /// Replace the backend.
    pub fn with_backend(mut self, backend: Backend) -> SimConfig {
        self.backend = backend;
        self
    }

    /// Replace the cooperative worker count (any count is deterministic;
    /// more workers only changes wall-clock speed).
    pub fn with_workers(mut self, workers: usize) -> SimConfig {
        self.coop_workers = workers.max(1);
        self
    }

    /// Replace the vendor profile.
    pub fn with_vendor(mut self, vendor: VendorProfile) -> SimConfig {
        self.vendor = vendor;
        self
    }

    /// Replace the cooperative scheduler's epoch-commit algorithm (the
    /// single-threaded [`CommitAlgo::Serial`] survives as the correctness
    /// oracle for the default destination-sharded commit; output is
    /// bit-identical either way).
    pub fn with_commit_algo(mut self, algo: CommitAlgo) -> SimConfig {
        self.commit_algo = algo;
        self
    }

    /// Replace the cooperative scheduler's commit-ordering algorithm (the
    /// single-worker [`SortAlgo::Sort`] survives as the correctness oracle
    /// for the default parallel merge; output is bit-identical either
    /// way).
    pub fn with_sort_algo(mut self, algo: SortAlgo) -> SimConfig {
        self.sort_algo = algo;
        self
    }

    /// Replace the sharded commit's claim-unit cap (0 = auto; any value
    /// yields identical output, see [`SimConfig::coop_commit_shards`]).
    pub fn with_commit_shards(mut self, shards: usize) -> SimConfig {
        self.coop_commit_shards = shards;
        self
    }

    /// Replace the `MPI_Comm_split` algorithm (the legacy
    /// [`crate::model::SplitAlgo::Allgather`] survives as the correctness
    /// oracle for the default distributed sort).
    pub fn with_split_algo(mut self, algo: crate::model::SplitAlgo) -> SimConfig {
        self.vendor.split_algo = algo;
        self
    }

    /// Replace the base RNG seed.
    pub fn with_seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    /// Replace the deadlock-detection timeout.
    pub fn with_timeout(mut self, t: Duration) -> SimConfig {
        self.recv_timeout = t;
        self
    }

    /// Replace the per-rank OS thread stack size (thread backend).
    pub fn with_stack_size(mut self, bytes: usize) -> SimConfig {
        self.stack_size = bytes;
        self
    }

    /// Replace the fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> SimConfig {
        self.faults = plan;
        self
    }

    /// Turn the deterministic event trace on or off (see
    /// [`SimConfig::trace`]).
    pub fn with_trace(mut self, on: bool) -> SimConfig {
        self.trace = on;
        self
    }

    /// Turn the wall-clock scheduler profile on or off (see
    /// [`SimConfig::sched_profile`]).
    pub fn with_sched_profile(mut self, on: bool) -> SimConfig {
        self.sched_profile = on;
        self
    }
}

/// Handed to every rank body.
#[derive(Clone)]
pub struct ProcEnv {
    /// `MPI_COMM_WORLD`.
    pub world: Comm,
}

impl ProcEnv {
    /// This process's world rank.
    pub fn rank(&self) -> usize {
        use crate::transport::Transport;
        self.world.rank()
    }

    /// Number of processes in the universe.
    pub fn size(&self) -> usize {
        use crate::transport::Transport;
        self.world.size()
    }

    /// This rank's simulator state.
    pub fn state(&self) -> &Arc<ProcState> {
        self.world.proc_state()
    }

    /// This rank's virtual clock.
    pub fn now(&self) -> Time {
        self.state().now()
    }
}

/// Outcome of a simulation: per-rank return values, final virtual clocks,
/// and the total message traffic.
#[derive(Debug)]
pub struct SimResult<R> {
    /// Each rank body's return value, indexed by rank.
    pub per_rank: Vec<R>,
    /// Each rank's virtual clock at exit.
    pub clocks: Vec<Time>,
    /// Total messages/bytes sent during the run.
    pub traffic: crate::proc::Traffic,
    /// Deterministic model counters of the run (messages, bytes,
    /// per-class volumes, mailbox scans, epochs, wake-ups, resumptions) —
    /// pure functions of `(program, seed, fault plan)` on the poll
    /// backend, so CI gates them with exact equality. Always collected;
    /// the scheduler fields are zero under [`Backend::Threads`].
    pub metrics: crate::obs::MetricsSnapshot,
    /// The deterministic event trace, when [`SimConfig::trace`] was on.
    pub trace: Option<crate::obs::Trace>,
    /// The wall-clock scheduler phase profile, when
    /// [`SimConfig::sched_profile`] was on (poll backend only).
    pub sched_profile: Option<crate::obs::SchedProfile>,
}

impl<R> SimResult<R> {
    /// Makespan: the latest rank clock — what the paper reports as the
    /// running time of an operation executed by all processes.
    pub fn max_time(&self) -> Time {
        self.clocks.iter().copied().max().unwrap_or(Time::ZERO)
    }

    /// The earliest rank clock at exit.
    pub fn min_time(&self) -> Time {
        self.clocks.iter().copied().min().unwrap_or(Time::ZERO)
    }
}

/// Entry point; stateless. See [`Universe::run`].
pub struct Universe;

impl Universe {
    /// Run the synchronous rank body `f` on `p` simulated processes, one
    /// OS thread per rank ([`Backend::Threads`]), and collect results.
    /// Panics in any rank propagate. The cooperative scheduler runs only
    /// async bodies, so [`Backend::Poll`] panics here: use
    /// [`Universe::run_poll`].
    pub fn run<R, F>(p: usize, cfg: SimConfig, f: F) -> SimResult<R>
    where
        R: Send,
        F: Fn(ProcEnv) -> R + Send + Sync,
    {
        assert!(
            cfg.backend == Backend::Threads,
            "Backend::Poll runs async rank bodies: use Universe::run_poll \
             (the synchronous Universe::run cannot drive poll-mode tasks)"
        );
        // On rank threads `run_poll` calls the body on the rank's own
        // thread, so a ready future runs `f` exactly as a sync body.
        Self::run_poll(p, cfg, |env| std::future::ready(f(env)))
    }

    /// Run the async rank body `f` on `p` simulated processes. This is
    /// the entry point for [`Backend::Poll`]: each rank's future becomes
    /// a pollable state machine stepped by the epoch scheduler, so
    /// universes can reach p = 2^20 and beyond. Under
    /// [`Backend::Threads`] the same future is driven to completion on
    /// its rank's thread ([`crate::block_inline`]: every await resolves
    /// in place), so one async program serves both backends. Panics in
    /// any rank propagate.
    pub fn run_poll<R, F, Fut>(p: usize, cfg: SimConfig, f: F) -> SimResult<R>
    where
        R: Send,
        F: Fn(ProcEnv) -> Fut + Send + Sync,
        Fut: std::future::Future<Output = R> + Send,
    {
        assert!(p >= 1, "need at least one process");
        let mut router = Router::new(
            p,
            cfg.cost.clone(),
            cfg.vendor.clone(),
            cfg.recv_timeout,
            FaultState::resolve(&cfg.faults, p),
        );
        if cfg.trace {
            router.enable_trace();
        }
        let router = Arc::new(router);
        let states: Vec<Arc<ProcState>> = (0..p)
            .map(|r| ProcState::new(r, Arc::clone(&router), cfg.seed))
            .collect();
        let results: Mutex<Vec<Option<R>>> = Mutex::new((0..p).map(|_| None).collect());

        let (sched_counters, sched_profile) = match cfg.backend {
            Backend::Poll => Self::run_sched(p, &cfg, &f, &router, &states, &results),
            Backend::Threads => {
                Self::run_threads(
                    p,
                    &cfg,
                    &|env| crate::sched::poll::block_inline(f(env)),
                    &states,
                    &results,
                );
                ((0, 0, 0), None)
            }
        };

        assemble_result(
            &router,
            &states,
            results.into_inner(),
            sched_counters,
            sched_profile,
        )
    }

    /// Thread backend: one scoped OS thread per rank.
    fn run_threads<R, F>(
        p: usize,
        cfg: &SimConfig,
        f: &F,
        states: &[Arc<ProcState>],
        results: &Mutex<Vec<Option<R>>>,
    ) where
        R: Send,
        F: Fn(ProcEnv) -> R + Send + Sync,
    {
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for state in states {
                let state = Arc::clone(state);
                let h = std::thread::Builder::new()
                    .name(format!("rank{}", state.global_rank))
                    .stack_size(cfg.stack_size)
                    .spawn_scoped(scope, move || {
                        let rank = state.global_rank;
                        let env = ProcEnv {
                            world: Comm::world(state),
                        };
                        let out = f(env);
                        results.lock()[rank] = Some(out);
                    })
                    .expect("spawn rank thread");
                handles.push(h);
            }
            for h in handles {
                if let Err(e) = h.join() {
                    std::panic::resume_unwind(e);
                }
            }
        });
    }

    /// Poll backend: every rank is a stackless poll-mode state machine
    /// (`crate::sched::poll::FutureBody`) on the shared epoch scheduler,
    /// started in the seeded order. Returns the scheduler's deterministic
    /// `(epochs, wakeups, switches)` counters and — when profiling — its
    /// wall-clock phase profile.
    fn run_sched<R, F, Fut>(
        p: usize,
        cfg: &SimConfig,
        f: &F,
        router: &Arc<Router>,
        states: &[Arc<ProcState>],
        results: &Mutex<Vec<Option<R>>>,
    ) -> ((u64, u64, u64), Option<crate::obs::SchedProfile>)
    where
        R: Send,
        F: Fn(ProcEnv) -> Fut + Send + Sync,
        Fut: std::future::Future<Output = R> + Send,
    {
        let scheduler = sched::Scheduler::new(
            p,
            Arc::clone(router),
            cfg.commit_algo,
            cfg.sort_algo,
            cfg.coop_commit_shards,
            cfg.sched_profile,
            // A solo run owns a private pool set; only a fleet
            // ([`crate::sched::fleet::Fleet`]) shares one across universes.
            Arc::new(sched::SchedPools::default()),
            None,
        );
        let store = scheduler.panic_store();
        for (rank, state) in states.iter().enumerate() {
            let state = Arc::clone(state);
            let fut = async move {
                let env = ProcEnv {
                    world: Comm::world(state),
                };
                let out = f(env).await;
                results.lock()[rank] = Some(out);
            };
            // Panics inside the future are caught per poll step by
            // `FutureBody::proceed` and recorded first-wins.
            let body = sched::poll::FutureBody::new(
                // Safety: `run` below drives every body to completion
                // before returning, so the future's borrows of `f` and
                // `results` never outlive this stack frame.
                unsafe { erase_future_lifetime(Box::pin(fut)) },
                rank,
                Arc::clone(&store),
            );
            unsafe {
                scheduler.spawn(rank, Box::new(body));
            }
        }
        let order = seeded_order(p, cfg.seed);
        if let Some((_rank, payload)) = scheduler.run(cfg.coop_workers, &order) {
            std::panic::resume_unwind(payload);
        }
        (scheduler.counters(), scheduler.take_profile())
    }

    /// Convenience wrapper with default configuration (thread backend).
    pub fn run_default<R, F>(p: usize, f: F) -> SimResult<R>
    where
        R: Send,
        F: Fn(ProcEnv) -> R + Send + Sync,
    {
        Universe::run(p, SimConfig::default(), f)
    }
}

/// The deterministic seeded initial run order of a cooperative run: a
/// Fisher–Yates shuffle of `0..p` driven by a hash of the config seed.
/// Shared verbatim by [`Universe::run_poll`] and fleet admission
/// ([`crate::sched::fleet::Fleet::submit`]) so a universe starts from the
/// same epoch-1 order whichever path launched it.
pub(crate) fn seeded_order(p: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..p).collect();
    let mut rng = StdRng::seed_from_u64(
        seed.wrapping_mul(0xD1B5_4A32_D192_ED03)
            .wrapping_add(0x9E6D),
    );
    for i in (1..p).rev() {
        let j = rng.gen_range(0..i + 1);
        order.swap(i, j);
    }
    order
}

/// Assemble a [`SimResult`] from a completed run's raw state. Shared by
/// the universe entry points and fleet completion so the paths can never
/// drift: per-rank values, final clocks, traffic, the deterministic
/// metrics snapshot (with the scheduler's epoch/wakeup/switch counters
/// spliced in), the optional trace, and the optional wall-clock profile.
pub(crate) fn assemble_result<R>(
    router: &Arc<Router>,
    states: &[Arc<ProcState>],
    results: Vec<Option<R>>,
    sched_counters: (u64, u64, u64),
    sched_profile: Option<crate::obs::SchedProfile>,
) -> SimResult<R> {
    let per_rank = results
        .into_iter()
        .map(|r| r.expect("rank completed"))
        .collect();
    let clocks = states.iter().map(|s| s.now()).collect();
    let traffic = router.traffic();
    let mut metrics = router.metrics_base();
    (metrics.epochs, metrics.wakeups, metrics.switches) = sched_counters;
    let trace = router.collect_trace();
    SimResult {
        per_rank,
        clocks,
        traffic,
        metrics,
        trace,
        sched_profile,
    }
}

/// Erase a rank future's borrow lifetime so it can live in a task slot;
/// see the safety comment at the call site.
unsafe fn erase_future_lifetime<'a>(
    b: std::pin::Pin<Box<dyn std::future::Future<Output = ()> + Send + 'a>>,
) -> std::pin::Pin<Box<dyn std::future::Future<Output = ()> + Send + 'static>> {
    std::mem::transmute(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{Src, Transport};

    #[test]
    fn ranks_see_world() {
        let res = Universe::run_default(5, |env| (env.rank(), env.size()));
        assert_eq!(res.per_rank, vec![(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
    }

    #[test]
    fn ring_send_recv() {
        let res = Universe::run_default(4, |env| {
            let w = &env.world;
            let next = (w.rank() + 1) % 4;
            let prev = (w.rank() + 3) % 4;
            w.send(&[w.rank() as u64], next, 1).unwrap();
            let (v, st) = w.recv::<u64>(Src::Rank(prev), 1).unwrap();
            assert_eq!(st.source, prev);
            v[0]
        });
        assert_eq!(res.per_rank, vec![3, 0, 1, 2]);
    }

    #[test]
    fn clocks_collected() {
        let res = Universe::run_default(2, |env| {
            env.state().charge(Time::from_millis(env.rank() as u64 + 1));
        });
        assert_eq!(res.clocks[0], Time::from_millis(1));
        assert_eq!(res.clocks[1], Time::from_millis(2));
        assert_eq!(res.max_time(), Time::from_millis(2));
        assert_eq!(res.min_time(), Time::from_millis(1));
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates() {
        Universe::run_default(2, |env| {
            if env.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn deterministic_results_across_runs() {
        let run = || {
            Universe::run(3, SimConfig::default().with_seed(7), |env| {
                env.state().rand_index(1_000_000)
            })
            .per_rank
        };
        assert_eq!(run(), run());
    }

    // ---- cooperative backend mirrors ---------------------------------------

    #[test]
    fn coop_ranks_see_world() {
        let res = Universe::run_poll(5, SimConfig::cooperative(), |env| async move {
            (env.rank(), env.size())
        });
        assert_eq!(res.per_rank, vec![(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
    }

    #[test]
    fn coop_ring_send_recv() {
        let res = Universe::run_poll(4, SimConfig::cooperative(), |env| async move {
            let w = &env.world;
            let next = (w.rank() + 1) % 4;
            let prev = (w.rank() + 3) % 4;
            w.send(&[w.rank() as u64], next, 1).unwrap();
            let (v, st) = crate::recv_async::<u64, _>(w, Src::Rank(prev), 1)
                .await
                .unwrap();
            assert_eq!(st.source, prev);
            v[0]
        });
        assert_eq!(res.per_rank, vec![3, 0, 1, 2]);
    }

    #[test]
    #[should_panic]
    fn coop_rank_panic_propagates() {
        Universe::run_poll(2, SimConfig::cooperative(), |env| async move {
            if env.rank() == 1 {
                panic!("boom");
            }
        });
    }

    // The env-knob parser tests (commit algorithm, shard cap, trace, …)
    // live with the parsers in `crate::env`.

    #[test]
    fn coop_bcast_works() {
        let res = Universe::run_poll(8, SimConfig::cooperative(), |env| async move {
            let mut x = vec![env.rank() as u64 * 100];
            env.world.bcast_async(&mut x, 3).await.unwrap();
            x[0]
        });
        assert_eq!(res.per_rank, vec![300; 8]);
    }
}
