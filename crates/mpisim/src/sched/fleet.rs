//! Fleet mode: many seeded universes multiplexed over **one** worker pool.
//!
//! A solo [`Universe::run_poll`](crate::Universe::run_poll) owns its worker threads
//! for the duration of one simulation. That is the right shape for a
//! single large experiment, but the throughput regime — thousands of
//! small seeded universes per second, the batch-dispatch shape of a
//! multi-tenant scheduler — wants the inverse ownership: a [`Fleet`]
//! owns the OS worker pool, and universes are *admitted* to it through a
//! bounded in-flight window.
//!
//! # How workers multiplex universes
//!
//! Each admitted universe keeps its **own** epoch gate, generation-tagged
//! claim cursor, commit state, mailboxes, and virtual clocks — exactly
//! the state a solo `Scheduler` run has. A fleet worker *sweeps* the
//! active set: for each universe it calls
//! `Scheduler::drain_phases`, which claims and executes
//! `Work::{Tasks, Merge, Commit}` units through that universe's own
//! `(gen, cursor)` pair until the universe completes or the tail of its
//! current phase is owned by another worker — then moves on to the next
//! universe. Only when *no* universe yields work does the worker park on
//! the fleet-wide versioned condvar (`FleetSignal`); every multi-unit
//! publish, completion, admission, and shutdown bumps the version, so
//! sleeping is race-free.
//!
//! # Why co-scheduling cannot perturb a universe
//!
//! Determinism of a universe's output is a property of its *commit
//! pipeline*, not of which OS thread executes a claim unit: claims
//! validate the universe's own generation tag, staged sends live in
//! per-task buffers, and deliveries commit in global virtual-time order
//! per universe. Universes never share a commit key space — each has its
//! own router, mailboxes, staged buffers, and clock domain — so the only
//! cross-universe coupling is *which worker runs what when*, which the
//! epoch discipline already proves irrelevant (it is the same proof as
//! worker-count independence; DESIGN.md §5/§7/§11). The shared
//! commit-scratch pools (`SchedPools`) hand out drained buffers whose
//! only cross-universe residue is capacity, which no simulation output
//! observes. Hence: a universe's results, clocks, metrics, RankLogs and
//! trace are **byte-identical** run solo or co-scheduled with any mix of
//! other universes — CI diffs them.
//!
//! ```
//! use mpisim::{Fleet, SimConfig, Transport};
//!
//! let fleet = Fleet::new(2, 4); // 2 workers, 4 universes in flight
//! let handles: Vec<_> = (0..8)
//!     .map(|seed| {
//!         let cfg = SimConfig::cooperative().with_seed(seed);
//!         fleet.submit(8, cfg, |env| async move {
//!             env.world.allreduce_async(&[1u64], |a, b| a + b).await.unwrap()[0]
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     assert_eq!(h.join().per_rank, vec![8; 8]);
//! }
//! ```
//!
//! Per-worker wall-clock profiles ([`crate::obs::WorkerProfile`]) are not
//! attributable to a single universe under a fleet, so a fleet-run
//! universe's [`SchedProfile`](crate::obs::SchedProfile) reports the
//! pool counters with an empty worker list.

use std::any::Any;
use std::collections::VecDeque;
use std::future::Future;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use super::poll::FutureBody;
use super::{Drain, FleetSignal, SchedPools, Scheduler};
use crate::comm::Comm;
use crate::faults::FaultState;
use crate::proc::{ProcState, Router};
use crate::universe::{assemble_result, seeded_order, ProcEnv, SimConfig, SimResult};

/// A universe's completion outcome as stored in its handle slot: the
/// assembled result, or the first rank panic to re-throw at `join`.
type Outcome<R> = Result<SimResult<R>, Box<dyn Any + Send>>;

/// The rendezvous between a fleet worker completing a universe and the
/// submitter waiting on [`FleetHandle::join`].
struct HandleSlot<R> {
    outcome: Mutex<Option<Outcome<R>>>,
    cv: Condvar,
}

/// Handle to one submitted universe; redeem it with
/// [`FleetHandle::join`]. Dropping the handle without joining is fine —
/// the universe still runs to completion (its result is discarded).
pub struct FleetHandle<R> {
    slot: Arc<HandleSlot<R>>,
}

impl<R> FleetHandle<R> {
    /// Block until the universe completes and return its result — the
    /// same [`SimResult`] (per-rank values, clocks, traffic, metrics,
    /// trace) a solo [`Universe::run_poll`](crate::Universe::run_poll) of the same
    /// `(program, config)` produces, byte for byte. A rank panic in the
    /// universe resumes here, exactly like the solo path.
    pub fn join(self) -> SimResult<R> {
        let mut out = self.slot.outcome.lock();
        while out.is_none() {
            self.slot.cv.wait(&mut out);
        }
        match out.take().expect("outcome present") {
            Ok(res) => res,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Whether the universe has completed (non-blocking).
    pub fn is_done(&self) -> bool {
        self.slot.outcome.lock().is_some()
    }
}

/// A deferred admission: builds the universe's runtime (router, states,
/// scheduler, rank bodies) when an in-flight slot frees up.
type Admission = Box<dyn FnOnce(&FleetInner) -> ActiveUni + Send>;

/// The one-shot result collector a reaping worker runs at completion.
type Finisher = Box<dyn FnOnce(&Scheduler) + Send>;

/// One admitted, running universe.
struct ActiveUni {
    sched: Scheduler,
    /// Exactly-once completion guard: the first worker to observe the
    /// universe `Done` wins the reap.
    reaped: AtomicBool,
    /// Collects results into the handle slot; run once by the reaper.
    finish: Mutex<Option<Finisher>>,
}

struct FleetState {
    /// Submissions waiting for an in-flight slot, in submission order.
    queue: VecDeque<Admission>,
    /// Admitted universes, in admission order (the sweep order — a pure
    /// throughput matter; see the module docs).
    active: Vec<Arc<ActiveUni>>,
    /// In-flight slots consumed: `active.len()` plus admissions currently
    /// being built outside the lock. Never exceeds the window.
    used: usize,
}

struct FleetInner {
    workers: usize,
    inflight: usize,
    signal: Arc<FleetSignal>,
    /// Commit-scratch pools shared by every universe this fleet admits
    /// (see [`SchedPools`]): a warm fleet admits a universe of an
    /// already-seen shape without its commit path touching the allocator
    /// — `tests/alloc_free.rs` proves it.
    pools: Arc<SchedPools>,
    state: Mutex<FleetState>,
    shutdown: AtomicBool,
}

/// A shared worker pool that runs many seeded universes concurrently.
///
/// Construct with [`Fleet::new`] (or [`Fleet::from_env`]), submit
/// universes with [`Fleet::submit`], redeem results through the returned
/// [`FleetHandle`]s. Dropping the fleet blocks until every submitted
/// universe has completed, then stops the workers.
pub struct Fleet {
    inner: Arc<FleetInner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Fleet {
    /// Start a fleet of `workers` OS threads admitting at most `inflight`
    /// universes concurrently (both clamped to ≥ 1). The window bounds
    /// peak memory (rank states, mailboxes); neither knob can change any
    /// universe's output.
    pub fn new(workers: usize, inflight: usize) -> Fleet {
        let workers = workers.max(1);
        let inner = Arc::new(FleetInner {
            workers,
            inflight: inflight.max(1),
            signal: Arc::new(FleetSignal::new()),
            pools: Arc::new(SchedPools::default()),
            state: Mutex::new(FleetState {
                queue: VecDeque::new(),
                active: Vec::new(),
                used: 0,
            }),
            shutdown: AtomicBool::new(false),
        });
        let threads = (0..workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("fleet-worker{w}"))
                    .spawn(move || worker_sweep(&inner))
                    .expect("spawn fleet worker")
            })
            .collect();
        Fleet { inner, threads }
    }

    /// A fleet sized from the environment: `MPISIM_COOP_WORKERS` workers
    /// (default 1) and an `MPISIM_FLEET_INFLIGHT` admission window
    /// (default 4; both lenient machine-shape hints, see [`crate::env`]).
    pub fn from_env() -> Fleet {
        use crate::env;
        Fleet::new(
            env::coop_workers_from(env::var("MPISIM_COOP_WORKERS").as_deref()),
            env::fleet_inflight_from(env::var("MPISIM_FLEET_INFLIGHT").as_deref()),
        )
    }

    /// The worker-pool size.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// The admission window (maximum concurrently running universes).
    pub fn inflight(&self) -> usize {
        self.inner.inflight
    }

    /// Submit a universe: `p` ranks running the async rank body
    /// `program` under `cfg` (the cooperative scheduler always executes
    /// it; `cfg.backend` is ignored). Admission happens immediately if an
    /// in-flight slot is free, else when one frees up — submission order
    /// is preserved.
    ///
    /// The universe's output is a pure function of `(program, config)`:
    /// identical whatever else the fleet is running, whatever the
    /// submission order, window, or worker count — byte for byte the
    /// solo [`Universe::run_poll`](crate::Universe::run_poll) result.
    pub fn submit<R, F, Fut>(&self, p: usize, cfg: SimConfig, program: F) -> FleetHandle<R>
    where
        R: Send + 'static,
        F: Fn(ProcEnv) -> Fut + Send + Sync + 'static,
        Fut: Future<Output = R> + Send + 'static,
    {
        assert!(p >= 1, "need at least one process");
        let slot = Arc::new(HandleSlot {
            outcome: Mutex::new(None),
            cv: Condvar::new(),
        });
        let handle = FleetHandle {
            slot: Arc::clone(&slot),
        };
        let program = Arc::new(program);
        let mut adm: Option<Admission> =
            Some(Box::new(move |inner| admit(inner, p, cfg, program, slot)));
        let direct = {
            let mut st = self.inner.state.lock();
            if st.used < self.inner.inflight {
                st.used += 1;
                true
            } else {
                st.queue.push_back(adm.take().expect("admission present"));
                false
            }
        };
        if direct {
            // Build the runtime on the submitting thread — the expensive
            // part (router, mailboxes, rank states) stays off the worker
            // pool.
            let uni = Arc::new((adm.take().expect("admission present"))(&self.inner));
            self.inner.state.lock().active.push(uni);
        }
        self.inner.signal.notify();
        handle
    }
}

impl Drop for Fleet {
    /// Waits for every submitted universe to complete, then stops the
    /// worker pool.
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.signal.notify();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Build a universe's runtime — the exact mirror of the solo
/// [`Universe::run_poll`](crate::Universe::run_poll) construction:
/// same router, same per-rank states, same seeded epoch-1 order, same
/// result assembly — so fleet and solo runs of one `(program, config)`
/// cannot diverge by construction.
fn admit<R, F, Fut>(
    inner: &FleetInner,
    p: usize,
    cfg: SimConfig,
    program: Arc<F>,
    slot: Arc<HandleSlot<R>>,
) -> ActiveUni
where
    R: Send + 'static,
    F: Fn(ProcEnv) -> Fut + Send + Sync + 'static,
    Fut: Future<Output = R> + Send + 'static,
{
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
    let results: Arc<Mutex<Vec<Option<R>>>> = Arc::new(Mutex::new((0..p).map(|_| None).collect()));
    let sched = Scheduler::new(
        p,
        Arc::clone(&router),
        cfg.commit_algo,
        cfg.sort_algo,
        cfg.coop_commit_shards,
        cfg.sched_profile,
        Arc::clone(&inner.pools),
        Some(Arc::clone(&inner.signal)),
    );
    let store = sched.panic_store();
    for (rank, state) in states.iter().enumerate() {
        let state = Arc::clone(state);
        let program = Arc::clone(&program);
        let results = Arc::clone(&results);
        let fut = async move {
            let out = program(ProcEnv {
                world: Comm::world(state),
            })
            .await;
            results.lock()[rank] = Some(out);
        };
        let body = FutureBody::new(Box::pin(fut), rank, Arc::clone(&store));
        // Safety: unlike the solo path, the body owns (`Arc`s) everything
        // it captures, so it genuinely is `'static` — no lifetime erasure
        // involved.
        unsafe {
            sched.spawn(rank, Box::new(body));
        }
    }
    let order = seeded_order(p, cfg.seed);
    sched.prepare(inner.workers, &order);
    let finish: Box<dyn FnOnce(&Scheduler) + Send> = Box::new(move |sched| {
        let outcome = match sched.take_panic() {
            Some((_rank, payload)) => Err(payload),
            None => {
                let per = std::mem::take(&mut *results.lock());
                Ok(assemble_result(
                    &router,
                    &states,
                    per,
                    sched.counters(),
                    sched.take_profile(),
                ))
            }
        };
        *slot.outcome.lock() = Some(outcome);
        slot.cv.notify_all();
    });
    ActiveUni {
        sched,
        reaped: AtomicBool::new(false),
        finish: Mutex::new(Some(finish)),
    }
}

/// The fleet worker loop: sweep every active universe, reap completed
/// ones, park on the signal when nothing is runnable.
fn worker_sweep(inner: &Arc<FleetInner>) {
    // Fleet workers keep a scratch profile: per-worker wall-clock phase
    // timings are meaningless across universes (see the module docs), so
    // they are dropped; universes still report pool counters.
    let mut prof = crate::obs::WorkerProfile::default();
    loop {
        // Read the version *before* sweeping: any event during the sweep
        // (publish, completion, admission) makes the final `wait_past`
        // return immediately, so no wakeup can be lost.
        let seen = inner.signal.version();
        let active: Vec<Arc<ActiveUni>> = inner.state.lock().active.clone();
        for uni in &active {
            if let Drain::Done = uni.sched.drain_phases(&mut prof) {
                reap(inner, uni);
            }
        }
        {
            let st = inner.state.lock();
            if inner.shutdown.load(Ordering::Acquire) && st.active.is_empty() && st.queue.is_empty()
            {
                break;
            }
        }
        inner.signal.wait_past(seen);
    }
}

/// Complete a finished universe exactly once: free its in-flight slot,
/// admit the next queued submission, then collect its results into the
/// handle slot.
fn reap(inner: &Arc<FleetInner>, uni: &Arc<ActiveUni>) {
    if uni.reaped.swap(true, Ordering::AcqRel) {
        return;
    }
    let next_adm = {
        let mut st = inner.state.lock();
        st.active.retain(|a| !Arc::ptr_eq(a, uni));
        st.used -= 1;
        if st.used < inner.inflight {
            st.queue.pop_front().inspect(|_| st.used += 1)
        } else {
            None
        }
    };
    if let Some(adm) = next_adm {
        let next = Arc::new(adm(inner));
        inner.state.lock().active.push(next);
        // Wake sleeping workers for the fresh universe before the
        // (potentially slow) result collection below.
        inner.signal.notify();
    }
    let finish = uni
        .finish
        .lock()
        .take()
        .expect("finish closure runs exactly once");
    finish(&uni.sched);
    inner.signal.notify();
}
