//! Host-cost benchmark of the simulator.
//!
//! Each workload runs one seeded universe of `p` poll-mode ranks through
//! the public [`mpisim::Universe::run_poll`] API, checks every rank's
//! output, and measures the universe from outside: host wall clock,
//! set-up and tear-down, the deterministic model counters of
//! [`mpisim::SimResult::metrics`], the scheduler profile of a traced run,
//! and the benchmark's own host and virtual timers around calls into
//! `rbc`, `mpisim::comm` and `jquick` ([`timing`]).
//!
//! One process runs one universe, so the process's peak resident memory
//! belongs to that universe. `run.py` starts the processes, takes
//! medians, and cross-checks determinism between them.

use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use mpisim::{Backend, MetricsSnapshot, ProcEnv, SchedProfile, SimConfig, SimResult, Universe};

pub mod report;
pub mod timing;
mod workloads;

use timing::Clock;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One Janus Quicksort over RBC communicators, n/p = 8, uniform keys.
    JQuick,
    /// RBC split + iallreduce, native split + allreduce, and
    /// `create_group` + allreduce, side by side, for several rounds.
    CommCreate,
    /// Every rank sends one-word messages to eight neighbours on three
    /// tags and receives them with `Src::Any`, for several rounds.
    WildcardStorm,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::JQuick,
        Workload::CommCreate,
        Workload::WildcardStorm,
    ];

    /// The workload's name on the command line and in the report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::JQuick => "jquick",
            Workload::CommCreate => "comm_create",
            Workload::WildcardStorm => "wildcard_storm",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Scheduler workers the workload runs on.
    pub fn workers(self) -> usize {
        match self {
            Workload::WildcardStorm => 2,
            _ => 1,
        }
    }

    /// Operations per rank: one rank's part in one workload step.
    pub fn steps_per_rank(self) -> u64 {
        match self {
            Workload::JQuick => 1,
            Workload::CommCreate => 3 * workloads::comm_create::ROUNDS as u64,
            Workload::WildcardStorm => workloads::storm::ROUNDS as u64,
        }
    }
}

/// One measured universe.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Ranks in the universe.
    pub p: usize,
    /// Scheduler workers.
    pub workers: usize,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Run with the event trace and the scheduler profile on.
    pub traced: bool,
    /// Corrupt one rank's output on purpose, so tests can prove that the
    /// output checks count it as a failed operation.
    pub corrupt: bool,
}

impl Spec {
    /// The benchmark's configuration of `workload`: p = 4096 on the
    /// workload's worker count, tracing off.
    pub fn new(workload: Workload, seed: u64) -> Spec {
        Spec {
            workload,
            p: 4096,
            workers: workload.workers(),
            seed,
            traced: false,
            corrupt: false,
        }
    }

    /// The simulator configuration: the poll backend, built from the
    /// defaults rather than the environment, so no `MPISIM_*` variable
    /// changes what is measured.
    fn config(&self) -> SimConfig {
        SimConfig::default()
            .with_backend(Backend::Poll)
            .with_workers(self.workers)
            .with_seed(mix(self.seed ^ 0x005e_ed0f_5eed))
            .with_trace(self.traced)
            .with_sched_profile(self.traced)
    }
}

/// What one rank body reports: its failed operations and why.
#[derive(Debug, Default)]
pub struct RankOut {
    /// Operations of this rank that failed a check or returned an error.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub errors: Vec<String>,
}

impl RankOut {
    /// Count one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 2 {
            self.errors.push(why.into());
        }
    }
}

/// The benchmark's own timers around calls into the layers. Host values
/// vary run to run; virtual values (`*_us`) and the counts are
/// deterministic. A workload leaves the timers of layers it does not call
/// at zero.
#[derive(Clone, Debug, Default)]
pub struct Probes {
    /// Host seconds in native `split_async`, summed over rounds.
    pub comm_split_host_s: f64,
    /// Host seconds in native `create_group_async`, summed over rounds.
    pub comm_create_group_host_s: f64,
    /// Host seconds in native `allreduce_async`, summed over calls.
    pub comm_allreduce_host_s: f64,
    /// Virtual makespan of one native split, mean over rounds (µs).
    pub comm_split_us: f64,
    /// Virtual makespan of one `create_group`, mean over rounds (µs).
    pub comm_create_group_us: f64,
    /// Virtual makespan of one native allreduce, mean over calls (µs).
    pub comm_allreduce_us: f64,
    /// Sorted host self times of every RBC split call (ns).
    pub rbc_split_host_ns: Vec<u64>,
    /// Host seconds in RBC `iallreduce`, summed over rounds.
    pub rbc_allreduce_host_s: f64,
    /// Virtual cost of one RBC split, the maximum over calls (µs).
    pub rbc_split_us: f64,
    /// Virtual makespan of one RBC iallreduce, mean over rounds (µs).
    pub rbc_allreduce_us: f64,
    /// Host seconds generating JQuick input, summed over ranks (the call
    /// never suspends, so this is its exact self time).
    pub jquick_generate_host_s: f64,
    /// Host span of the sort.
    pub jquick_sort_host_s: f64,
    /// Host span of the output check.
    pub jquick_verify_host_s: f64,
    /// Virtual makespan of the sort (µs).
    pub jquick_sort_us: f64,
    /// Virtual makespan of the sort's distributed phase (µs).
    pub jquick_distributed_us: f64,
    /// Maximum over ranks of the deepest recursion level.
    pub jquick_max_level: u64,
    /// Maximum over ranks of communicators created.
    pub jquick_comm_creations: u64,
    /// Maximum over ranks of degenerate-split retries.
    pub jquick_stuck_retries: u64,
}

impl Probes {
    /// The deterministic part, hashed into the run's digest.
    fn virtual_part(&self) -> [u64; 10] {
        [
            self.comm_split_us.to_bits(),
            self.comm_create_group_us.to_bits(),
            self.comm_allreduce_us.to_bits(),
            self.rbc_split_host_ns.len() as u64,
            self.rbc_split_us.to_bits(),
            self.rbc_allreduce_us.to_bits(),
            self.jquick_sort_us.to_bits(),
            self.jquick_distributed_us.to_bits(),
            self.jquick_max_level,
            self.jquick_comm_creations ^ (self.jquick_stuck_retries << 32),
        ]
    }
}

/// The measurements of one universe.
#[derive(Debug)]
pub struct Outcome {
    /// What ran.
    pub spec: Spec,
    /// Operations attempted: ranks × steps.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub errors: Vec<String>,
    /// Host seconds from the `run_poll` call to its return.
    pub wall_s: f64,
    /// Host seconds from the `run_poll` call to the first poll of the
    /// first rank body.
    pub setup_s: f64,
    /// Host seconds from the last rank body's return to `run_poll`
    /// returning.
    pub teardown_s: f64,
    /// The simulated makespan (µs).
    pub makespan_us: f64,
    /// Hash of every rank clock, every model counter, every rank's
    /// failure count and the virtual probes: equal digests mean equal
    /// deterministic results.
    pub digest: u64,
    /// The deterministic model counters.
    pub metrics: MetricsSnapshot,
    /// The scheduler profile (traced runs only).
    pub profile: Option<SchedProfile>,
    /// The benchmark's own timers.
    pub probes: Probes,
}

/// Run one universe and measure it.
pub fn run(spec: &Spec) -> Outcome {
    let clock = Clock::start();
    let (launch, probes) = match spec.workload {
        Workload::JQuick => workloads::jquick::run(spec, &clock),
        Workload::CommCreate => workloads::comm_create::run(spec, &clock),
        Workload::WildcardStorm => workloads::storm::run(spec, &clock),
    };
    let attempted = spec.p as u64 * spec.workload.steps_per_rank();
    let ns = |v: u64| v as f64 / 1e9;
    let mut out = Outcome {
        spec: spec.clone(),
        attempted,
        failed: attempted,
        errors: Vec::new(),
        wall_s: ns(launch.wall_ns),
        setup_s: ns(launch.setup_ns),
        teardown_s: ns(launch.teardown_ns),
        makespan_us: 0.0,
        digest: 0,
        metrics: MetricsSnapshot::default(),
        profile: None,
        probes,
    };
    match launch.result {
        Err(panic) => out.errors.push(format!("rank body panicked: {panic}")),
        Ok(res) => {
            out.failed = res.per_rank.iter().map(|r| r.failed).sum();
            out.errors = res
                .per_rank
                .iter()
                .enumerate()
                .flat_map(|(rank, r)| r.errors.iter().map(move |e| format!("rank {rank}: {e}")))
                .take(4)
                .collect();
            out.makespan_us = res.max_time().as_nanos() as f64 / 1e3;
            out.digest = digest(&res, &out.probes);
            out.metrics = res.metrics;
            out.profile = res.sched_profile;
        }
    }
    if let Some(why) = out
        .profile
        .as_ref()
        .and_then(|profile| report::closure_error(profile, out.wall_s * 1e9))
    {
        out.failed += 1;
        out.errors.push(why);
    }
    out
}

/// A universe's result and the host timestamps around it.
struct Launch {
    result: Result<SimResult<RankOut>, String>,
    wall_ns: u64,
    setup_ns: u64,
    teardown_ns: u64,
}

/// Run `body` on every rank of `spec`'s universe, timing set-up (call to
/// the first poll of the first rank body) and tear-down (last body's
/// return to `run_poll` returning). A panic in any rank is caught and
/// reported; every operation of that universe then counts as failed.
fn launch<F, Fut>(spec: &Spec, clock: &Clock, body: F) -> Launch
where
    F: Fn(ProcEnv) -> Fut + Send + Sync,
    Fut: Future<Output = RankOut> + Send,
{
    let first_poll = AtomicU64::new(u64::MAX);
    let last_exit = AtomicU64::new(0);
    let cfg = spec.config();
    let t_call = clock.ns();
    let result = catch_unwind(AssertUnwindSafe(|| {
        Universe::run_poll(spec.p, cfg, |env| {
            // Called inside the first poll of this rank's body.
            first_poll.fetch_min(clock.ns(), Relaxed);
            let fut = body(env);
            let last_exit = &last_exit;
            async move {
                let out = fut.await;
                last_exit.fetch_max(clock.ns(), Relaxed);
                out
            }
        })
    }));
    let t_ret = clock.ns();
    Launch {
        result: result.map_err(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string())
        }),
        wall_ns: t_ret - t_call,
        setup_ns: first_poll.load(Relaxed).saturating_sub(t_call),
        teardown_ns: t_ret.saturating_sub(last_exit.load(Relaxed)),
    }
}

/// The deterministic digest of a run (see [`Outcome::digest`]).
fn digest(res: &SimResult<RankOut>, probes: &Probes) -> u64 {
    let counters = res.metrics.to_json();
    let words = res
        .clocks
        .iter()
        .map(|t| t.as_nanos())
        .chain(res.per_rank.iter().map(|r| r.failed))
        .chain(counters.bytes().map(u64::from))
        .chain(probes.virtual_part());
    words.fold(0x243f_6a88_85a3_08d3, |h, w| mix(h ^ w))
}

/// splitmix64: the seed mixer for inputs and digests.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash a seed with a tuple of small integers (round, rank, ...).
pub(crate) fn hash(seed: u64, parts: &[u64]) -> u64 {
    parts.iter().fold(mix(seed), |h, &x| mix(h ^ x))
}

/// The process's peak resident memory (`VmHWM`) in KiB, or 0 where
/// `/proc` does not report it.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
