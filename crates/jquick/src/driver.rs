//! The JQuick driver: recursion, janus processes, and phase 2.
//!
//! Every process runs this loop over its ≤ 2 active tasks (a process can be
//! the last process of one task and the first of the next — a *janus*; see
//! the window argument in DESIGN.md). One iteration ("wave"):
//!
//! 1. run the level state machines of all active tasks **concurrently**
//!    (round-robin polling — the janus requirement of §VII);
//! 2. process outcomes in task-position order: queue base cases, retry
//!    degenerate splits with the flipped comparator (settling tasks whose
//!    elements are all equal), and collect pending subtask creations;
//! 3. create subtask communicators in schedule order (cascaded or
//!    alternating, §VIII-C) — O(1) local for RBC, blocking collective for
//!    native MPI.
//!
//! When no active tasks remain, phase 2 executes all queued base cases
//! concurrently, and the settled pieces are assembled into the output.

use std::sync::Arc;
use std::time::Duration;

use mpisim::proc::{ProcState, StallDeadline};
use mpisim::{coll, Comm, Datum, MpiError, Result, SortKey, Time, Transport};

use crate::backend::{Backend, Schedule};
use crate::basecase::{BaseSm, BaseTask, Settled};
use crate::exchange::AssignmentKind;
use crate::layout::{Layout, TaskRange};
use crate::level::{LevelOutcome, LevelSm};
use crate::pivot::PivotCfg;

/// Wall-clock ceiling per wave (last-resort deadlock detector when the
/// configured receive timeout cannot be consulted).
const WAVE_TIMEOUT: Duration = Duration::from_secs(60);

/// Arm the per-wave stall detector: twice the configured blocking-receive
/// timeout, so the point-to-point deadlock detector (which carries exact
/// blame) gets to fire first; this is the backstop for pure polling
/// loops. The deadline re-arms on global progress — one wave at p = 2^18
/// on a single core legitimately outlives any fixed budget while every
/// rank stays live (see [`StallDeadline`]).
fn wave_stall(state: &Arc<ProcState>) -> StallDeadline {
    let t = state.router.recv_timeout.min(WAVE_TIMEOUT / 2);
    StallDeadline::new(Some(&state.router), t * 2)
}

/// User tags for the driver's blocking agreements.
const TAG_MINMAX: u64 = 70;
const TAG_CREATE_BASE: u64 = 60;

/// Tunables of a JQuick run (all defaults follow the paper).
#[derive(Clone, Debug)]
pub struct JQuickConfig {
    /// Janus group-splitting schedule (§VIII-C).
    pub schedule: Schedule,
    /// Small/large exchange assignment strategy.
    pub assignment: AssignmentKind,
    /// Pivot-selection parameters.
    pub pivot: PivotCfg,
    /// Degenerate-split retries before checking whether the task's
    /// elements are all equal (and settling it in place if so).
    pub max_stuck_retries: u32,
}

impl Default for JQuickConfig {
    fn default() -> Self {
        JQuickConfig {
            schedule: Schedule::Alternating,
            assignment: AssignmentKind::Greedy,
            pivot: PivotCfg::default(),
            max_stuck_retries: 3,
        }
    }
}

/// Per-process statistics of one sort.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SortStats {
    /// Deepest recursion level this process participated in.
    pub max_level: u32,
    /// Communicators this process helped create (0 for RBC in spirit —
    /// RBC splits are counted too but cost O(1)).
    pub comm_creations: usize,
    /// Base cases executed on a single process.
    pub base_1: usize,
    /// Base cases executed on two processes (janus pairs).
    pub base_2: usize,
    /// Degenerate-split retries.
    pub stuck_retries: u32,
    /// Tasks settled because all their elements were equal.
    pub settled_equal: usize,
    /// Virtual time when the distributed phase ended (phase 2 start).
    pub distributed_end: Time,
}

struct ActiveTask<T, C> {
    task: TaskRange,
    comm: C,
    /// Global index of the task's first process (maps comm ranks to
    /// global process indices).
    first_proc: u64,
    level: u32,
    stuck: u32,
    data: Vec<T>,
}

struct PendingCreate<T, C> {
    parent_comm: C,
    parent_first: u64,
    sub: TaskRange,
    level: u32,
    data: Vec<T>,
}

/// Sort `data` across all processes of `world`. `n` is the global element
/// count; this process must hold exactly `Layout::new(n, p).cap(rank)`
/// elements (perfect input balance, as the paper assumes). Returns this
/// process's sorted output slice — exactly the same count (perfect output
/// balance) — plus statistics.
pub fn jquick_sort<T, B>(
    backend: &B,
    world: &Comm,
    data: Vec<T>,
    n: u64,
    cfg: &JQuickConfig,
) -> Result<(Vec<T>, SortStats)>
where
    T: SortKey + Datum,
    B: Backend,
{
    mpisim::block_inline(jquick_sort_async(backend, world, data, n, cfg))
}

/// Maybe-async core of [`jquick_sort`]: the identical algorithm, but every
/// blocking agreement (the all-equal min/max all-reduce, native
/// `create_group`, and the polling loops' yields) suspends instead of
/// parking, so the whole sort can run as a `Backend::Poll` rank body at
/// process counts far past what one OS thread per rank can reach.
pub async fn jquick_sort_async<T, B>(
    backend: &B,
    world: &Comm,
    data: Vec<T>,
    n: u64,
    cfg: &JQuickConfig,
) -> Result<(Vec<T>, SortStats)>
where
    T: SortKey + Datum,
    B: Backend,
{
    let p = world.size() as u64;
    let me = world.rank() as u64;
    let layout = Layout::new(n, p);
    if data.len() as u64 != layout.cap(me) {
        return Err(MpiError::Usage(format!(
            "rank {me} got {} elements, capacity is {}",
            data.len(),
            layout.cap(me)
        )));
    }
    let wc = backend.world(world)?;
    let mut stats = SortStats::default();
    let mut bases: Vec<BaseTask<T>> = Vec::new();
    let mut settled: Vec<Settled<T>> = Vec::new();
    let mut active: Vec<ActiveTask<T, B::C>> = Vec::new();

    let root = TaskRange { lo: 0, hi: n };
    if root.nprocs(&layout) <= 2 {
        bases.push(BaseTask { task: root, data });
    } else {
        active.push(ActiveTask {
            task: root,
            comm: wc_clone(&wc),
            first_proc: 0,
            level: 0,
            stuck: 0,
            data,
        });
    }

    // ---- distributed phase --------------------------------------------------
    let mut wave = 0u32;
    while !active.is_empty() {
        // Trace phase marker (no-op unless tracing is on): one per wave of
        // concurrent level machines, at this rank's current virtual time.
        mpisim::obs::mark(world.proc_state(), || format!("jquick wave {wave}"));
        wave += 1;
        // 1. Start and drive all level machines concurrently.
        let mut metas = Vec::new();
        let mut sms = Vec::new();
        active.sort_by_key(|t| t.task.lo);
        for at in active.drain(..) {
            let ActiveTask {
                task,
                comm,
                first_proc,
                level,
                stuck,
                data,
            } = at;
            stats.max_level = stats.max_level.max(level);
            let sm = LevelSm::start(
                clone_c::<B>(&comm),
                backend.coll_scales(&comm),
                layout,
                task,
                level,
                cfg.assignment,
                &cfg.pivot,
                data,
            )?;
            metas.push(TaskMeta {
                task,
                comm,
                first_proc,
                level,
                stuck,
            });
            sms.push(sm);
        }
        poll_all_levels(world.proc_state(), &mut sms).await?;

        // 2. Process outcomes left-to-right (the order matters for the
        //    blocking all-equal agreement: leftmost-first is globally
        //    consistent and acyclic).
        let mut pending: Vec<PendingCreate<T, B::C>> = Vec::new();
        for (meta, mut sm) in metas.into_iter().zip(sms) {
            let outcome = sm.take_outcome().expect("level completed");
            match outcome {
                LevelOutcome::Stuck { data } => {
                    stats.stuck_retries += 1;
                    let stuck = meta.stuck + 1;
                    if stuck >= cfg.max_stuck_retries {
                        // Blocking agreement: are all elements equal?
                        let local_min = data
                            .iter()
                            .copied()
                            .min_by(T::cmp_key)
                            .expect("task load >= 1");
                        let local_max = data.iter().copied().max_by(T::cmp_key).unwrap();
                        let mm = coll::allreduce_async(
                            &meta.comm,
                            &[(local_min, local_max)],
                            TAG_MINMAX,
                            |a: &(T, T), b: &(T, T)| {
                                let mn = if b.0.cmp_key(&a.0).is_lt() { b.0 } else { a.0 };
                                let mx = if b.1.cmp_key(&a.1).is_gt() { b.1 } else { a.1 };
                                (mn, mx)
                            },
                        )
                        .await?[0];
                        if mm.0.cmp_key(&mm.1).is_eq() {
                            // All equal: the task is sorted in place.
                            stats.settled_equal += 1;
                            let my_lo = meta.task.lo.max(layout.prefix(me));
                            settled.push(Settled { lo: my_lo, data });
                            continue;
                        }
                    }
                    // Retry with the flipped comparator and a fresh pivot.
                    active.push(ActiveTask {
                        task: meta.task,
                        comm: meta.comm,
                        first_proc: meta.first_proc,
                        level: meta.level + 1,
                        stuck,
                        data,
                    });
                }
                LevelOutcome::Split {
                    s_total,
                    small,
                    large,
                } => {
                    let (lt, rt) = meta.task.split_at(s_total);
                    for (sub, d) in [(lt, small), (rt, large)] {
                        let my_load = sub.load_of(&layout, me);
                        debug_assert_eq!(d.len() as u64, my_load, "perfect balance violated");
                        if my_load == 0 {
                            continue;
                        }
                        if sub.nprocs(&layout) <= 2 {
                            bases.push(BaseTask { task: sub, data: d });
                        } else {
                            pending.push(PendingCreate {
                                parent_comm: clone_c::<B>(&meta.comm),
                                parent_first: meta.first_proc,
                                sub,
                                level: meta.level + 1,
                                data: d,
                            });
                        }
                    }
                }
            }
        }

        // 3. Create subtask communicators in schedule order.
        debug_assert!(pending.len() <= 2, "a process is in at most two tasks");
        order_pending(&mut pending, &layout, me, cfg.schedule);
        for pc in pending {
            let (f, l) = pc.sub.procs(&layout);
            // The tag must be identical on every member of the new group.
            // Sibling creations on the same parent context share at most
            // one process (the cut janus), so per-level tags suffice —
            // source matching disambiguates the rest (§V-A).
            let tag = TAG_CREATE_BASE + pc.level as u64 % 16;
            let comm = backend
                .split_range_async(
                    &pc.parent_comm,
                    (f - pc.parent_first) as usize,
                    (l - pc.parent_first) as usize,
                    tag,
                )
                .await?;
            stats.comm_creations += 1;
            active.push(ActiveTask {
                task: pc.sub,
                comm,
                first_proc: f,
                level: pc.level,
                stuck: 0,
                data: pc.data,
            });
        }
    }

    stats.distributed_end = world.proc_state().now();
    mpisim::obs::mark(world.proc_state(), || {
        "jquick distributed phase done".to_string()
    });

    // ---- phase 2: base cases -------------------------------------------------
    let mut bsms = Vec::with_capacity(bases.len());
    for bt in bases {
        if bt.task.nprocs(&layout) == 1 {
            stats.base_1 += 1;
        } else {
            stats.base_2 += 1;
        }
        bsms.push(BaseSm::start(&wc, layout, me, bt)?);
    }
    let state = world.proc_state();
    let mut stall = wave_stall(state);
    loop {
        let since = state.progress();
        let mut all = true;
        for sm in bsms.iter_mut() {
            all &= sm.poll()?;
        }
        if all {
            break;
        }
        if stall.stalled() {
            return Err(MpiError::Timeout {
                rank: me as usize,
                waited_for: "base case phase".into(),
                virtual_now: state.now(),
                blame: state.stall_blame(),
            });
        }
        state.yield_or_park_async(since).await;
    }
    for mut sm in bsms {
        settled.push(sm.take().expect("base complete"));
    }
    mpisim::obs::mark(world.proc_state(), || "jquick base cases done".to_string());

    // ---- assemble -------------------------------------------------------------
    settled.sort_by_key(|s| s.lo);
    let (w0, w1) = layout.window(me);
    let mut out = Vec::with_capacity((w1 - w0) as usize);
    let mut expect = w0;
    for s in settled {
        if s.lo != expect {
            return Err(MpiError::Usage(format!(
                "rank {me}: settled pieces not contiguous: expected {expect}, got {}",
                s.lo
            )));
        }
        expect += s.data.len() as u64;
        out.extend(s.data);
    }
    if expect != w1 {
        return Err(MpiError::Usage(format!(
            "rank {me}: output covers [{w0},{expect}) instead of [{w0},{w1})"
        )));
    }
    Ok((out, stats))
}

// Helper shims: `Backend::C: Transport` implies `Clone`, but keeping the
// calls in one place documents that comm handles are cheap to clone.
fn wc_clone<C: Transport>(c: &C) -> C {
    c.clone()
}

fn clone_c<B: Backend>(c: &B::C) -> B::C {
    c.clone()
}

struct TaskMeta<C> {
    task: TaskRange,
    comm: C,
    first_proc: u64,
    level: u32,
    stuck: u32,
}

/// Round-robin polling of all level machines until completion. A pass in
/// which no machine claimed or sent anything parks the rank until its
/// next message arrives (every machine polls to quiescence, so nothing
/// else can unblock it).
async fn poll_all_levels<T, C>(state: &Arc<ProcState>, sms: &mut [LevelSm<T, C>]) -> Result<()>
where
    T: SortKey + Datum,
    C: Transport,
{
    let mut stall = wave_stall(state);
    loop {
        let since = state.progress();
        let mut all = true;
        for sm in sms.iter_mut() {
            all &= sm.poll()?;
        }
        if all {
            return Ok(());
        }
        if stall.stalled() {
            return Err(MpiError::Timeout {
                rank: state.global_rank,
                waited_for: "level state machines".into(),
                virtual_now: state.now(),
                blame: state.stall_blame(),
            });
        }
        state.yield_or_park_async(since).await;
    }
}

/// Apply the janus splitting schedule: with two pending creations, one
/// extends left of me (I am its last process) and one extends right (I am
/// its first); the schedule decides which to create first (§VIII-C).
fn order_pending<T, C>(
    pending: &mut [PendingCreate<T, C>],
    layout: &Layout,
    me: u64,
    schedule: Schedule,
) {
    if pending.len() < 2 {
        return;
    }
    let is_left_extending = |pc: &PendingCreate<T, C>| {
        let (_, l) = pc.sub.procs(layout);
        l == me
    };
    let first_is_left = is_left_extending(&pending[0]);
    let want_left_first = schedule.left_first(me);
    if first_is_left != want_left_first {
        pending.swap(0, 1);
    }
}
