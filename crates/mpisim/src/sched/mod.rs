//! Cooperative rank scheduler: N simulated ranks multiplexed over a small
//! worker pool, **deterministically for any worker count**.
//!
//! The thread backend of [`crate::universe::Universe`] spawns one OS thread
//! per rank, which tops out around a few hundred ranks — far short of the
//! paper's 2^15-process evaluations. This module runs every rank as a
//! **stackless poll body** instead ([`poll::RankBody`], normally the
//! rank's async program wrapped in a future): a blocking point (`recv`,
//! `probe`, a poll loop inside a nonblocking collective) *suspends* the
//! body by returning `Pending` to the scheduler rather than parking an OS
//! thread, and the mailbox layer wakes exactly the ranks whose matching
//! message arrived. A rank costs the few hundred bytes of its future's
//! state, so universes reach p = 2^20 (DESIGN.md §12).
//!
//! # Epoch discipline (deterministic parallelism)
//!
//! Execution proceeds in **epochs** (virtual-time windows). Each epoch has
//! a deterministically ordered set of runnable tasks; workers claim tasks
//! from that set lock-free (an atomic cursor over an immutable round
//! vector) and run them *in parallel*. Parallelism inside an epoch cannot
//! perturb the simulation because epoch-concurrent tasks are **isolated**:
//!
//! * sends are not delivered immediately — they are *staged* in the
//!   sending task's private buffer (`try_stage_send`);
//! * a rank only ever claims messages from its *own* mailbox, and nothing
//!   is pushed into any mailbox while tasks run;
//! * clocks, RNG streams, and context pools are per-rank.
//!
//! So within an epoch no task can observe another epoch-mate's progress,
//! and the OS's thread interleaving is irrelevant. When every task of the
//! epoch has returned from its step (yielded, blocked, or finished), the
//! last worker **commits** the epoch:
//!
//! 1. tasks that yielded re-enter the next round, in their epoch order;
//! 2. all staged messages are delivered in global **virtual-time order** —
//!    keyed by `(matchable_time, sender, seq)`, where `matchable_time` is
//!    the running maximum of arrival times along each sender's program
//!    order (per-sender monotone, so per-sender FIFO non-overtaking is
//!    preserved) and `seq` the sender's send counter. Deliveries wake
//!    blocked receivers, which join the next round in commit order;
//! 3. if the next round is empty while unfinished tasks remain, those
//!    tasks are deadlocked (sends never block) — they are *poisoned* and
//!    woken to return [`MpiError::Timeout`].
//!
//! Step 2 runs under one of two algorithms
//! ([`CommitAlgo`]):
//!
//! * **Serial** (the oracle): the committing worker sorts the staged run
//!   by the global key and pushes every message itself, waking receivers
//!   as it goes.
//! * **Sharded** (the default): the run is sorted *destination-major* —
//!   `(dest, matchable_time, sender, seq)` — so each destination rank's
//!   messages form one contiguous segment whose internal order is exactly
//!   the serial commit's per-mailbox subsequence. Segments are grouped
//!   into shards (never splitting a segment) and **all idle workers claim
//!   shards lock-free** through the same epoch-tagged cursor used for
//!   round claiming, batch-pushing into disjoint mailboxes with zero
//!   cross-shard contention. Wake-ups are *deferred*: each shard records
//!   `(global key of the triggering message, waker)` pairs, and after the
//!   push barrier the finishing worker merges them in global key order —
//!   reproducing the serial wake order bit for bit. See DESIGN.md §7.
//!
//! Orthogonally, *how* the staged run reaches delivery order is itself
//! selectable ([`SortAlgo`]): each task's staged
//! run is already sorted by the global key **by construction** (the key's
//! time component is a running max and `seq` increases along program
//! order), so ordering the epoch is a merge problem, not a sort. The
//! default **Merge** path k-way merges the pre-sorted per-task runs in a
//! single heap-driven pass that moves each entry exactly once — inline
//! for small epochs and 1-worker pools, else as one published merge
//! round whose chunk units every idle worker claims through the same
//! epoch-tagged cursor — while the **Sort** oracle keeps the original
//! global `sort_by_key`. The commit key is unique over the epoch, so both
//! produce the *same* unique sorted order regardless of merge-tree shape
//! (DESIGN.md §10): this knob too is invisible in every simulation
//! output. The merge path additionally recycles every epoch-commit
//! buffer (runs, shards, wake records, round vectors) through per-family
//! free lists, so the commit machinery of a steady-state epoch allocates
//! nothing at one worker (DESIGN.md §10).
//!
//! Every input to this procedure — the round order, each task's behaviour
//! against a frozen mailbox state, the staged-message sort key, the wake
//! merge order — is a pure function of `(program, seed)`. Hence **the
//! merged delivery order, and with it every simulation output, is
//! bit-for-bit identical for any `coop_workers` and either commit
//! algorithm**, including 1 worker. See DESIGN.md §5 for why committing
//! deliveries at epoch boundaries preserves MPI matching semantics.
//!
//! # Blocking protocol (no lost wake-ups)
//!
//! A rank that finds no matching message executes, in order:
//!
//! 1. set its state to `Blocking` (announce intent),
//! 2. subscribe a waker in the mailbox *under the mailbox lock*,
//! 3. return `Pending` with a block intent; the worker downgrades
//!    `Blocking -> Blocked`.
//!
//! Under the epoch discipline all wake-ups fire at commit time, when every
//! task of the round has fully parked — but the `WokenEarly` intermediate
//! state is kept as a defensive backstop: a waker that observes `Blocking`
//! (task still returning from its step) marks it `WokenEarly` and the
//! worker re-enqueues it via the yield path instead of parking it.
//!
//! # Deadlock detection
//!
//! Sends never block, so if a committed epoch produces no runnable task
//! and no staged message woke anyone, no message can ever arrive again:
//! the remaining blocked tasks are deadlocked. The scheduler *poisons*
//! them — each is woken and its pending receive returns
//! [`MpiError::Timeout`] carrying the [`WaitReason`] it was parked on.
//! This replaces the thread backend's wall-clock timeout with an exact,
//! instantaneous detector.

#![allow(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::error::MpiError;
use crate::faults::RoundBlame;
use crate::mailbox::Wake;
use crate::model::{CommitAlgo, SortAlgo};
use crate::msg::Message;
use crate::pool::Pool;
use crate::proc::{Router, WaitReason};
use crate::time::Time;

pub mod fleet;

pub mod poll;

// ---------------------------------------------------------------------------
// Task states and park intents
// ---------------------------------------------------------------------------

/// In a round (or about to be placed in one).
const ST_READY: u8 = 0;
/// Executing on some worker right now.
const ST_RUNNING: u8 = 1;
/// Announced intent to block; still returning from its step.
const ST_BLOCKING: u8 = 2;
/// Fully parked; only a wake-up can move it.
const ST_BLOCKED: u8 = 3;
/// Woken while still in `Blocking`; the worker re-enqueues instead of parking.
const ST_WOKEN_EARLY: u8 = 4;
/// Body returned; never scheduled again.
const ST_FINISHED: u8 = 5;

pub(crate) const INTENT_NONE: u8 = 0;
pub(crate) const INTENT_YIELD: u8 = 1;
pub(crate) const INTENT_BLOCK: u8 = 2;
pub(crate) const INTENT_FINISH: u8 = 3;

/// Task state shared with mailbox wakers (kept alive by `Arc` so a stray
/// waker can never dangle).
struct TaskCore {
    rank: usize,
    status: AtomicU8,
    /// Set by the deadlock detector; blocking operations observe it and
    /// return `MpiError::Timeout` instead of parking again.
    poisoned: AtomicBool,
    /// Why the task is parked (diagnostics; surfaced in deadlock errors).
    wait_reason: Mutex<Option<WaitReason>>,
}

/// Scheduler state shared between workers and wakers.
pub(crate) struct SchedShared {
    /// Tasks woken during the current commit, in commit order — the tail
    /// of the next round. Only the committing worker pushes deliveries, so
    /// the order is deterministic.
    woken: Mutex<Vec<usize>>,
    /// Unfinished tasks.
    live: AtomicUsize,
    /// Task steps run — rank resumptions (deterministic model metric).
    switches: AtomicU64,
    /// Epochs committed (deterministic model metric; incremented once per
    /// `finish_epoch`, which every commit path funnels through).
    epochs: AtomicU64,
    /// Tasks woken by epoch commits (deterministic model metric).
    wakeups: AtomicU64,
    /// First recorded panic payload, with the rank it came from.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
}

/// Moves a task out of its blocked state into the next round. Called by
/// mailbox pushes (via the [`Wake`] impl) and by the deadlock poisoner —
/// both only ever during an epoch commit.
fn wake_core(core: &TaskCore, shared: &SchedShared) {
    loop {
        match core.status.load(Ordering::Acquire) {
            ST_BLOCKED => {
                if core
                    .status
                    .compare_exchange(ST_BLOCKED, ST_READY, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    shared.woken.lock().push(core.rank);
                    return;
                }
            }
            ST_BLOCKING => {
                if core
                    .status
                    .compare_exchange(
                        ST_BLOCKING,
                        ST_WOKEN_EARLY,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    return;
                }
            }
            // Ready / Running / WokenEarly / Finished: already awake (or
            // past caring); the claim loop re-checks the mailbox anyway.
            _ => return,
        }
    }
}

/// The waker subscribed into mailboxes while a task is parked.
struct TaskWaker {
    core: Arc<TaskCore>,
    shared: Arc<SchedShared>,
}

impl Wake for TaskWaker {
    fn wake(&self) {
        wake_core(&self.core, &self.shared);
    }
}

// ---------------------------------------------------------------------------
// Task slots
// ---------------------------------------------------------------------------

struct TaskSlot {
    core: Arc<TaskCore>,
    /// Pre-built waker, cloned into mailbox subscriptions.
    waker: Arc<dyn Wake>,
    /// What the task asked its worker to do when its step returned.
    intent: AtomicU8,
    /// Messages sent by this task during the current epoch, in program
    /// order; drained by the commit phase. Only the task (while `Running`)
    /// and the committing worker (while the task is parked) touch this.
    staged: std::cell::UnsafeCell<Vec<(usize, Message)>>,
    /// The rank's state machine; a claimed task step calls `proceed()`
    /// on it. Dropped on finish so completed ranks release their state
    /// early.
    body: std::cell::UnsafeCell<Option<Box<dyn poll::RankBody>>>,
}

// Safety: `body` and `staged` are only touched by the single worker that
// holds the task in `Running` state (enforced by the status state
// machine), or by the committing worker after the epoch barrier (when no
// task of the round is `Running`).
unsafe impl Sync for TaskSlot {}
unsafe impl Send for TaskSlot {}

thread_local! {
    /// The task currently executing on this worker thread (null outside).
    static CURRENT: Cell<*const ()> = const { Cell::new(std::ptr::null()) };
}

/// Whether the calling code runs inside a poll-mode rank body
/// ([`crate::Backend::Poll`]) rather than on a plain thread: blocking
/// primitives must suspend through the `*_async` path instead of
/// parking.
pub fn on_poll_body() -> bool {
    current_slot().is_some()
}

/// A staged message annotated with its global commit key.
struct CommitEntry {
    /// Running max of the sender's arrival times in program order: the
    /// virtual time at which this message becomes *matchable* (MPI
    /// non-overtaking: it cannot be received before its predecessors).
    matchable: Time,
    src: usize,
    /// The sender's per-epoch send counter (program order).
    seq: u32,
    dest: usize,
    msg: Message,
}

/// The global commit key: total over all staged messages of one epoch
/// (`(src, seq)` alone is already unique). The serial commit pushes in
/// exactly this order; the sharded commit merges wake-ups by it.
type CommitKey = (Time, usize, u32);

impl CommitEntry {
    fn key(&self) -> CommitKey {
        (self.matchable, self.src, self.seq)
    }
}

/// A wake-up recorded during a sharded commit push, deferred past the
/// push barrier: the global key of the triggering message plus the
/// waker to fire during the deterministic merge.
struct WakeRec {
    key: CommitKey,
    /// Tie-break for several waiters of the *same* message: the push
    /// index within the recording shard's wake vector, with the shard
    /// index OR-ed into the high bits when shards are concatenated.
    /// Makes `(key, ord)` unique, so the wake merge can use an
    /// allocation-free unstable sort and still reproduce the stable
    /// concatenation order exactly.
    ord: u64,
    waker: Arc<dyn Wake>,
}

/// A sharded commit in flight: per-shard slices of the
/// destination-major-sorted commit entries, claimed by workers through
/// the epoch-tagged cursor exactly like round tasks.
struct CommitWork {
    /// Shard `i`'s contiguous run of whole per-destination segments.
    /// Only the worker that claimed shard `i` touches element `i`.
    shards: Vec<std::cell::UnsafeCell<Vec<CommitEntry>>>,
    /// Shard `i`'s deferred wake records; same exclusivity.
    wakes: Vec<std::cell::UnsafeCell<Vec<WakeRec>>>,
    /// Tasks that yielded during the epoch — the already-ordered head
    /// of the next round, handed through to the finishing worker.
    next: Mutex<Vec<usize>>,
}

// Safety: `shards[i]`/`wakes[i]` are only touched by the single worker
// that claimed index `i` through the cursor CAS, and by the finishing
// worker after the commit barrier (`round_done` reaching the shard
// count with AcqRel ordering).
unsafe impl Send for CommitWork {}
unsafe impl Sync for CommitWork {}

/// The one published round of the parallel k-way merge
/// ([`SortAlgo::Merge`]): the epoch's staged entries sit flat in
/// `flat`, cut into per-task runs by `bounds` (each run sorted by
/// the global commit key by construction). The worker that claims
/// unit `i` presorts the runs of chunk `ranges[i]` in place
/// (destination-major, when the commit is sharded) and k-way merges
/// them into `outputs[i]` in a single pass. The finishing worker
/// then k-way merges the ≤ 2·workers partial outputs inline and
/// delivers, exactly as the sort path would.
struct MergeWork {
    /// The epoch's staged entries, on loan from the scheduler's
    /// `commit_buf`. Entries are moved out by `ptr::read` during the
    /// round; the finisher resets the length to 0 and returns the
    /// storage. Only `base` touches the contents while the round is
    /// in flight — no `&mut Vec` is ever formed concurrently.
    flat: std::cell::UnsafeCell<Vec<CommitEntry>>,
    /// `flat.as_mut_ptr()`, cached at publish time so claim units
    /// never materialise an aliasing `&mut Vec`.
    base: *mut CommitEntry,
    /// Per-task `[start, end)` entry ranges of `flat`, disjoint and
    /// non-empty.
    bounds: Vec<(usize, usize)>,
    /// `ranges[i]` is the disjoint `[lo, hi)` chunk of `bounds` that
    /// claim unit `i` merges; every chunk is non-empty.
    ranges: Vec<(usize, usize)>,
    /// One partial output run per claim unit.
    outputs: Vec<std::cell::UnsafeCell<Vec<CommitEntry>>>,
    /// Merge key: destination-major (sharded commit) vs the plain
    /// global commit key (serial commit).
    dest_major: bool,
    /// Tasks that yielded during the epoch, threaded through the
    /// round to the eventual commit.
    next: Mutex<Vec<usize>>,
}

// Safety: the entry ranges `bounds[ranges[i].0..ranges[i].1]` of
// `flat` and `outputs[i]` are only touched by the single worker that
// claimed unit `i` through the cursor CAS (the ranges are disjoint),
// and by the finishing worker after the round barrier.
unsafe impl Send for MergeWork {}
unsafe impl Sync for MergeWork {}

/// What the workers are currently claiming: an epoch's task round, a
/// merge round ordering the staged messages, or the sharded commit of
/// the ordered run.
#[derive(Clone)]
enum Work {
    /// Tasks of the current epoch, in deterministic order.
    Tasks(Arc<Vec<usize>>),
    /// The chunked k-way merge round of the staged-message commit.
    Merge(Arc<MergeWork>),
    /// Shards of the finished epoch's staged messages.
    Commit(Arc<CommitWork>),
}

impl Work {
    /// Number of claimable units this phase holds.
    fn units(&self) -> usize {
        match self {
            Work::Tasks(round) => round.len(),
            Work::Merge(mw) => mw.outputs.len(),
            Work::Commit(cw) => cw.shards.len(),
        }
    }
}

/// Phase control: the current claimable work and the generation the
/// lock-free claim cursor validates against.
struct EpochGate {
    /// The current phase's work.
    work: Work,
    /// Generation counter, bumped on every publish (task round or
    /// commit phase); also embedded in the claim cursor.
    gen: u64,
    /// All tasks finished: workers should exit.
    done: bool,
}

/// Auto-sharding floor: a shard below this many entries amortises
/// neither the claim CAS nor the per-destination mailbox lock, so
/// small commits stay on the committing worker.
const MIN_SHARD_ENTRIES: usize = 64;

/// Below this many staged entries a *published* merge round cannot
/// amortise its claim round-trips; the committing worker merges
/// inline instead (identical output by construction). The inline
/// single-pass merge costs ~100 ns/entry, so the published round's
/// gate round-trip (~100–200 µs) only pays off on epochs committing
/// thousands of messages.
const MIN_MERGE_ENTRIES: usize = 8192;

/// Consecutive no-progress epochs (no message staged, no task woken,
/// no task finished — pure yields) tolerated while a crash-stop fault
/// is armed before the scheduler declares the run stalled and poisons
/// every unfinished task. High enough that legitimate bounded polling
/// (a rank yielding a few times before sending) never trips it; the
/// detector is off entirely when the fault plan schedules no crashes,
/// so fault-free programs keep the exact-deadlock-only behaviour.
const STAGNANT_EPOCH_LIMIT: usize = 64;

/// The commit-scratch pool families of a scheduler, split out so a
/// [`fleet::Fleet`] can share one set across every universe it
/// admits (a solo [`Scheduler`] owns a private set). Sharing is
/// unobservable in simulation output: pooled buffers are always handed
/// out drained, so only their *capacity* — never their contents —
/// survives a universe boundary.
#[derive(Default)]
pub(crate) struct SchedPools {
    /// Recycled entry vectors serving both commit shards and merge
    /// runs: every drained (capacity-retaining) vector returns here,
    /// so steady-state commits allocate nothing per epoch.
    entry_pool: Pool<Vec<CommitEntry>>,
    /// Recycled round/next index vectors.
    idx_pool: Pool<Vec<usize>>,
    /// Recycled wake-record vectors.
    wake_pool: Pool<Vec<WakeRec>>,
    /// Recycled `push_segments` scratch (batch + keys + fired buffers).
    scratch_pool: Pool<CommitScratch>,
}

/// Wake channel between schedulers and the fleet worker pool: a
/// versioned condvar. Every event a sweeping fleet worker could be
/// waiting on — a universe publishing a multi-unit phase, a universe
/// completing, an admission, shutdown — bumps the version and wakes
/// the pool, so a worker that reads the version *before* sweeping can
/// sleep on `wait_past` without lost-wakeup races.
pub(crate) struct FleetSignal {
    version: Mutex<u64>,
    cv: Condvar,
}

impl FleetSignal {
    pub(crate) fn new() -> FleetSignal {
        FleetSignal {
            version: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Current version; read before a sweep, passed to `wait_past`.
    pub(crate) fn version(&self) -> u64 {
        *self.version.lock()
    }

    /// Record an event and wake every sleeping fleet worker.
    pub(crate) fn notify(&self) {
        *self.version.lock() += 1;
        self.cv.notify_all();
    }

    /// Sleep until the version moves past `seen` (returns immediately
    /// if it already has).
    pub(crate) fn wait_past(&self, seen: u64) {
        let mut v = self.version.lock();
        while *v == seen {
            self.cv.wait(&mut v);
        }
    }
}

/// Why [`Scheduler::drain_phases`] returned.
pub(crate) enum Drain {
    /// The universe completed: every task finished (or was poisoned
    /// and then finished) and the gate is `done`.
    Done,
    /// No unit of the current phase is claimable and the phase is not
    /// advancing under this worker: another worker owns the phase
    /// tail (it will publish the next phase — and signal, if the
    /// phase is multi-unit — when it finishes). Carries the stalled
    /// generation so a solo worker can sleep on the gate until it
    /// moves.
    Stalled(u64),
}

/// The cooperative scheduler for one universe run.
pub(crate) struct Scheduler {
    shared: Arc<SchedShared>,
    slots: Vec<TaskSlot>,
    router: Arc<Router>,
    gate: Mutex<EpochGate>,
    gate_cv: Condvar,
    /// `((gen mod 2^32) << 32) | next_index` — claims CAS the low
    /// half after validating the high half, so a worker holding a
    /// stale phase can never steal an index from the next one.
    cursor: AtomicU64,
    /// Claim units of the current phase that have completed; the
    /// worker that completes the last one advances the phase.
    round_done: AtomicUsize,
    /// The one big staged-entry vector every epoch gathers into
    /// (reused across epochs): the [`SortAlgo::Sort`] oracle sorts it
    /// in place; the [`SortAlgo::Merge`] path sorts it in place for
    /// small epochs and lends its storage to the published merge
    /// round for wide ones.
    commit_buf: Mutex<Vec<CommitEntry>>,
    /// Reusable per-task run boundary list (`[start, end)` ranges of
    /// `commit_buf`) of the merge path.
    bounds_buf: Mutex<Vec<(usize, usize)>>,
    /// The commit-scratch pools — private to this scheduler for a
    /// solo run, shared across universes under a fleet (see
    /// [`SchedPools`]).
    pools: Arc<SchedPools>,
    /// The owning fleet's wake channel, when this universe runs under
    /// one (`None` for solo runs). Notified whenever a multi-unit
    /// phase is published or the universe completes, so sweeping
    /// fleet workers parked on the fleet condvar — not this
    /// scheduler's `gate_cv` — observe the new work.
    signal: Option<Arc<FleetSignal>>,
    /// Displaced `Work::Tasks` round `Arc`s: `publish_tasks` reuses one
    /// when no worker still holds a clone (always true at 1 worker),
    /// so steady-state round publishing is allocation-free.
    round_pool: Mutex<Vec<Arc<Vec<usize>>>>,
    /// The reusable partial-output run list of the merge finisher.
    runs_buf: Mutex<Vec<Vec<CommitEntry>>>,
    /// How the epoch commit delivers staged messages.
    commit_algo: CommitAlgo,
    /// How the epoch commit orders staged messages (merge vs the
    /// global-sort oracle; see the module docs).
    sort_algo: SortAlgo,
    /// Requested shard-count cap (0 = auto from the worker count).
    commit_shards: usize,
    /// Effective worker count of the current run (set by `run`).
    workers: AtomicUsize,
    /// Messages staged by the epoch being committed (crash-stagnation
    /// progress signal; written by `finish_round`, read at
    /// `finish_epoch`).
    epoch_msgs: AtomicUsize,
    /// Consecutive epochs without observable progress (see
    /// [`STAGNANT_EPOCH_LIMIT`]).
    stagnant: AtomicUsize,
    /// `live` count at the previous epoch's commit (a finish is
    /// progress).
    prev_live: AtomicUsize,
    /// Whether workers record wall-clock phase timings (see
    /// [`crate::obs::SchedProfile`]; host time, **not** deterministic).
    profile: bool,
    /// Per-worker phase profiles, merged by each worker at exit.
    profiles: Mutex<Vec<crate::obs::WorkerProfile>>,
}

impl Scheduler {
    /// Prepare `p` empty task slots; [`Scheduler::spawn`] installs
    /// each rank's [`poll::RankBody`].
    /// `router` is where committed messages are delivered;
    /// `commit_algo`/`sort_algo`/`commit_shards` select and size the
    /// commit pipeline (see [`CommitAlgo`] and [`SortAlgo`]).
    /// `pools` supplies the commit-scratch pools (a fresh private set
    /// for solo runs, the fleet-shared set under a fleet) and
    /// `signal` the owning fleet's wake channel, if any.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        p: usize,
        router: Arc<Router>,
        commit_algo: CommitAlgo,
        sort_algo: SortAlgo,
        commit_shards: usize,
        profile: bool,
        pools: Arc<SchedPools>,
        signal: Option<Arc<FleetSignal>>,
    ) -> Scheduler {
        let shared = Arc::new(SchedShared {
            woken: Mutex::new(Vec::new()),
            live: AtomicUsize::new(p),
            switches: AtomicU64::new(0),
            epochs: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
            panic: Mutex::new(None),
        });
        let mut slots = Vec::with_capacity(p);
        for rank in 0..p {
            let core = Arc::new(TaskCore {
                rank,
                status: AtomicU8::new(ST_READY),
                poisoned: AtomicBool::new(false),
                wait_reason: Mutex::new(None),
            });
            let waker: Arc<dyn Wake> = Arc::new(TaskWaker {
                core: Arc::clone(&core),
                shared: Arc::clone(&shared),
            });
            slots.push(TaskSlot {
                core,
                waker,
                intent: AtomicU8::new(INTENT_NONE),
                staged: std::cell::UnsafeCell::new(Vec::new()),
                body: std::cell::UnsafeCell::new(None),
            });
        }
        Scheduler {
            shared,
            slots,
            router,
            gate: Mutex::new(EpochGate {
                work: Work::Tasks(Arc::new(Vec::new())),
                gen: 0,
                done: false,
            }),
            gate_cv: Condvar::new(),
            cursor: AtomicU64::new(0),
            round_done: AtomicUsize::new(0),
            commit_buf: Mutex::new(Vec::new()),
            pools,
            signal,
            round_pool: Mutex::new(Vec::new()),
            runs_buf: Mutex::new(Vec::new()),
            bounds_buf: Mutex::new(Vec::new()),
            commit_algo,
            sort_algo,
            commit_shards,
            workers: AtomicUsize::new(1),
            epoch_msgs: AtomicUsize::new(0),
            stagnant: AtomicUsize::new(0),
            prev_live: AtomicUsize::new(p),
            profile,
            profiles: Mutex::new(Vec::new()),
        }
    }

    /// Handle for recording a rank body's panic (first one wins).
    pub fn panic_store(&self) -> Arc<SchedShared> {
        Arc::clone(&self.shared)
    }

    /// Install the state machine of `rank`'s task (see
    /// [`poll::RankBody`]).
    ///
    /// # Safety
    /// Anything the body borrows must outlive [`Scheduler::run`] (the
    /// caller transmutes the body to `'static`); `run` finishes or
    /// poisons every task before returning, so the borrow never
    /// escapes.
    pub unsafe fn spawn(&self, rank: usize, body: Box<dyn poll::RankBody>) {
        *self.slots[rank].body.get() = Some(body);
    }

    /// Arm the gate for a run: record the effective worker count
    /// (a pure throughput knob — it sizes shard/merge heuristics that
    /// never affect simulation output) and publish epoch 1 in
    /// `initial_order`. Solo runs call this through [`Scheduler::run`];
    /// a fleet calls it at admission and lets its sweeping workers
    /// drive the gate via [`Scheduler::drain_phases`].
    pub fn prepare(&self, workers: usize, initial_order: &[usize]) {
        self.workers.store(workers.max(1), Ordering::Relaxed);
        let mut g = self.gate.lock();
        g.work = Work::Tasks(Arc::new(initial_order.to_vec()));
        g.gen = 1;
        g.done = initial_order.is_empty();
        self.round_done.store(0, Ordering::Relaxed);
        self.cursor.store(1 << 32, Ordering::Release);
    }

    /// The first recorded rank panic, if any (taken, so a second call
    /// returns `None`).
    pub fn take_panic(&self) -> Option<(usize, Box<dyn Any + Send>)> {
        self.shared.panic.lock().take()
    }

    /// Run every spawned task to completion on `workers` OS threads,
    /// starting epoch 1 in `initial_order`. Returns the first recorded
    /// panic.
    pub fn run(
        &self,
        workers: usize,
        initial_order: &[usize],
    ) -> Option<(usize, Box<dyn Any + Send>)> {
        let workers = workers.max(1);
        self.prepare(workers, initial_order);
        if workers == 1 {
            self.worker_loop(0);
        } else {
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let this = &*self;
                    std::thread::Builder::new()
                        .name(format!("sched-worker{w}"))
                        .spawn_scoped(scope, move || this.worker_loop(w))
                        .expect("spawn scheduler worker");
                }
            });
        }
        self.take_panic()
    }

    /// The scheduler's deterministic model counters after a run:
    /// `(epochs, wakeups, switches)` — all pure functions of the
    /// program, identical for every worker count and commit algorithm.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.shared.epochs.load(Ordering::Relaxed),
            self.shared.wakeups.load(Ordering::Relaxed),
            self.shared.switches.load(Ordering::Relaxed),
        )
    }

    /// The wall-clock phase profile of the run, if profiling was on.
    pub fn take_profile(&self) -> Option<crate::obs::SchedProfile> {
        if !self.profile {
            return None;
        }
        let (pool_hits, pool_misses) = self.pools.entry_pool.counters();
        Some(crate::obs::SchedProfile {
            workers: std::mem::take(&mut *self.profiles.lock()),
            pool_hits,
            pool_misses,
            ..Default::default()
        })
    }

    /// Claim the next unit (task index or commit shard) of the current
    /// phase if `gen` is still current. `None` means: phase drained or
    /// advanced — refresh via the gate.
    fn try_claim(&self, gen: u64, units: usize) -> Option<usize> {
        loop {
            let c = self.cursor.load(Ordering::Acquire);
            // The cursor carries gen mod 2^32; compare masked, or a
            // run past 2^32 phases would never match again and hang.
            if c >> 32 != gen & 0xffff_ffff {
                return None;
            }
            let i = (c & 0xffff_ffff) as usize;
            if i >= units {
                return None;
            }
            if self
                .cursor
                .compare_exchange_weak(c, c + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(i);
            }
        }
    }

    /// Claim and execute units of the current phase — and every phase
    /// it chains into — until the universe completes or the phase
    /// tail is owned by another worker. Never blocks: a solo worker
    /// sleeps on the gate between calls ([`Scheduler::worker_loop`]),
    /// a fleet worker moves on to the next runnable universe and
    /// parks on the fleet condvar only when *no* universe has work.
    ///
    /// This is the per-universe half of the generation-tagged
    /// multi-universe cursor: claims validate this scheduler's own
    /// `(gen, cursor)` pair, so which universes a worker visits — and
    /// in what order — can never leak a claim unit across universes
    /// or perturb the phase sequence within one.
    pub fn drain_phases(&self, prof: &mut crate::obs::WorkerProfile) -> Drain {
        // Wall-clock phase accounting (only when profiling): `Instant`
        // reads stay out of the deterministic domain — they never feed
        // back into scheduling decisions or virtual time.
        let (mut gen, mut work) = {
            let g = self.gate.lock();
            if g.done {
                return Drain::Done;
            }
            (g.gen, g.work.clone())
        };
        loop {
            match self.try_claim(gen, work.units()) {
                Some(i) => {
                    let t0 = self.profile.then(std::time::Instant::now);
                    let mut merged_runs = 0u64;
                    match &work {
                        Work::Tasks(round) => self.run_task(round[i]),
                        Work::Merge(mw) => merged_runs = self.merge_unit(mw, i),
                        Work::Commit(cw) => self.push_shard(cw, i),
                    }
                    if let Some(t0) = t0 {
                        let ns = t0.elapsed().as_nanos() as u64;
                        match &work {
                            Work::Tasks(_) => {
                                prof.run_ns += ns;
                                prof.tasks += 1;
                            }
                            Work::Merge(_) => {
                                prof.merge_ns += ns;
                                prof.merge_runs += merged_runs;
                            }
                            Work::Commit(_) => {
                                prof.commit_ns += ns;
                                prof.shards += 1;
                            }
                        }
                    }
                    if self.round_done.fetch_add(1, Ordering::AcqRel) + 1 == work.units() {
                        // Last unit of the phase: advance it
                        // (single-threaded by construction — every
                        // other worker is either waiting on the gate,
                        // sweeping other universes, or about to).
                        match &work {
                            Work::Tasks(round) => self.finish_round(round),
                            Work::Merge(mw) => self.finish_merge(mw),
                            Work::Commit(cw) => self.finish_commit(cw),
                        }
                    }
                }
                None => {
                    let g = self.gate.lock();
                    if g.done {
                        return Drain::Done;
                    }
                    if g.gen == gen {
                        return Drain::Stalled(gen);
                    }
                    gen = g.gen;
                    work = g.work.clone();
                }
            }
        }
    }

    fn worker_loop(&self, widx: usize) {
        let mut prof = crate::obs::WorkerProfile::default();
        loop {
            match self.drain_phases(&mut prof) {
                Drain::Done => break,
                Drain::Stalled(gen) => {
                    let idle0 = self.profile.then(std::time::Instant::now);
                    let mut g = self.gate.lock();
                    while !g.done && g.gen == gen {
                        self.gate_cv.wait(&mut g);
                    }
                    let done = g.done;
                    drop(g);
                    if let Some(t) = idle0 {
                        prof.idle_ns += t.elapsed().as_nanos() as u64;
                    }
                    if done {
                        break;
                    }
                }
            }
        }
        if self.profile {
            let mut ps = self.profiles.lock();
            if ps.len() <= widx {
                ps.resize_with(widx + 1, Default::default);
            }
            ps[widx] = prof;
        }
    }

    /// Shard-count target for a commit of `entries` staged messages:
    /// the explicit [`SimConfig::coop_commit_shards`] cap when set,
    /// otherwise ~2 claim units per worker with [`MIN_SHARD_ENTRIES`]
    /// as the floor (1 worker ⇒ 1 shard ⇒ the inline fast path).
    ///
    /// The shard count never affects simulation output — per-mailbox
    /// push order and the wake merge are independent of where the
    /// segment run is cut — so this is purely a throughput knob.
    ///
    /// [`SimConfig::coop_commit_shards`]: crate::SimConfig::coop_commit_shards
    fn shard_target(&self, entries: usize) -> usize {
        if entries == 0 {
            return 1;
        }
        if self.commit_shards > 0 {
            return self.commit_shards.min(entries);
        }
        let w = self.workers.load(Ordering::Relaxed).max(1);
        if w == 1 {
            return 1;
        }
        (entries / MIN_SHARD_ENTRIES).clamp(1, 2 * w)
    }

    /// The executed round is complete: requeue yielded tasks, gather
    /// the epoch's staged messages, and run — or publish — the commit.
    fn finish_round(&self, round: &[usize]) {
        // 1. Yielded tasks re-enter first, in their epoch order.
        let mut next = self.pools.idx_pool.take();
        for &tid in round {
            if self.slots[tid].intent.load(Ordering::Acquire) == INTENT_YIELD {
                next.push(tid);
            }
        }
        // 2. Order and deliver the staged messages. The global commit
        // key is monotone along each sender's program order (running
        // max), so per-sender FIFO is preserved; across senders it
        // makes wake-up order — and hence the next round's tail —
        // follow virtual time.
        match self.sort_algo {
            SortAlgo::Sort => self.finish_round_sort(round, next),
            SortAlgo::Merge => self.finish_round_merge(round, next),
        }
    }

    /// The [`SortAlgo::Sort`] oracle: gather every staged message into
    /// one vector and sort it globally — the reference the merge path
    /// is checked against.
    fn finish_round_sort(&self, round: &[usize], next: Vec<usize>) {
        let mut staged = self.commit_buf.lock();
        for &tid in round {
            let out = unsafe { &mut *self.slots[tid].staged.get() };
            let mut matchable = Time::ZERO;
            for (seq, (dest, msg)) in out.drain(..).enumerate() {
                matchable = matchable.max(msg.arrival);
                staged.push(CommitEntry {
                    matchable,
                    src: tid,
                    seq: seq as u32,
                    dest,
                    msg,
                });
            }
        }
        // Progress signal for the crash-stagnation detector: how many
        // messages this epoch stages (a pure function of the epoch
        // contents, so identical under every worker count, commit
        // algorithm, and sort algorithm). Read back by `finish_epoch`.
        self.epoch_msgs.store(staged.len(), Ordering::Relaxed);
        if self.commit_algo == CommitAlgo::Serial {
            // Serial oracle: one global (matchable, src, seq)-ordered
            // push loop on this worker; wakes fire inline, in order.
            staged.sort_by_key(CommitEntry::key);
            for e in staged.drain(..) {
                self.router.mailboxes[e.dest].push(e.msg);
            }
            drop(staged);
            self.finish_epoch(next);
            return;
        }
        // Sharded path: destination-major sort. Each destination's
        // segment is contiguous and internally ordered by the global
        // key — exactly the serial commit's per-mailbox subsequence —
        // so segments can be pushed concurrently without perturbing
        // any mailbox's state.
        staged.sort_by_key(|e| (e.dest, e.matchable, e.src, e.seq));
        let mut buf = std::mem::take(&mut *staged);
        drop(staged);
        self.deliver_sorted(&mut buf, next);
        *self.commit_buf.lock() = buf;
    }

    /// The [`SortAlgo::Merge`] path: per-task staged runs are already
    /// sorted by the global commit key by construction. Entries are
    /// gathered into the shared flat `commit_buf` with per-task run
    /// boundaries recorded on the side. Wide epochs publish one
    /// chunked [`Work::Merge`] round the whole pool claims — each
    /// unit k-way merges a contiguous slice of runs in a single
    /// heap-driven pass that moves every entry exactly once. Small
    /// epochs (and 1-worker pools) instead sort the flat buffer in
    /// place with the allocation-free unstable sort: the commit key
    /// is globally *unique*, so every strategy lands on the same
    /// sorted order — DESIGN.md §10 proves the result bit-identical
    /// to the [`SortAlgo::Sort`] oracle either way.
    fn finish_round_merge(&self, round: &[usize], next: Vec<usize>) {
        let dest_major = self.commit_algo != CommitAlgo::Serial;
        let mut staged = self.commit_buf.lock();
        let mut bounds = std::mem::take(&mut *self.bounds_buf.lock());
        for &tid in round {
            let out = unsafe { &mut *self.slots[tid].staged.get() };
            if out.is_empty() {
                continue;
            }
            let start = staged.len();
            let mut matchable = Time::ZERO;
            for (seq, (dest, msg)) in out.drain(..).enumerate() {
                matchable = matchable.max(msg.arrival);
                staged.push(CommitEntry {
                    matchable,
                    src: tid,
                    seq: seq as u32,
                    dest,
                    msg,
                });
            }
            bounds.push((start, staged.len()));
        }
        let total = staged.len();
        self.epoch_msgs.store(total, Ordering::Relaxed);
        let workers = self.workers.load(Ordering::Relaxed).max(1);
        if workers > 1 && bounds.len() > 2 && total >= MIN_MERGE_ENTRIES {
            let flat = std::mem::take(&mut *staged);
            drop(staged);
            self.publish_merge(flat, bounds, dest_major, next);
            return;
        }
        bounds.clear();
        *self.bounds_buf.lock() = bounds;
        // Inline fast path: below the publish threshold a claim
        // round-trip costs more than the ordering itself, so order
        // the flat buffer in place. The unstable sort is
        // deterministic here because the key is unique, and unlike
        // the oracle's stable sort it allocates no scratch.
        if self.commit_algo == CommitAlgo::Serial {
            staged.sort_unstable_by_key(CommitEntry::key);
            for e in staged.drain(..) {
                self.router.mailboxes[e.dest].push(e.msg);
            }
            drop(staged);
            self.finish_epoch(next);
            return;
        }
        staged.sort_unstable_by_key(|e| (e.dest, e.matchable, e.src, e.seq));
        let mut buf = std::mem::take(&mut *staged);
        drop(staged);
        self.deliver_sorted(&mut buf, next);
        *self.commit_buf.lock() = buf;
    }

    /// [`merge_k`] with heap/cursor scratch drawn from the index pool.
    fn merge_k_pooled(
        &self,
        runs: &mut [Vec<CommitEntry>],
        out: &mut Vec<CommitEntry>,
        dest_major: bool,
    ) {
        let mut pos = self.pools.idx_pool.take();
        let mut heap = self.pools.idx_pool.take();
        merge_k(runs, out, dest_major, &mut pos, &mut heap);
        pos.clear();
        self.pools.idx_pool.put(pos);
        self.pools.idx_pool.put(heap);
    }

    /// Publish the one chunked merge round over the flat staged
    /// buffer: ~2 claim units per worker, each k-way merging a
    /// contiguous chunk of per-task runs into one partial output in
    /// a single pass.
    fn publish_merge(
        &self,
        mut flat: Vec<CommitEntry>,
        bounds: Vec<(usize, usize)>,
        dest_major: bool,
        next: Vec<usize>,
    ) {
        let workers = self.workers.load(Ordering::Relaxed).max(1);
        let units = (bounds.len() / 2).clamp(1, 2 * workers);
        let per = bounds.len().div_ceil(units);
        let ranges: Vec<(usize, usize)> = (0..units)
            .map(|i| (i * per, ((i + 1) * per).min(bounds.len())))
            .filter(|&(lo, hi)| lo < hi)
            .collect();
        let outputs = (0..ranges.len())
            .map(|_| std::cell::UnsafeCell::new(self.pools.entry_pool.take()))
            .collect();
        // Cache the data pointer while this worker still holds the
        // buffer exclusively — claim units must never materialise an
        // aliasing `&mut Vec` of their own.
        let base = flat.as_mut_ptr();
        let mw = Arc::new(MergeWork {
            flat: std::cell::UnsafeCell::new(flat),
            base,
            bounds,
            ranges,
            outputs,
            dest_major,
            next: Mutex::new(next),
        });
        self.publish(Work::Merge(mw));
    }

    /// Claimed merge unit `i`: k-way merge the flat-buffer runs of
    /// chunk `ranges[i]` into `outputs[i]`, presorting each run
    /// slice destination-major first when the commit is sharded.
    /// Returns the number of input runs consumed (profile data).
    fn merge_unit(&self, mw: &MergeWork, i: usize) -> u64 {
        let (lo, hi) = mw.ranges[i];
        let chunk = &mw.bounds[lo..hi];
        // Safety: unit `i` was claimed exclusively through the cursor
        // CAS; the bound ranges are disjoint, so only this worker
        // touches these entries of `flat` (through `base`, never
        // through the `Vec`) and `outputs[i]` until the round
        // barrier.
        let out = unsafe { &mut *mw.outputs[i].get() };
        let mut total = 0;
        for &(s, e) in chunk {
            if mw.dest_major {
                let run = unsafe { std::slice::from_raw_parts_mut(mw.base.add(s), e - s) };
                presort_run(run);
            }
            total += e - s;
        }
        out.reserve(total);
        let mut pos = self.pools.idx_pool.take();
        let mut heap = self.pools.idx_pool.take();
        // Safety: `out` has capacity for the whole chunk, and each
        // entry in `chunk`'s bound ranges is moved out exactly once
        // (the finisher resets `flat`'s length before the moved-out
        // entries could drop through the `Vec`).
        unsafe { merge_k_flat(mw.base, chunk, out, mw.dest_major, &mut pos, &mut heap) };
        pos.clear();
        self.pools.idx_pool.put(pos);
        self.pools.idx_pool.put(heap);
        (hi - lo) as u64
    }

    /// All units of the merge round are done: every staged entry has
    /// been moved into a partial output, so forget the flat buffer's
    /// contents and return its storage, then k-way merge the partial
    /// outputs inline and deliver.
    fn finish_merge(&self, mw: &MergeWork) {
        // Safety: the round barrier has passed; no worker holds a
        // unit any more. Every entry of `flat` was `ptr::read` out by
        // some unit (the ranges tile `bounds`, the bounds tile the
        // buffer), so resetting the length forgets moved-from
        // entries only.
        let flat = unsafe { &mut *mw.flat.get() };
        unsafe { flat.set_len(0) };
        *self.commit_buf.lock() = std::mem::take(flat);
        let mut runs = std::mem::take(&mut *self.runs_buf.lock());
        let mut total = 0;
        for cell in &mw.outputs {
            let out = std::mem::take(unsafe { &mut *cell.get() });
            total += out.len();
            runs.push(out);
        }
        let mut merged = self.pools.entry_pool.take();
        merged.reserve(total);
        self.merge_k_pooled(&mut runs, &mut merged, mw.dest_major);
        for run in runs.drain(..) {
            if run.capacity() > 0 {
                self.pools.entry_pool.put(run);
            }
        }
        *self.runs_buf.lock() = runs;
        let next = std::mem::take(&mut *mw.next.lock());
        self.deliver_merged(&mut merged, next, mw.dest_major);
        if merged.capacity() > 0 {
            self.pools.entry_pool.put(merged);
        }
    }

    /// Deliver the fully merged run: a serial commit pushes inline in
    /// global key order (wakes fire in push order — the oracle's own
    /// order); a sharded commit hands the destination-major run to
    /// the shard pipeline.
    fn deliver_merged(&self, merged: &mut Vec<CommitEntry>, next: Vec<usize>, dest_major: bool) {
        if dest_major {
            self.deliver_sorted(merged, next);
        } else {
            for e in merged.drain(..) {
                self.router.mailboxes[e.dest].push(e.msg);
            }
            self.finish_epoch(next);
        }
    }

    /// Deliver a destination-major-ordered commit run: inline on this
    /// worker for small commits (or a 1-worker pool), else cut into
    /// shards at segment boundaries and published as [`Work::Commit`].
    /// `staged` is drained either way (capacity retained for reuse).
    fn deliver_sorted(&self, staged: &mut Vec<CommitEntry>, next: Vec<usize>) {
        let target = self.shard_target(staged.len());
        if target <= 1 {
            // Inline fast path: no claim round-trip for small commits
            // (or a 1-worker pool). Identical output by construction.
            let mut wakes = self.pools.wake_pool.take();
            let mut scratch = self.pools.scratch_pool.take();
            push_segments(&self.router, staged.drain(..), &mut wakes, &mut scratch);
            self.pools.scratch_pool.put(scratch);
            self.fire_wakes_merged(&mut wakes);
            self.pools.wake_pool.put(wakes);
            self.finish_epoch(next);
            return;
        }
        // Cut the run into ≤ target shards at segment boundaries
        // (shards own whole destinations; a `cmp` on `dest` marks the
        // cut). Every shard except possibly the last holds ≥ ⌈n/target⌉
        // entries, so at most `target` shards are produced. Shard
        // vectors are recycled through `entry_pool`, so steady state
        // moves each entry once (ordered run → shard) without
        // allocating. (Handing claimers disjoint raw sub-slices of
        // the run itself would avoid even that move, but needs
        // `ptr::read`-style manual moves out of aliased storage; one
        // 64-byte memcpy per message isn't worth that unsafety.)
        let per = staged.len().div_ceil(target);
        let take_shard = || {
            let mut v = self.pools.entry_pool.take();
            v.reserve(per + 8);
            v
        };
        let mut shards: Vec<std::cell::UnsafeCell<Vec<CommitEntry>>> = Vec::new();
        let mut cur: Vec<CommitEntry> = take_shard();
        for e in staged.drain(..) {
            if cur.len() >= per && cur.last().is_some_and(|l| l.dest != e.dest) {
                let full = std::mem::replace(&mut cur, take_shard());
                shards.push(std::cell::UnsafeCell::new(full));
            }
            cur.push(e);
        }
        if shards.is_empty() {
            // One giant destination segment (pure all-to-one fan-in):
            // a single mailbox must be pushed in order anyway.
            let mut wakes = self.pools.wake_pool.take();
            let mut scratch = self.pools.scratch_pool.take();
            push_segments(&self.router, cur.drain(..), &mut wakes, &mut scratch);
            self.pools.scratch_pool.put(scratch);
            self.pools.entry_pool.put(cur);
            self.fire_wakes_merged(&mut wakes);
            self.pools.wake_pool.put(wakes);
            self.finish_epoch(next);
            return;
        }
        shards.push(std::cell::UnsafeCell::new(cur));
        let wakes = (0..shards.len())
            .map(|_| std::cell::UnsafeCell::new(self.pools.wake_pool.take()))
            .collect();
        let cw = Arc::new(CommitWork {
            shards,
            wakes,
            next: Mutex::new(next),
        });
        // Publish the commit phase; this worker re-enters its claim
        // loop and takes shards alongside the woken pool.
        self.publish(Work::Commit(cw));
    }

    /// Push one claimed shard: batch-deliver its per-destination
    /// segments, deferring every wake-up as a keyed record.
    fn push_shard(&self, cw: &CommitWork, i: usize) {
        // Safety: shard `i` was claimed exclusively through the cursor
        // CAS; only this worker touches its vectors until the commit
        // barrier passes.
        let entries = unsafe { &mut *cw.shards[i].get() };
        let wakes = unsafe { &mut *cw.wakes[i].get() };
        let mut scratch = self.pools.scratch_pool.take();
        push_segments(&self.router, entries.drain(..), wakes, &mut scratch);
        self.pools.scratch_pool.put(scratch);
    }

    /// All shards are pushed: merge the deferred wake-ups in global
    /// key order (bit-identical to the serial commit's wake order) and
    /// close out the epoch.
    fn finish_commit(&self, cw: &CommitWork) {
        let mut recs = self.pools.wake_pool.take();
        for (s, slot) in cw.wakes.iter().enumerate() {
            // Safety: the commit barrier has passed; no worker holds a
            // shard any more.
            let ws = unsafe { &mut *slot.get() };
            for mut r in ws.drain(..) {
                // Stamp the shard into the high ord bits so the
                // concatenation order stays recoverable after the
                // unstable merge sort (see [`WakeRec::ord`]).
                r.ord |= (s as u64) << 32;
                recs.push(r);
            }
            let ws = std::mem::take(ws);
            if ws.capacity() > 0 {
                self.pools.wake_pool.put(ws);
            }
        }
        // Recycle the drained shard vectors (their capacity) for the
        // next epoch's commit.
        for cell in &cw.shards {
            let v = std::mem::take(unsafe { &mut *cell.get() });
            if v.capacity() > 0 {
                self.pools.entry_pool.put(v);
            }
        }
        self.fire_wakes_merged(&mut recs);
        self.pools.wake_pool.put(recs);
        let next = std::mem::take(&mut *cw.next.lock());
        self.finish_epoch(next);
    }

    /// Fire deferred wake-ups in ascending global-key order. `(key,
    /// ord)` is unique (see [`WakeRec::ord`]), so the allocation-free
    /// unstable sort reproduces exactly what a stable by-key sort of
    /// the shard concatenation would: several waiters triggered by
    /// the *same* message keep their subscription order — the order
    /// the serial commit's inline `push` produces.
    fn fire_wakes_merged(&self, recs: &mut Vec<WakeRec>) {
        recs.sort_unstable_by_key(|r| (r.key, r.ord));
        for r in recs.drain(..) {
            r.waker.wake();
        }
    }

    /// Deliveries are committed: append woken receivers to the next
    /// round, detect deadlock, and publish the next round.
    fn finish_epoch(&self, mut next: Vec<usize>) {
        self.shared.epochs.fetch_add(1, Ordering::Relaxed);
        // Receivers woken by the committed deliveries, in commit order.
        let woken_count;
        {
            let mut w = self.shared.woken.lock();
            woken_count = w.len();
            next.append(&mut w);
        }
        self.shared
            .wakeups
            .fetch_add(woken_count as u64, Ordering::Relaxed);
        // Crash-stop stagnation detector. With a crashed rank in the
        // fault plan, a peer *polling* for its messages in a loop that
        // yields every pass (`yield_now_async`; the library's wait loops
        // park on arrival instead) yields forever: the round never
        // empties, so the exact deadlock detector below cannot fire.
        // Progress is epoch-observable — a message staged, a
        // task woken, a task finished. STAGNANT_EPOCH_LIMIT epochs of
        // pure yields while crashes are armed mean no progress is
        // possible any more: poison every unfinished task so polling
        // loops fail loudly with a RoundBlame. Every input here is a
        // pure function of the epoch contents, so the poison epoch is
        // identical for every worker count and commit algorithm.
        let live = self.shared.live.load(Ordering::Acquire);
        if live > 0 && self.router.faults.has_crashes() {
            let msgs = self.epoch_msgs.swap(0, Ordering::Relaxed);
            let prev = self.prev_live.swap(live, Ordering::Relaxed);
            if msgs > 0 || woken_count > 0 || prev != live {
                self.stagnant.store(0, Ordering::Relaxed);
            } else if self.stagnant.fetch_add(1, Ordering::Relaxed) + 1 >= STAGNANT_EPOCH_LIMIT {
                self.stagnant.store(0, Ordering::Relaxed);
                for slot in &self.slots {
                    if slot.core.status.load(Ordering::Acquire) != ST_FINISHED {
                        slot.core.poisoned.store(true, Ordering::Release);
                        // Blocked tasks need a wake to observe the
                        // poison; yielded (polling) tasks are already
                        // in `next` and observe it on their next
                        // mailbox operation. `wake_core` is a no-op
                        // for non-blocked states.
                        wake_core(&slot.core, &self.shared);
                    }
                }
                next.append(&mut self.shared.woken.lock());
            }
        }
        // Nothing runnable but tasks remain: deadlock. Poison every
        // blocked task; the wake-ups queue them (in rank order) so
        // their blocking operations can return the timeout error.
        if next.is_empty() && live > 0 {
            for slot in &self.slots {
                if slot.core.status.load(Ordering::Acquire) == ST_BLOCKED {
                    slot.core.poisoned.store(true, Ordering::Release);
                    wake_core(&slot.core, &self.shared);
                }
            }
            next.append(&mut self.shared.woken.lock());
            if next.is_empty() {
                eprintln!(
                    "mpisim: scheduler invariant broken: {live} live tasks, none \
                     runnable, none blocked"
                );
                std::process::abort();
            }
        }
        if live == 0 {
            let mut g = self.gate.lock();
            g.done = true;
            self.gate_cv.notify_all();
            drop(g);
            // Under a fleet, completion must also wake sweeping
            // workers parked on the fleet condvar so one of them
            // reaps this universe (and admits the next).
            if let Some(sig) = &self.signal {
                sig.notify();
            }
        } else {
            self.publish_tasks(next);
        }
    }

    /// Publish the next task round, reusing a displaced round `Arc`
    /// when no worker still holds a clone of it. At 1 worker that is
    /// always true by the time the next publish happens (the sole
    /// worker re-reads the gate — dropping its clone — before it can
    /// finish another round), so the steady-state epoch publishes
    /// without touching the allocator; a still-referenced `Arc` just
    /// falls back to a fresh allocation.
    fn publish_tasks(&self, mut next: Vec<usize>) {
        let cand = self.round_pool.lock().pop();
        let arc = match cand {
            Some(mut a) => match Arc::get_mut(&mut a) {
                Some(v) => {
                    v.clear();
                    v.append(&mut next);
                    a
                }
                None => Arc::new(std::mem::take(&mut next)),
            },
            None => Arc::new(std::mem::take(&mut next)),
        };
        if next.capacity() > 0 {
            next.clear();
            self.pools.idx_pool.put(next);
        }
        self.publish(Work::Tasks(arc));
    }

    /// Install `work` as the next claimable phase. The cursor moves
    /// last: claims validate its gen half, so no worker can touch the
    /// new phase before the gate state it pairs with is visible.
    fn publish(&self, work: Work) {
        let units = work.units();
        let mut g = self.gate.lock();
        g.gen += 1;
        let prev = std::mem::replace(&mut g.work, work);
        self.round_done.store(0, Ordering::Relaxed);
        self.cursor
            .store((g.gen & 0xffff_ffff) << 32, Ordering::Release);
        // A one-unit phase is fully served by the publishing worker
        // itself — waking the pool for it would just thrash the
        // sleeping workers during serial phases of the program. They
        // stay parked until a wider phase (or `done`) arrives; the
        // publisher alone keeps the simulation live.
        if units > 1 {
            self.gate_cv.notify_all();
        }
        drop(g);
        // Same rule for a fleet's pool: multi-unit phases invite idle
        // workers in; one-unit phases stay with the publishing worker
        // (its `drain_phases` claim loop serves them without ever
        // leaving the universe).
        if units > 1 {
            if let Some(sig) = &self.signal {
                sig.notify();
            }
        }
        // The displaced round vector feeds a later `publish_tasks`
        // (its `Arc` becomes unique once every worker re-reads the
        // gate); merge/commit work is dropped as usual.
        if let Work::Tasks(arc) = prev {
            let mut pool = self.round_pool.lock();
            if pool.len() < 4 {
                pool.push(arc);
            }
        }
    }

    fn run_task(&self, tid: usize) {
        let slot = &self.slots[tid];
        slot.core.status.store(ST_RUNNING, Ordering::Release);
        slot.intent.store(INTENT_NONE, Ordering::Release);
        self.shared.switches.fetch_add(1, Ordering::Relaxed);
        let prev = CURRENT.with(|c| c.replace(slot as *const TaskSlot as *const ()));
        // The body runs until it yields, parks, or finishes, and
        // suspends by returning from `proceed`. `Step` is mapped onto
        // the task intents the epoch bookkeeping below reads.
        let step = {
            // Safety: this worker holds the task in `Running`
            // (claimed exclusively through the cursor CAS).
            let body =
                unsafe { (*slot.body.get()).as_mut() }.expect("rank body installed and unfinished");
            body.handle_incoming();
            if body.wants_to_proceed() {
                body.proceed()
            } else {
                poll::Step::Yielded
            }
        };
        match step {
            poll::Step::Yielded => slot.intent.store(INTENT_YIELD, Ordering::Release),
            poll::Step::Blocked => slot.intent.store(INTENT_BLOCK, Ordering::Release),
            poll::Step::Finished => {
                slot.intent.store(INTENT_FINISH, Ordering::Release);
                // Release the finished rank's state machine early:
                // at 2^20 ranks the tail of a run would otherwise
                // hold every completed body's captures live.
                unsafe { *slot.body.get() = None };
            }
        }
        CURRENT.with(|c| c.set(prev));
        match slot.intent.load(Ordering::Acquire) {
            INTENT_YIELD => {
                // Re-entry happens at commit (the intent scan), which
                // keeps the next round's order deterministic.
                slot.core.status.store(ST_READY, Ordering::Release);
            }
            INTENT_BLOCK => {
                if slot
                    .core
                    .status
                    .compare_exchange(ST_BLOCKING, ST_BLOCKED, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // WokenEarly (defensive; unreachable under the epoch
                    // discipline): convert to a yield so the commit
                    // scan re-enqueues it.
                    slot.core.status.store(ST_READY, Ordering::Release);
                    slot.intent.store(INTENT_YIELD, Ordering::Release);
                }
            }
            INTENT_FINISH => {
                slot.core.status.store(ST_FINISHED, Ordering::Release);
                self.shared.live.fetch_sub(1, Ordering::AcqRel);
            }
            other => {
                // A step returned without announcing an intent:
                // scheduler invariant broken.
                eprintln!("mpisim: task {tid} suspended with invalid intent {other}");
                std::process::abort();
            }
        }
    }
}

/// Reusable scratch of one `push_segments` call: the per-destination
/// message batch, its parallel key array, and the fired-subscription
/// buffer handed to [`Mailbox::push_batch`]. Pooled so steady-state
/// commits reuse the capacity of all three.
#[derive(Default)]
struct CommitScratch {
    batch: Vec<Message>,
    keys: Vec<CommitKey>,
    fired: Vec<(usize, Arc<dyn Wake>)>,
}

/// Push a destination-major-sorted run of commit entries: one
/// [`Mailbox::push_batch`] per destination segment (one lock
/// acquisition per destination, however large its fan-in), recording
/// every triggered wake-up as a [`WakeRec`] keyed by the triggering
/// message's global commit key instead of firing it.
fn push_segments(
    router: &Router,
    entries: impl Iterator<Item = CommitEntry>,
    wakes: &mut Vec<WakeRec>,
    s: &mut CommitScratch,
) {
    fn flush(router: &Router, dest: usize, s: &mut CommitScratch, wakes: &mut Vec<WakeRec>) {
        if s.batch.is_empty() {
            return;
        }
        router.mailboxes[dest].push_batch(&mut s.batch, &mut s.fired);
        for (idx, waker) in s.fired.drain(..) {
            wakes.push(WakeRec {
                key: s.keys[idx],
                ord: wakes.len() as u64,
                waker,
            });
        }
        s.keys.clear();
    }
    let mut dest = usize::MAX;
    for e in entries {
        if e.dest != dest {
            flush(router, dest, s, wakes);
            dest = e.dest;
        }
        s.keys.push(e.key());
        s.batch.push(e.msg);
    }
    flush(router, dest, s, wakes);
}

/// The merge comparator: destination-major for sharded commits
/// (matching the oracle's `(dest, matchable, src, seq)` sort key),
/// the plain global commit key for serial ones (leading 0). Total
/// *and unique* over an epoch's staged messages either way, so
/// merging sorted runs by it reproduces the oracle's sorted order
/// exactly, independent of the merge-tree shape.
fn merge_key(e: &CommitEntry, dest_major: bool) -> (usize, Time, usize, u32) {
    (
        if dest_major { e.dest } else { 0 },
        e.matchable,
        e.src,
        e.seq,
    )
}

/// Sort one per-task run destination-major. Within a run `src` is
/// constant and `seq` unique, so this key is unique — the unstable
/// sort is therefore deterministic, and unlike the stable sort it
/// allocates nothing (in-place pdqsort).
fn presort_run(run: &mut [CommitEntry]) {
    run.sort_unstable_by_key(|e| (e.dest, e.matchable, e.seq));
}

/// Single-pass k-way merge of runs sorted by [`merge_key`] into
/// `out` (appending), emptying every input — capacity is retained
/// for recycling. A binary min-heap of run indices pops the globally
/// smallest head `m` times, so every entry is **moved exactly once**
/// (`CommitEntry` is large; the pairwise-rounds alternative moves
/// each entry once per halving round and loses to the sort oracle on
/// wide epochs). The key is unique across runs, so the result is the
/// unique sorted order of the union — no tie-breaking needed.
///
/// `pos` (per-run read cursor) and `heap` are caller-provided
/// scratch, cleared here. **`out` must already have capacity for
/// every entry**: the `ptr::read` moves below rely on `out.push`
/// never panicking mid-merge (a reallocation cannot panic into a
/// state where moved-out entries would double-drop, but reserving up
/// front keeps the hot loop allocation-free anyway and makes the
/// reasoning trivial).
fn merge_k(
    runs: &mut [Vec<CommitEntry>],
    out: &mut Vec<CommitEntry>,
    dest_major: bool,
    pos: &mut Vec<usize>,
    heap: &mut Vec<usize>,
) {
    pos.clear();
    pos.resize(runs.len(), 0);
    heap.clear();
    heap.extend((0..runs.len()).filter(|&r| !runs[r].is_empty()));
    for i in (0..heap.len() / 2).rev() {
        sift_down(heap, i, runs, pos, dest_major);
    }
    while let Some(&r) = heap.first() {
        // Safety: each `(run, index)` is read exactly once (`pos[r]`
        // strictly advances past it) and every run's length is reset
        // to 0 below before any of its moved-out entries could drop
        // through the `Vec`; `out` was reserved by the caller, so
        // the push cannot panic mid-merge.
        unsafe {
            out.push(std::ptr::read(runs[r].as_ptr().add(pos[r])));
        }
        pos[r] += 1;
        if pos[r] == runs[r].len() {
            let last = heap.len() - 1;
            heap.swap(0, last);
            heap.pop();
        }
        if !heap.is_empty() {
            sift_down(heap, 0, runs, pos, dest_major);
        }
    }
    for run in runs.iter_mut() {
        // Every entry was moved out above; forget them all without
        // dropping (safety: len 0 ≤ capacity, elements 0..old_len
        // are semantically moved-from).
        unsafe { run.set_len(0) };
    }
}

/// Restore the min-heap property at `heap[i]`: sift the run index
/// down while a child's head entry has a smaller [`merge_key`].
fn sift_down(
    heap: &mut [usize],
    mut i: usize,
    runs: &[Vec<CommitEntry>],
    pos: &[usize],
    dest_major: bool,
) {
    let key = |r: usize| merge_key(&runs[r][pos[r]], dest_major);
    loop {
        let l = 2 * i + 1;
        if l >= heap.len() {
            return;
        }
        let r = l + 1;
        let c = if r < heap.len() && key(heap[r]) < key(heap[l]) {
            r
        } else {
            l
        };
        if key(heap[c]) < key(heap[i]) {
            heap.swap(i, c);
            i = c;
        } else {
            return;
        }
    }
}

/// [`merge_k`] over runs living as `bounds` slices of one flat
/// buffer (the published merge round's layout): `pos[r]` is the
/// absolute flat-buffer cursor of run `r`, advancing from
/// `bounds[r].0` to `bounds[r].1`. Entries are moved out through
/// `base` with `ptr::read`; the caller's finisher forgets them all
/// at once by resetting the owning `Vec`'s length.
///
/// # Safety
///
/// - `base` must point to a live allocation covering every index in
///   `bounds`, with every such entry initialised and not yet moved
///   from, and no other reference to those entries live for the
///   duration of the call.
/// - `out` must already have capacity for every entry in `bounds`:
///   the `ptr::read` moves rely on `out.push` never panicking
///   mid-merge.
/// - The caller must treat the read entries as moved-from (reset the
///   owning buffer's length without dropping them).
unsafe fn merge_k_flat(
    base: *mut CommitEntry,
    bounds: &[(usize, usize)],
    out: &mut Vec<CommitEntry>,
    dest_major: bool,
    pos: &mut Vec<usize>,
    heap: &mut Vec<usize>,
) {
    pos.clear();
    pos.extend(bounds.iter().map(|&(s, _)| s));
    heap.clear();
    heap.extend((0..bounds.len()).filter(|&r| bounds[r].0 < bounds[r].1));
    for i in (0..heap.len() / 2).rev() {
        sift_down_flat(heap, i, base, pos, dest_major);
    }
    while let Some(&r) = heap.first() {
        out.push(std::ptr::read(base.add(pos[r])));
        pos[r] += 1;
        if pos[r] == bounds[r].1 {
            let last = heap.len() - 1;
            heap.swap(0, last);
            heap.pop();
        }
        if !heap.is_empty() {
            sift_down_flat(heap, 0, base, pos, dest_major);
        }
    }
}

/// [`sift_down`] for the flat-buffer layout: run heads live at
/// `base.add(pos[r])`.
///
/// # Safety
///
/// Every `pos[r]` for `r` in `heap` must index a live, initialised
/// entry of the `base` allocation (guaranteed by [`merge_k_flat`]'s
/// loop invariant: a run leaves the heap before its cursor passes
/// its bound).
unsafe fn sift_down_flat(
    heap: &mut [usize],
    mut i: usize,
    base: *const CommitEntry,
    pos: &[usize],
    dest_major: bool,
) {
    let key = |r: usize| merge_key(&*base.add(pos[r]), dest_major);
    loop {
        let l = 2 * i + 1;
        if l >= heap.len() {
            return;
        }
        let r = l + 1;
        let c = if r < heap.len() && key(heap[r]) < key(heap[l]) {
            r
        } else {
            l
        };
        if key(heap[c]) < key(heap[i]) {
            heap.swap(i, c);
            i = c;
        } else {
            return;
        }
    }
}

/// Record a rank body's panic payload; the first one wins and is
/// re-thrown by `Universe::run` after the scheduler drains.
pub(crate) fn record_panic(store: &SchedShared, rank: usize, payload: Box<dyn Any + Send>) {
    let mut g = store.panic.lock();
    if g.is_none() {
        *g = Some((rank, payload));
    }
}

fn current_slot() -> Option<&'static TaskSlot> {
    let p = CURRENT.with(|c| c.get());
    if p.is_null() {
        None
    } else {
        // Slots outlive every task step; the 'static is internal.
        Some(unsafe { &*(p as *const TaskSlot) })
    }
}

/// Stage an outgoing message with the current task for delivery at the
/// next epoch commit. Returns the message back when the caller is not
/// a scheduler task (thread backend: deliver immediately).
pub(crate) fn try_stage_send(dest: usize, msg: Message) -> Option<Message> {
    match current_slot() {
        None => Some(msg),
        Some(slot) => {
            unsafe { (*slot.staged.get()).push((dest, msg)) };
            None
        }
    }
}

/// Yield the OS thread (`std::thread::yield_now`): the synchronous
/// poll loops of the thread backend call this between passes. A
/// scheduler task cannot yield synchronously — it suspends through
/// [`poll::yield_now_async`] — so calling this inside a poll-mode
/// rank body panics.
pub fn yield_now() {
    assert!(
        current_slot().is_none(),
        "synchronous yield inside a poll-mode rank body: under \
         Backend::Poll use yield_now_async (and the *_async API \
         for every blocking operation)"
    );
    std::thread::yield_now();
}

fn deadlock_err(rank: usize, reason: &WaitReason, vnow: Time) -> MpiError {
    MpiError::Timeout {
        rank,
        waited_for: format!("{reason} [cooperative deadlock: every rank is blocked]"),
        virtual_now: vnow,
        // The scheduler has no fault-state access; `ProcState` fills
        // the blame in on the way out (`enrich_timeout`).
        blame: RoundBlame::default(),
    }
}

/// Whether the current task has been poisoned by the deadlock or
/// stagnation detector. Always `false` off the scheduler (thread
/// backend polling relies on wall-clock timeouts instead).
pub(crate) fn current_poisoned() -> bool {
    current_slot().is_some_and(|s| s.core.poisoned.load(Ordering::Acquire))
}
