//! Per-rank state and the router connecting ranks.
//!
//! Each simulated MPI process is an OS thread owning a [`ProcState`]: its
//! global rank, its virtual clock, its RNG, and its context-ID pool. The
//! [`Router`] holds one mailbox per rank plus the cost model; sends deposit
//! messages directly into the destination mailbox (buffered semantics).

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::datum::Datum;
use crate::error::{MpiError, Result};
use crate::faults::{FaultState, RankBlame, RoundBlame, BLAME_CAP};
use crate::mailbox::Mailbox;
use crate::model::{CostModel, CostScale, VendorProfile};
use crate::msg::{ContextId, MatchPattern, Message, MsgInfo, SrcFilter, Tag};
use crate::obs::{MetricsSnapshot, OpClass, Trace, TraceEvent};
use crate::time::Time;

/// Why a rank is parked at a blocking point — the explicit wait state a
/// cooperative task carries while suspended. Surfaced in deadlock
/// diagnostics ("rank 5 blocked in recv(Exact(3), tag=7, ctx#2)").
#[derive(Clone, Debug)]
pub enum WaitReason {
    /// Blocked in a receive for this pattern.
    Recv(MatchPattern),
    /// Blocked in a probe for this pattern.
    Probe(MatchPattern),
    /// Parked by a polling wait loop until any message arrives.
    Arrival,
}

impl std::fmt::Display for WaitReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (verb, pat) = match self {
            WaitReason::Recv(p) => ("recv", p),
            WaitReason::Probe(p) => ("probe", p),
            WaitReason::Arrival => return f.write_str("any arrival"),
        };
        write!(f, "{verb}({:?}, tag={}, {})", pat.src, pat.tag, pat.ctx)
    }
}

/// Cumulative message traffic of a simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Total messages deposited into mailboxes.
    pub messages: u64,
    /// Total payload bytes deposited.
    pub bytes: u64,
}

/// Per-sender traffic counters, padded to a cache line so that parallel
/// scheduler workers incrementing different ranks' counters never false-share
/// — the old pair of global `AtomicU64`s was a guaranteed all-workers
/// contention point (two `fetch_add`s on shared lines per send).
#[repr(align(64))]
#[derive(Default)]
struct TrafficCell {
    messages: AtomicU64,
    bytes: AtomicU64,
}

/// One rank's virtual clock, padded to a cache line for the same reason as
/// [`TrafficCell`]. Clocks live on the router (rather than privately on
/// each [`ProcState`]) so that blame diagnostics can report any rank's
/// last virtual-time activity when an operation stalls.
#[repr(align(64))]
#[derive(Default)]
struct ClockCell(crate::time::VirtualClock);

/// Shared fabric connecting all ranks: one mailbox per rank plus the
/// cost model. Sends deposit messages directly into the destination mailbox
/// (thread backend) or stage them with the cooperative scheduler for
/// commit at the next epoch boundary (see [`crate::sched`]).
pub struct Router {
    /// Destination mailboxes, indexed by global rank. Each mailbox carries
    /// its own lock: two ranks' deliveries never contend.
    pub mailboxes: Vec<Mailbox>,
    /// The α–β cost model all messages are priced under.
    pub cost: CostModel,
    /// Vendor pathology profile (jitter, collective scaling).
    pub vendor: VendorProfile,
    /// Wall-clock deadlock-detector timeout for blocking receives/probes.
    pub recv_timeout: Duration,
    /// Resolved fault-injection state (default: no faults). Pure data —
    /// every fault decision is a hash of the perturbation seed, never a
    /// function of scheduling.
    pub faults: FaultState,
    /// Traffic accounting, sharded by sender rank (summed on read).
    traffic: Vec<TrafficCell>,
    /// Per-rank virtual clocks, indexed by global rank.
    clocks: Vec<ClockCell>,
    /// Per-sender, per-[`OpClass`] volume counters (always on; summed on
    /// read into the deterministic [`MetricsSnapshot`]).
    class_cells: Vec<crate::obs::ClassCell>,
    /// Per-rank event-trace buffers, allocated only when the run traces.
    trace: Option<Vec<crate::obs::TraceCell>>,
    /// Router construction instant; time base of the stall-probe cache.
    birth: Instant,
    /// Age (ms since `birth`) of the cached [`Router::progress_stamp`]
    /// value. Zero means "never computed".
    stall_probe_at: AtomicU64,
    /// Cached [`Router::progress_stamp`] value.
    stall_probe_val: AtomicU64,
}

impl Router {
    /// Build the fabric for `p` ranks under the given cost model, vendor
    /// profile, and fault state.
    pub fn new(
        p: usize,
        cost: CostModel,
        vendor: VendorProfile,
        recv_timeout: Duration,
        faults: FaultState,
    ) -> Router {
        Router {
            mailboxes: (0..p).map(|_| Mailbox::new()).collect(),
            cost,
            vendor,
            recv_timeout,
            faults,
            traffic: (0..p).map(|_| TrafficCell::default()).collect(),
            clocks: (0..p).map(|_| ClockCell::default()).collect(),
            class_cells: (0..p).map(|_| Default::default()).collect(),
            trace: None,
            birth: Instant::now(),
            stall_probe_at: AtomicU64::new(0),
            stall_probe_val: AtomicU64::new(0),
        }
    }

    /// Allocate the per-rank trace buffers. Must be called before any rank
    /// runs (the universe does this when [`crate::SimConfig::trace`] is
    /// set), so every rank observes the same tracing mode for its whole
    /// lifetime.
    pub fn enable_trace(&mut self) {
        let p = self.mailboxes.len();
        self.trace = Some((0..p).map(|_| Default::default()).collect());
    }

    /// Whether the deterministic event trace is being recorded.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Merge the per-rank trace buffers into the global `(t, rank, seq)`
    /// order (`None` when tracing is off).
    pub fn collect_trace(&self) -> Option<Trace> {
        self.trace.as_deref().map(Trace::collect)
    }

    /// The deterministic model-metric snapshot of the fabric: traffic
    /// totals, per-class volumes, and mailbox scan work. The scheduler's
    /// counters (epochs, wake-ups, switches) are merged in by the
    /// universe, which owns the scheduler.
    pub fn metrics_base(&self) -> MetricsSnapshot {
        let t = self.traffic();
        let mut snap = MetricsSnapshot {
            messages: t.messages,
            bytes: t.bytes,
            ..Default::default()
        };
        for class in OpClass::ALL {
            let i = class as usize;
            for cell in &self.class_cells {
                let m = cell.msgs_of(class);
                snap.class_msgs[i] += m;
                snap.class_bytes[i] += cell.bytes_of(class);
                snap.class_max_rank_msgs[i] = snap.class_max_rank_msgs[i].max(m);
            }
        }
        snap.mailbox_scans = self.mailboxes.iter().map(|m| m.scans()).sum();
        snap
    }

    /// Rank `r`'s current virtual clock — its last virtual-time activity,
    /// as seen by blame diagnostics.
    pub fn clock_of(&self, r: usize) -> Time {
        self.clocks[r].0.now()
    }

    /// Snapshot of global traffic so far (sums the per-sender shards).
    pub fn traffic(&self) -> Traffic {
        let mut t = Traffic::default();
        for cell in &self.traffic {
            t.messages += cell.messages.load(Ordering::Relaxed);
            t.bytes += cell.bytes.load(Ordering::Relaxed);
        }
        t
    }

    fn count_send(&self, src: usize, bytes: usize) {
        let cell = &self.traffic[src];
        cell.messages.fetch_add(1, Ordering::Relaxed);
        cell.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Number of ranks this router connects.
    pub fn nprocs(&self) -> usize {
        self.mailboxes.len()
    }

    /// A monotone global progress stamp: the sum of every rank's sent
    /// message count and virtual-clock reading. It advances whenever any
    /// rank sends or is charged virtual time and freezes exactly when the
    /// universe is stuck — a failed probe leaves the clock untouched (see
    /// `try_recv_miss_leaves_clock`), so a pure polling livelock cannot
    /// keep it moving.
    ///
    /// The O(p) shard sum is cached and reused while younger than
    /// `max_age`, so p waiters whose stall deadlines expire in the same
    /// window cost O(p) total, not O(p²). Stall detection only — the
    /// cached value may lag real progress by up to `max_age`, which is
    /// immaterial against timeouts that are orders of magnitude larger.
    pub fn progress_stamp(&self, max_age: Duration) -> u64 {
        let now_ms = self.birth.elapsed().as_millis() as u64;
        let at = self.stall_probe_at.load(Ordering::Relaxed);
        if at != 0 && now_ms.saturating_sub(at) < max_age.as_millis() as u64 {
            return self.stall_probe_val.load(Ordering::Relaxed);
        }
        let mut sum = 0u64;
        for cell in &self.traffic {
            sum = sum.wrapping_add(cell.messages.load(Ordering::Relaxed));
        }
        for cell in &self.clocks {
            sum = sum.wrapping_add(cell.0.now().as_nanos());
        }
        self.stall_probe_val.store(sum, Ordering::Relaxed);
        self.stall_probe_at.store(now_ms.max(1), Ordering::Relaxed);
        sum
    }
}

/// Wall-clock stall detector for polling wait loops (nonblocking waits,
/// the sorter's wave loops). A fixed deadline cannot tell a deadlock from
/// a universe that is merely huge: one JQuick wave at p = 2^18 on a single
/// core legitimately takes minutes of wall-clock while every rank stays
/// live. The detector therefore re-arms whenever
/// [`Router::progress_stamp`] advances — it fires only after a full
/// timeout window in which no rank anywhere sent a message or advanced
/// its clock, which is what a genuine stall looks like from a polling
/// loop. Wall clocks never influence a run's output: the stamp is read
/// solely to decide whether to fail.
pub struct StallDeadline {
    router: Option<Arc<Router>>,
    timeout: Duration,
    deadline: Instant,
    stamp: u64,
}

impl StallDeadline {
    /// Arm with `timeout`. Without a router (detached nonblocking
    /// machines) the detector degrades to a fixed deadline.
    pub fn new(router: Option<&Arc<Router>>, timeout: Duration) -> StallDeadline {
        let max_age = Self::probe_age(timeout);
        StallDeadline {
            router: router.cloned(),
            timeout,
            deadline: Instant::now() + timeout,
            stamp: router.map_or(0, |r| r.progress_stamp(max_age)),
        }
    }

    /// True once the deadline has passed with no global progress since the
    /// last (re-)arming. The hot path is one `Instant` comparison; the
    /// stamp is consulted only on expiry.
    pub fn stalled(&mut self) -> bool {
        if Instant::now() <= self.deadline {
            return false;
        }
        if let Some(r) = &self.router {
            let stamp = r.progress_stamp(Self::probe_age(self.timeout));
            if stamp != self.stamp {
                self.stamp = stamp;
                self.deadline = Instant::now() + self.timeout;
                return false;
            }
        }
        true
    }

    /// Stamp-cache tolerance: a fraction of the timeout (so short test
    /// timeouts stay responsive), capped at one second.
    fn probe_age(timeout: Duration) -> Duration {
        (timeout / 8).min(Duration::from_secs(1))
    }
}

/// The simulator state owned by one rank's thread: identity, virtual
/// clock, RNG stream, and context-ID pool.
pub struct ProcState {
    /// This process's rank in `MPI_COMM_WORLD`.
    pub global_rank: usize,
    /// The shared fabric (also owns this rank's clock — see `ClockCell`).
    pub router: Arc<Router>,
    /// Deterministic per-rank random stream (pivot selection, jitter).
    pub rng: Mutex<StdRng>,
    /// MPICH-style context-ID allocation mask.
    pub ctx_pool: Mutex<crate::context::CtxPool>,
    /// Counter `b` of the §VI wide context-ID scheme.
    pub icomm_counter: AtomicU32,
    /// Program-order counter of messages this rank has sent — the jitter
    /// coordinate: worker-count invariant by construction.
    send_seq: AtomicU64,
    /// The [`OpClass`] currently attributed to this rank's sends, managed
    /// by the RAII guards in [`crate::obs`]. Lives here — not in a
    /// thread-local — because poll bodies suspend mid-collective and resume
    /// on a different worker thread.
    op_class: AtomicU8,
    /// Claims and sends this rank has made (see [`ProcState::progress`]).
    progress: AtomicU64,
}

impl ProcState {
    /// Create the state for `global_rank`, with an RNG stream derived from
    /// `seed` and the rank.
    pub fn new(global_rank: usize, router: Arc<Router>, seed: u64) -> Arc<ProcState> {
        Arc::new(ProcState {
            global_rank,
            router,
            rng: Mutex::new(StdRng::seed_from_u64(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(global_rank as u64),
            )),
            ctx_pool: Mutex::new(crate::context::CtxPool::new()),
            icomm_counter: AtomicU32::new(0),
            send_seq: AtomicU64::new(0),
            op_class: AtomicU8::new(OpClass::P2p as u8),
            progress: AtomicU64::new(0),
        })
    }

    // ---- observability -----------------------------------------------------

    /// Swap the current send-attribution class, returning the previous raw
    /// value (the obs guards restore it on drop).
    pub(crate) fn set_op_class_raw(&self, v: u8) -> u8 {
        self.op_class.swap(v, Ordering::Relaxed)
    }

    fn cur_class(&self) -> OpClass {
        OpClass::from_u8(self.op_class.load(Ordering::Relaxed))
    }

    /// Append an event to this rank's trace buffer, stamped with the
    /// rank's current virtual clock. No-op when tracing is off — the
    /// closure (and any allocation inside it) only runs when tracing, so
    /// the untraced hot path pays one branch on an `Option`.
    pub(crate) fn trace_push(&self, ev: impl FnOnce() -> TraceEvent) {
        if let Some(cells) = &self.router.trace {
            cells[self.global_rank].push(self.now(), ev());
        }
    }

    // ---- virtual clock ----------------------------------------------------

    fn clock(&self) -> &crate::time::VirtualClock {
        &self.router.clocks[self.global_rank].0
    }

    /// This rank's current virtual clock.
    pub fn now(&self) -> Time {
        self.clock().now()
    }

    /// Advance the clock by `dt`. A rank slowed by the fault plan pays its
    /// multiplicative straggler factor on every local charge; the factor
    /// is exactly 1.0 for unaffected ranks, in which case no scaling (and
    /// no rounding) happens at all.
    pub fn advance(&self, dt: Time) {
        let f = self.router.faults.factor(self.global_rank);
        if f == 1.0 {
            self.clock().advance(dt);
        } else {
            self.clock().advance(dt.scale(f));
        }
    }

    /// `clock = max(clock, t)` — applied when a receive completes.
    pub fn advance_to(&self, t: Time) {
        self.clock().advance_to(t);
    }

    /// Overwrite the clock (used by barrier-style resynchronisation).
    pub fn set_clock(&self, t: Time) {
        self.clock().set(t);
    }

    /// Charge local computation over `elems` elements.
    pub fn charge_compute(&self, elems: usize) {
        self.advance(self.router.cost.compute_cost(elems));
    }

    /// Charge an explicit span of virtual time.
    pub fn charge(&self, dt: Time) {
        self.advance(dt);
    }

    // ---- point-to-point on global ranks ------------------------------------

    /// Price one outgoing message of `bytes` payload bytes: charge the send
    /// overhead, apply vendor jitter, record traffic, and return the
    /// `(send_time, arrival)` pair stamped onto the message.
    fn price_send(&self, bytes: usize, scale: CostScale) -> (Time, Time) {
        let t0 = self.now();
        self.advance(self.router.cost.send_overhead);
        let mut transfer = self.router.cost.transfer_time_scaled(bytes, scale);
        // Vendor jitter: collective-internal messages use `jitter_max`;
        // plain point-to-point (including everything RBC sends) uses the
        // weaker `p2p_jitter_max` — vendor p2p fluctuations hit RBC too.
        let jitter_cap = if scale == CostScale::NEUTRAL {
            self.router.vendor.p2p_jitter_max
        } else {
            self.router.vendor.jitter_max
        };
        if jitter_cap > 1.0 && bytes > self.router.vendor.jitter_threshold {
            let f: f64 = self.rng.lock().gen_range(1.0..jitter_cap);
            transfer = transfer.scale(f);
        }
        // Fault injection: a straggler's transfers take `factor ×` as long,
        // and the fault plan's arrival jitter inflates the arrival by a
        // pure hash of (perturb_seed, sender, send counter). Both inflate
        // the arrival *before* the message is staged, so the epoch commit's
        // running-max matchable key orders jittered messages exactly like
        // clean ones (DESIGN.md §8) — and both are no-ops (bit for bit)
        // when the fault plan is empty or zero-magnitude.
        let faults = &self.router.faults;
        let f = faults.factor(self.global_rank);
        if f != 1.0 {
            transfer = transfer.scale(f);
        }
        let seq = self.send_seq.fetch_add(1, Ordering::Relaxed);
        let jit = faults.jitter_ns(self.global_rank, seq);
        if jit > 0 {
            transfer += Time::from_nanos(jit);
            self.trace_push(|| TraceEvent::FaultJitter { ns: jit });
        }
        self.router.count_send(self.global_rank, bytes);
        self.router.class_cells[self.global_rank].add(self.cur_class(), bytes);
        (t0, t0 + transfer)
    }

    // ---- polling waits -----------------------------------------------------

    /// Messages this rank has claimed plus messages it has sent. A polling
    /// wait loop reads it before a pass over its requests: if the pass
    /// left it unchanged, the pass was a pure function of the mailbox, and
    /// repeating it before the next arrival is a no-op.
    pub fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    /// End one unfinished pass of a polling wait loop. If the pass
    /// claimed and sent nothing (`progress()` still equals `since`, read
    /// before the pass), park until the next message is committed into
    /// this rank's mailbox, so a waiting rank costs no scheduler
    /// resumptions under `Backend::Poll`. A pass
    /// that did make progress yields for one epoch instead: what it
    /// claimed or sent may let the next pass go further. On the thread
    /// backend both arms yield the OS thread.
    pub async fn yield_or_park_async(&self, since: u64) {
        if self.progress() == since {
            let mb = &self.router.mailboxes[self.global_rank];
            crate::sched::poll::park_until_arrival_async(mb).await;
        } else {
            crate::sched::poll::yield_now_async().await;
        }
    }

    // ---- fault injection ---------------------------------------------------

    /// Whether this rank has crash-stopped: its own clock has reached its
    /// scheduled crash time. A pure per-rank predicate — monotone in the
    /// rank's own virtual time, independent of scheduling.
    pub fn crashed(&self) -> bool {
        matches!(self.router.faults.crash_time(self.global_rank), Some(at) if self.now() >= at)
    }

    /// Timeout error for an operation attempted by this rank *after* its
    /// own crash point.
    fn crashed_err(&self, verb: &str, pat: &MatchPattern) -> MpiError {
        let at = self
            .router
            .faults
            .crash_time(self.global_rank)
            .expect("crashed_err on a rank with no crash scheduled");
        MpiError::Timeout {
            rank: self.global_rank,
            waited_for: format!(
                "{verb}({:?}, tag={}, {}) [rank crashed at {at}]",
                pat.src, pat.tag, pat.ctx
            ),
            virtual_now: self.now(),
            blame: self.blame_for(Some(pat)),
        }
    }

    /// Timeout error for a polling (nonblocking) operation whose task the
    /// cooperative scheduler poisoned: no further progress is possible.
    fn poisoned_err(&self, verb: &str, pat: &MatchPattern) -> MpiError {
        MpiError::Timeout {
            rank: self.global_rank,
            waited_for: format!(
                "{verb}({:?}, tag={}, {}) [cooperative stall: no further progress possible]",
                pat.src, pat.tag, pat.ctx
            ),
            virtual_now: self.now(),
            blame: self.blame_for(Some(pat)),
        }
    }

    /// Build the [`RoundBlame`] for an operation of this rank stalled on
    /// `pat` (`None` when no receive pattern is known, e.g. a nonblocking
    /// collective). Triggered crashes take global priority: whatever the
    /// pattern nominally waits on, a rank that has crash-stopped is the
    /// root cause, so the blame names exactly the triggered-crashed ranks.
    pub fn blame_for(&self, pat: Option<&MatchPattern>) -> RoundBlame {
        let faults = &self.router.faults;
        let p = self.router.nprocs();
        let me = self.global_rank;
        let crashed: Vec<usize> = faults
            .crashes()
            .iter()
            .filter(|&&(r, at)| self.router.clock_of(r) >= at)
            .map(|&(r, _)| r)
            .collect();
        let (listed, omitted) = if !crashed.is_empty() {
            let omitted = crashed.len().saturating_sub(BLAME_CAP);
            (
                crashed.into_iter().take(BLAME_CAP).collect::<Vec<_>>(),
                omitted,
            )
        } else {
            match pat.map(|p| &p.src) {
                Some(SrcFilter::Exact(g)) => (vec![*g], 0),
                Some(SrcFilter::Filter(f)) => {
                    let all: Vec<usize> = (0..p).filter(|&r| r != me && f(r)).collect();
                    let omitted = all.len().saturating_sub(BLAME_CAP);
                    (all.into_iter().take(BLAME_CAP).collect(), omitted)
                }
                Some(SrcFilter::Any) | None => {
                    let listed: Vec<usize> = (0..p).filter(|&r| r != me).take(BLAME_CAP).collect();
                    let omitted = p.saturating_sub(1).saturating_sub(listed.len());
                    (listed, omitted)
                }
            }
        };
        let blame = RoundBlame {
            waiting_on: listed
                .into_iter()
                .map(|r| {
                    let clock = self.router.clock_of(r);
                    RankBlame {
                        rank: r,
                        last_activity: clock,
                        health: faults.health_of(r, clock),
                    }
                })
                .collect(),
            omitted,
        };
        self.trace_push(|| TraceEvent::Blame {
            text: blame.to_string(),
        });
        blame
    }

    /// Blame with no pattern context (used by nonblocking-collective and
    /// sorter wave timeouts).
    pub fn stall_blame(&self) -> RoundBlame {
        self.blame_for(None)
    }

    /// Fill in the blame of a [`MpiError::Timeout`] produced below the
    /// level that knows the fault state (mailbox waits, scheduler
    /// poisoning). Errors that already carry blame pass through untouched.
    fn enrich_timeout(&self, e: MpiError, pat: Option<&MatchPattern>) -> MpiError {
        match e {
            MpiError::Timeout {
                rank,
                waited_for,
                virtual_now,
                blame,
            } if blame.is_empty() => MpiError::Timeout {
                rank,
                waited_for,
                virtual_now,
                blame: self.blame_for(pat),
            },
            other => other,
        }
    }

    /// Hand a finished message to the fabric. In a scheduler task the
    /// message is staged with the current task and committed — in global
    /// virtual-time order — at the next epoch boundary, which is what makes
    /// multi-worker cooperative runs deterministic; on a plain thread it is
    /// deposited into the destination mailbox immediately.
    fn dispatch(&self, dest_global: usize, msg: Message) {
        self.progress.fetch_add(1, Ordering::Relaxed);
        if let Some(msg) = crate::sched::try_stage_send(dest_global, msg) {
            self.router.mailboxes[dest_global].push(msg);
        }
    }

    /// Deposit `data` into `dest_global`'s mailbox. Buffered semantics:
    /// never blocks. `scale` models vendor-internal collective traffic;
    /// plain point-to-point uses `CostScale::NEUTRAL`.
    pub fn send_global<T: Datum>(
        &self,
        dest_global: usize,
        tag: Tag,
        ctx: ContextId,
        data: Vec<T>,
        scale: CostScale,
    ) {
        // Crash-stop: a crashed rank's sends silently stop matching — no
        // pricing, no clock motion, no traffic, no staging. Peers observe
        // the silence as a timeout carrying a RoundBlame, never as a hang.
        if self.crashed() {
            self.trace_push(|| TraceEvent::FaultDrop { dest: dest_global });
            return;
        }
        let (t0, arrival) = self.price_send(data.len() * T::width(), scale);
        let msg = Message::new(self.global_rank, tag, ctx, data, t0, arrival);
        self.trace_push(|| TraceEvent::Send {
            dest: dest_global,
            bytes: msg.bytes,
            class: self.cur_class(),
            arrival,
        });
        self.dispatch(dest_global, msg);
    }

    /// Like [`ProcState::send_global`], but shipping a shared buffer: the
    /// `Arc` is cloned into the message in O(1) instead of copying the
    /// payload, so a fan-out of the same buffer to many destinations costs
    /// O(destinations) at the sender. Virtual-time pricing is identical to
    /// an owned send of the same bytes.
    pub fn send_global_shared<T: Datum>(
        &self,
        dest_global: usize,
        tag: Tag,
        ctx: ContextId,
        data: Arc<Vec<T>>,
        scale: CostScale,
    ) {
        if self.crashed() {
            self.trace_push(|| TraceEvent::FaultDrop { dest: dest_global });
            return;
        }
        let (t0, arrival) = self.price_send(data.len() * T::width(), scale);
        let msg = Message::new_shared(self.global_rank, tag, ctx, data, t0, arrival);
        self.trace_push(|| TraceEvent::Send {
            dest: dest_global,
            bytes: msg.bytes,
            class: self.cur_class(),
            arrival,
        });
        self.dispatch(dest_global, msg);
    }

    /// Blocking receive matching `pat`; applies the virtual-time rule
    /// `clock = max(clock, arrival) + recv_overhead`. The rank thread
    /// parks on the mailbox condvar (thread backend only: a poll-mode
    /// body must use [`ProcState::recv_match_async`]).
    pub fn recv_match(&self, pat: &MatchPattern) -> Result<Message> {
        if self.crashed() {
            return Err(self.crashed_err("recv", pat));
        }
        assert!(
            !crate::sched::on_poll_body(),
            "synchronous recv inside a poll-mode rank body: under Backend::Poll \
             use recv_match_async (the *_async API) so the body can suspend"
        );
        let m = self.router.mailboxes[self.global_rank]
            .claim_blocking(pat, self.router.recv_timeout, self.global_rank, self.now())
            .map_err(|e| self.enrich_timeout(e, Some(pat)))?;
        Ok(self.account_delivery(m))
    }

    /// [`ProcState::recv_match`] for maybe-async workloads: on a poll-mode
    /// body the wait suspends the future (the scheduler's
    /// announce/subscribe protocol); on the thread backend this resolves
    /// in a single poll via the synchronous path. Clock and trace
    /// accounting are identical on both.
    pub async fn recv_match_async(&self, pat: &MatchPattern) -> Result<Message> {
        if !crate::sched::on_poll_body() {
            return self.recv_match(pat);
        }
        if self.crashed() {
            return Err(self.crashed_err("recv", pat));
        }
        let mb = &self.router.mailboxes[self.global_rank];
        let m = crate::sched::poll::claim_poll(mb, pat, self.global_rank, self.now())
            .await
            .map_err(|e| self.enrich_timeout(e, Some(pat)))?;
        Ok(self.account_delivery(m))
    }

    /// The post-claim half of every receive: virtual-time rule plus the
    /// `Deliver` trace event, shared verbatim by the sync and async paths
    /// so the backends cannot drift.
    fn account_delivery(&self, m: Message) -> Message {
        self.progress.fetch_add(1, Ordering::Relaxed);
        self.advance_to(m.arrival);
        self.advance(self.router.cost.recv_overhead);
        self.trace_push(|| TraceEvent::Deliver {
            src: m.src_global,
            bytes: m.bytes,
        });
        m
    }

    /// Nonblocking receive attempt. On a hit, applies the same clock rule
    /// as a blocking receive. Errors when this rank has crash-stopped, or
    /// when the cooperative scheduler has poisoned the task (a stalled
    /// polling loop must fail loudly, not spin forever).
    pub fn try_recv_match(&self, pat: &MatchPattern) -> Result<Option<Message>> {
        if self.crashed() {
            return Err(self.crashed_err("try_recv", pat));
        }
        match self.router.mailboxes[self.global_rank].try_claim(pat) {
            Some(m) => Ok(Some(self.account_delivery(m))),
            None if crate::sched::current_poisoned() => Err(self.poisoned_err("try_recv", pat)),
            None => Ok(None),
        }
    }

    /// Blocking probe: waits until a matching message is available, without
    /// removing it. Does not advance the clock past the arrival (the
    /// subsequent receive does).
    pub fn probe_match(&self, pat: &MatchPattern) -> Result<MsgInfo> {
        if self.crashed() {
            return Err(self.crashed_err("probe", pat));
        }
        assert!(
            !crate::sched::on_poll_body(),
            "synchronous probe inside a poll-mode rank body: under Backend::Poll \
             use probe_match_async (the *_async API) so the body can suspend"
        );
        self.router.mailboxes[self.global_rank]
            .probe_blocking(pat, self.router.recv_timeout, self.global_rank, self.now())
            .map_err(|e| self.enrich_timeout(e, Some(pat)))
    }

    /// [`ProcState::probe_match`] for maybe-async workloads; see
    /// [`ProcState::recv_match_async`] for the dispatch contract.
    pub async fn probe_match_async(&self, pat: &MatchPattern) -> Result<MsgInfo> {
        if !crate::sched::on_poll_body() {
            return self.probe_match(pat);
        }
        if self.crashed() {
            return Err(self.crashed_err("probe", pat));
        }
        let mb = &self.router.mailboxes[self.global_rank];
        crate::sched::poll::probe_poll(mb, pat, self.global_rank, self.now())
            .await
            .map_err(|e| self.enrich_timeout(e, Some(pat)))
    }

    /// Nonblocking probe. Fails on self-crash and task poisoning exactly
    /// like [`ProcState::try_recv_match`].
    pub fn iprobe_match(&self, pat: &MatchPattern) -> Result<Option<MsgInfo>> {
        if self.crashed() {
            return Err(self.crashed_err("iprobe", pat));
        }
        match self.router.mailboxes[self.global_rank].probe(pat) {
            Some(i) => Ok(Some(i)),
            None if crate::sched::current_poisoned() => Err(self.poisoned_err("iprobe", pat)),
            None => Ok(None),
        }
    }

    /// Uniform random value from this rank's deterministic stream.
    pub fn rand_index(&self, bound: usize) -> usize {
        if bound <= 1 {
            return 0;
        }
        self.rng.lock().gen_range(0..bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::SrcFilter;

    fn setup(p: usize) -> Vec<Arc<ProcState>> {
        setup_faulted(p, FaultState::default())
    }

    fn setup_faulted(p: usize, faults: FaultState) -> Vec<Arc<ProcState>> {
        let router = Arc::new(Router::new(
            p,
            CostModel::supermuc_like(),
            VendorProfile::neutral(),
            Duration::from_secs(5),
            faults,
        ));
        (0..p)
            .map(|r| ProcState::new(r, Arc::clone(&router), 42))
            .collect()
    }

    #[test]
    fn stall_deadline_rearms_on_progress_and_fires_without() {
        let procs = setup(2);
        let router = &procs[0].router;
        // Zero timeout => probe age zero => every check recomputes the
        // stamp, so the test never races the coarse cache.
        let mut stall = StallDeadline::new(Some(router), Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        // Progress since arming (a clock charge) re-arms the deadline.
        procs[1].advance(Time::from_micros(3));
        assert!(!stall.stalled(), "clock progress must re-arm");
        std::thread::sleep(Duration::from_millis(2));
        // A send is progress too.
        procs[0].send_global::<u64>(1, 7, ContextId::WORLD, vec![1], CostScale::NEUTRAL);
        assert!(!stall.stalled(), "send progress must re-arm");
        // No progress at all: the detector fires.
        std::thread::sleep(Duration::from_millis(2));
        assert!(stall.stalled(), "no progress => stalled");
        // Routerless detectors degrade to a fixed deadline.
        let mut fixed = StallDeadline::new(None, Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        assert!(fixed.stalled());
    }

    #[test]
    fn send_recv_updates_clocks() {
        let procs = setup(2);
        let cost = procs[0].router.cost.clone();
        procs[0].send_global::<u64>(1, 7, ContextId::WORLD, vec![1, 2, 3], CostScale::NEUTRAL);
        // Sender paid only the send overhead.
        assert_eq!(procs[0].now(), cost.send_overhead);
        let pat = MatchPattern {
            ctx: ContextId::WORLD,
            src: SrcFilter::Exact(0),
            tag: 7,
        };
        let m = procs[1].recv_match(&pat).unwrap();
        let (v, info) = m.take::<u64>().unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        // Receiver's clock jumped to arrival (alpha + 24 bytes * beta) + recv overhead.
        let expected = cost.transfer_time(24) + cost.recv_overhead;
        assert_eq!(procs[1].now(), expected);
        assert_eq!(info.arrival, cost.transfer_time(24));
    }

    #[test]
    fn recv_does_not_rewind_clock() {
        let procs = setup(2);
        procs[1].advance(Time::from_millis(10));
        procs[0].send_global::<u64>(1, 7, ContextId::WORLD, vec![1], CostScale::NEUTRAL);
        let pat = MatchPattern {
            ctx: ContextId::WORLD,
            src: SrcFilter::Exact(0),
            tag: 7,
        };
        procs[1].recv_match(&pat).unwrap();
        // Receiver was already past the arrival time; max() keeps it there.
        assert!(procs[1].now() >= Time::from_millis(10));
    }

    #[test]
    fn try_recv_miss_leaves_clock() {
        let procs = setup(2);
        let pat = MatchPattern {
            ctx: ContextId::WORLD,
            src: SrcFilter::Any,
            tag: 0,
        };
        assert!(procs[0].try_recv_match(&pat).unwrap().is_none());
        assert_eq!(procs[0].now(), Time::ZERO);
    }

    #[test]
    fn deterministic_rng_per_rank() {
        let a = setup(2);
        let b = setup(2);
        assert_eq!(a[0].rand_index(1000), b[0].rand_index(1000));
        assert_eq!(a[1].rand_index(1000), b[1].rand_index(1000));
    }

    #[test]
    fn charge_compute_uses_model() {
        let procs = setup(1);
        procs[0].charge_compute(5000);
        assert_eq!(procs[0].now(), Time::from_micros(5));
    }

    #[test]
    fn slowed_rank_pays_its_factor() {
        use crate::faults::FaultPlan;
        // frac = 1, max_factor such that every rank straggles; compare a
        // slowed rank's charge against a clean twin.
        let plan = FaultPlan::default()
            .with_slowdown(1.0, 4.0)
            .with_perturb_seed(11);
        let slowed = setup_faulted(2, FaultState::resolve(&plan, 2));
        let clean = setup(2);
        let f = slowed[0].router.faults.factor(0);
        assert!(f > 1.0, "rank 0 must straggle under frac=1");
        slowed[0].charge(Time::from_micros(100));
        clean[0].charge(Time::from_micros(100));
        assert_eq!(slowed[0].now(), Time::from_micros(100).scale(f));
        assert_eq!(clean[0].now(), Time::from_micros(100));
    }

    #[test]
    fn crashed_rank_sends_nothing_and_cannot_receive() {
        use crate::faults::{FaultPlan, RankHealth};
        let plan = FaultPlan::default().with_crash(0, Time::from_micros(10));
        let procs = setup_faulted(2, FaultState::resolve(&plan, 2));
        let pat = MatchPattern {
            ctx: ContextId::WORLD,
            src: SrcFilter::Exact(0),
            tag: 7,
        };
        // Before the crash time the rank behaves normally.
        assert!(!procs[0].crashed());
        procs[0].send_global::<u64>(1, 7, ContextId::WORLD, vec![1], CostScale::NEUTRAL);
        procs[1].recv_match(&pat).unwrap();
        // Cross the crash point: sends become no-ops (no clock, no traffic),
        // receives fail with a self-blaming timeout.
        procs[0].advance_to(Time::from_micros(10));
        assert!(procs[0].crashed());
        let before = (procs[0].now(), procs[0].router.traffic());
        procs[0].send_global::<u64>(1, 7, ContextId::WORLD, vec![2], CostScale::NEUTRAL);
        assert_eq!((procs[0].now(), procs[0].router.traffic()), before);
        assert!(procs[1].try_recv_match(&pat).unwrap().is_none());
        let err = procs[0].recv_match(&pat).unwrap_err();
        match err {
            MpiError::Timeout { rank, blame, .. } => {
                assert_eq!(rank, 0);
                assert_eq!(blame.ranks(), vec![0]);
                assert_eq!(
                    blame.waiting_on[0].health,
                    RankHealth::Crashed {
                        at: Time::from_micros(10)
                    }
                );
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn jitter_inflates_arrival_deterministically() {
        use crate::faults::FaultPlan;
        let plan = FaultPlan::default()
            .with_jitter(Time::from_micros(20))
            .with_perturb_seed(3);
        let run = || {
            let procs = setup_faulted(2, FaultState::resolve(&plan, 2));
            procs[0].send_global::<u64>(1, 7, ContextId::WORLD, vec![1, 2, 3], CostScale::NEUTRAL);
            let pat = MatchPattern {
                ctx: ContextId::WORLD,
                src: SrcFilter::Exact(0),
                tag: 7,
            };
            procs[1].recv_match(&pat).unwrap().arrival
        };
        let clean = {
            let procs = setup(2);
            procs[0].send_global::<u64>(1, 7, ContextId::WORLD, vec![1, 2, 3], CostScale::NEUTRAL);
            let pat = MatchPattern {
                ctx: ContextId::WORLD,
                src: SrcFilter::Exact(0),
                tag: 7,
            };
            procs[1].recv_match(&pat).unwrap().arrival
        };
        let a = run();
        assert_eq!(a, run(), "jitter must be a pure function of the plan");
        assert!(a >= clean && a <= clean + Time::from_micros(20));
    }

    #[test]
    fn blame_candidates_follow_the_pattern() {
        let procs = setup(12);
        procs[3].advance(Time::from_micros(9));
        let exact = procs[0].blame_for(Some(&MatchPattern {
            ctx: ContextId::WORLD,
            src: SrcFilter::Exact(3),
            tag: 1,
        }));
        assert_eq!(exact.ranks(), vec![3]);
        assert_eq!(exact.waiting_on[0].last_activity, Time::from_micros(9));
        let any = procs[0].blame_for(Some(&MatchPattern {
            ctx: ContextId::WORLD,
            src: SrcFilter::Any,
            tag: 1,
        }));
        assert_eq!(any.ranks(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(any.omitted, 3);
    }
}
