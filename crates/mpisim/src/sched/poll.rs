//! Poll-mode rank bodies: every scheduler task is a pollable state
//! machine, not a thread and not a stack.
//!
//! A rank's state is **a few hundred bytes of `Future` state machine**:
//! the compiler's async transform stores exactly the live locals of the
//! current await point, so a 2^20-rank universe fits in memory where
//! 2^20 thread or coroutine stacks would not.
//!
//! # The `RankBody` protocol
//!
//! A rank implements [`RankBody`] — `handle_incoming` /
//! `wants_to_proceed` / `proceed`, after the round-based
//! `StateMachineWrapper` shape (see DESIGN.md §12). The scheduler drives
//! bodies through its generation-tagged [`Work`](super) rounds: a claimed
//! task step runs `proceed()`, the body stages its sends into its
//! per-task buffer, and it parks through the
//! `ST_BLOCKING` → subscribe → `ST_BLOCKED` handshake — so the epoch
//! commit discipline (§5/§7/§10) and with it bit-for-bit determinism
//! hold for every worker count.
//!
//! # Maybe-async workloads
//!
//! Rather than hand-writing a second state-machine copy of every
//! collective, the round-structured workloads are written **once** as
//! `async fn`s whose blocking primitives dispatch on the execution mode:
//!
//! * on the thread backend every await bottoms out in a primitive that
//!   blocks the rank's OS thread and resolves synchronously, so
//!   [`block_inline`] completes the whole future in a single poll and the
//!   sync wrappers (`Comm::bcast`, `jquick_sort`, …) behave exactly as
//!   before;
//! * inside a scheduler task the primitives return `Pending` after
//!   announcing `ST_BLOCKING` and subscribing a waker, and the scheduler
//!   re-polls the body when the epoch commit wakes it.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

/// What a poll step did: the task intent the scheduler acts on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Made progress and wants another slice next epoch.
    Yielded,
    /// Parked on a mailbox subscription; only a commit-time wake-up
    /// reschedules it.
    Blocked,
    /// The body is done and will never be polled again.
    Finished,
}

/// A rank as a pollable round-based state machine. Driven by the
/// scheduler's epoch rounds: one claimed unit = one `proceed`.
pub trait RankBody: Send {
    /// Committed deliveries for this rank arrived since the last step.
    /// The mailbox itself is the inbox, so stateful bodies can use this
    /// to refresh cached views; `FutureBody` re-checks the mailbox
    /// inside `proceed` and needs nothing here.
    fn handle_incoming(&mut self) {}

    /// Whether the body has a step to run. A `false` costs the rank its
    /// slice this epoch (it re-enters the next round, like a yield).
    fn wants_to_proceed(&self) -> bool {
        true
    }

    /// Run one step: execute until the body yields, parks, or finishes.
    fn proceed(&mut self) -> Step;
}

// ---------------------------------------------------------------------------
// No-op waker
// ---------------------------------------------------------------------------

// The scheduler's wake path is the mailbox subscription (`TaskWaker`),
// not the `std::task` waker: a parked body is rescheduled by the epoch
// commit, never by `Waker::wake`. The context handed to futures therefore
// carries a no-op waker.
const NOOP_VTABLE: RawWakerVTable = RawWakerVTable::new(|_| NOOP_RAW, |_| {}, |_| {}, |_| {});
const NOOP_RAW: RawWaker = RawWaker::new(std::ptr::null(), &NOOP_VTABLE);

/// A waker that does nothing (see the module docs: the mailbox
/// subscription is the real wake path).
fn noop_waker() -> Waker {
    // Safety: every vtable entry is a no-op over a null pointer.
    unsafe { Waker::from_raw(NOOP_RAW) }
}

/// Drive a maybe-async workload future to completion in one poll.
///
/// On the thread backend every await in the workload tree resolves
/// synchronously (the rank's OS thread blocks inside the poll), so the
/// first poll returns `Ready` — this is how the synchronous public
/// wrappers (`Comm::bcast`, `jquick_sort`, …) execute the shared async
/// cores with zero behaviour change.
///
/// # Panics
///
/// Panics if the future suspends, which happens exactly when a
/// synchronous wrapper is called *inside* a poll-mode rank body: poll
/// bodies must use the `*_async` API end to end.
pub fn block_inline<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    let waker = noop_waker();
    let mut cx = Context::from_waker(&waker);
    match fut.as_mut().poll(&mut cx) {
        Poll::Ready(v) => v,
        Poll::Pending => panic!(
            "synchronous MPI call suspended inside a poll-mode rank body: \
             under Backend::Poll every blocking operation must go through \
             the *_async API (and the universe through Universe::run_poll)"
        ),
    }
}

/// Cooperatively yield on either backend: a poll body suspends for one
/// epoch, a thread calls `std::thread::yield_now`. The maybe-async
/// replacement for [`super::yield_now`] in poll loops.
pub async fn yield_now_async() {
    if super::on_poll_body() {
        imp::YieldFut { fired: false }.await;
        return;
    }
    super::yield_now();
}

/// Park the calling rank until the next message is committed into its
/// own mailbox `mb` — the "any arrival" wake-up of polling wait loops
/// (DESIGN.md §12). A poll body suspends with a block intent and the
/// mailbox's arrival slot armed; a thread, which has no scheduler to
/// wake it, just yields. The deadlock detector poisons and wakes a
/// parked rank like a blocked receiver; the park then returns and the
/// caller's next poll observes the poison.
///
/// Only sound after a poll pass that claimed and sent nothing: such a
/// pass sees the same mailbox until the next deposit, so every
/// resumption skipped while parked would have been a no-op.
pub(crate) async fn park_until_arrival_async(mb: &crate::mailbox::Mailbox) {
    if super::on_poll_body() {
        imp::ArrivalFut { mb, parked: false }.await;
        return;
    }
    super::yield_now();
}

pub(crate) use imp::{claim_poll, probe_poll, FutureBody};

mod imp {
    use super::*;
    use crate::error::Result;
    use crate::mailbox::{Mailbox, Subscribed, WaitToken};
    use crate::msg::{MatchPattern, Message, MsgInfo};
    use crate::proc::WaitReason;
    use crate::sched::{
        current_slot, deadlock_err, record_panic, SchedShared, TaskSlot, INTENT_BLOCK,
        INTENT_YIELD, ST_BLOCKING, ST_RUNNING,
    };
    use crate::time::Time;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// Suspend for exactly one epoch (the poll-mode half of
    /// [`yield_now_async`]).
    pub(super) struct YieldFut {
        pub(super) fired: bool,
    }

    impl Future for YieldFut {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
            if self.fired {
                return Poll::Ready(());
            }
            self.fired = true;
            let slot = current_slot().expect("poll-mode yield runs on a scheduler task");
            slot.intent.store(INTENT_YIELD, Ordering::Release);
            Poll::Pending
        }
    }

    /// The poll-mode half of [`park_until_arrival_async`]: the claim
    /// protocol's announce → arm → block-intent handshake, with the
    /// mailbox's arrival slot in place of a pattern subscription.
    pub(super) struct ArrivalFut<'a> {
        pub(super) mb: &'a Mailbox,
        pub(super) parked: bool,
    }

    impl Future for ArrivalFut<'_> {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
            let slot = current_slot().expect("poll-mode park runs on a scheduler task");
            if self.parked {
                // Woken by a deposit (which emptied the slot) or by the
                // poisoner (which did not). Idempotent either way.
                self.mb.disarm_arrival();
                slot.core.wait_reason.lock().take();
                return Poll::Ready(());
            }
            self.parked = true;
            slot.core.status.store(ST_BLOCKING, Ordering::Release);
            self.mb.arm_arrival(&slot.waker);
            *slot.core.wait_reason.lock() = Some(WaitReason::Arrival);
            slot.intent.store(INTENT_BLOCK, Ordering::Release);
            Poll::Pending
        }
    }

    /// The park protocol shared by the claim and probe futures: announce
    /// `ST_BLOCKING`, subscribe under the mailbox lock, and either
    /// resolve (hit) or record the wait and suspend with a block intent.
    /// Re-polls first drop the stale subscription.
    struct WaitState {
        token: Option<WaitToken>,
    }

    impl WaitState {
        fn step<T>(
            &mut self,
            slot: &TaskSlot,
            mb: &Mailbox,
            rank: usize,
            vnow: Time,
            reason: impl FnOnce() -> WaitReason,
            subscribe: impl FnOnce() -> Subscribed<T>,
        ) -> Poll<Result<T>> {
            if let Some(t) = self.token.take() {
                // Normal wake-ups remove the subscription; the poison
                // path does not. Idempotent either way.
                mb.unsubscribe(t);
                slot.core.wait_reason.lock().take();
            }
            if slot.core.poisoned.load(Ordering::Acquire) {
                return Poll::Ready(Err(deadlock_err(rank, &reason(), vnow)));
            }
            // Announce intent to block *before* subscribing so a wake-up
            // arriving between subscription and the suspension is never
            // lost.
            slot.core.status.store(ST_BLOCKING, Ordering::Release);
            match subscribe() {
                Subscribed::Hit(v) => {
                    slot.core.status.store(ST_RUNNING, Ordering::Release);
                    Poll::Ready(Ok(v))
                }
                Subscribed::Waiting(token) => {
                    self.token = Some(token);
                    *slot.core.wait_reason.lock() = Some(reason());
                    slot.intent.store(INTENT_BLOCK, Ordering::Release);
                    Poll::Pending
                }
            }
        }
    }

    struct ClaimFut<'a> {
        mb: &'a Mailbox,
        pat: &'a MatchPattern,
        rank: usize,
        vnow: Time,
        wait: WaitState,
    }

    impl Future for ClaimFut<'_> {
        type Output = Result<Message>;
        fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Result<Message>> {
            let this = self.get_mut();
            let slot = current_slot().expect("poll-mode claim runs on a scheduler task");
            let (mb, pat) = (this.mb, this.pat);
            this.wait.step(
                slot,
                mb,
                this.rank,
                this.vnow,
                || WaitReason::Recv(pat.clone()),
                || mb.claim_or_subscribe(pat, &slot.waker),
            )
        }
    }

    struct ProbeFut<'a> {
        mb: &'a Mailbox,
        pat: &'a MatchPattern,
        rank: usize,
        vnow: Time,
        wait: WaitState,
    }

    impl Future for ProbeFut<'_> {
        type Output = Result<MsgInfo>;
        fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Result<MsgInfo>> {
            let this = self.get_mut();
            let slot = current_slot().expect("poll-mode probe runs on a scheduler task");
            let (mb, pat) = (this.mb, this.pat);
            this.wait.step(
                slot,
                mb,
                this.rank,
                this.vnow,
                || WaitReason::Probe(pat.clone()),
                || mb.probe_or_subscribe(pat, &slot.waker),
            )
        }
    }

    /// Blocking claim from a poll-mode body: parks the task through the
    /// announce/subscribe handshake until a matching message is
    /// committed.
    pub(crate) async fn claim_poll(
        mb: &Mailbox,
        pat: &MatchPattern,
        rank: usize,
        vnow: Time,
    ) -> Result<Message> {
        ClaimFut {
            mb,
            pat,
            rank,
            vnow,
            wait: WaitState { token: None },
        }
        .await
    }

    /// Blocking probe from a poll-mode body (same handshake as
    /// [`claim_poll`]).
    pub(crate) async fn probe_poll(
        mb: &Mailbox,
        pat: &MatchPattern,
        rank: usize,
        vnow: Time,
    ) -> Result<MsgInfo> {
        ProbeFut {
            mb,
            pat,
            rank,
            vnow,
            wait: WaitState { token: None },
        }
        .await
    }

    /// The [`RankBody`] the universe wraps every async rank program in: a
    /// pinned future stepped once per claimed poll unit. `proceed` maps
    /// the poll result onto the task intents — `Ready` finishes the
    /// task, `Pending` reads the intent the suspending primitive stored
    /// (block vs yield) — and catches the body's panics so the first one
    /// can be re-thrown after the run.
    pub(crate) struct FutureBody {
        fut: Pin<Box<dyn Future<Output = ()> + Send + 'static>>,
        rank: usize,
        store: Arc<SchedShared>,
    }

    impl FutureBody {
        pub(crate) fn new(
            fut: Pin<Box<dyn Future<Output = ()> + Send + 'static>>,
            rank: usize,
            store: Arc<SchedShared>,
        ) -> FutureBody {
            FutureBody { fut, rank, store }
        }
    }

    impl RankBody for FutureBody {
        fn proceed(&mut self) -> Step {
            let waker = noop_waker();
            let mut cx = Context::from_waker(&waker);
            let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.fut.as_mut().poll(&mut cx)
            }));
            match polled {
                Ok(Poll::Ready(())) => Step::Finished,
                Ok(Poll::Pending) => {
                    let slot = current_slot().expect("poll body stepped on a scheduler task");
                    match slot.intent.load(Ordering::Acquire) {
                        INTENT_BLOCK => Step::Blocked,
                        INTENT_YIELD => Step::Yielded,
                        other => {
                            // A body suspended through something other
                            // than the scheduler's primitives (a foreign
                            // future): no wake-up source exists, so
                            // treating it as a yield would spin forever.
                            eprintln!(
                                "mpisim: poll body {} suspended with invalid intent {other} \
                                 (awaited a non-mpisim future?)",
                                self.rank
                            );
                            std::process::abort();
                        }
                    }
                }
                Err(payload) => {
                    record_panic(&self.store, self.rank, payload);
                    Step::Finished
                }
            }
        }
    }
}
