//! Per-rank mailboxes: the matching engine.
//!
//! Every rank owns one mailbox; senders push completed messages into the
//! destination's mailbox (sends are buffered, so they never block). Matching
//! follows MPI semantics:
//!
//! * a receive matches on `(context, source, tag)`;
//! * per `(sender, context)` messages are non-overtaking (FIFO): for a given
//!   source we only ever consider that source's *earliest* matching message;
//! * with a wildcard source, among the per-source head candidates we pick
//!   the one with the earliest *virtual arrival* — mirroring "the first
//!   message to physically arrive wins" of a real network, independent of
//!   the real-time interleaving of simulator threads.
//!
//! # Indexed storage
//!
//! Patterns always pin an exact `(context, tag)` pair (the libraries never
//! wildcard those), so messages are bucketed by that key, and within a key
//! by source. Each key keeps a **sorted vector** of its per-source FIFO
//! heads ordered by `(arrival, src)`: an exact-source claim is a hash
//! lookup, a wildcard claim is the first element — **O(log s) search in
//! the number of distinct pending sources, independent of the number of
//! pending messages**. (The index was a `BTreeSet` until PR 8; a sorted
//! vector has identical ordering semantics, and unlike tree nodes its
//! backing storage is retained across refills, which the allocation-free
//! epoch path needs.) Drained source queues and drained `(context, tag)`
//! buckets are likewise retained/recycled rather than freed, so a
//! steady-state storm's mailbox bookkeeping touches the allocator not at
//! all.
//!
//! # Blocking and wake-ups
//!
//! Thread-backend receivers block on the internal condvar with a wall-clock
//! timeout that acts as a deadlock detector ([`MpiError::Timeout`]).
//! Cooperative-backend receivers instead subscribe a [`Wake`] hook with
//! their pattern ([`Mailbox::claim_or_subscribe`]); a push wakes exactly
//! the subscribers whose pattern matches the new message, so a rank is only
//! scheduled when its message actually arrived.
//!
//! A polling loop that waits on *several* patterns at once (a janus
//! rank's level machines, `waitall`) instead arms the mailbox's single
//! **arrival slot** ([`Mailbox::arm_arrival`]): the next deposit of *any*
//! message fires it. The slot is not a pattern subscription, so it adds
//! nothing to [`Mailbox::scans`].

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::error::{MpiError, Result};
use crate::msg::{ContextId, MatchPattern, Message, MsgInfo, SrcFilter, Tag};
use crate::time::Time;

/// Wake-up hook subscribed by a parked cooperative task. Under the epoch
/// scheduler every push — and therefore every wake — happens during the
/// single-threaded commit phase, in the deterministic global delivery
/// order (see [`crate::sched`]); the woken tasks join the next epoch in
/// exactly that order.
pub trait Wake: Send + Sync {
    /// Make the subscriber runnable again.
    fn wake(&self);
}

/// Handle for cancelling a subscription made by
/// [`Mailbox::claim_or_subscribe`] / [`Mailbox::probe_or_subscribe`].
#[derive(Debug)]
pub struct WaitToken(u64);

/// Outcome of a claim-or-subscribe style operation.
pub enum Subscribed<T> {
    /// A matching message/probe hit was available immediately.
    Hit(T),
    /// Nothing matched; the waker was subscribed and will fire on a
    /// matching push. Cancel with [`Mailbox::unsubscribe`].
    Waiting(WaitToken),
}

struct WaiterEntry {
    token: u64,
    pat: MatchPattern,
    waker: Arc<dyn Wake>,
}

/// Messages of one `(context, tag)` bucket: per-source FIFO queues plus a
/// sorted vector of the current heads keyed by `(arrival, src)` (unique —
/// one head per source).
#[derive(Default)]
struct KeyQueue {
    per_src: HashMap<usize, VecDeque<Message>>,
    heads: Vec<(Time, usize)>,
}

impl KeyQueue {
    fn insert_head(&mut self, key: (Time, usize)) {
        let i = self.heads.binary_search(&key).unwrap_err();
        self.heads.insert(i, key);
    }

    fn remove_head(&mut self, key: (Time, usize)) {
        let i = self.heads.binary_search(&key).expect("head is indexed");
        self.heads.remove(i);
    }

    fn push(&mut self, m: Message) {
        let key = (m.arrival, m.src_global);
        let q = self.per_src.entry(m.src_global).or_default();
        let was_empty = q.is_empty();
        q.push_back(m);
        if was_empty {
            self.insert_head(key);
        }
    }

    /// Source of the best matching candidate under MPI semantics: per-source
    /// FIFO heads only, earliest `(arrival, src)` among acceptable sources.
    fn best_src(&self, src: &SrcFilter) -> Option<usize> {
        match src {
            // A drained source keeps its (empty) queue, so presence in the
            // map alone is not enough.
            SrcFilter::Exact(s) => self
                .per_src
                .get(s)
                .is_some_and(|q| !q.is_empty())
                .then_some(*s),
            SrcFilter::Any => self.heads.first().map(|&(_, s)| s),
            SrcFilter::Filter(f) => self.heads.iter().find(|&&(_, s)| f(s)).map(|&(_, s)| s),
        }
    }

    fn head(&self, src: usize) -> &Message {
        self.per_src[&src].front().expect("non-empty source queue")
    }

    fn pop(&mut self, src: usize) -> Message {
        let q = self.per_src.get_mut(&src).expect("non-empty source queue");
        let m = q.pop_front().expect("non-empty source queue");
        // A drained source keeps its empty queue (capacity retained for
        // the next refill); the heads index alone tracks liveness.
        let next_key = q.front().map(|next| (next.arrival, src));
        self.remove_head((m.arrival, src));
        if let Some(key) = next_key {
            self.insert_head(key);
        }
        m
    }

    fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }
}

struct Inner {
    keys: HashMap<(ContextId, Tag), KeyQueue>,
    count: usize,
    waiters: Vec<WaiterEntry>,
    next_token: u64,
    /// Waiter-pattern match checks performed by deposits — the mailbox's
    /// share of the deterministic [`crate::obs::MetricsSnapshot`]. On the
    /// cooperative backend the waiter set at each commit is a pure
    /// function of the epoch structure, so this count is worker-invariant.
    scans: u64,
    /// Drained `(context, tag)` buckets kept for reuse (bounded by
    /// [`Mailbox::FREE_QUEUE_CAP`]): their per-source queues and heads
    /// vector retain capacity, so re-opening a bucket allocates nothing.
    free_queues: Vec<KeyQueue>,
    /// The owner's "any arrival" waker ([`Mailbox::arm_arrival`]): fired
    /// and cleared by the next deposit, whatever it matches.
    arrival: Option<Arc<dyn Wake>>,
}

/// One rank's incoming-message queue with MPI matching semantics:
/// `(context, source, tag)` matching, FIFO per sender, earliest-arrival
/// selection among sources for wildcards.
pub struct Mailbox {
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl Default for Mailbox {
    fn default() -> Self {
        Mailbox::new()
    }
}

impl Mailbox {
    /// An empty mailbox.
    pub fn new() -> Mailbox {
        Mailbox {
            inner: Mutex::new(Inner {
                keys: HashMap::new(),
                count: 0,
                waiters: Vec::new(),
                next_token: 0,
                scans: 0,
                free_queues: Vec::new(),
                arrival: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Bound on recycled `(context, tag)` buckets kept in
    /// [`Inner::free_queues`]; drained buckets beyond it are dropped.
    const FREE_QUEUE_CAP: usize = 8;

    /// Deposit one message under the held lock: remove every matching
    /// subscription (appending `(idx, waker)` pairs to `fired`, in
    /// subscription order, then the armed arrival slot, if any) and
    /// insert the message. Both push flavours go
    /// through this single helper so their matching semantics can never
    /// drift apart — the thread backend delivers through
    /// [`Mailbox::push`] and the epoch commit through
    /// [`Mailbox::push_batch`] (DESIGN.md §7), and both must match
    /// exactly as a one-message-at-a-time push in key order would.
    #[inline]
    fn deposit(g: &mut Inner, idx: usize, m: Message, fired: &mut Vec<(usize, Arc<dyn Wake>)>) {
        g.scans += g.waiters.len() as u64;
        let mut i = 0;
        while i < g.waiters.len() {
            if g.waiters[i].pat.matches(&m) {
                fired.push((idx, g.waiters.remove(i).waker));
            } else {
                i += 1;
            }
        }
        if let Some(w) = g.arrival.take() {
            fired.push((idx, w));
        }
        let Inner {
            keys, free_queues, ..
        } = g;
        keys.entry((m.ctx, m.tag))
            .or_insert_with(|| free_queues.pop().unwrap_or_default())
            .push(m);
        g.count += 1;
    }

    /// Deposit a message and wake blocked receivers — the condvar for
    /// thread-backend receivers, and exactly the matching [`Wake`]
    /// subscribers for cooperative ones.
    pub fn push(&self, m: Message) {
        let mut fired: Vec<(usize, Arc<dyn Wake>)> = Vec::new();
        Self::deposit(&mut self.inner.lock(), 0, m, &mut fired);
        self.cv.notify_all();
        for (_, w) in fired {
            w.wake();
        }
    }

    /// Deposit a batch of messages under **one** lock acquisition,
    /// *without* firing wakers.
    ///
    /// This is the sharded epoch commit's entry point: the scheduler pushes
    /// each destination's globally-ordered message segment as one batch
    /// (amortising the mailbox lock over the whole fan-in), and must defer
    /// every wake-up past its push barrier so the wake order can be merged
    /// deterministically across shards (see [`crate::sched`]). Matching
    /// subscriptions are removed here — under the lock, exactly as
    /// [`Mailbox::push`] would — and appended to `fired` as `(index of the
    /// triggering message within the batch, waker)` pairs in trigger order;
    /// the caller fires them. `msgs` is drained, not consumed, so the
    /// caller's batch buffer (and `fired`) keep their capacity for the next
    /// segment — the commit hot path reuses both through the pool. The
    /// condvar is still notified for any thread-backend receiver parked on
    /// this mailbox.
    pub fn push_batch(&self, msgs: &mut Vec<Message>, fired: &mut Vec<(usize, Arc<dyn Wake>)>) {
        if msgs.is_empty() {
            return;
        }
        {
            let mut g = self.inner.lock();
            for (idx, m) in msgs.drain(..).enumerate() {
                Self::deposit(&mut g, idx, m, fired);
            }
        }
        self.cv.notify_all();
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().count
    }

    /// Cumulative waiter-pattern match checks performed by deposits into
    /// this mailbox (see [`crate::obs::MetricsSnapshot::mailbox_scans`]).
    pub fn scans(&self) -> u64 {
        self.inner.lock().scans
    }

    /// Whether no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn claim_inner(g: &mut Inner, pat: &MatchPattern) -> Option<Message> {
        let key = (pat.ctx, pat.tag);
        let (m, empty) = {
            let kq = g.keys.get_mut(&key)?;
            let src = kq.best_src(&pat.src)?;
            let m = kq.pop(src);
            (m, kq.is_empty())
        };
        if empty {
            // Recycle the drained bucket rather than dropping it: its
            // per-source queues and heads vector keep their capacity, so
            // the next deposit under this (or any) key allocates nothing.
            if let Some(kq) = g.keys.remove(&key) {
                if g.free_queues.len() < Self::FREE_QUEUE_CAP {
                    g.free_queues.push(kq);
                }
            }
        }
        g.count -= 1;
        Some(m)
    }

    fn probe_inner(g: &Inner, pat: &MatchPattern) -> Option<MsgInfo> {
        let kq = g.keys.get(&(pat.ctx, pat.tag))?;
        let src = kq.best_src(&pat.src)?;
        Some(kq.head(src).info())
    }

    fn subscribe(g: &mut Inner, pat: &MatchPattern, waker: &Arc<dyn Wake>) -> WaitToken {
        let token = g.next_token;
        g.next_token += 1;
        g.waiters.push(WaiterEntry {
            token,
            pat: pat.clone(),
            waker: Arc::clone(waker),
        });
        WaitToken(token)
    }

    /// Remove and return the best matching message, if any.
    pub fn try_claim(&self, pat: &MatchPattern) -> Option<Message> {
        Self::claim_inner(&mut self.inner.lock(), pat)
    }

    /// Non-destructive probe.
    pub fn probe(&self, pat: &MatchPattern) -> Option<MsgInfo> {
        Self::probe_inner(&self.inner.lock(), pat)
    }

    /// Claim the best match, or — if nothing matches — subscribe `waker` to
    /// fire on the next matching push. The check and the subscription are
    /// one atomic step under the mailbox lock, so a push can never slip
    /// between them.
    pub fn claim_or_subscribe(
        &self,
        pat: &MatchPattern,
        waker: &Arc<dyn Wake>,
    ) -> Subscribed<Message> {
        let mut g = self.inner.lock();
        if let Some(m) = Self::claim_inner(&mut g, pat) {
            return Subscribed::Hit(m);
        }
        Subscribed::Waiting(Self::subscribe(&mut g, pat, waker))
    }

    /// Probe the best match, or subscribe `waker` as in
    /// [`Mailbox::claim_or_subscribe`].
    pub fn probe_or_subscribe(
        &self,
        pat: &MatchPattern,
        waker: &Arc<dyn Wake>,
    ) -> Subscribed<MsgInfo> {
        let mut g = self.inner.lock();
        if let Some(info) = Self::probe_inner(&g, pat) {
            return Subscribed::Hit(info);
        }
        Subscribed::Waiting(Self::subscribe(&mut g, pat, waker))
    }

    /// Cancel a subscription. Idempotent: wake-ups triggered by a push
    /// already removed their entry.
    pub fn unsubscribe(&self, token: WaitToken) {
        self.inner.lock().waiters.retain(|w| w.token != token.0);
    }

    /// Arm the arrival slot: `waker` fires on the next deposit of *any*
    /// message, then the slot empties. Only the mailbox's owner arms it,
    /// and a rank waits in one place at a time, so one slot suffices
    /// (re-arming replaces the previous waker).
    pub fn arm_arrival(&self, waker: &Arc<dyn Wake>) {
        self.inner.lock().arrival = Some(Arc::clone(waker));
    }

    /// Empty the arrival slot. Idempotent: a deposit already emptied it.
    pub fn disarm_arrival(&self) {
        self.inner.lock().arrival = None;
    }

    /// Block (in wall-clock time) until a matching message can be claimed.
    pub fn claim_blocking(
        &self,
        pat: &MatchPattern,
        timeout: Duration,
        rank: usize,
        vnow: Time,
    ) -> Result<Message> {
        let mut g = self.inner.lock();
        loop {
            if let Some(m) = Self::claim_inner(&mut g, pat) {
                return Ok(m);
            }
            if self.cv.wait_for(&mut g, timeout).timed_out() {
                return Err(MpiError::Timeout {
                    rank,
                    waited_for: format!("recv({:?}, tag={}, {})", pat.src, pat.tag, pat.ctx),
                    virtual_now: vnow,
                    // The mailbox has no fault-state access; `ProcState`
                    // enriches the blame on the way out.
                    blame: crate::faults::RoundBlame::default(),
                });
            }
        }
    }

    /// Block until a matching message is present; do not remove it.
    pub fn probe_blocking(
        &self,
        pat: &MatchPattern,
        timeout: Duration,
        rank: usize,
        vnow: Time,
    ) -> Result<MsgInfo> {
        let mut g = self.inner.lock();
        loop {
            if let Some(info) = Self::probe_inner(&g, pat) {
                return Ok(info);
            }
            if self.cv.wait_for(&mut g, timeout).timed_out() {
                return Err(MpiError::Timeout {
                    rank,
                    waited_for: format!("probe({:?}, tag={}, {})", pat.src, pat.tag, pat.ctx),
                    virtual_now: vnow,
                    blame: crate::faults::RoundBlame::default(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{ContextId, SrcFilter};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn msg(src: usize, tag: u64, ctx: u32, arrival: u64, val: u64) -> Message {
        Message::new::<u64>(
            src,
            tag,
            ContextId::Small(ctx),
            vec![val],
            Time(0),
            Time(arrival),
        )
    }

    fn pat(src: SrcFilter, tag: u64, ctx: u32) -> MatchPattern {
        MatchPattern {
            ctx: ContextId::Small(ctx),
            src,
            tag,
        }
    }

    #[test]
    fn fifo_per_source() {
        let mb = Mailbox::new();
        mb.push(msg(1, 5, 0, 100, 111));
        mb.push(msg(1, 5, 0, 50, 222)); // later push, earlier arrival — must NOT overtake
        let m = mb.try_claim(&pat(SrcFilter::Exact(1), 5, 0)).unwrap();
        let (v, _) = m.take::<u64>().unwrap();
        assert_eq!(v, vec![111]);
        let m = mb.try_claim(&pat(SrcFilter::Exact(1), 5, 0)).unwrap();
        let (v, _) = m.take::<u64>().unwrap();
        assert_eq!(v, vec![222]);
    }

    #[test]
    fn wildcard_prefers_earliest_arrival() {
        let mb = Mailbox::new();
        mb.push(msg(1, 5, 0, 100, 111)); // physically first, arrives late
        mb.push(msg(2, 5, 0, 10, 222)); // physically second, arrives early
        let m = mb.try_claim(&pat(SrcFilter::Any, 5, 0)).unwrap();
        assert_eq!(m.src_global, 2);
    }

    #[test]
    fn context_isolation() {
        let mb = Mailbox::new();
        mb.push(msg(1, 5, 7, 10, 1));
        assert!(mb.try_claim(&pat(SrcFilter::Any, 5, 8)).is_none());
        assert!(mb.try_claim(&pat(SrcFilter::Any, 5, 7)).is_some());
    }

    #[test]
    fn tag_isolation() {
        let mb = Mailbox::new();
        mb.push(msg(1, 5, 0, 10, 1));
        assert!(mb.try_claim(&pat(SrcFilter::Exact(1), 6, 0)).is_none());
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn filter_wildcard_skips_non_members() {
        let mb = Mailbox::new();
        mb.push(msg(9, 5, 0, 1, 1)); // not in range, earliest arrival
        mb.push(msg(3, 5, 0, 50, 2));
        let f = SrcFilter::Filter(Arc::new(|g| (2..=4).contains(&g)));
        let m = mb.try_claim(&pat(f, 5, 0)).unwrap();
        assert_eq!(m.src_global, 3);
        assert_eq!(mb.len(), 1); // rank 9's message untouched
    }

    #[test]
    fn probe_does_not_remove() {
        let mb = Mailbox::new();
        mb.push(msg(1, 5, 0, 10, 42));
        let info = mb.probe(&pat(SrcFilter::Any, 5, 0)).unwrap();
        assert_eq!(info.src_global, 1);
        assert_eq!(info.count, 1);
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn blocking_claim_times_out() {
        let mb = Mailbox::new();
        let err = mb
            .claim_blocking(
                &pat(SrcFilter::Exact(0), 1, 0),
                Duration::from_millis(20),
                3,
                Time(99),
            )
            .unwrap_err();
        assert!(matches!(err, MpiError::Timeout { rank: 3, .. }));
    }

    #[test]
    fn blocking_claim_wakes_on_push() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            mb2.push(msg(0, 1, 0, 5, 7));
        });
        let m = mb
            .claim_blocking(
                &pat(SrcFilter::Exact(0), 1, 0),
                Duration::from_secs(5),
                0,
                Time(0),
            )
            .unwrap();
        assert_eq!(m.src_global, 0);
        h.join().unwrap();
    }

    #[test]
    fn exact_source_fifo_even_with_other_traffic() {
        let mb = Mailbox::new();
        mb.push(msg(2, 5, 0, 500, 1));
        mb.push(msg(1, 5, 0, 1, 2));
        // Exact(2) must take src 2's head even though src 1 arrives earlier.
        let m = mb.try_claim(&pat(SrcFilter::Exact(2), 5, 0)).unwrap();
        assert_eq!(m.src_global, 2);
    }

    #[test]
    fn heads_index_tracks_pops_and_reinserts() {
        // Regression for the indexed storage: popping a head must expose
        // the source's next message at its own arrival key.
        let mb = Mailbox::new();
        mb.push(msg(1, 5, 0, 10, 1)); // src 1 head, arrival 10
        mb.push(msg(1, 5, 0, 5, 2)); //  src 1 second, arrival 5 (no overtake)
        mb.push(msg(2, 5, 0, 7, 3)); //  src 2 head, arrival 7
        let p = pat(SrcFilter::Any, 5, 0);
        // Heads are (10, src1) and (7, src2): src2 wins.
        assert_eq!(mb.try_claim(&p).unwrap().src_global, 2);
        // Now heads are (10, src1) only.
        let (v, _) = mb.try_claim(&p).unwrap().take::<u64>().unwrap();
        assert_eq!(v, vec![1]);
        // src1's second message surfaced with arrival 5.
        let (v, _) = mb.try_claim(&p).unwrap().take::<u64>().unwrap();
        assert_eq!(v, vec![2]);
        assert!(mb.is_empty());
    }

    struct CountWake(AtomicUsize);
    impl Wake for CountWake {
        fn wake(&self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn subscription_fires_only_on_match() {
        let mb = Mailbox::new();
        let counter = Arc::new(CountWake(AtomicUsize::new(0)));
        let waker: Arc<dyn Wake> = Arc::<CountWake>::clone(&counter);
        let token = match mb.claim_or_subscribe(&pat(SrcFilter::Exact(1), 5, 0), &waker) {
            Subscribed::Waiting(t) => t,
            Subscribed::Hit(_) => panic!("mailbox is empty"),
        };
        mb.push(msg(2, 5, 0, 1, 0)); // wrong source: no wake
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
        mb.push(msg(1, 6, 0, 1, 0)); // wrong tag: no wake
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
        mb.push(msg(1, 5, 0, 1, 0)); // match: wake fires and unsubscribes
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        mb.push(msg(1, 5, 0, 2, 0)); // already unsubscribed: no second wake
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        mb.unsubscribe(token); // idempotent
    }

    #[test]
    fn push_batch_preserves_order_and_defers_wakes() {
        let mb = Mailbox::new();
        let counter = Arc::new(CountWake(AtomicUsize::new(0)));
        let waker: Arc<dyn Wake> = Arc::<CountWake>::clone(&counter);
        let token = match mb.claim_or_subscribe(&pat(SrcFilter::Any, 5, 0), &waker) {
            Subscribed::Waiting(t) => t,
            Subscribed::Hit(_) => panic!("mailbox is empty"),
        };
        let mut batch = vec![
            msg(1, 6, 0, 1, 10), // wrong tag: not a trigger
            msg(1, 5, 0, 2, 11), // first match: the trigger, index 1
            msg(1, 5, 0, 3, 12), // waiter already removed
            msg(2, 5, 0, 1, 13),
        ];
        let mut fired = Vec::new();
        mb.push_batch(&mut batch, &mut fired);
        assert!(batch.is_empty(), "the batch buffer is drained for reuse");
        // The waker came back unfired, tagged with the triggering index.
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].0, 1);
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
        fired[0].1.wake();
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        // Messages landed with per-source FIFO and wildcard order exactly
        // as a sequence of single pushes would have left them.
        let p5 = pat(SrcFilter::Any, 5, 0);
        assert_eq!(mb.try_claim(&p5).unwrap().src_global, 2); // arrival 1
        let (v, _) = mb.try_claim(&p5).unwrap().take::<u64>().unwrap();
        assert_eq!(v, vec![11]); // src 1 head, arrival 2
        let (v, _) = mb.try_claim(&p5).unwrap().take::<u64>().unwrap();
        assert_eq!(v, vec![12]);
        assert_eq!(
            mb.try_claim(&pat(SrcFilter::Any, 6, 0)).unwrap().src_global,
            1
        );
        assert!(mb.is_empty());
        mb.unsubscribe(token); // idempotent after the wake consumed it
    }

    #[test]
    fn push_batch_fires_each_subscription_once() {
        // Two waiters with different patterns: each is triggered by the
        // first batch message matching *its* pattern, independently.
        let mb = Mailbox::new();
        let c1 = Arc::new(CountWake(AtomicUsize::new(0)));
        let c2 = Arc::new(CountWake(AtomicUsize::new(0)));
        let w1: Arc<dyn Wake> = Arc::<CountWake>::clone(&c1);
        let w2: Arc<dyn Wake> = Arc::<CountWake>::clone(&c2);
        assert!(matches!(
            mb.claim_or_subscribe(&pat(SrcFilter::Exact(7), 5, 0), &w1),
            Subscribed::Waiting(_)
        ));
        assert!(matches!(
            mb.probe_or_subscribe(&pat(SrcFilter::Exact(8), 5, 0), &w2),
            Subscribed::Waiting(_)
        ));
        let mut batch = vec![
            msg(8, 5, 0, 1, 0), // triggers w2 at index 0
            msg(7, 5, 0, 2, 0), // triggers w1 at index 1
            msg(8, 5, 0, 3, 0), // w2 already removed
        ];
        let mut fired = Vec::new();
        mb.push_batch(&mut batch, &mut fired);
        let idxs: Vec<usize> = fired.iter().map(|(i, _)| *i).collect();
        assert_eq!(idxs, vec![0, 1]);
    }

    #[test]
    fn empty_push_batch_is_a_no_op() {
        let mb = Mailbox::new();
        let mut fired = Vec::new();
        mb.push_batch(&mut Vec::new(), &mut fired);
        assert!(fired.is_empty());
        assert!(mb.is_empty());
    }

    #[test]
    fn arrival_slot_fires_once_on_any_deposit_without_scanning() {
        let mb = Mailbox::new();
        let counter = Arc::new(CountWake(AtomicUsize::new(0)));
        let waker: Arc<dyn Wake> = Arc::<CountWake>::clone(&counter);
        mb.arm_arrival(&waker);
        // Any message fires it, whatever its context, tag or source, and
        // it stays out of the waiter-scan count.
        let mut fired = Vec::new();
        mb.push_batch(
            &mut vec![msg(3, 9, 4, 1, 0), msg(1, 5, 0, 2, 0)],
            &mut fired,
        );
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].0, 0, "the first deposit is the trigger");
        assert_eq!(mb.scans(), 0);
        mb.push(msg(1, 5, 0, 3, 0)); // slot already emptied: no wake
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
        // A disarmed slot never fires.
        mb.arm_arrival(&waker);
        mb.disarm_arrival();
        mb.push(msg(1, 5, 0, 4, 0));
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
        mb.arm_arrival(&waker);
        mb.push(msg(2, 6, 0, 5, 0));
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        assert_eq!(mb.len(), 5);
    }

    #[test]
    fn immediate_hit_does_not_subscribe() {
        let mb = Mailbox::new();
        mb.push(msg(1, 5, 0, 1, 42));
        let counter = Arc::new(CountWake(AtomicUsize::new(0)));
        let waker: Arc<dyn Wake> = Arc::<CountWake>::clone(&counter);
        match mb.claim_or_subscribe(&pat(SrcFilter::Any, 5, 0), &waker) {
            Subscribed::Hit(m) => assert_eq!(m.src_global, 1),
            Subscribed::Waiting(_) => panic!("message was present"),
        }
        mb.push(msg(1, 5, 0, 2, 0));
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
    }
}
