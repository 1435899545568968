//! Nonblocking collective operations as explicit state machines.
//!
//! Following Hoefler & Lumsdaine's round-based scheme (paper §III, \[3\]):
//! each operation is a little machine whose states "begin with local work
//! ... and end with pending send/receive operations if these operations
//! introduce a data dependency" (§V-D). Invoking the operation executes the
//! first state and returns a request; each `test`/`poll` checks outstanding
//! receives and, when satisfied, executes the next state. Sends are
//! buffered and never block, so only receives create data dependencies.
//!
//! All machines are generic over [`Transport`] and take an explicit tag, so
//! several operations can be in flight simultaneously on overlapping
//! communicators — the property Janus Quicksort relies on.

use std::sync::Arc;
use std::time::Duration;

use crate::datum::Datum;
use crate::error::{MpiError, Result};
use crate::msg::Tag;
use crate::obs::{self, OpClass};
use crate::proc::{ProcState, StallDeadline};
use crate::transport::{RecvReq, Src, Transport};

/// Wall-clock ceiling for spin-waiting on a request without observing any
/// global progress — the deadlock detector for nonblocking operations.
pub const WAIT_TIMEOUT: Duration = Duration::from_secs(30);

/// Arm the stall detector for a polling wait: the configured receive
/// timeout (falling back to [`WAIT_TIMEOUT`] for detached machines),
/// re-armed on global progress so huge-but-live universes never trip it
/// (see [`StallDeadline`]).
pub fn stall_guard(state: Option<&Arc<ProcState>>) -> StallDeadline {
    let timeout = state.map_or(WAIT_TIMEOUT, |s| s.router.recv_timeout);
    StallDeadline::new(state.map(|s| &s.router), timeout)
}

/// Anything that can be driven to completion by repeated polling.
/// `poll` returning `Ok(true)` means *locally complete* (outgoing messages
/// may still be buffered — same semantics as the paper's `rbc::Test`).
pub trait Progress: Send {
    /// Drive the operation one step; `Ok(true)` once locally complete.
    fn poll(&mut self) -> Result<bool>;

    /// The per-rank simulator state behind this operation, when one is
    /// reachable. Lets [`Request::wait`]/[`waitall`] use the configured
    /// deadlock timeout and attribute a stall to the ranks it is waiting
    /// on (a [`crate::faults::RoundBlame`]). The default `None` keeps
    /// foreign `Progress` implementations working with the wall-clock
    /// fallback.
    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        None
    }
}

impl<T: Datum, C: Transport> Progress for RecvReq<T, C> {
    fn poll(&mut self) -> Result<bool> {
        self.test()
    }

    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        Some(self.transport().state())
    }
}

/// A type-erased request handle (the paper's `rbc::Request` smart pointer).
pub struct Request(Box<dyn Progress>);

impl Request {
    /// Erase a concrete state machine into a request handle.
    pub fn new(p: impl Progress + 'static) -> Request {
        Request(Box::new(p))
    }

    /// `rbc::Test`.
    pub fn test(&mut self) -> Result<bool> {
        self.0.poll()
    }

    /// `rbc::Wait`: "takes a request and repeatedly calls rbc::Test until
    /// the operation is completed" (§V-B).
    pub fn wait(&mut self) -> Result<()> {
        wait_on(&mut *self.0)
    }

    /// [`Request::wait`] as a maybe-async core: an unproductive poll
    /// suspends through [`ProcState::yield_or_park_async`] — it parks
    /// until the next arrival under `Backend::Poll` instead of re-polling
    /// every epoch.
    pub async fn wait_async(&mut self) -> Result<()> {
        wait_on_async(&mut *self.0).await
    }
}

/// Build the timeout error for a stalled wait. With a [`ProcState`] in
/// hand the error names the stalled rank, its virtual clock, and the
/// ranks it is waiting on; without one it falls back to anonymous.
fn wait_timeout_err(state: Option<&Arc<ProcState>>, waited_for: &str) -> MpiError {
    match state {
        Some(s) => MpiError::Timeout {
            rank: s.global_rank,
            waited_for: waited_for.into(),
            virtual_now: s.now(),
            blame: s.stall_blame(),
        },
        None => MpiError::Timeout {
            rank: usize::MAX,
            waited_for: waited_for.into(),
            virtual_now: crate::time::Time::ZERO,
            blame: crate::faults::RoundBlame::default(),
        },
    }
}

fn wait_on(p: &mut dyn Progress) -> Result<()> {
    let mut stall = stall_guard(p.proc_state());
    loop {
        if p.poll()? {
            return Ok(());
        }
        if stall.stalled() {
            return Err(wait_timeout_err(
                p.proc_state(),
                "nonblocking operation (wait)",
            ));
        }
        crate::sched::yield_now();
    }
}

async fn wait_on_async(p: &mut dyn Progress) -> Result<()> {
    let state = p.proc_state().cloned();
    let mut stall = stall_guard(state.as_ref());
    loop {
        let since = progress_of(state.as_ref());
        if p.poll()? {
            return Ok(());
        }
        if stall.stalled() {
            return Err(wait_timeout_err(
                state.as_ref(),
                "nonblocking operation (wait)",
            ));
        }
        idle_async(state.as_ref(), since).await;
    }
}

/// [`ProcState::progress`] before a poll pass (0 for detached machines).
fn progress_of(state: Option<&Arc<ProcState>>) -> u64 {
    state.map_or(0, |s| s.progress())
}

/// End an unproductive pass of an async wait loop: park until the next
/// arrival when the pass claimed and sent nothing (see
/// [`ProcState::yield_or_park_async`]). Detached machines, with no rank
/// state to read progress from, yield one epoch.
async fn idle_async(state: Option<&Arc<ProcState>>, since: u64) {
    match state {
        Some(s) => s.yield_or_park_async(since).await,
        None => crate::sched::poll::yield_now_async().await,
    }
}

/// `rbc::Testall`: polls every request, true iff all are complete.
pub fn testall(reqs: &mut [Request]) -> Result<bool> {
    let mut all = true;
    for r in reqs.iter_mut() {
        all &= r.test()?;
    }
    Ok(all)
}

/// `rbc::Waitall`: repeatedly calls `testall` until all complete.
pub fn waitall(reqs: &mut [Request]) -> Result<()> {
    let mut stall = stall_guard(reqs.iter().find_map(|r| r.0.proc_state()));
    loop {
        if testall(reqs)? {
            return Ok(());
        }
        if stall.stalled() {
            return Err(wait_timeout_err(
                reqs.iter().find_map(|r| r.0.proc_state()),
                "nonblocking operations (waitall)",
            ));
        }
        crate::sched::yield_now();
    }
}

/// [`waitall`] as a maybe-async core (see [`Request::wait_async`]).
pub async fn waitall_async(reqs: &mut [Request]) -> Result<()> {
    let state = reqs.iter().find_map(|r| r.0.proc_state()).cloned();
    let mut stall = stall_guard(state.as_ref());
    loop {
        let since = progress_of(state.as_ref());
        if testall(reqs)? {
            return Ok(());
        }
        if stall.stalled() {
            return Err(wait_timeout_err(
                state.as_ref(),
                "nonblocking operations (waitall)",
            ));
        }
        idle_async(state.as_ref(), since).await;
    }
}

// ---------------------------------------------------------------------------
// Binomial-tree shape helpers (shared by the machines below).
// ---------------------------------------------------------------------------

/// Parent and children of `rel` (rank relative to the root) in the binomial
/// tree over `p` nodes used by bcast/reduce/gather. Children are listed in
/// descending subtree size, matching the blocking implementations.
fn binom_tree(rel: usize, p: usize) -> (Option<usize>, Vec<usize>) {
    debug_assert!(rel < p);
    let top = p.next_power_of_two();
    let lsb = if rel == 0 {
        top
    } else {
        rel & rel.wrapping_neg()
    };
    let parent = (rel != 0).then(|| rel - lsb);
    let mut children = Vec::new();
    let mut m = lsb >> 1;
    while m > 0 {
        if rel + m < p {
            children.push(rel + m);
        }
        m >>= 1;
    }
    (parent, children)
}

fn from_rel(rel: usize, root: usize, p: usize) -> usize {
    (rel + root) % p
}

fn to_rel(rank: usize, root: usize, p: usize) -> usize {
    (rank + p - root) % p
}

// ---------------------------------------------------------------------------
// Ibcast
// ---------------------------------------------------------------------------

/// Nonblocking binomial broadcast. The payload is held and forwarded as a
/// shared `Arc` buffer (zero-copy fan-out, like [`crate::coll::bcast`]);
/// it is materialised into a `Vec` only when the caller takes ownership.
pub struct Ibcast<T: Datum, C: Transport> {
    tr: C,
    root: usize,
    tag: Tag,
    data: Option<Arc<Vec<T>>>,
    started: bool,
    done: bool,
}

/// Start a nonblocking broadcast. On the root, `data` must be `Some`; on
/// other ranks pass `None` (the result is available through
/// [`Ibcast::data`] after completion).
pub fn ibcast<T: Datum, C: Transport>(
    tr: &C,
    data: Option<Vec<T>>,
    root: usize,
    tag: Tag,
) -> Result<Ibcast<T, C>> {
    tr.check_rank(root)?;
    if tr.rank() == root && data.is_none() {
        return Err(MpiError::Usage("ibcast root must supply data".into()));
    }
    let mut sm = Ibcast {
        tr: tr.clone(),
        root,
        tag,
        data: data.map(Arc::new),
        started: false,
        done: false,
    };
    sm.poll()?; // execute the first state immediately (paper §V-D)
    Ok(sm)
}

impl<T: Datum, C: Transport> Ibcast<T, C> {
    fn forward(&mut self) -> Result<()> {
        let p = self.tr.size();
        let rel = to_rel(self.tr.rank(), self.root, p);
        let (_, children) = binom_tree(rel, p);
        let data = self.data.as_ref().expect("data present when forwarding");
        for c in children {
            self.tr
                .send_shared(data, from_rel(c, self.root, p), self.tag)?;
        }
        self.done = true;
        Ok(())
    }

    /// Broadcast payload; `None` until complete on non-root ranks.
    pub fn data(&self) -> Option<&[T]> {
        if !self.done {
            return None;
        }
        self.data.as_ref().map(|a| a.as_slice())
    }

    /// Consume the request, returning the payload if complete (at most one
    /// copy — none when this rank holds the last reference).
    pub fn into_data(self) -> Option<Vec<T>> {
        self.done
            .then_some(self.data)
            .flatten()
            .map(Arc::unwrap_or_clone)
    }

    /// Whether the broadcast is locally complete.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Block until complete and return the payload.
    pub fn wait_data(mut self) -> Result<Vec<T>> {
        wait_on(&mut self)?;
        Ok(self.into_data().expect("completed"))
    }
}

impl<T: Datum, C: Transport> Progress for Ibcast<T, C> {
    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        Some(self.tr.state())
    }

    fn poll(&mut self) -> Result<bool> {
        if self.done {
            return Ok(true);
        }
        // Attribution only — the machines are polled many times per
        // logical operation, so per-poll trace spans would drown the
        // trace; sends priced inside a poll still count under the class.
        // (The Arc clone frees `self` for the `&mut self` helpers below.)
        let state = Arc::clone(self.tr.state());
        let _class = obs::class_guard(&state, OpClass::Bcast);
        let p = self.tr.size();
        let rel = to_rel(self.tr.rank(), self.root, p);
        if !self.started {
            self.started = true;
            if rel == 0 {
                self.forward()?;
                return Ok(true);
            }
        }
        // Interior/leaf rank: wait for the parent's message.
        let (parent, _) = binom_tree(rel, p);
        let parent = from_rel(parent.expect("non-root has parent"), self.root, p);
        match self.tr.try_recv_shared::<T>(Src::Rank(parent), self.tag)? {
            None => Ok(false),
            Some((v, _)) => {
                self.data = Some(v);
                self.forward()?;
                Ok(true)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Ireduce / Iallreduce
// ---------------------------------------------------------------------------

/// Nonblocking binomial reduction to `root`. `op` must be associative and
/// commutative (child contributions are folded in arrival order).
pub struct Ireduce<T: Datum, C: Transport, F> {
    tr: C,
    root: usize,
    tag: Tag,
    op: F,
    acc: Vec<T>,
    pending_children: Vec<usize>, // comm ranks still to hear from
    done: bool,
    is_root: bool,
}

/// Start a nonblocking reduce of `data` to `root` (`MPI_Ireduce`).
pub fn ireduce<T, C, F>(
    tr: &C,
    data: &[T],
    root: usize,
    tag: Tag,
    op: F,
) -> Result<Ireduce<T, C, F>>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send,
{
    tr.check_rank(root)?;
    let p = tr.size();
    let rel = to_rel(tr.rank(), root, p);
    let (_, children) = binom_tree(rel, p);
    let mut sm = Ireduce {
        tr: tr.clone(),
        root,
        tag,
        op,
        acc: data.to_vec(),
        pending_children: children.into_iter().map(|c| from_rel(c, root, p)).collect(),
        done: false,
        is_root: tr.rank() == root,
    };
    sm.poll()?;
    Ok(sm)
}

impl<T, C, F> Ireduce<T, C, F>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send,
{
    /// Reduction result; `Some` only on the root after completion.
    pub fn result(&self) -> Option<&[T]> {
        (self.done && self.is_root).then_some(self.acc.as_slice())
    }

    /// Block until complete; the reduction lands `Some` only on the root.
    pub fn wait_result(mut self) -> Result<Option<Vec<T>>> {
        wait_on(&mut self)?;
        Ok(self.is_root.then_some(self.acc))
    }
}

impl<T, C, F> Progress for Ireduce<T, C, F>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send,
{
    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        Some(self.tr.state())
    }

    fn poll(&mut self) -> Result<bool> {
        if self.done {
            return Ok(true);
        }
        let _class = obs::class_guard(self.tr.state(), OpClass::Reduce);
        let mut i = 0;
        while i < self.pending_children.len() {
            let child = self.pending_children[i];
            match self.tr.try_recv::<T>(Src::Rank(child), self.tag)? {
                None => i += 1,
                Some((v, _)) => {
                    for (a, b) in self.acc.iter_mut().zip(v.iter()) {
                        *a = (self.op)(a, b);
                    }
                    self.tr.charge_compute(self.acc.len());
                    self.pending_children.swap_remove(i);
                }
            }
        }
        if self.pending_children.is_empty() {
            if !self.is_root {
                let p = self.tr.size();
                let rel = to_rel(self.tr.rank(), self.root, p);
                let (parent, _) = binom_tree(rel, p);
                let parent = from_rel(parent.expect("non-root"), self.root, p);
                self.tr.send(&self.acc, parent, self.tag)?;
            }
            self.done = true;
            return Ok(true);
        }
        Ok(false)
    }
}

/// Nonblocking all-reduce: reduce to rank 0, then broadcast, both phases
/// under the same machine. Uses tags `tag` and `tag + 1`.
pub struct Iallreduce<T: Datum, C: Transport, F> {
    phase: IallreducePhase<T, C, F>,
}

enum IallreducePhase<T: Datum, C: Transport, F> {
    Reduce { sm: Ireduce<T, C, F>, tag: Tag },
    Bcast(Ibcast<T, C>),
    Done(Vec<T>),
    Poisoned,
}

/// Start a nonblocking allreduce (`MPI_Iallreduce`): reduce to rank 0 on
/// `tag`, then broadcast on `tag + 1`.
pub fn iallreduce<T, C, F>(tr: &C, data: &[T], tag: Tag, op: F) -> Result<Iallreduce<T, C, F>>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send,
{
    let sm = ireduce(tr, data, 0, tag, op)?;
    let mut out = Iallreduce {
        phase: IallreducePhase::Reduce { sm, tag },
    };
    out.poll()?;
    Ok(out)
}

impl<T, C, F> Iallreduce<T, C, F>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send,
{
    /// The allreduce result; `None` until complete.
    pub fn result(&self) -> Option<&[T]> {
        match &self.phase {
            IallreducePhase::Done(v) => Some(v),
            _ => None,
        }
    }

    /// Block until complete and return the result.
    pub fn wait_result(mut self) -> Result<Vec<T>> {
        wait_on(&mut self)?;
        self.into_result()
    }

    /// [`Iallreduce::wait_result`] as a maybe-async core (see
    /// [`Request::wait_async`]).
    pub async fn wait_result_async(mut self) -> Result<Vec<T>> {
        wait_on_async(&mut self).await?;
        self.into_result()
    }

    fn into_result(self) -> Result<Vec<T>> {
        match self.phase {
            IallreducePhase::Done(v) => Ok(v),
            _ => unreachable!("wait returned complete"),
        }
    }
}

impl<T, C, F> Progress for Iallreduce<T, C, F>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send,
{
    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        match &self.phase {
            IallreducePhase::Reduce { sm, .. } => Some(sm.tr.state()),
            IallreducePhase::Bcast(bc) => Some(bc.tr.state()),
            _ => None,
        }
    }

    fn poll(&mut self) -> Result<bool> {
        loop {
            match std::mem::replace(&mut self.phase, IallreducePhase::Poisoned) {
                IallreducePhase::Reduce { mut sm, tag } => {
                    if !sm.poll()? {
                        self.phase = IallreducePhase::Reduce { sm, tag };
                        return Ok(false);
                    }
                    let tr = sm.tr.clone();
                    let root_data = sm.is_root.then(|| sm.acc.clone());
                    let bc = ibcast(&tr, root_data, 0, tag + 1)?;
                    self.phase = IallreducePhase::Bcast(bc);
                }
                IallreducePhase::Bcast(mut bc) => {
                    if !bc.poll()? {
                        self.phase = IallreducePhase::Bcast(bc);
                        return Ok(false);
                    }
                    let v = bc.into_data().expect("bcast complete");
                    self.phase = IallreducePhase::Done(v);
                    return Ok(true);
                }
                IallreducePhase::Done(v) => {
                    self.phase = IallreducePhase::Done(v);
                    return Ok(true);
                }
                IallreducePhase::Poisoned => unreachable!("poll reentered poisoned state"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Iscan / Iexscan
// ---------------------------------------------------------------------------

/// Nonblocking inclusive prefix (Hillis–Steele rounds). When `EXCLUSIVE` is
/// true also tracks the exclusive prefix.
pub struct Iscan<T: Datum, C: Transport, F> {
    tr: C,
    tag: Tag,
    op: F,
    incl: Vec<T>,
    excl: Option<Vec<T>>,
    d: usize,
    sent: bool,
    done: bool,
}

/// Start a nonblocking inclusive+exclusive prefix fold (`MPI_Iscan`).
pub fn iscan<T, C, F>(tr: &C, data: &[T], tag: Tag, op: F) -> Result<Iscan<T, C, F>>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send,
{
    let mut sm = Iscan {
        tr: tr.clone(),
        tag,
        op,
        incl: data.to_vec(),
        excl: None,
        d: 1,
        sent: false,
        done: false,
    };
    sm.poll()?;
    Ok(sm)
}

impl<T, C, F> Iscan<T, C, F>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send,
{
    /// Inclusive prefix over ranks `0..=rank`; `None` until complete.
    pub fn inclusive(&self) -> Option<&[T]> {
        self.done.then_some(self.incl.as_slice())
    }

    /// Exclusive prefix over ranks `0..rank`; `None` until complete or on
    /// rank 0 (which has no predecessors).
    pub fn exclusive(&self) -> Option<&[T]> {
        self.done.then_some(self.excl.as_deref()).flatten()
    }

    /// Block until complete, returning `(inclusive, exclusive)` prefixes.
    pub fn wait_scan(mut self) -> Result<(Vec<T>, Option<Vec<T>>)> {
        wait_on(&mut self)?;
        Ok((self.incl, self.excl))
    }
}

impl<T, C, F> Progress for Iscan<T, C, F>
where
    T: Datum,
    C: Transport,
    F: Fn(&T, &T) -> T + Send,
{
    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        Some(self.tr.state())
    }

    fn poll(&mut self) -> Result<bool> {
        if self.done {
            return Ok(true);
        }
        let _class = obs::class_guard(self.tr.state(), OpClass::Scan);
        let p = self.tr.size();
        let r = self.tr.rank();
        while self.d < p {
            if !self.sent {
                if r + self.d < p {
                    self.tr.send(&self.incl, r + self.d, self.tag)?;
                }
                self.sent = true;
            }
            if r >= self.d {
                match self.tr.try_recv::<T>(Src::Rank(r - self.d), self.tag)? {
                    None => return Ok(false),
                    Some((v, _)) => {
                        // v covers ranks left of everything we hold.
                        match &mut self.excl {
                            None => self.excl = Some(v.clone()),
                            Some(e) => {
                                for (a, b) in e.iter_mut().zip(v.iter()) {
                                    *a = (self.op)(b, a);
                                }
                            }
                        }
                        for (a, b) in self.incl.iter_mut().zip(v.iter()) {
                            *a = (self.op)(b, a);
                        }
                        self.tr.charge_compute(self.incl.len());
                    }
                }
            }
            self.d <<= 1;
            self.sent = false;
        }
        self.done = true;
        Ok(true)
    }
}

// ---------------------------------------------------------------------------
// Igatherv / Igather
// ---------------------------------------------------------------------------

/// Nonblocking binomial gather with variable contribution sizes. Uses tags
/// `tag` (metadata) and `tag + 1` (payload).
/// (child comm rank, metadata if already received)
type PendingChild = (usize, Option<Vec<(u64, u64)>>);

/// Nonblocking gatherv state machine; see [`igatherv`].
pub struct Igatherv<T: Datum, C: Transport> {
    tr: C,
    root: usize,
    tag: Tag,
    meta: Vec<(u64, u64)>,
    payload: Vec<T>,
    pending: Vec<PendingChild>,
    done: bool,
    is_root: bool,
}

/// Start a nonblocking variable-count gather to `root` (`MPI_Igatherv`),
/// using `tag` for metadata and `tag + 1` for payload.
pub fn igatherv<T: Datum, C: Transport>(
    tr: &C,
    data: Vec<T>,
    root: usize,
    tag: Tag,
) -> Result<Igatherv<T, C>> {
    tr.check_rank(root)?;
    let p = tr.size();
    let r = tr.rank();
    let rel = to_rel(r, root, p);
    let (_, children) = binom_tree(rel, p);
    let mut sm = Igatherv {
        tr: tr.clone(),
        root,
        tag,
        meta: vec![(r as u64, data.len() as u64)],
        payload: data,
        pending: children
            .into_iter()
            .map(|c| (from_rel(c, root, p), None))
            .collect(),
        done: false,
        is_root: r == root,
    };
    sm.poll()?;
    Ok(sm)
}

impl<T: Datum, C: Transport> Igatherv<T, C> {
    /// Per-source-rank contributions; `Some` only on the root when done.
    pub fn result(&self) -> Option<Vec<Vec<T>>> {
        if !(self.done && self.is_root) {
            return None;
        }
        let p = self.tr.size();
        let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        let mut off = 0usize;
        for &(origin, cnt) in &self.meta {
            let cnt = cnt as usize;
            out[origin as usize] = self.payload[off..off + cnt].to_vec();
            off += cnt;
        }
        Some(out)
    }

    /// Block until complete; per-rank blocks land `Some` only on the root.
    pub fn wait_result(mut self) -> Result<Option<Vec<Vec<T>>>> {
        wait_on(&mut self)?;
        Ok(self.result())
    }
}

impl<T: Datum, C: Transport> Progress for Igatherv<T, C> {
    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        Some(self.tr.state())
    }

    fn poll(&mut self) -> Result<bool> {
        if self.done {
            return Ok(true);
        }
        let _class = obs::class_guard(self.tr.state(), OpClass::Gather);
        let mut i = 0;
        while i < self.pending.len() {
            let (child, got_meta) = &mut self.pending[i];
            let child = *child;
            if got_meta.is_none() {
                match self.tr.try_recv::<(u64, u64)>(Src::Rank(child), self.tag)? {
                    None => {
                        i += 1;
                        continue;
                    }
                    Some((m, _)) => *got_meta = Some(m),
                }
            }
            // Metadata in hand; the payload follows on tag+1 from the same
            // child (FIFO per sender guarantees order).
            match self.tr.try_recv::<T>(Src::Rank(child), self.tag + 1)? {
                None => i += 1,
                Some((d, _)) => {
                    let m = self.pending[i].1.take().expect("meta stored");
                    self.meta.extend_from_slice(&m);
                    self.payload.extend_from_slice(&d);
                    self.pending.swap_remove(i);
                }
            }
        }
        if self.pending.is_empty() {
            if !self.is_root {
                let p = self.tr.size();
                let rel = to_rel(self.tr.rank(), self.root, p);
                let (parent, _) = binom_tree(rel, p);
                let parent = from_rel(parent.expect("non-root"), self.root, p);
                self.tr.send(&self.meta, parent, self.tag)?;
                self.tr.send(&self.payload, parent, self.tag + 1)?;
            }
            self.done = true;
            return Ok(true);
        }
        Ok(false)
    }
}

/// Nonblocking equal-count gather: flattens the gatherv result in rank
/// order.
pub struct Igather<T: Datum, C: Transport> {
    inner: Igatherv<T, C>,
}

/// Start a nonblocking equal-count gather to `root` (`MPI_Igather`).
pub fn igather<T: Datum, C: Transport>(
    tr: &C,
    data: Vec<T>,
    root: usize,
    tag: Tag,
) -> Result<Igather<T, C>> {
    Ok(Igather {
        inner: igatherv(tr, data, root, tag)?,
    })
}

impl<T: Datum, C: Transport> Igather<T, C> {
    /// Concatenated contributions in rank order; `Some` only on the root
    /// when done.
    pub fn result(&self) -> Option<Vec<T>> {
        self.inner
            .result()
            .map(|per_rank| per_rank.into_iter().flatten().collect())
    }

    /// Block until complete and return the concatenated data at the root.
    pub fn wait_result(mut self) -> Result<Option<Vec<T>>> {
        wait_on(&mut self)?;
        Ok(self.result())
    }
}

impl<T: Datum, C: Transport> Progress for Igather<T, C> {
    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        self.inner.proc_state()
    }

    fn poll(&mut self) -> Result<bool> {
        self.inner.poll()
    }
}

// ---------------------------------------------------------------------------
// Ibarrier
// ---------------------------------------------------------------------------

/// Nonblocking dissemination barrier.
pub struct Ibarrier<C: Transport> {
    tr: C,
    tag: Tag,
    d: usize,
    sent: bool,
    done: bool,
}

/// Start a nonblocking dissemination barrier (`MPI_Ibarrier`).
pub fn ibarrier<C: Transport>(tr: &C, tag: Tag) -> Result<Ibarrier<C>> {
    let mut sm = Ibarrier {
        tr: tr.clone(),
        tag,
        d: 1,
        sent: false,
        done: false,
    };
    sm.poll()?;
    Ok(sm)
}

impl<C: Transport> Ibarrier<C> {
    /// Whether every round of the dissemination pattern has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }
}

impl<C: Transport> Progress for Ibarrier<C> {
    fn proc_state(&self) -> Option<&Arc<ProcState>> {
        Some(self.tr.state())
    }

    fn poll(&mut self) -> Result<bool> {
        if self.done {
            return Ok(true);
        }
        let _class = obs::class_guard(self.tr.state(), OpClass::Barrier);
        let p = self.tr.size();
        let r = self.tr.rank();
        while self.d < p {
            if !self.sent {
                self.tr
                    .send_vec::<u8>(Vec::new(), (r + self.d) % p, self.tag)?;
                self.sent = true;
            }
            if self
                .tr
                .try_recv::<u8>(Src::Rank((r + p - self.d) % p), self.tag)?
                .is_none()
            {
                return Ok(false);
            }
            self.d <<= 1;
            self.sent = false;
        }
        self.done = true;
        Ok(true)
    }
}
