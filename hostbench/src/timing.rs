//! Host and virtual timers the benchmark wraps around calls into the
//! simulator's layers, plus the small statistics the report derives
//! from them. Everything here is measured from outside the simulator: a
//! timer is a pair of timestamps taken in a rank body around one call.

use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

use mpisim::proc::ProcState;

/// The host clock shared by every rank of one universe: nanoseconds since
/// the benchmark's origin, taken just before the universe is launched.
pub struct Clock(Instant);

impl Clock {
    /// Start the clock now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the clock started.
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One phase of a workload across all ranks. The host time of a phase is
/// the latest exit minus the earliest entry over all ranks; its virtual
/// time is the makespan of the call, the maximum over ranks of each
/// rank's virtual duration.
pub struct Span {
    first_in: AtomicU64,
    last_out: AtomicU64,
    virt_max: AtomicU64,
}

impl Default for Span {
    fn default() -> Span {
        Span {
            first_in: AtomicU64::new(u64::MAX),
            last_out: AtomicU64::new(0),
            virt_max: AtomicU64::new(0),
        }
    }
}

impl Span {
    /// Record one rank's pass through the phase.
    pub fn record(&self, host_in: u64, host_out: u64, virt_ns: u64) {
        self.first_in.fetch_min(host_in, Relaxed);
        self.last_out.fetch_max(host_out, Relaxed);
        self.virt_max.fetch_max(virt_ns, Relaxed);
    }

    /// Whether any rank entered the phase.
    pub fn ran(&self) -> bool {
        self.first_in.load(Relaxed) != u64::MAX
    }

    /// Latest exit minus earliest entry, in host nanoseconds (0 if the
    /// phase never ran).
    pub fn host_ns(&self) -> u64 {
        if !self.ran() {
            return 0;
        }
        self.last_out
            .load(Relaxed)
            .saturating_sub(self.first_in.load(Relaxed))
    }

    /// The phase's virtual makespan in nanoseconds.
    pub fn virt_ns(&self) -> u64 {
        self.virt_max.load(Relaxed)
    }
}

/// Total host seconds of a set of phases (e.g. every round of one call).
pub fn host_s(spans: &[Span]) -> f64 {
    spans.iter().map(|s| s.host_ns() as f64).sum::<f64>() / 1e9
}

/// Mean virtual makespan per call, in microseconds, over the phases that
/// ran (0 if none did).
pub fn mean_virt_us(spans: &[Span]) -> f64 {
    let ran: Vec<&Span> = spans.iter().filter(|s| s.ran()).collect();
    let total: f64 = ran.iter().map(|s| s.virt_ns() as f64).sum();
    ratio(total, ran.len() as f64) / 1e3
}

/// Await `fut` on one rank and record it into `span`.
pub async fn timed<F: Future>(span: &Span, clock: &Clock, st: &ProcState, fut: F) -> F::Output {
    let (h0, v0) = (clock.ns(), st.now());
    let out = fut.await;
    span.record(h0, clock.ns(), (st.now() - v0).as_nanos());
    out
}

/// Self-time samples of a call that never suspends: a pair of host
/// timestamps around it measures exactly the call.
#[derive(Default)]
pub struct Samples {
    host_ns: Mutex<Vec<u64>>,
    virt_max: AtomicU64,
}

impl Samples {
    /// Add one rank's samples and the largest virtual cost among them.
    pub fn extend(&self, host_ns: &[u64], virt_max_ns: u64) {
        self.host_ns.lock().unwrap().extend_from_slice(host_ns);
        self.virt_max.fetch_max(virt_max_ns, Relaxed);
    }

    /// All host samples, sorted.
    pub fn sorted(&self) -> Vec<u64> {
        let mut v = self.host_ns.lock().unwrap().clone();
        v.sort_unstable();
        v
    }

    /// The largest virtual cost of one call, in nanoseconds.
    pub fn virt_max_ns(&self) -> u64 {
        self.virt_max.load(Relaxed)
    }
}

/// Nearest-rank percentile `q` (0 < q <= 1) of sorted samples; 0 when
/// there are none.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when the base is 0: a ratio over no attempts reports
/// nothing happened rather than a NaN the JSON report cannot carry.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_base_ratio_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
    }

    #[test]
    fn span_is_latest_exit_minus_earliest_entry() {
        let s = Span::default();
        assert!(!s.ran());
        assert_eq!(s.host_ns(), 0);
        s.record(10, 40, 5);
        s.record(20, 90, 3);
        assert_eq!(s.host_ns(), 80);
        assert_eq!(s.virt_ns(), 5);
    }

    #[test]
    fn phase_totals_skip_phases_that_never_ran() {
        let spans = [Span::default(), Span::default(), Span::default()];
        spans[0].record(0, 1_000, 2_000);
        spans[1].record(0, 3_000, 4_000);
        assert_eq!(host_s(&spans), 4e-6);
        assert_eq!(mean_virt_us(&spans), 3.0);
        assert_eq!(mean_virt_us(&[Span::default()]), 0.0);
    }
}
