//! Regenerates the large-p sweep: communicator creation at scale and
//! JQuick end to end. p = 2^10..2^15 plus the sparse tail
//! {2^16, 2^18, 2^20} on the cooperative poll scheduler. `BENCH_QUICK=1`
//! caps the sweep at 2^12; `LARGEP_MAX_EXP=<e>` caps it at 2^e.
fn main() {
    rbc_bench::figs::largep::run();
}
