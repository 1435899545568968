//! Fleet-mode throughput + oracle artefacts (`results/BENCH_fleet.json`).

fn main() {
    rbc_bench::figs::fleet::run();
}
