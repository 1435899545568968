//! Run one measured universe and print its metrics as one JSON line.
//!
//! ```text
//! hostbench --workload <jquick|comm_create|wildcard_storm> --seed <n>
//!           [--traced]
//!           [--ref-wall-s <s>] [--ref-rss-kb-per-rank <kB>]
//! ```
//!
//! `--traced` turns the event trace and the scheduler profile on and adds
//! the per-layer metrics; the `--ref-*` values are the untraced medians
//! the traced run is compared against. `run.py` drives this binary.

use std::process::ExitCode;

use hostbench::report::{to_json, Reference};
use hostbench::{peak_rss_kb, run, Spec, Workload};

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok((spec, reference)) => {
            let outcome = run(&spec);
            let rss = peak_rss_kb();
            let layers = spec.traced.then_some(&reference);
            println!("{}", to_json(&outcome, rss, layers));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<(Spec, Reference), String> {
    let mut workload = None;
    let mut seed = None;
    let mut traced = false;
    let mut reference = Reference::default();
    while let Some(flag) = args.next() {
        if flag == "--traced" {
            traced = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--ref-wall-s" => reference.wall_s = value.parse::<f64>().map_err(|_| bad())?,
            "--ref-rss-kb-per-rank" => {
                reference.peak_rss_kb_per_rank = value.parse::<f64>().map_err(|_| bad())?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let mut spec = Spec::new(workload, seed.ok_or("--seed is required")?);
    spec.traced = traced;
    Ok((spec, reference))
}
