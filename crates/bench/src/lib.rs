//! Shared benchmark harness utilities.
//!
//! Every figure binary builds a [`Table`] (one row per x value, one column
//! per series), prints it as markdown, and writes a CSV under `results/`.
//! Timing follows the paper's protocol: an operation's running time is the
//! **maximum over ranks** of per-rank virtual elapsed time, **averaged over
//! repetitions** (the paper uses 5 reps for microbenchmarks, 7/3 for
//! sorting).

#![warn(missing_docs)]

use std::fs;

pub mod figs;
pub mod gate;
use std::path::Path;

use mpisim::{SimConfig, Time};

/// Number of repetitions, scaled down in quick mode.
pub fn reps(full: usize) -> usize {
    if quick_mode() {
        2
    } else {
        full
    }
}

/// `BENCH_QUICK=1` shrinks sweeps so `cargo bench` stays fast; the figure
/// binaries run full sweeps by default.
pub fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// Powers of two in `[2^lo, 2^hi]`, truncated in quick mode.
pub fn pow2_sweep(lo: u32, hi: u32) -> Vec<u64> {
    let hi = if quick_mode() { hi.min(lo + 4) } else { hi };
    (lo..=hi).map(|e| 1u64 << e).collect()
}

/// A result table: one named series per column.
pub struct Table {
    /// Table heading, printed above the markdown rendering.
    pub title: String,
    /// Name of the x column (e.g. `n/p` or `p`).
    pub xlabel: String,
    /// Column (series) names.
    pub series: Vec<String>,
    /// Unit appended to series headers (usually `ms`).
    pub unit: String,
    /// One `(x, series values)` row per swept point.
    pub rows: Vec<(u64, Vec<f64>)>,
}

impl Table {
    /// A table reporting milliseconds.
    pub fn new(title: &str, xlabel: &str, series: &[&str]) -> Table {
        Table::with_unit(title, xlabel, series, "ms")
    }

    /// A table reporting values in `unit`.
    pub fn with_unit(title: &str, xlabel: &str, series: &[&str], unit: &str) -> Table {
        Table {
            title: title.to_string(),
            xlabel: xlabel.to_string(),
            series: series.iter().map(|s| s.to_string()).collect(),
            unit: unit.to_string(),
            rows: Vec::new(),
        }
    }

    /// Append a row; `values` must match the series count.
    pub fn push(&mut self, x: u64, values: Vec<f64>) {
        assert_eq!(values.len(), self.series.len());
        self.rows.push((x, values));
    }

    /// Render as a markdown table of milliseconds.
    pub fn print(&self) {
        println!("\n## {}\n", self.title);
        print!("| {} |", self.xlabel);
        for s in &self.series {
            if self.unit.is_empty() {
                print!(" {s} |");
            } else {
                print!(" {s} [{}] |", self.unit);
            }
        }
        println!();
        print!("|---|");
        for _ in &self.series {
            print!("---|");
        }
        println!();
        for (x, vals) in &self.rows {
            print!("| {x} |");
            for v in vals {
                print!(" {v:.4} |");
            }
            println!();
        }
    }

    /// Render the table as CSV. Non-finite cells render empty —
    /// downstream plotting must never have to parse a literal `NaN`.
    pub fn to_csv(&self) -> String {
        let mut out = self.xlabel.clone();
        for s in &self.series {
            out.push_str(&format!(",{s}"));
        }
        out.push('\n');
        for (x, vals) in &self.rows {
            out.push_str(&x.to_string());
            for v in vals {
                if v.is_finite() {
                    out.push_str(&format!(",{v:.6}"));
                } else {
                    out.push(',');
                }
            }
            out.push('\n');
        }
        out
    }

    /// Write `results/<name>.csv`.
    pub fn write_csv(&self, name: &str) {
        let dir = Path::new("results");
        let _ = fs::create_dir_all(dir);
        let path = dir.join(format!("{name}.csv"));
        if fs::write(&path, self.to_csv()).is_ok() {
            eprintln!("wrote {}", path.display());
        }
    }

    /// Serialise the table as a JSON object (title, unit, series, rows).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"title\":{:?},\"xlabel\":{:?},\"unit\":{:?},\"series\":[",
            self.title, self.xlabel, self.unit
        );
        for (i, name) in self.series.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{name:?}"));
        }
        s.push_str("],\"rows\":[");
        for (i, (x, vals)) in self.rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{{\"x\":{x},\"values\":["));
            for (j, v) in vals.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                // NaN is not JSON; emit null for skipped cells.
                if v.is_finite() {
                    s.push_str(&format!("{v:.6}"));
                } else {
                    s.push_str("null");
                }
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }
}

/// Write `results/BENCH_<name>.json`: the machine-readable counterpart of a
/// figure run — every table plus the run's wall-clock seconds and relevant
/// environment (worker count), so CI can archive and diff bench results
/// without scraping stdout.
pub fn write_bench_json(name: &str, tables: &[Table], wall_clock_s: f64, workers: usize) {
    let dir = Path::new("results");
    let _ = fs::create_dir_all(dir);
    let mut out = format!(
        "{{\"bench\":{name:?},\"workers\":{workers},\"wall_clock_s\":{wall_clock_s:.3},\"tables\":["
    );
    for (i, t) in tables.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&t.to_json());
    }
    out.push_str("]}\n");
    let path = dir.join(format!("BENCH_{name}.json"));
    if fs::write(&path, out).is_ok() {
        eprintln!("wrote {}", path.display());
    }
}

/// Run `op` on `p` ranks `reps` times and report the mean over reps of the
/// per-rep makespan (max over ranks of virtual elapsed time). The closure
/// receives `(env, rep_index)` and must return its elapsed virtual time.
pub fn measure<F>(p: usize, cfg: SimConfig, reps: usize, op: F) -> Time
where
    F: Fn(&mpisim::ProcEnv, usize) -> Time + Send + Sync,
{
    let res = mpisim::Universe::run(p, cfg, |env| {
        let mut times = Vec::with_capacity(reps);
        for rep in 0..reps {
            times.push(op(&env, rep));
        }
        times
    });
    makespan_mean(&res.per_rank, reps)
}

/// Maybe-async twin of [`measure`]: the per-rep operation is an `async fn`,
/// so one kernel serves both backends — under the thread backend it
/// completes inside `block_inline`, and under `Backend::Poll` it suspends
/// at blocking calls and runs as a stackless poll-mode rank body, which
/// is what lets the large-p sweeps run at all (p up to 2^20).
pub fn measure_async<F, Fut>(p: usize, cfg: SimConfig, reps: usize, op: F) -> Time
where
    F: Fn(mpisim::ProcEnv, usize) -> Fut + Send + Sync,
    Fut: std::future::Future<Output = Time> + Send,
{
    let res = mpisim::Universe::run_poll(p, cfg, |env| {
        let op = &op;
        async move {
            let mut times = Vec::with_capacity(reps);
            for rep in 0..reps {
                times.push(op(env.clone(), rep).await);
            }
            times
        }
    });
    makespan_mean(&res.per_rank, reps)
}

/// Per rep: max over ranks; then mean over reps.
fn makespan_mean(per_rank: &[Vec<Time>], reps: usize) -> Time {
    let mut total = 0u64;
    for rep in 0..reps {
        let max = per_rank
            .iter()
            .map(|ts| ts[rep].as_nanos())
            .max()
            .unwrap_or(0);
        total += max;
    }
    Time(total / reps as u64)
}

/// Write a results artefact: create the parent directory first, then panic
/// with the offending *path* on failure. A bare `fs::write(...).unwrap()`
/// dies with an anonymous `NotFound` that names neither the file nor the
/// missing directory — useless when a figure binary runs from an
/// unexpected working directory.
pub fn write_artifact(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) {
    let path = path.as_ref();
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = fs::create_dir_all(dir) {
            panic!(
                "cannot create directory {} for artifact {}: {e}",
                dir.display(),
                path.display()
            );
        }
    }
    if let Err(e) = fs::write(path, contents) {
        panic!("cannot write artifact {}: {e}", path.display());
    }
}

/// Convert to the milliseconds the tables report.
pub fn ms(t: Time) -> f64 {
    t.as_millis_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shapes() {
        std::env::remove_var("BENCH_QUICK");
        assert_eq!(pow2_sweep(0, 3), vec![1, 2, 4, 8]);
    }

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("t", "x", &["a", "b"]);
        t.push(1, vec![0.5, 1.5]);
        t.push(2, vec![0.25, 2.5]);
        assert_eq!(t.rows.len(), 2);
        t.print(); // smoke
    }

    #[test]
    fn non_finite_cells_serialise_as_empty_and_null() {
        let mut t = Table::new("t", "x", &["a", "b"]);
        t.push(1, vec![0.5, f64::NAN]);
        let json = t.to_json();
        assert!(json.contains("null"), "{json}");
        assert!(!json.contains("NaN"), "{json}");
        // CSV rendering of a non-finite cell is an empty field.
        let csv = t.to_csv();
        assert!(csv.lines().any(|l| l == "1,0.500000,"), "{csv}");
        assert!(!csv.contains("NaN"), "{csv}");
    }

    #[test]
    fn write_artifact_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("rbc_bench_artifact_test");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested/deep/file.csv");
        write_artifact(&path, "x,y\n");
        assert_eq!(fs::read_to_string(&path).unwrap(), "x,y\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn measure_async_matches_measure() {
        // The sync kernel on rank threads, the async one on the poll
        // scheduler: a barrier's virtual time is schedule-independent.
        let sync = measure(4, SimConfig::default().with_seed(9), 2, |env, _| {
            env.world.barrier().unwrap();
            env.now()
        });
        let cfg = SimConfig::cooperative().with_seed(9);
        let fut = measure_async(4, cfg, 2, |env, _| async move {
            env.world.barrier_async().await.unwrap();
            env.now()
        });
        assert_eq!(sync, fut);
    }

    #[test]
    fn measure_reports_makespan_mean() {
        let t = measure(3, SimConfig::default(), 2, |env, rep| {
            let dt = Time::from_millis((env.rank() as u64 + 1) * (rep as u64 + 1));
            env.state().charge(dt);
            dt
        });
        // Rep 0 makespan 3ms, rep 1 makespan 6ms -> mean 4.5ms.
        assert_eq!(t, Time::from_micros(4500));
    }
}
