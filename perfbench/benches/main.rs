//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload climate-cascade --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload (see perfbench/README.md), checks every output, and
//! prints a human-readable summary and, as the last line of standard
//! output, one JSON object with the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics of a separate traced run (`--trace 1`).

mod cascade;
mod check;
mod churn;
mod direct;
mod probe;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics and their units. Every workload reports all of
/// them; see perfbench/README.md for what each means on each workload.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("partition_p50_s", "s"),
    ("solve_p50_ms", "ms"),
    ("solve_tail_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("warm_tail_ms", "ms"),
    ("cold_p50_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("bound_ratio_mean", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run, per traced operation, and their
/// units. A layer a workload never enters reports 0.
const PER_LAYER: [(&str, &str); 38] = [
    ("io.parse_s", "s"),
    ("instance.validate_s", "s"),
    ("recognize.s", "s"),
    ("recognize.calls", "count"),
    ("solver.build_s", "s"),
    ("coarsen.build_s", "s"),
    ("coarsen.levels", "count"),
    ("coarse.solve_s", "s"),
    ("project.s", "s"),
    ("refine.kl_s", "s"),
    ("refine.kl_host_s", "s"),
    ("pipeline.solve_s", "s"),
    ("multibalance.s", "s"),
    ("shrink.s", "s"),
    ("strict.binpack2_s", "s"),
    ("strict.split_calls", "count"),
    ("splitters.calls", "count"),
    ("splitters.subset_vertices", "count"),
    ("splitters.split_s", "s"),
    ("workspace.acquires", "count"),
    ("workspace.fresh_allocs", "count"),
    ("workspace.peak_bytes", "bytes"),
    ("delta.apply_s", "s"),
    ("delta.resolve_s", "s"),
    ("delta.warm_share", "ratio"),
    ("artifacts.lookup_s", "s"),
    ("artifacts.hits", "count"),
    ("artifacts.misses", "count"),
    ("artifacts.hit_rate", "ratio"),
    ("service.warm_s", "s"),
    ("service.cold_s", "s"),
    ("service.overhead_s", "s"),
    ("service.known_tickets", "count"),
    ("check.s", "s"),
    ("trace.ops", "count"),
    ("trace.wall_s", "s"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The workloads, by `--workload` name.
const WORKLOADS: [&str; 3] = ["climate-cascade", "climate-direct", "serve-churn"];

/// How often each workload repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time per run.
    pub seconds: Duration,
    /// Whether to make the traced run instead of the untraced one.
    pub trace: bool,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (partitions, solves or requests).
    pub attempted: u64,
    /// Operations whose output failed a check or that were rejected.
    pub failed: u64,
    /// End-to-end metrics (untraced run).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced run).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a failed check of one operation (reported on stderr).
    pub fn fail(&mut self, what: &str, err: impl std::fmt::Display) {
        self.failed += 1;
        eprintln!("check failed ({what}): {err}");
    }
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

/// One JSON number with every digit the measurement has.
fn json_number(x: f64) -> Result<String, String> {
    if x.is_finite() {
        Ok(format!("{x}"))
    } else {
        Err(format!("non-finite metric value {x}"))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let available = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    // At most one worker per available CPU.
    let threads = available;
    let outcome = rayon::with_num_threads(threads, || match args.workload.as_str() {
        "climate-cascade" => cascade::run(&args),
        "climate-direct" => direct::run(&args),
        _ => churn::run(&args, threads),
    });

    println!(
        "workload {}  seed {}  seconds {}  trace {}  threads {threads}  available_parallelism {available}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  failed_frac {failed_frac} ratio  ({} of {} operations)",
        outcome.failed, outcome.attempted
    );
    let (table, values): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, &outcome.layers)
    } else {
        (&END_TO_END, &outcome.end_to_end)
    };
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let value = values.get(name).copied().unwrap_or(0.0);
        println!("  {name:<26} {value:>16.6} {unit}");
        match json_number(value) {
            Ok(v) => fields.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )),
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                std::process::exit(1);
            }
        }
    }
    if outcome.attempted == 0 {
        eprintln!("perfbench: no operation completed");
        std::process::exit(1);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
}
