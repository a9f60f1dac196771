//! `ccindex-e2ebench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Progress and the effective knobs go to standard error.

use ccindex_e2ebench::catalog::{self, exec, serve_options};
use ccindex_e2ebench::workloads::{self, Config};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: ccindex-e2ebench --workload point-remote|dss-join|refresh \
         --seed <n> --seconds <n> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // Before any catalog or thread exists: the program reads CCINDEX_*
    // knobs in several constructors, and the benchmark pins them.
    let scrubbed = catalog::scrub_knobs();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("missing value after {}", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("every flag is required, with a valid value");
    };
    let exec = exec();
    let serve = serve_options();
    eprintln!(
        "e2ebench: workload={workload} seed={seed} seconds={seconds} trace={trace}; \
         removed {scrubbed:?}; exec threads={} lanes={} shards={}; \
         serve batch_max={} batch_wait_us={}",
        exec.threads,
        exec.lanes,
        exec.shards,
        serve.batch_max,
        serve.batch_wait.as_micros()
    );
    let cfg = Config {
        seed,
        seconds,
        trace,
        dir: catalog::run_dir(),
    };
    let outcome = workloads::run(&workload, &cfg);
    let _ = std::fs::remove_dir_all(&cfg.dir);
    if let Some(parent) = cfg.dir.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run uses it
    }
    match outcome {
        Some(o) => {
            println!("{}", o.metrics.result_json(o.tally));
            ExitCode::SUCCESS
        }
        None => usage(&format!("unknown workload {workload}")),
    }
}
