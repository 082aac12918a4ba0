//! DataPrism benchmark: one run of one workload.
//!
//! ```text
//! dp-perfbench --workload case_cold|serve_mixed --seed N
//!              --seconds S --trace 0|1 [--serve-bin PATH] [--commit ID]
//! ```
//!
//! Prints a run record line, then, as the last line of standard output,
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. An untraced
//! run reports the end-to-end metrics; a traced run reports the
//! per-layer metrics (layers a workload does not exercise read 0).
//! `perfbench/run.py` builds this binary and the `dp_serve` daemon and
//! is the intended entry point; see `perfbench/README.md`.

mod diagnose;
mod inproc;
mod layers;
mod serve;
mod stats;

use stats::Metrics;
use std::path::PathBuf;
use std::process::ExitCode;

/// Every per-layer metric a traced run reports, with its unit, as
/// `BENCHMARK.json` declares them (a unit test holds the two equal).
const PER_LAYER: [(&str, &str); 38] = [
    ("discovery.busy_ms", "ms"),
    ("discovery.share", "ratio"),
    ("discovery.pairs", "count"),
    ("discovery.screened_ratio", "ratio"),
    ("lint.busy_ms", "ms"),
    ("lint.pruned", "count"),
    ("lint.subsumed", "count"),
    ("rank.busy_ms", "ms"),
    ("partition.busy_ms", "ms"),
    ("partition.edges", "count"),
    ("apply.busy_ms", "ms"),
    ("apply.calls", "count"),
    ("fingerprint.busy_ms", "ms"),
    ("system.evals", "count"),
    ("system.busy_ms", "ms"),
    ("system.eval_p50_ms", "ms"),
    ("system.busy_share", "ratio"),
    ("system.concurrency", "ratio"),
    ("runtime.charged_queries", "count"),
    ("runtime.cache_hits", "count"),
    ("runtime.speculative_evaluated", "count"),
    ("runtime.speculative_shed", "count"),
    ("runtime.speculation_useful_ratio", "ratio"),
    ("runtime.peak_inflight", "count"),
    ("search.self_ms", "ms"),
    ("report.busy_ms", "ms"),
    ("serve.ping_ms", "ms"),
    ("serve.warm_hit_ratio", "ratio"),
    ("serve.cache_misses", "count"),
    ("serve.busy_rejections", "count"),
    ("serve.diagnoses_err", "count"),
    ("monitor.ingest_ms", "ms"),
    ("monitor.server_ingest_ms", "ms"),
    ("monitor.drift_ms", "ms"),
    ("monitor.escalation_ms", "ms"),
    ("monitor.triggers", "count"),
    ("monitor.ingest_rows_per_s", "rows/s"),
    ("trace.ops_per_s", "1/s"),
];

/// One benchmark invocation.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: Option<PathBuf>,
    pub commit: String,
}

impl Run {
    /// Print one line of the run record (never the last line).
    pub fn record(&self, fields: &str) {
        println!(
            "{{\"run\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"commit\":\"{}\",{fields}}}}}",
            self.workload,
            self.seed,
            self.seconds,
            self.trace,
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            self.commit,
        );
    }
}

fn parse_args() -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
        commit: "unknown".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("bad value for {flag}: {what}");
        match flag.as_str() {
            "--workload" => run.workload = value,
            "--seed" => run.seed = value.parse().map_err(|_| bad(&value))?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| bad(&value))?;
                if !(run.seconds > 0.0 && run.seconds.is_finite()) {
                    return Err(bad(&value));
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&value)),
                }
            }
            "--serve-bin" => run.serve_bin = Some(PathBuf::from(value)),
            "--commit" => run.commit = value,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(run)
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("dp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut metrics = Metrics::default();
    if run.trace {
        for (name, unit) in PER_LAYER {
            metrics.put(name, 0.0, unit);
        }
    }
    let outcome = match run.workload.as_str() {
        "case_cold" => Ok(inproc::run(&run, &mut metrics)),
        "serve_mixed" => serve::run(&run, &mut metrics),
        other => Err(format!("unknown workload '{other}'")),
    };
    match outcome {
        Ok((attempted, failed)) => {
            println!("{}", metrics.result_line(attempted, failed));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dp-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use dp_trace::JsonValue;

    /// `PER_LAYER` is a second copy of `BENCHMARK.json`'s per-layer
    /// list; a rename on either side fails here.
    #[test]
    fn per_layer_matches_benchmark_json() {
        let spec = JsonValue::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let Some(JsonValue::Arr(declared)) = spec.get("per_layer") else {
            panic!("BENCHMARK.json has no per_layer list");
        };
        let declared: Vec<(&str, &str)> = declared
            .iter()
            .map(|m| {
                let field = |key| m.get(key).and_then(JsonValue::as_str).unwrap();
                (field("name"), field("unit"))
            })
            .collect();
        assert_eq!(declared, super::PER_LAYER);
    }
}
