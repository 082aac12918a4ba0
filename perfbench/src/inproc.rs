//! The in-process workload `case_cold`: the five case studies,
//! diagnosed cold.
//!
//! Every diagnosis is cold: a fresh system or factory instance and an
//! empty cache. A run repeats whole rounds of a fixed cell mix (study ×
//! algorithm × width), in an order drawn from the seed, until the run
//! time has passed, so every run weighs the cells alike.

use crate::diagnose::{certify, diagnose, Algo, Counters, CountingFactory};
use crate::layers::{retime, LayerCosts};
use crate::stats::{mean, median, peak_rss_mib, quantile, ratio, Metrics};
use crate::Run;
use dataprism::discovery::discriminative_pvts_stats;
use dataprism::report::markdown_report;
use dataprism::{Explanation, PrismConfig, Pvt, RunMetrics, SystemFactory};
use dp_frame::DataFrame;
use dp_scenarios::scenario::key_matches;
use dp_scenarios::{cardio, ezgo, income, sensors, sentiment, Scenario};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

/// Thread widths every cell runs at: fixed, so results compare across
/// machines with at least two cores.
pub const WIDTHS: [usize; 2] = [1, 2];

/// Generator seed of the case studies. Their generators are fragile
/// across seeds (at some seeds cardio's failing data passes τ, and
/// income's group testing returns a minimal explanation other than the
/// planted cause), so the case studies stay at the seed of the
/// repository's end-to-end tests and Fig 7 table; the run seed orders
/// the cell mix.
pub const CASE_SEED: u64 = 42;

/// A run keeps going past its time until it holds this many diagnoses,
/// so at least ten samples lie beyond the reported p90.
const MIN_DIAGNOSES: usize = 100;

/// One diagnosis input with its system and expected answer.
pub struct Study {
    pub name: &'static str,
    pub d_pass: DataFrame,
    pub d_fail: DataFrame,
    pub config: PrismConfig,
    pub factory: Box<dyn SystemFactory + Send + Sync>,
    pub algos: Vec<Algo>,
    /// Template-key patterns of the planted cause.
    pub truth: Vec<String>,
}

impl Study {
    /// The explanation holds the planted cause: one of its PVTs matches
    /// one of the truth patterns.
    pub fn has_cause(&self, pvts: &[Pvt]) -> bool {
        self.truth.iter().any(|pattern| {
            pvts.iter()
                .any(|p| key_matches(pattern, &p.profile.template_key()))
        })
    }

    fn config_at(&self, width: usize) -> PrismConfig {
        PrismConfig {
            num_threads: width,
            ..self.config.clone()
        }
    }
}

/// The five case studies and their generator default sizes (rows of
/// each dataset). `serve_mixed` registers the same instances.
pub const CASE_STUDIES: [(&str, usize); 5] = [
    ("sentiment", 1500),
    ("income", 800),
    ("cardio", 900),
    ("ezgo", 1000),
    ("sensors", 800),
];

fn case_study(name: &str, rows: usize) -> Scenario {
    match name {
        "sentiment" => sentiment::scenario_with_size(rows, CASE_SEED),
        "income" => income::scenario_with_size(rows, CASE_SEED),
        "cardio" => cardio::scenario_with_size(rows, CASE_SEED),
        "ezgo" => ezgo::scenario_with_size(rows, CASE_SEED),
        "sensors" => sensors::scenario_with_size(rows, CASE_SEED),
        other => unreachable!("no case study {other}"),
    }
}

/// The five case studies. Cardio runs greedy only: its group-testing
/// cell is the paper's NA (A3 violated).
pub fn case_studies() -> Vec<Study> {
    CASE_STUDIES
        .iter()
        .map(|&(name, rows)| {
            let algos = match name {
                "cardio" => vec![Algo::Greedy],
                _ => vec![Algo::Greedy, Algo::GroupTest],
            };
            let s = case_study(name, rows);
            Study {
                name,
                d_pass: s.d_pass,
                d_fail: s.d_fail,
                config: s.config,
                factory: s.factory,
                algos,
                truth: s.ground_truth,
            }
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Cell {
    study: usize,
    algo: Algo,
    width: usize,
}

/// What the check and the metrics need from one diagnosis. The
/// explanation itself, with its repaired frame, is dropped, so the
/// samples a run keeps do not grow the benchmark's own memory.
struct Outcome {
    digest: u64,
    /// Resolved, and holds the planted cause.
    correct: bool,
    metrics: RunMetrics,
    lint_pruned: usize,
    lint_subsumed: usize,
}

/// One timed diagnosis.
struct Sample {
    cell: Cell,
    wall_ms: f64,
    outcome: Result<Outcome, String>,
    evals: u64,
    /// Traced runs only: discovery, `*_with_pvts` call, report, and
    /// summed system evaluation time, in ms.
    discovery_ms: f64,
    explain_ms: f64,
    report_ms: f64,
    system_ms: f64,
}

/// What a run collects besides its samples: every system evaluation
/// time (traced runs), the first explanation of every distinct digest
/// (for its certificate), and each input's discovered candidates
/// (traced runs, for the layer re-timing).
#[derive(Default)]
struct Seen {
    eval_ns: Vec<u64>,
    explanations: HashMap<u64, (usize, Vec<Pvt>)>,
    candidates: HashMap<(usize, usize), Vec<Pvt>>,
}

fn run_cell(study: &Study, cell: Cell, traced: bool, seen: &mut Seen) -> Sample {
    let counters = Counters::new(traced);
    let factory = CountingFactory {
        inner: study.factory.as_ref(),
        counters: std::sync::Arc::clone(&counters),
    };
    let config = study.config_at(cell.width);
    let (d_pass, d_fail) = (&study.d_pass, &study.d_fail);
    let report = |exp: &Explanation| {
        black_box(markdown_report(
            exp,
            d_pass,
            d_fail,
            config.threshold,
            &config.discovery,
        ));
    };
    let start = Instant::now();
    let (result, discovery_ms, explain_ms, report_ms);
    if traced {
        let (pvts, _) = discriminative_pvts_stats(d_pass, d_fail, &config.discovery, cell.width);
        seen.candidates
            .entry((cell.study, cell.width))
            .or_insert_with(|| pvts.clone());
        let discovered = Instant::now();
        result = diagnose(&factory, d_fail, d_pass, &config, cell.algo, Some(pvts));
        let explained = Instant::now();
        if let Ok(exp) = &result {
            report(exp);
        }
        discovery_ms = (discovered - start).as_secs_f64() * 1e3;
        explain_ms = (explained - discovered).as_secs_f64() * 1e3;
        report_ms = explained.elapsed().as_secs_f64() * 1e3;
    } else {
        result = diagnose(&factory, d_fail, d_pass, &config, cell.algo, None);
        if let Ok(exp) = &result {
            report(exp);
        }
        (discovery_ms, explain_ms, report_ms) = (0.0, 0.0, 0.0);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    seen.eval_ns.extend(counters.take_samples());
    let outcome = result.map_err(|e| e.to_string()).map(|exp| {
        let digest = exp.digest();
        let outcome = Outcome {
            digest,
            correct: exp.resolved && study.has_cause(&exp.pvts),
            metrics: exp.metrics.clone(),
            lint_pruned: exp.lint.pruned.len(),
            lint_subsumed: exp.lint.subsumed.len(),
        };
        seen.explanations
            .entry(digest)
            .or_insert_with(|| (cell.study, exp.pvts));
        outcome
    });
    Sample {
        cell,
        wall_ms,
        outcome,
        evals: counters.evals.load(Relaxed),
        discovery_ms,
        explain_ms,
        report_ms,
        system_ms: counters.busy_ns.load(Relaxed) as f64 / 1e6,
    }
}

/// Run `case_cold`: build the inputs (timed as set-up), then whole rounds of the cell mix run until `run.seconds`
/// of rounds have passed. The inputs are built again after every round,
/// outside the timed window, so the set-up samples span the run as the
/// diagnoses do, and their median does not hang on the host's speed in
/// a single moment.
pub fn run(run: &Run, metrics: &mut Metrics) -> (u64, u64) {
    let mut setups = Vec::new();
    let mut set_up = |studies: &mut Vec<Study>| {
        drop(std::mem::take(studies));
        let start = Instant::now();
        *studies = case_studies();
        setups.push(start.elapsed().as_secs_f64());
    };
    let mut studies = Vec::new();
    set_up(&mut studies);
    let mut cells: Vec<Cell> = Vec::new();
    for (study, s) in studies.iter().enumerate() {
        for &algo in &s.algos {
            for width in WIDTHS {
                cells.push(Cell { study, algo, width });
            }
        }
    }
    cells.shuffle(&mut StdRng::seed_from_u64(run.seed));
    run.record(&format!(
        "\"widths\":{WIDTHS:?},\"studies\":[{}],\"cells_per_round\":{}",
        studies
            .iter()
            .map(|s| format!(
                "{{\"name\":\"{}\",\"rows_pass\":{},\"rows_fail\":{},\"cols\":{}}}",
                s.name,
                s.d_pass.n_rows(),
                s.d_fail.n_rows(),
                s.d_pass.n_cols()
            ))
            .collect::<Vec<_>>()
            .join(","),
        cells.len()
    ));

    // One untimed round first, so the timed window starts with the
    // allocator and caches of the process as every later round finds
    // them. Each diagnosis stays cold: fresh system, empty cache.
    for &cell in &cells {
        run_cell(&studies[cell.study], cell, run.trace, &mut Seen::default());
    }
    let mut samples: Vec<Sample> = Vec::new();
    let mut seen = Seen::default();
    let mut timed = Duration::ZERO;
    while samples.len() < MIN_DIAGNOSES || timed.as_secs_f64() < run.seconds {
        let round = Instant::now();
        for &cell in &cells {
            samples.push(run_cell(&studies[cell.study], cell, run.trace, &mut seen));
        }
        timed += round.elapsed();
        set_up(&mut studies);
    }
    let ops_per_s = samples.len() as f64 / timed.as_secs_f64();
    // Read before the check, whose reference diagnoses and certificates
    // are not the workload's.
    let peak_rss = peak_rss_mib("self").unwrap_or(0.0);

    let failed = check(&studies, &samples, &seen.explanations);
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_ms).collect();
    if run.trace {
        let costs: HashMap<(usize, usize), LayerCosts> = seen
            .candidates
            .iter()
            .map(|(&(study, width), pvts)| {
                let s = &studies[study];
                let config = s.config_at(width);
                (
                    (study, width),
                    retime(&s.d_pass, &s.d_fail, &config, pvts, width),
                )
            })
            .collect();
        layer_metrics(&samples, &costs, &seen.eval_ns, ops_per_s, metrics);
    } else {
        metrics.put("ops_per_s", ops_per_s, "1/s");
        metrics.put("op_p50_ms", median(&walls), "ms");
        metrics.put("op_p90_ms", quantile(&walls, 0.9), "ms");
        metrics.put("diagnosis_p50_ms", median(&walls), "ms");
        metrics.put("peak_rss_mb", peak_rss, "MiB");
        metrics.put("setup_s", median(&setups), "s");
    }
    (samples.len() as u64, failed)
}

/// The output check, outside the timed window. Each (study, algorithm)
/// pair gets a reference: an untraced, cold, width-1 diagnosis through
/// the discovering entry point, which must be correct and certified. A
/// sample fails when it errs, is unresolved, misses the planted cause,
/// digests differently from the reference, or its explanation fails the
/// Definitions 3–4 certificate (checked once per distinct digest).
fn check(
    studies: &[Study],
    samples: &[Sample],
    explanations: &HashMap<u64, (usize, Vec<Pvt>)>,
) -> u64 {
    let certified = |study: &Study, pvts: &[Pvt]| -> bool {
        match certify(study.factory.as_ref(), &study.d_fail, &study.config, pvts) {
            Ok(()) => true,
            Err(why) => {
                eprintln!("{}: explanation fails its certificate: {why}", study.name);
                false
            }
        }
    };
    let mut certificates: HashMap<u64, bool> = explanations
        .iter()
        .map(|(&digest, (study, pvts))| (digest, certified(&studies[*study], pvts)))
        .collect();
    let mut references: HashMap<(usize, Algo), Option<u64>> = HashMap::new();
    for (i, study) in studies.iter().enumerate() {
        for &algo in &study.algos {
            let config = study.config_at(1);
            let reference = match diagnose(
                study.factory.as_ref(),
                &study.d_fail,
                &study.d_pass,
                &config,
                algo,
                None,
            ) {
                Ok(exp) if exp.resolved && study.has_cause(&exp.pvts) => {
                    let digest = exp.digest();
                    let ok = *certificates
                        .entry(digest)
                        .or_insert_with(|| certified(study, &exp.pvts));
                    ok.then_some(digest)
                }
                Ok(_) => {
                    eprintln!(
                        "{} {}: reference unresolved or misses the cause",
                        study.name,
                        algo.name()
                    );
                    None
                }
                Err(e) => {
                    eprintln!("{} {}: reference failed: {e}", study.name, algo.name());
                    None
                }
            };
            references.insert((i, algo), reference);
        }
    }
    let mut failed = 0;
    for sample in samples {
        let study = &studies[sample.cell.study];
        let ok = match &sample.outcome {
            Ok(o) => {
                o.correct
                    && references[&(sample.cell.study, sample.cell.algo)] == Some(o.digest)
                    && certificates[&o.digest]
            }
            Err(_) => false,
        };
        if !ok {
            failed += 1;
            eprintln!(
                "{} {} width {}: failed the output check ({})",
                study.name,
                sample.cell.algo.name(),
                sample.cell.width,
                match &sample.outcome {
                    Ok(o) => format!(
                        "digest {:#x}, resolved with the cause: {}",
                        o.digest, o.correct
                    ),
                    Err(e) => e.clone(),
                }
            );
        }
    }
    failed
}

fn layer_metrics(
    samples: &[Sample],
    costs: &HashMap<(usize, usize), LayerCosts>,
    eval_ns: &[u64],
    ops_per_s: f64,
    metrics: &mut Metrics,
) {
    let per =
        |f: &dyn Fn(&Sample) -> f64| -> f64 { mean(&samples.iter().map(f).collect::<Vec<_>>()) };
    let sum_at = |width: usize, f: &dyn Fn(&Sample) -> f64| -> f64 {
        samples
            .iter()
            .filter(|s| s.cell.width == width)
            .map(f)
            .sum()
    };
    let cost = |s: &Sample| costs[&(s.cell.study, s.cell.width)];
    let outcome_metric = |s: &Sample, f: &dyn Fn(&Outcome) -> f64| -> f64 {
        s.outcome.as_ref().map(f).unwrap_or(0.0)
    };
    let wall1 = sum_at(1, &|s| s.wall_ms);
    let wall2 = sum_at(2, &|s| s.wall_ms);
    let gt: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.cell.algo == Algo::GroupTest)
        .collect();
    fn m(s: &Sample) -> Option<&RunMetrics> {
        s.outcome.as_ref().map(|o| &o.metrics).ok()
    }
    let total = |f: &dyn Fn(&RunMetrics) -> u64| -> f64 {
        samples.iter().filter_map(m).map(|x| f(x) as f64).sum()
    };

    metrics.put("discovery.busy_ms", per(&|s| s.discovery_ms), "ms");
    metrics.put(
        "discovery.share",
        ratio(sum_at(1, &|s| s.discovery_ms), wall1),
        "ratio",
    );
    metrics.put("discovery.pairs", per(&|s| cost(s).pairs), "count");
    metrics.put(
        "discovery.screened_ratio",
        ratio(per(&|s| cost(s).screened), per(&|s| cost(s).pairs)),
        "ratio",
    );
    metrics.put("lint.busy_ms", per(&|s| cost(s).lint_ms), "ms");
    metrics.put(
        "lint.pruned",
        per(&|s| outcome_metric(s, &|o| o.lint_pruned as f64)),
        "count",
    );
    metrics.put(
        "lint.subsumed",
        per(&|s| outcome_metric(s, &|o| o.lint_subsumed as f64)),
        "count",
    );
    metrics.put("rank.busy_ms", per(&|s| cost(s).rank_ms), "ms");
    metrics.put(
        "partition.busy_ms",
        mean(&gt.iter().map(|s| cost(s).partition_ms).collect::<Vec<_>>()),
        "ms",
    );
    metrics.put(
        "partition.edges",
        mean(
            &gt.iter()
                .map(|s| cost(s).partition_edges)
                .collect::<Vec<_>>(),
        ),
        "count",
    );
    metrics.put("apply.busy_ms", per(&|s| cost(s).apply_ms), "ms");
    metrics.put(
        "apply.calls",
        per(&|s| {
            outcome_metric(s, &|o| {
                (o.metrics.charged_queries + o.metrics.speculative_issued) as f64
            })
        }),
        "count",
    );
    metrics.put(
        "fingerprint.busy_ms",
        per(&|s| cost(s).fingerprint_ms),
        "ms",
    );

    let eval_ms: Vec<f64> = eval_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    metrics.put("system.evals", per(&|s| s.evals as f64), "count");
    metrics.put("system.busy_ms", per(&|s| s.system_ms), "ms");
    metrics.put("system.eval_p50_ms", median(&eval_ms), "ms");
    metrics.put(
        "system.busy_share",
        ratio(sum_at(1, &|s| s.system_ms), wall1),
        "ratio",
    );
    metrics.put(
        "system.concurrency",
        ratio(sum_at(2, &|s| s.system_ms), wall2),
        "ratio",
    );

    let n = samples.len() as f64;
    metrics.put(
        "runtime.charged_queries",
        total(&|x| x.charged_queries) / n,
        "count",
    );
    metrics.put("runtime.cache_hits", total(&|x| x.cache_hits) / n, "count");
    metrics.put(
        "runtime.speculative_evaluated",
        total(&|x| x.speculative_evaluated) / n,
        "count",
    );
    metrics.put(
        "runtime.speculative_shed",
        total(&|x| x.speculative_shed) / n,
        "count",
    );
    metrics.put(
        "runtime.speculation_useful_ratio",
        ratio(
            total(&|x| x.speculative_used),
            total(&|x| x.speculative_evaluated),
        ),
        "ratio",
    );
    metrics.put(
        "runtime.peak_inflight",
        samples
            .iter()
            .filter_map(m)
            .map(|x| x.peak_inflight as f64)
            .fold(0.0, f64::max),
        "count",
    );
    let width1: Vec<f64> = samples
        .iter()
        .filter(|s| s.cell.width == 1)
        .map(|s| s.explain_ms - s.system_ms)
        .collect();
    metrics.put("search.self_ms", mean(&width1), "ms");
    metrics.put("report.busy_ms", per(&|s| s.report_ms), "ms");
    metrics.put("trace.ops_per_s", ops_per_s, "1/s");
}
