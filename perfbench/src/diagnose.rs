//! The one place the benchmark calls a diagnosis entry point, the
//! counting system wrapper, and the independent output check.

use dataprism::pvt::apply_composition;
use dataprism::{
    explain_greedy, explain_greedy_parallel, explain_greedy_parallel_with_pvts,
    explain_greedy_with_pvts, explain_group_test, explain_group_test_parallel,
    explain_group_test_parallel_with_pvts, explain_group_test_with_pvts, Explanation,
    PartitionStrategy, PrismConfig, Pvt, System, SystemFactory,
};
use dp_frame::DataFrame;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Search algorithm of one diagnosis cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// DataPrism-GRD (Algorithm 1).
    Greedy,
    /// DataPrism-GT (Algorithms 2–3, min-bisection partitioning).
    GroupTest,
}

impl Algo {
    pub fn name(self) -> &'static str {
        match self {
            Algo::Greedy => "greedy",
            Algo::GroupTest => "group_test",
        }
    }
}

/// Real `System::malfunction` calls made through a [`CountingFactory`],
/// and (when timing is on) their summed wall time and samples.
#[derive(Default)]
pub struct Counters {
    pub evals: AtomicU64,
    pub busy_ns: AtomicU64,
    timed: bool,
    samples: std::sync::Mutex<Vec<u64>>,
}

impl Counters {
    pub fn new(timed: bool) -> Arc<Counters> {
        Arc::new(Counters {
            timed,
            ..Counters::default()
        })
    }

    /// Per-evaluation wall times recorded so far, in nanoseconds.
    pub fn take_samples(&self) -> Vec<u64> {
        std::mem::take(&mut *self.samples.lock().expect("sample lock poisoned"))
    }
}

struct CountingSystem {
    inner: Box<dyn System + Send>,
    counters: Arc<Counters>,
}

impl System for CountingSystem {
    fn malfunction(&mut self, df: &DataFrame) -> f64 {
        self.counters.evals.fetch_add(1, Relaxed);
        if !self.counters.timed {
            return self.inner.malfunction(df);
        }
        let start = Instant::now();
        let score = self.inner.malfunction(df);
        let ns = start.elapsed().as_nanos() as u64;
        self.counters.busy_ns.fetch_add(ns, Relaxed);
        self.counters
            .samples
            .lock()
            .expect("sample lock poisoned")
            .push(ns);
        score
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Wraps a scenario's factory so every instance it builds counts (and
/// optionally times) its evaluations into shared [`Counters`].
pub struct CountingFactory<'a> {
    pub inner: &'a dyn SystemFactory,
    pub counters: Arc<Counters>,
}

impl SystemFactory for CountingFactory<'_> {
    fn build(&self) -> Box<dyn System + Send> {
        Box::new(CountingSystem {
            inner: self.inner.build(),
            counters: Arc::clone(&self.counters),
        })
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Run one diagnosis. Every diagnosis the benchmark makes goes through
/// here, so a change to the library's entry points is edited in one
/// place. Width 1 runs the serial entry point on a freshly built
/// system; wider runs hand the factory to the parallel runtime.
/// `candidates = None` discovers the candidate PVTs; `Some` skips
/// discovery (the traced run times discovery on its own).
pub fn diagnose(
    factory: &dyn SystemFactory,
    d_fail: &DataFrame,
    d_pass: &DataFrame,
    config: &PrismConfig,
    algo: Algo,
    candidates: Option<Vec<Pvt>>,
) -> dataprism::Result<Explanation> {
    let strategy = PartitionStrategy::MinBisection;
    if config.num_threads <= 1 {
        let mut system = factory.build();
        let system: &mut dyn System = &mut *system;
        return match (algo, candidates) {
            (Algo::Greedy, None) => explain_greedy(system, d_fail, d_pass, config),
            (Algo::Greedy, Some(pvts)) => {
                explain_greedy_with_pvts(system, d_fail, d_pass, pvts, config)
            }
            (Algo::GroupTest, None) => explain_group_test(system, d_fail, d_pass, config, strategy),
            (Algo::GroupTest, Some(pvts)) => {
                explain_group_test_with_pvts(system, d_fail, d_pass, pvts, config, strategy)
            }
        };
    }
    match (algo, candidates) {
        (Algo::Greedy, None) => explain_greedy_parallel(factory, d_fail, d_pass, config),
        (Algo::Greedy, Some(pvts)) => {
            explain_greedy_parallel_with_pvts(factory, d_fail, d_pass, pvts, config)
        }
        (Algo::GroupTest, None) => {
            explain_group_test_parallel(factory, d_fail, d_pass, config, strategy)
        }
        (Algo::GroupTest, Some(pvts)) => {
            explain_group_test_parallel_with_pvts(factory, d_fail, d_pass, pvts, config, strategy)
        }
    }
}

/// Re-check Definitions 3–4 on an explanation with code of the
/// benchmark's own: the composed repair, applied to `d_fail` and
/// scored by a fresh system (no cache, no runtime), passes τ, and every
/// subset with one PVT dropped fails it. Returns why it does not hold.
pub fn certify(
    factory: &dyn SystemFactory,
    d_fail: &DataFrame,
    config: &PrismConfig,
    pvts: &[Pvt],
) -> Result<(), String> {
    let tau = config.threshold;
    let mut system = factory.build();
    let mut score_of = |subset: &[&Pvt]| -> Result<f64, String> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let (frame, _) =
            apply_composition(subset, d_fail, &mut rng).map_err(|e| format!("apply: {e}"))?;
        Ok(system.malfunction(&frame))
    };
    let all: Vec<&Pvt> = pvts.iter().collect();
    let repaired = score_of(&all)?;
    if repaired > tau {
        return Err(format!("repair scores {repaired} > τ = {tau}"));
    }
    for drop in 0..all.len() {
        let subset: Vec<&Pvt> = all
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != drop)
            .map(|(_, p)| *p)
            .collect();
        let score = score_of(&subset)?;
        if score <= tau {
            return Err(format!(
                "dropping PVT#{} still passes ({score} ≤ τ = {tau}): not minimal",
                all[drop].id
            ));
        }
    }
    Ok(())
}
