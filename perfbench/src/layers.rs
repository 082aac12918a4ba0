//! Per-layer re-timing for the traced run: each layer's public
//! function called from outside on the workload's own inputs.
//!
//! These timings measure what one call of a layer costs on the inputs
//! a diagnosis sees. They do not attribute a diagnosis's wall time (the
//! program has no spans of its own yet), so the search's self time is
//! reported as a remainder elsewhere.

use crate::stats::median;
use dataprism::benefit::benefit_scores;
use dataprism::bisection::{min_bisection, partition_rng};
use dataprism::discovery::discriminative_pvts_stats;
use dataprism::graph::PvtAttributeGraph;
use dataprism::pvt::apply_composition;
use dataprism::{fingerprint, lint_pvts, PrismConfig, Pvt};
use dp_frame::DataFrame;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per layer call; the median is kept.
const REPEATS: usize = 5;

/// Group testing switches to a linear partitioner above this many
/// candidates (`group_test::LOCAL_SEARCH_LIMIT`), so the local-search
/// bisection is timed only at or below it, as the search runs it.
const LOCAL_SEARCH_LIMIT: usize = 64;

/// Median cost, in milliseconds, of one call of each layer on one input.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    pub discovery_ms: f64,
    /// Attribute pairs discovery considered, and how many of them the
    /// sketch pre-filter screened out before an exact test.
    pub pairs: f64,
    pub screened: f64,
    pub lint_ms: f64,
    pub rank_ms: f64,
    pub partition_ms: f64,
    pub partition_edges: f64,
    pub apply_ms: f64,
    pub fingerprint_ms: f64,
}

fn time_ms<R>(mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Re-time every layer on one diagnosis input. `pvts` are the
/// candidates discovery produced for it; `width` is the thread count
/// the diagnosis ran discovery with.
pub fn retime(
    d_pass: &DataFrame,
    d_fail: &DataFrame,
    config: &PrismConfig,
    pvts: &[Pvt],
    width: usize,
) -> LayerCosts {
    let discovery_ms =
        time_ms(|| discriminative_pvts_stats(d_pass, d_fail, &config.discovery, width));
    let (_, stats) = discriminative_pvts_stats(d_pass, d_fail, &config.discovery, width);
    let lint_ms = time_ms(|| lint_pvts(pvts, d_fail, config.threshold));
    let rank_ms = time_ms(|| benefit_scores(pvts, d_fail));

    // GT's root partition: dependency edges, benefit-ordered ids, and
    // the local-search bisection seeded from the candidate set.
    let benefits = benefit_scores(pvts, d_fail);
    let mut ordered: Vec<usize> = pvts.iter().map(|p| p.id).collect();
    ordered.sort_by(|a, b| benefits[b].total_cmp(&benefits[a]));
    let edges = PvtAttributeGraph::new(pvts).dependency_edges();
    let partition_ms = if pvts.len() <= LOCAL_SEARCH_LIMIT {
        time_ms(|| {
            let edges = PvtAttributeGraph::new(pvts).dependency_edges();
            let mut rng = partition_rng(config.seed, &ordered);
            min_bisection(&ordered, &edges, &mut rng)
        })
    } else {
        0.0
    };

    // GT's first intervention composes every candidate onto D_fail.
    let refs: Vec<&Pvt> = pvts.iter().collect();
    let compose = || {
        let mut rng = StdRng::seed_from_u64(config.seed);
        apply_composition(&refs, d_fail, &mut rng).map(|(frame, _)| frame)
    };
    let apply_ms = time_ms(compose);
    // Fingerprint a freshly composed frame each time: its rewritten
    // chunks carry no memoized hashes yet, as in a real query.
    let fingerprint_samples: Vec<f64> = (0..REPEATS)
        .filter_map(|_| {
            let frame = compose().ok()?;
            let start = Instant::now();
            black_box(fingerprint(&frame));
            Some(start.elapsed().as_secs_f64() * 1e3)
        })
        .collect();

    LayerCosts {
        discovery_ms,
        pairs: stats.pairs as f64,
        screened: stats.screened() as f64,
        lint_ms,
        rank_ms,
        partition_ms,
        partition_edges: edges.len() as f64,
        apply_ms,
        fingerprint_ms: median(&fingerprint_samples),
    }
}
