//! The `DataPrism` facade: a configured diagnosis session.
//!
//! The free functions [`crate::explain_greedy`] /
//! [`crate::explain_group_test`] are the primitive API; this type
//! bundles a configuration with the common operations (diagnose,
//! compare strategies, render a report) for ergonomic use.

use crate::config::PrismConfig;
use crate::error::Result;
use crate::explanation::Explanation;
use crate::group_test::PartitionStrategy;
use crate::oracle::{System, SystemFactory};
use crate::report::markdown_report;
use dp_frame::DataFrame;

/// A configured DataPrism diagnosis session.
///
/// ```
/// use dataprism::{DataPrism, PrismConfig};
/// use dp_frame::{Column, DType, DataFrame};
///
/// let mut system = |df: &DataFrame| {
///     let col = df.column("target").unwrap();
///     let bad = col.str_values().iter()
///         .filter(|(_, s)| *s != "-1" && *s != "1").count();
///     bad as f64 / df.n_rows().max(1) as f64
/// };
/// let labels = |vals: &[&str]| Column::from_strings(
///     "target", DType::Categorical,
///     vals.iter().map(|v| Some(v.to_string())).collect(),
/// );
/// let pass = DataFrame::from_columns(vec![labels(&["-1", "1", "1", "-1"])]).unwrap();
/// let fail = DataFrame::from_columns(vec![labels(&["0", "4", "4", "0"])]).unwrap();
///
/// let prism = DataPrism::new(PrismConfig::with_threshold(0.2));
/// let explanation = prism.diagnose(&mut system, &fail, &pass).unwrap();
/// assert!(explanation.resolved);
///
/// // A ready-to-share markdown report of the same diagnosis:
/// let report = prism.report(&explanation, &pass, &fail);
/// assert!(report.contains("# DataPrism diagnosis report"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DataPrism {
    config: PrismConfig,
}

impl DataPrism {
    /// A session with the given configuration.
    pub fn new(config: PrismConfig) -> Self {
        DataPrism { config }
    }

    /// A session with default configuration and the given threshold.
    pub fn with_threshold(threshold: f64) -> Self {
        DataPrism {
            config: PrismConfig::with_threshold(threshold),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PrismConfig {
        &self.config
    }

    /// Mutable access for tweaking knobs after construction.
    pub fn config_mut(&mut self) -> &mut PrismConfig {
        &mut self.config
    }

    /// Diagnose with the recommended strategy: the greedy Algorithm 1
    /// (fewest interventions on every case study of the paper's
    /// Fig 7).
    pub fn diagnose(
        &self,
        system: &mut dyn System,
        d_fail: &DataFrame,
        d_pass: &DataFrame,
    ) -> Result<Explanation> {
        crate::explain_greedy(system, d_fail, d_pass, &self.config)
    }

    /// Diagnose with group testing (Algorithms 2–3, min-bisection
    /// partitioning). Fails with
    /// [`crate::PrismError::AssumptionViolated`] when assumption A3
    /// does not hold.
    pub fn diagnose_group_test(
        &self,
        system: &mut dyn System,
        d_fail: &DataFrame,
        d_pass: &DataFrame,
    ) -> Result<Explanation> {
        crate::explain_group_test(
            system,
            d_fail,
            d_pass,
            &self.config,
            PartitionStrategy::MinBisection,
        )
    }

    /// Diagnose with group testing, falling back to the greedy
    /// algorithm when A3 is violated — the paper's own guidance
    /// ("DataExposerGRD always identifies the ground-truth cause",
    /// appendix C).
    pub fn diagnose_auto(
        &self,
        system: &mut dyn System,
        d_fail: &DataFrame,
        d_pass: &DataFrame,
    ) -> Result<Explanation> {
        match self.diagnose_group_test(system, d_fail, d_pass) {
            Err(crate::PrismError::AssumptionViolated(_)) => self.diagnose(system, d_fail, d_pass),
            other => other,
        }
    }

    /// [`DataPrism::diagnose`] on the parallel runtime: candidate
    /// interventions are speculatively scored on
    /// `config.num_threads` worker systems built by `factory`. The
    /// explanation (PVTs, scores, intervention counts, trace) is
    /// bit-for-bit identical to the serial [`DataPrism::diagnose`]
    /// for every thread count.
    pub fn diagnose_parallel(
        &self,
        factory: &dyn SystemFactory,
        d_fail: &DataFrame,
        d_pass: &DataFrame,
    ) -> Result<Explanation> {
        crate::explain_greedy_parallel(factory, d_fail, d_pass, &self.config)
    }

    /// [`DataPrism::diagnose_group_test`] on the parallel runtime:
    /// both halves of every bisection probe are evaluated
    /// concurrently. Results are bit-for-bit identical to the serial
    /// path for every thread count.
    pub fn diagnose_group_test_parallel(
        &self,
        factory: &dyn SystemFactory,
        d_fail: &DataFrame,
        d_pass: &DataFrame,
    ) -> Result<Explanation> {
        crate::explain_group_test_parallel(
            factory,
            d_fail,
            d_pass,
            &self.config,
            PartitionStrategy::MinBisection,
        )
    }

    /// [`DataPrism::diagnose_auto`] on the parallel runtime: group
    /// testing first, greedy fallback when assumption A3 is violated.
    pub fn diagnose_auto_parallel(
        &self,
        factory: &dyn SystemFactory,
        d_fail: &DataFrame,
        d_pass: &DataFrame,
    ) -> Result<Explanation> {
        match self.diagnose_group_test_parallel(factory, d_fail, d_pass) {
            Err(crate::PrismError::AssumptionViolated(_)) => {
                self.diagnose_parallel(factory, d_fail, d_pass)
            }
            other => other,
        }
    }

    /// Render a markdown report for an explanation produced by this
    /// session.
    pub fn report(
        &self,
        explanation: &Explanation,
        d_pass: &DataFrame,
        d_fail: &DataFrame,
    ) -> String {
        markdown_report(
            explanation,
            d_pass,
            d_fail,
            self.config.threshold,
            &self.config.discovery,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_frame::{Column, DType};

    fn cat(name: &str, vals: &[&str]) -> Column {
        Column::from_strings(
            name,
            DType::Categorical,
            vals.iter().map(|s| Some(s.to_string())).collect(),
        )
    }

    fn scenario() -> (DataFrame, DataFrame) {
        let pass = DataFrame::from_columns(vec![cat("target", &["-1", "1", "1", "-1"])]).unwrap();
        let fail = DataFrame::from_columns(vec![cat("target", &["0", "4", "4", "0"])]).unwrap();
        (pass, fail)
    }

    fn label_system(df: &DataFrame) -> f64 {
        let col = df.column("target").unwrap();
        col.str_values()
            .iter()
            .filter(|(_, s)| *s != "-1" && *s != "1")
            .count() as f64
            / df.n_rows().max(1) as f64
    }

    #[test]
    fn facade_diagnoses_and_reports() {
        let (pass, fail) = scenario();
        let prism = DataPrism::with_threshold(0.2);
        let mut system = label_system;
        let exp = prism.diagnose(&mut system, &fail, &pass).unwrap();
        assert!(exp.resolved);
        let report = prism.report(&exp, &pass, &fail);
        assert!(report.contains("resolved"));
    }

    #[test]
    fn auto_falls_back_to_greedy_on_a3_violation() {
        // A system where any composition involving the second column's
        // transforms blows up, violating A3, but the greedy path works.
        let pass = DataFrame::from_columns(vec![
            cat("target", &["-1", "1", "1", "-1"]),
            Column::from_ints("len", vec![Some(10), Some(12), Some(11), Some(13)]),
        ])
        .unwrap();
        let fail = DataFrame::from_columns(vec![
            cat("target", &["0", "4", "4", "0"]),
            Column::from_ints("len", vec![Some(1), Some(2), Some(3), Some(4)]),
        ])
        .unwrap();
        let fail_len: Vec<i64> = vec![1, 2, 3, 4];
        let pass_fp = crate::oracle::fingerprint(&pass);
        let mut system = move |df: &DataFrame| {
            if crate::oracle::fingerprint(df) == pass_fp {
                return 0.0;
            }
            let len_changed = df.n_rows() != fail_len.len()
                || (0..df.n_rows()).any(|i| {
                    df.cell(i, "len")
                        .ok()
                        .and_then(|v| v.as_i64())
                        .map(|v| v != fail_len[i])
                        .unwrap_or(true)
                });
            if len_changed {
                1.0
            } else {
                label_system(df)
            }
        };
        let prism = DataPrism::with_threshold(0.2);
        assert!(matches!(
            prism.diagnose_group_test(&mut system, &fail, &pass),
            Err(crate::PrismError::AssumptionViolated(_))
        ));
        let exp = prism.diagnose_auto(&mut system, &fail, &pass).unwrap();
        assert!(exp.resolved, "{exp}");
    }

    #[test]
    fn parallel_facade_matches_serial() {
        let (pass, fail) = scenario();
        let mut prism = DataPrism::with_threshold(0.2);
        let mut system = label_system;
        let serial = prism.diagnose(&mut system, &fail, &pass).unwrap();
        for threads in [1, 4] {
            prism.config_mut().num_threads = threads;
            let factory = || label_system;
            let par = prism.diagnose_parallel(&factory, &fail, &pass).unwrap();
            assert_eq!(par.pvt_ids(), serial.pvt_ids());
            assert_eq!(par.interventions, serial.interventions);
            assert_eq!(par.final_score, serial.final_score);
            assert_eq!(par.trace, serial.trace);
        }
    }

    #[test]
    fn config_accessors() {
        let mut prism = DataPrism::with_threshold(0.3);
        assert_eq!(prism.config().threshold, 0.3);
        prism.config_mut().seed = 99;
        assert_eq!(prism.config().seed, 99);
    }
}
