//! PVT triplets (paper §2.2): ⟨Profile, Violation, Transformation⟩.
//!
//! The violation function is fully determined by the profile (Fig 1),
//! so a triplet materializes as a `(Profile, Transform)` pair plus an
//! identity. Composition of transformations (Definition 9) is a
//! sequential fold, provided by [`apply_composition`].

use crate::error::Result;
use crate::profile::Profile;
use crate::transform::{resample_rows, Transform};
use crate::violation::violation;
use dp_frame::{Bitmap, DataFrame};
use rand::rngs::StdRng;
use std::fmt;

/// A PVT triplet: the unit of explanation (cause = profile whose
/// violation distinguishes the datasets; fix = the transformation).
#[derive(Debug, Clone, PartialEq)]
pub struct Pvt {
    /// Stable identifier within one diagnosis run (index into the
    /// discriminative set).
    pub id: usize,
    /// The profile `X_P`, parameterized from the passing dataset.
    pub profile: Profile,
    /// The transformation `X_T` that repairs violations of `X_P`.
    pub transform: Transform,
}

impl Pvt {
    /// Violation score of `df` with respect to this PVT's profile
    /// (`X_V(df, X_P)`).
    pub fn violation(&self, df: &DataFrame) -> f64 {
        violation(df, &self.profile)
    }

    /// Attributes this PVT connects to in the PVT–attribute graph:
    /// the union of the profile's attributes and the transformation's
    /// targets.
    pub fn attributes(&self) -> Vec<String> {
        let mut attrs = self.profile.attributes();
        for a in self.transform.target_attributes() {
            if !attrs.contains(&a) {
                attrs.push(a);
            }
        }
        attrs
    }

    /// Apply this PVT's transformation (`X_T(df)`), returning the
    /// repaired frame and the number of tuples modified.
    pub fn apply(&self, df: &DataFrame, rng: &mut StdRng) -> Result<(DataFrame, usize)> {
        self.transform.apply(df, rng)
    }
}

impl fmt::Display for Pvt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PVT#{} {} ⇒ {}", self.id, self.profile, self.transform)
    }
}

/// Apply a composition of PVT transformations
/// `(X1_T ∘ X2_T ∘ …)(df)` — Definition 9 — in the given order.
/// Returns the transformed frame and total tuples modified.
///
/// The result equals folding [`Transform::apply`] step by step: the
/// same frame (chunk layout and NULL placeholders included), the same
/// total, and the same draws from `rng`. Runs of consecutive
/// [`Transform::ResampleSelectivity`] steps are cheaper, though: each
/// step only composes its row selection into a pending one, and the
/// rows are gathered once, before the next other transform and at
/// the end. This is exact because predicates are row-wise (the mask
/// of a gathered frame is the gathered mask) and
/// `take(take(d, a), b) == take(d, a∘b)`.
pub fn apply_composition(
    pvts: &[&Pvt],
    df: &DataFrame,
    rng: &mut StdRng,
) -> Result<(DataFrame, usize)> {
    // One clone for the whole composition: group interventions
    // compose thousands of transformations, and per-constituent
    // clones of a wide frame would make them quadratic.
    let mut cur = df.clone();
    // The rows of `cur` the resamples so far selected, not yet
    // gathered; `None` is every row of `cur`, in order.
    let mut pending: Option<Vec<usize>> = None;
    let mut total = 0;
    for pvt in pvts {
        if let Transform::ResampleSelectivity { predicate, theta } = &pvt.transform {
            let n = pending.as_ref().map_or(cur.n_rows(), Vec::len);
            if n == 0 {
                continue;
            }
            let mask = predicate.evaluate(&cur)?;
            let mask = match &pending {
                Some(rows) => Bitmap::from_iter(rows.iter().map(|&r| mask.get(r))),
                None => mask,
            };
            if let Some((rows, changed)) = resample_rows(&mask, *theta, rng) {
                pending = Some(match pending {
                    Some(prev) => rows.iter().map(|&i| prev[i]).collect(),
                    None => rows,
                });
                total += changed;
            }
            continue;
        }
        if let Some(rows) = pending.take() {
            cur = cur.take(&rows)?;
        }
        total += pvt.transform.apply_in_place(&mut cur, rng)?;
    }
    if let Some(rows) = pending {
        cur = cur.take(&rows)?;
    }
    Ok((cur, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_frame::{Column, DType};
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn pvt_for_domain(id: usize) -> Pvt {
        let values: BTreeSet<String> = ["-1", "1"].iter().map(|s| s.to_string()).collect();
        Pvt {
            id,
            profile: Profile::DomainCategorical {
                attr: "target".into(),
                values: values.clone(),
            },
            transform: Transform::MapToDomain {
                attr: "target".into(),
                values,
            },
        }
    }

    fn df() -> DataFrame {
        DataFrame::from_columns(vec![Column::from_strings(
            "target",
            DType::Categorical,
            vec![Some("0".into()), Some("4".into())],
        )])
        .unwrap()
    }

    #[test]
    fn pvt_violation_and_apply() {
        let pvt = pvt_for_domain(0);
        let d = df();
        assert_eq!(pvt.violation(&d), 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let (fixed, changed) = pvt.apply(&d, &mut rng).unwrap();
        assert_eq!(changed, 2);
        assert_eq!(pvt.violation(&fixed), 0.0, "Definition 8: V(T(D), P) = 0");
    }

    #[test]
    fn composition_applies_in_order() {
        // Definition 9: after composing, both profiles are satisfied.
        let pvt1 = pvt_for_domain(0);
        let pvt2 = Pvt {
            id: 1,
            profile: Profile::Missing {
                attr: "target".into(),
                theta: 0.0,
            },
            transform: Transform::Impute {
                attr: "target".into(),
                strategy: crate::transform::ImputeStrategy::Mode,
            },
        };
        let d = DataFrame::from_columns(vec![Column::from_strings(
            "target",
            DType::Categorical,
            vec![Some("0".into()), None, Some("4".into())],
        )])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let (fixed, _) = apply_composition(&[&pvt2, &pvt1], &d, &mut rng).unwrap();
        assert_eq!(pvt1.violation(&fixed), 0.0);
        assert_eq!(pvt2.violation(&fixed), 0.0);
    }

    #[test]
    fn attributes_union_profile_and_transform() {
        let pvt = pvt_for_domain(3);
        assert_eq!(pvt.attributes(), vec!["target".to_string()]);
        assert!(pvt.to_string().contains("PVT#3"));
    }
}
