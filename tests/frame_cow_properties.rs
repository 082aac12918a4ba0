//! Property tests locking down the copy-on-write chunked frame
//! against an eager-materialization oracle:
//!
//! - any composed transform sequence applied to a CoW frame (whose
//!   chunks are aliased by live clones, forcing the copy-on-write
//!   path) is bit-identical — values, validity bitmaps, fingerprints,
//!   contingency tables — to the same sequence applied to an eager
//!   deep copy that shares no chunks (refcount-1, mutate-in-place
//!   path);
//! - the original frame and its clones are never corrupted by writes
//!   through an overlay;
//! - two overlays over the same shared chunks can be mutated
//!   independently without leaking writes into each other or the base;
//! - untouched columns keep sharing chunks with the base (the CoW
//!   refactor's memory guarantee), while deep copies share none;
//! - exact `CHUNK_ROWS` and bitmap-word boundary lengths round-trip;
//! - the typed row gather `Column::take`, and `Column::filter` built
//!   on it, equal pushing `get(i)` row by row — chunk data, NULL
//!   placeholders and fingerprints — for every dtype and for index
//!   vectors that repeat rows and cross `CHUNK_ROWS`;
//! - `apply_composition`, which composes consecutive resamples into
//!   one row selection and gathers once, equals folding
//!   `Transform::apply` step by step: same frame, fingerprint, changed
//!   total and RNG stream.

use dataprism::profile::OutlierSpec;
use dataprism::pvt::apply_composition;
use dataprism::transform::{ImputeStrategy, OutlierRepair, Transform};
use dataprism::{fingerprint, fingerprint_reference, Profile, Pvt};
use dp_frame::groupby::ContingencyTable;
use dp_frame::{Bitmap, CmpOp, Column, DType, DataFrame, Predicate, Value, CHUNK_ROWS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Deterministic mixed-dtype frame: one column per storage dtype,
/// with nulls sprinkled into each.
fn build_frame(len: usize, seed: u64) -> DataFrame {
    let mut rng = StdRng::seed_from_u64(seed);
    let nums: Vec<Option<f64>> = (0..len)
        .map(|_| {
            if rng.gen_range(0..5usize) == 0 {
                None
            } else {
                Some(rng.gen_range(-100.0f64..100.0))
            }
        })
        .collect();
    let counts: Vec<Option<i64>> = (0..len)
        .map(|_| {
            if rng.gen_range(0..7usize) == 0 {
                None
            } else {
                Some(rng.gen_range(-50i64..50))
            }
        })
        .collect();
    let flags: Vec<Option<bool>> = (0..len)
        .map(|_| match rng.gen_range(0..4usize) {
            0 => None,
            n => Some(n == 1),
        })
        .collect();
    let cats = ["x", "y", "z", "w"];
    let cat = |rng: &mut StdRng| -> Vec<Option<String>> {
        (0..len)
            .map(|_| match rng.gen_range(0..6usize) {
                0 => None,
                n => Some(cats[(n - 1) % cats.len()].to_string()),
            })
            .collect()
    };
    let cat_a = cat(&mut rng);
    let cat_b = cat(&mut rng);
    let texts: Vec<Option<String>> = (0..len)
        .map(|_| {
            if rng.gen_range(0..8usize) == 0 {
                None
            } else {
                Some(format!("t{}", rng.gen_range(0..1000usize)))
            }
        })
        .collect();
    DataFrame::from_columns(vec![
        Column::from_floats("num", nums),
        Column::from_ints("count", counts),
        Column::from_bools("flag", flags),
        Column::from_strings("cat", DType::Categorical, cat_a),
        Column::from_strings("cat2", DType::Categorical, cat_b),
        Column::from_strings("txt", DType::Text, texts),
    ])
    .expect("mixed frame builds")
}

/// Rebuild `df` value-by-value: the eager-materialization oracle.
/// The result holds refcount-1 chunks and shares nothing with `df`,
/// so subsequent writes take the mutate-in-place fast path rather
/// than copy-on-write.
fn deep_copy(df: &DataFrame) -> DataFrame {
    let cols = df
        .columns()
        .iter()
        .map(|c| {
            Column::from_values(
                c.name(),
                c.dtype(),
                (0..c.len()).map(|i| c.get(i)).collect(),
            )
            .expect("deep copy preserves dtypes")
        })
        .collect();
    DataFrame::from_columns(cols).expect("deep copy rebuilds")
}

fn shares_any_chunk(a: &Column, b: &Column) -> bool {
    a.chunks()
        .iter()
        .any(|ca| b.chunks().iter().any(|cb| Arc::ptr_eq(ca, cb)))
}

fn assert_no_shared_chunks(a: &DataFrame, b: &DataFrame) {
    for (ca, cb) in a.columns().iter().zip(b.columns()) {
        assert!(
            !shares_any_chunk(ca, cb),
            "column {} unexpectedly shares a chunk",
            ca.name()
        );
    }
}

/// Full bit-identity check: schema, per-cell values, validity
/// bitmaps (word-for-word, via `Bitmap: PartialEq`), null counts,
/// and both fingerprint implementations. NaN never reaches storage
/// (it is normalized to NULL at column boundaries), so `Value`
/// equality is exact.
fn assert_bit_identical(a: &DataFrame, b: &DataFrame, what: &str) {
    assert_eq!(a.schema(), b.schema(), "{what}: schema");
    assert_eq!(a.n_rows(), b.n_rows(), "{what}: row count");
    for (ca, cb) in a.columns().iter().zip(b.columns()) {
        assert_eq!(
            ca.validity_mask(),
            cb.validity_mask(),
            "{what}: validity bitmap of {}",
            ca.name()
        );
        assert_eq!(
            ca.null_count(),
            cb.null_count(),
            "{what}: null count of {}",
            ca.name()
        );
        for i in 0..ca.len() {
            assert_eq!(ca.get(i), cb.get(i), "{what}: {}[{i}]", ca.name());
        }
    }
    assert_eq!(fingerprint(a), fingerprint(b), "{what}: fingerprint");
    assert_eq!(
        fingerprint_reference(a),
        fingerprint_reference(b),
        "{what}: reference fingerprint"
    );
}

fn assert_same_contingency(a: &DataFrame, b: &DataFrame, what: &str) {
    let ta = ContingencyTable::from_frame(a, "cat", "cat2").expect("contingency");
    let tb = ContingencyTable::from_frame(b, "cat", "cat2").expect("contingency");
    assert_eq!(ta, tb, "{what}: contingency table cat×cat2");
}

/// Pool of transforms covering deterministic single-column writes,
/// null-flipping imputation, stochastic row resampling (rebuilds
/// every column), and a conditional (masked) write.
fn transform_pool() -> Vec<Transform> {
    vec![
        Transform::Winsorize {
            attr: "num".into(),
            lb: -25.0,
            ub: 25.0,
        },
        Transform::LinearRescale {
            attr: "num".into(),
            lb: 0.0,
            ub: 1.0,
        },
        Transform::Impute {
            attr: "num".into(),
            strategy: ImputeStrategy::Central,
        },
        Transform::Impute {
            attr: "cat".into(),
            strategy: ImputeStrategy::Mode,
        },
        Transform::ReplaceOutliers {
            attr: "num".into(),
            detector: OutlierSpec::ZScore(2.0),
            strategy: OutlierRepair::Clamp,
        },
        Transform::ResampleSelectivity {
            predicate: Predicate::cmp("cat", CmpOp::Eq, "x"),
            theta: 0.4,
        },
        Transform::Conditional {
            condition: Predicate::cmp("cat2", CmpOp::Eq, "y"),
            inner: Box::new(Transform::Winsorize {
                attr: "count".into(),
                lb: -10.0,
                ub: 10.0,
            }),
        },
    ]
}

/// Draw a composition of 1–4 transforms from the pool.
fn draw_composition(seed: u64) -> Vec<Transform> {
    let pool = transform_pool();
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..=4usize);
    (0..n)
        .map(|_| pool[rng.gen_range(0..pool.len())].clone())
        .collect()
}

/// Apply `ts` sequentially, threading one seeded RNG so stochastic
/// transforms draw identically on both sides of the differential.
fn apply_seq(df: &DataFrame, ts: &[Transform], seed: u64) -> DataFrame {
    let mut out = df.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    for t in ts {
        out = t.apply(&out, &mut rng).expect("transform applies").0;
    }
    out
}

/// The row gather as first written: one `get` → [`Value`] → `push`
/// per index. Kept as the reference the typed `Column::take` must
/// reproduce exactly.
fn reference_take(col: &Column, indices: &[usize]) -> Column {
    let mut out = Column::empty(col.name(), col.dtype());
    for &i in indices {
        out.push(col.get(i)).expect("same dtype");
    }
    out
}

proptest! {
    // The core differential: composed transforms through the CoW
    // path (chunks aliased by a live clone) equal the same
    // composition through eagerly materialized refcount-1 chunks,
    // and neither the base frame nor its clone is disturbed.
    #[test]
    fn composed_transforms_match_eager_materialization(
        len in prop::sample::select(vec![1usize, 2, 63, 64, 65, 127, 128, 200, 300, 511]),
        frame_seed in 0u64..1_000_000,
        tf_seed in 0u64..1_000_000,
        rng_seed in 0u64..1_000_000,
    ) {
        let base = build_frame(len, frame_seed);
        let snapshot = deep_copy(&base);
        // Keep a live alias so every chunk has refcount ≥ 2 and
        // writes must copy-on-write rather than mutate in place.
        let alias = base.clone();

        let eager_input = deep_copy(&base);
        assert_no_shared_chunks(&base, &eager_input);

        let ts = draw_composition(tf_seed);
        let cow_out = apply_seq(&base, &ts, rng_seed);
        let eager_out = apply_seq(&eager_input, &ts, rng_seed);

        assert_bit_identical(&cow_out, &eager_out, "cow vs eager");
        assert_same_contingency(&cow_out, &eager_out, "cow vs eager");
        // Writes through the overlays never leak into the base or
        // its alias.
        assert_bit_identical(&base, &snapshot, "base after transforms");
        assert_bit_identical(&alias, &snapshot, "alias after transforms");
    }

    // Two overlays cloned from one base, mutated through different
    // transform sequences, stay independent: each matches its own
    // eager oracle and the base is untouched.
    #[test]
    fn aliased_overlays_mutate_independently(
        len in prop::sample::select(vec![5usize, 64, 129, 300]),
        frame_seed in 0u64..1_000_000,
        seed_a in 0u64..1_000_000,
        seed_b in 0u64..1_000_000,
    ) {
        let base = build_frame(len, frame_seed);
        let snapshot = deep_copy(&base);

        let ts_a = draw_composition(seed_a);
        let ts_b = draw_composition(seed_b);

        // Both overlays start as shallow clones sharing every chunk
        // of `base`.
        let out_a = apply_seq(&base, &ts_a, seed_a);
        let out_b = apply_seq(&base, &ts_b, seed_b);

        let want_a = apply_seq(&deep_copy(&base), &ts_a, seed_a);
        let want_b = apply_seq(&deep_copy(&base), &ts_b, seed_b);

        assert_bit_identical(&out_a, &want_a, "overlay A");
        assert_bit_identical(&out_b, &want_b, "overlay B");
        assert_bit_identical(&base, &snapshot, "base after both overlays");
    }

    // The typed gather equals the Value round trip on nullable
    // columns of every dtype. Some NULLs are written with `set`,
    // which keeps the old value in the slot: the gather must still
    // emit the canonical placeholder, or fingerprints would drift.
    #[test]
    fn typed_take_matches_the_value_push_reference(
        len in prop::sample::select(vec![1usize, 63, 64, 700, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 9]),
        picks in 0usize..2 * CHUNK_ROWS + 70,
        seed in 0u64..1_000_000,
    ) {
        let mut df = build_frame(len, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let names: Vec<String> = df.columns().iter().map(|c| c.name().to_string()).collect();
        for name in &names {
            let col = df.column_mut(name).expect("own column");
            for _ in 0..len.div_ceil(8) {
                col.set(rng.gen_range(0..len), Value::Null).expect("in range");
            }
        }
        // Runs of repeated rows, drawn from the whole column, so
        // from both sides of each source chunk boundary.
        let mut indices = Vec::with_capacity(picks);
        while indices.len() < picks {
            let row = rng.gen_range(0..len);
            let copies = rng.gen_range(1..4usize).min(picks - indices.len());
            indices.extend(std::iter::repeat_n(row, copies));
        }
        let fast = df.take(&indices).expect("indices in range");
        let reference = DataFrame::from_columns(
            df.columns().iter().map(|c| reference_take(c, &indices)).collect(),
        )
        .expect("reference rebuilds");
        for (a, b) in fast.columns().iter().zip(reference.columns()) {
            prop_assert!(a == b, "column {} differs from the reference", a.name());
            prop_assert_eq!(a.chunks().len(), picks.div_ceil(CHUNK_ROWS));
        }
        prop_assert_eq!(fingerprint(&fast), fingerprint(&reference));

        // `filter` is the same gather over a mask's set bits.
        let mask: Bitmap = (0..len).map(|_| rng.gen_range(0..3usize) != 0).collect();
        let kept: Vec<usize> = mask.ones().collect();
        let filtered = df.filter(&mask).expect("mask fits");
        let reference = DataFrame::from_columns(
            df.columns().iter().map(|c| reference_take(c, &kept)).collect(),
        )
        .expect("reference rebuilds");
        for (a, b) in filtered.columns().iter().zip(reference.columns()) {
            prop_assert!(a == b, "filtered column {} differs from the reference", a.name());
            prop_assert_eq!(a.chunks().len(), kept.len().div_ceil(CHUNK_ROWS));
        }
        prop_assert_eq!(fingerprint(&filtered), fingerprint(&reference));
    }

    // Late-materialized resampling is exact: on random mixed-dtype
    // frames with NULLs, chains mixing over-, under- and identity
    // resamples with column transforms give the same frame (chunk
    // data and validity), fingerprint, changed total and next RNG
    // draw through `apply_composition` as through a step-by-step fold.
    #[test]
    fn composed_resamples_match_the_step_by_step_fold(
        len in prop::sample::select(vec![1usize, 2, 65, 300, CHUNK_ROWS - 3, CHUNK_ROWS + 5]),
        frame_seed in 0u64..1_000_000,
        chain_seed in 0u64..1_000_000,
        rng_seed in 0u64..1_000_000,
    ) {
        let base = build_frame(len, frame_seed);
        let chain = draw_resample_chain(&base, chain_seed);

        let mut fold_rng = StdRng::seed_from_u64(rng_seed);
        let mut fold = base.clone();
        let mut fold_total = 0;
        for t in &chain {
            let (next, changed) = t.apply(&fold, &mut fold_rng).expect("transform applies");
            fold = next;
            fold_total += changed;
        }

        let pvts: Vec<Pvt> = chain
            .iter()
            .enumerate()
            .map(|(id, transform)| Pvt {
                id,
                profile: Profile::Missing { attr: "num".into(), theta: 0.0 },
                transform: transform.clone(),
            })
            .collect();
        let refs: Vec<&Pvt> = pvts.iter().collect();
        let mut comp_rng = StdRng::seed_from_u64(rng_seed);
        let (comp, comp_total) =
            apply_composition(&refs, &base, &mut comp_rng).expect("composition applies");

        prop_assert_eq!(comp.n_rows(), fold.n_rows());
        for (a, b) in comp.columns().iter().zip(fold.columns()) {
            prop_assert!(a == b, "column {} differs from the fold", a.name());
        }
        prop_assert_eq!(fingerprint(&comp), fingerprint(&fold));
        prop_assert_eq!(comp_total, fold_total);
        prop_assert_eq!(comp_rng.gen::<u64>(), fold_rng.gen::<u64>());
    }
}

/// A chain of 1–8 transforms, about two thirds of them resamples.
/// Targets cover over-sampling (θ above the selectivity),
/// under-sampling (θ below it) and the identity cases: θ ≥ 1, a
/// predicate no row matches, and θ equal to the selectivity (exactly,
/// for a step that opens the chain). Column transforms, stochastic
/// ones included, sit between the resamples.
fn draw_resample_chain(base: &DataFrame, seed: u64) -> Vec<Transform> {
    let mut rng = StdRng::seed_from_u64(seed);
    let predicates = [
        Predicate::cmp("cat", CmpOp::Eq, "x"),
        Predicate::cmp("num", CmpOp::Gt, 0.0),
        Predicate::IsNull("txt".into()),
        Predicate::cmp("cat2", CmpOp::Eq, "y").and(Predicate::cmp("flag", CmpOp::Eq, true)),
        Predicate::cmp("cat", CmpOp::Eq, "no-such-value"),
        Predicate::True,
    ];
    let thetas = [0.0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0, 1.5];
    let column_transforms = [
        Transform::Winsorize {
            attr: "num".into(),
            lb: -25.0,
            ub: 25.0,
        },
        Transform::Impute {
            attr: "cat".into(),
            strategy: ImputeStrategy::Mode,
        },
        Transform::Impute {
            attr: "count".into(),
            strategy: ImputeStrategy::Central,
        },
        // `num` correlates perfectly with itself, so this always
        // draws noise from the RNG.
        Transform::DecorrelateNoise {
            a: "num".into(),
            b: "num".into(),
            alpha: 0.5,
        },
        Transform::MapToDomain {
            attr: "cat2".into(),
            values: ["x", "y"].iter().map(|s| s.to_string()).collect(),
        },
    ];
    let mut chain = Vec::new();
    if rng.gen_range(0..3usize) == 0 {
        let predicate = predicates[rng.gen_range(0..predicates.len())].clone();
        let theta = base.selectivity(&predicate).expect("predicate evaluates");
        chain.push(Transform::ResampleSelectivity { predicate, theta });
    }
    for _ in 0..rng.gen_range(1..=8usize) {
        chain.push(if rng.gen_range(0..3usize) == 0 {
            column_transforms[rng.gen_range(0..column_transforms.len())].clone()
        } else {
            Transform::ResampleSelectivity {
                predicate: predicates[rng.gen_range(0..predicates.len())].clone(),
                theta: thetas[rng.gen_range(0..thetas.len())],
            }
        });
    }
    chain
}

/// Columns a transform does not target keep sharing chunks with the
/// input frame — the memory guarantee that makes speculative
/// interventions cheap — while the eager oracle shares none.
#[test]
fn untouched_columns_keep_sharing_chunks() {
    let base = build_frame(300, 7);
    let t = Transform::Winsorize {
        attr: "num".into(),
        lb: -10.0,
        ub: 10.0,
    };
    let mut rng = StdRng::seed_from_u64(1);
    let (out, changed) = t.apply(&base, &mut rng).expect("winsorize applies");
    assert!(changed > 0, "fixture must actually write");
    for name in ["count", "flag", "cat", "cat2", "txt"] {
        assert!(
            shares_any_chunk(base.column(name).unwrap(), out.column(name).unwrap()),
            "untouched column {name} should still share chunks"
        );
    }
    assert!(
        !shares_any_chunk(base.column("num").unwrap(), out.column("num").unwrap()),
        "written column must have been copied before mutation"
    );
    assert_bit_identical(&out, &apply_seq(&deep_copy(&base), &[t], 1), "cow vs eager");
}

/// Exact chunk-capacity and bitmap-word boundary lengths, pushed
/// through a fixed composition that exercises every write path
/// (masked write, null flip, full-row resample).
#[test]
fn chunk_boundary_lengths_roundtrip() {
    let ts = vec![
        Transform::Winsorize {
            attr: "num".into(),
            lb: -20.0,
            ub: 20.0,
        },
        Transform::Impute {
            attr: "num".into(),
            strategy: ImputeStrategy::Central,
        },
        Transform::ResampleSelectivity {
            predicate: Predicate::cmp("cat", CmpOp::Eq, "x"),
            theta: 0.5,
        },
    ];
    for len in [
        CHUNK_ROWS - 1,
        CHUNK_ROWS,
        CHUNK_ROWS + 1,
        CHUNK_ROWS + 63,
        CHUNK_ROWS + 64,
        2 * CHUNK_ROWS,
        2 * CHUNK_ROWS + 1,
    ] {
        let base = build_frame(len, len as u64);
        let snapshot = deep_copy(&base);
        let alias = base.clone();
        let cow_out = apply_seq(&base, &ts, 11);
        let eager_out = apply_seq(&deep_copy(&base), &ts, 11);
        assert_bit_identical(&cow_out, &eager_out, &format!("len {len}"));
        assert_same_contingency(&cow_out, &eager_out, &format!("len {len}"));
        assert_bit_identical(&base, &snapshot, &format!("base at len {len}"));
        drop(alias);
    }
}

/// Imputation flips validity bits in place; the CoW path must
/// produce word-identical bitmaps to the eager path, and deep copies
/// must reproduce validity exactly.
#[test]
fn validity_bitmaps_survive_imputation_and_deep_copy() {
    let base = build_frame(CHUNK_ROWS + 100, 23);
    let copy = deep_copy(&base);
    for (ca, cb) in base.columns().iter().zip(copy.columns()) {
        assert_eq!(ca.validity_mask(), cb.validity_mask(), "{}", ca.name());
    }
    let ts = vec![
        Transform::Impute {
            attr: "num".into(),
            strategy: ImputeStrategy::Central,
        },
        Transform::Impute {
            attr: "cat".into(),
            strategy: ImputeStrategy::Mode,
        },
    ];
    let cow_out = apply_seq(&base, &ts, 3);
    let eager_out = apply_seq(&copy, &ts, 3);
    assert_eq!(cow_out.column("num").unwrap().null_count(), 0);
    assert_eq!(cow_out.column("cat").unwrap().null_count(), 0);
    assert_bit_identical(&cow_out, &eager_out, "post-impute");
}
