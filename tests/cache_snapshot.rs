//! Property tests for the cache snapshot codec.
//!
//! The snapshot format (`dp-score-cache v1`, then one
//! `<fingerprint> <score-bits>` decimal pair per line) must be
//! *exact*: save → load reproduces every entry bit for bit, for any
//! u64 fingerprint and any f64 bit pattern — including negative
//! zero, infinities, subnormals, and NaNs with arbitrary payloads
//! (a hand-edited NaN must survive the round trip unchanged, even
//! though the oracle itself never caches one).

use dataprism::ScoreCache;
use proptest::prelude::*;

/// Canonical view of a cache for NaN-safe comparison: sorted
/// `(fingerprint, score_bits)` pairs.
fn canon(cache: &ScoreCache) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = cache.iter().map(|(fp, s)| (fp, s.to_bits())).collect();
    v.sort_unstable();
    v
}

fn build(entries: &[(u64, u64)]) -> ScoreCache {
    let mut cache = ScoreCache::new();
    for &(fp, bits) in entries {
        cache.insert(fp, f64::from_bits(bits));
    }
    cache
}

proptest! {
    #[test]
    fn snapshot_save_load_round_trips_exactly(
        entries in prop::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 0..48)
    ) {
        let cache = build(&entries);
        let text = cache.to_snapshot();
        let reloaded = ScoreCache::from_snapshot(&text).expect("own snapshot must load");
        prop_assert_eq!(canon(&cache), canon(&reloaded));
        // The codec is also canonical: re-encoding the reload gives
        // byte-identical text (entries are sorted by fingerprint).
        prop_assert_eq!(text, reloaded.to_snapshot());
    }

    #[test]
    fn snapshot_lines_are_raw_decimal_digit_pairs(
        entries in prop::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 1..16)
    ) {
        // The encoding promise tests and humans rely on: after the
        // header, every line is exactly two base-10 u64s. No floats,
        // no hex, no locale surprises.
        let text = build(&entries).to_snapshot();
        let mut lines = text.lines();
        prop_assert_eq!(lines.next(), Some("dp-score-cache v1"));
        let mut prev_fp = None;
        for line in lines {
            let mut parts = line.split(' ');
            let fp: u64 = parts.next().unwrap().parse().expect("fingerprint digits");
            let _bits: u64 = parts.next().unwrap().parse().expect("score-bit digits");
            prop_assert!(parts.next().is_none(), "exactly two fields per line");
            prop_assert!(prev_fp < Some(fp), "sorted strictly by fingerprint");
            prev_fp = Some(fp);
        }
    }
}

#[test]
fn empty_cache_round_trips() {
    let cache = ScoreCache::new();
    let text = cache.to_snapshot();
    let reloaded = ScoreCache::from_snapshot(&text).unwrap();
    assert!(reloaded.is_empty());
    assert_eq!(text, reloaded.to_snapshot());
}

#[test]
fn single_entry_round_trips_for_awkward_bit_patterns() {
    for bits in [
        0u64,                // +0.0
        (-0.0f64).to_bits(), // -0.0 (distinct bits!)
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        f64::NAN.to_bits(),
        f64::NAN.to_bits() | 0xdead, // NaN with payload
        f64::MIN_POSITIVE.to_bits(),
        1, // smallest subnormal
        (0.1f64 + 0.2).to_bits(),
        u64::MAX,
    ] {
        let mut cache = ScoreCache::new();
        cache.insert(u64::MAX, f64::from_bits(bits));
        let reloaded = ScoreCache::from_snapshot(&cache.to_snapshot()).unwrap();
        assert_eq!(reloaded.len(), 1);
        assert_eq!(
            reloaded.get(u64::MAX).unwrap().to_bits(),
            bits,
            "bit pattern {bits:#018x} must survive"
        );
    }
}

#[test]
fn corrupt_snapshots_are_rejected_with_line_numbers() {
    for (text, bad_line) in [
        ("", 1),                               // no header
        ("dp-score-cache v2\n", 1),            // future version
        ("dp-score-cache v1\n1 2 3\n", 2),     // three fields
        ("dp-score-cache v1\n1\n", 2),         // one field
        ("dp-score-cache v1\nx 2\n", 2),       // non-decimal fp
        ("dp-score-cache v1\n1 2\n1 -3\n", 3), // negative bits
    ] {
        let err = ScoreCache::from_snapshot(text).expect_err(text);
        assert_eq!(err.line, bad_line, "{text:?}: {err}");
    }
}

/// A fixed two-chunk frame: string columns with NULLs on both sides
/// of the chunk boundary, one NULL written over a value (its slot
/// keeps the stale string), plus an `Int` and a `Float` column.
fn two_chunk_frame() -> dp_frame::DataFrame {
    use dp_frame::{Column, DType, DataFrame, Value, CHUNK_ROWS};
    let n = CHUNK_ROWS + 37;
    let cats = ["alpha", "beta", "gamma", ""];
    let cat: Vec<Option<String>> = (0..n)
        .map(|i| (i % 7 != 3).then(|| cats[i % cats.len()].to_string()))
        .collect();
    let txt: Vec<Option<String>> = (0..n)
        .map(|i| (i % 11 != 0).then(|| format!("t{}-é", (i * 31) % 1000)))
        .collect();
    let ints: Vec<Option<i64>> = (0..n)
        .map(|i| (i % 13 != 5).then_some(i as i64 - 2000))
        .collect();
    let floats: Vec<Option<f64>> = (0..n)
        .map(|i| (i % 17 != 8).then_some(i as f64 * 0.25 - 7.5))
        .collect();
    let mut df = DataFrame::from_columns(vec![
        Column::from_strings("cat", DType::Categorical, cat),
        Column::from_strings("txt", DType::Text, txt),
        Column::from_ints("int", ints),
        Column::from_floats("float", floats),
    ])
    .expect("frame builds");
    df.column_mut("txt")
        .unwrap()
        .set(CHUNK_ROWS + 1, Value::Null)
        .unwrap();
    df
}

/// Snapshot entries are keyed by frame fingerprints, so a snapshot
/// written by an earlier build hits only while the fingerprint of
/// the same frame stays put. The value is pinned from the build whose
/// string cells were `String`s.
#[test]
fn fingerprint_of_a_fixed_two_chunk_frame_is_pinned() {
    let df = two_chunk_frame();
    assert_eq!(df.column("cat").unwrap().chunks().len(), 2);
    assert_eq!(dataprism::fingerprint(&df), 2808021691369133056);
    assert_eq!(dataprism::fingerprint_reference(&df), 2353892027729165997);
}
