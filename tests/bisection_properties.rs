//! Property-based tests (proptest) for the bisection primitives
//! behind group testing — `min_bisection`, `random_bisection`, and
//! the derived per-node RNG streams:
//!
//! - both bisections return a true partition (disjoint, covering);
//! - halves are balanced within one element;
//! - a fixed seed reproduces the split exactly;
//! - the incremental-gain local search returns exactly the split of
//!   the rebuild-and-recount reference, on multigraphs with
//!   self-loops and foreign ids;
//! - local-search min-bisection never cuts more edges than the random
//!   balanced split it starts from;
//! - derived streams canonicalize the candidate id order, so the same
//!   candidate *set* always draws the same randomness.

use dataprism::bisection::{
    min_bisection, partition_rng, random_bisection, stream_seed, APPLY_STREAM, PARTITION_STREAM,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn cut_size(l: &[usize], r: &[usize], edges: &[(usize, usize)]) -> usize {
    let ls: BTreeSet<usize> = l.iter().copied().collect();
    let rs: BTreeSet<usize> = r.iter().copied().collect();
    edges
        .iter()
        .filter(|(a, b)| (ls.contains(a) && rs.contains(b)) || (rs.contains(a) && ls.contains(b)))
        .count()
}

fn assert_balanced_partition(
    items: &[usize],
    l: &[usize],
    r: &[usize],
) -> Result<(), proptest::TestCaseError> {
    let mut all: Vec<usize> = l.iter().chain(r.iter()).copied().collect();
    all.sort_unstable();
    let mut expect = items.to_vec();
    expect.sort_unstable();
    prop_assert_eq!(all, expect, "halves must partition the items exactly");
    prop_assert!(
        l.len().abs_diff(r.len()) <= 1,
        "halves must balance within one element ({} vs {})",
        l.len(),
        r.len()
    );
    Ok(())
}

/// Algorithm 4 as first written: rebuild both halves as sets and
/// recount every edge for each trial swap. Kept as the reference the
/// incremental-gain [`min_bisection`] must reproduce exactly.
fn reference_min_bisection(
    items: &[usize],
    edges: &[(usize, usize)],
    rng: &mut StdRng,
) -> (Vec<usize>, Vec<usize>) {
    let n = items.len();
    if n <= 1 {
        return (items.to_vec(), Vec::new());
    }
    let mut shuffled = items.to_vec();
    shuffled.shuffle(rng);
    let half = n.div_ceil(2);
    let mut left: Vec<usize> = shuffled[..half].to_vec();
    let mut right: Vec<usize> = shuffled[half..].to_vec();
    let mut current = cut_size(&left, &right, edges);
    loop {
        let mut improved = false;
        'search: for i in 0..left.len() {
            for j in 0..right.len() {
                std::mem::swap(&mut left[i], &mut right[j]);
                let candidate = cut_size(&left, &right, edges);
                if candidate < current {
                    current = candidate;
                    improved = true;
                    break 'search;
                }
                std::mem::swap(&mut left[i], &mut right[j]);
            }
        }
        if !improved {
            break;
        }
    }
    (left, right)
}

/// Item sets of up to 64 non-contiguous ids (so id value ≠ index)
/// plus a random dependency-edge multiset over them. Edges may repeat
/// (multiplicity 1–2), may be self-loops, and may name ids that are
/// not among the items.
fn graph() -> impl Strategy<Value = (Vec<usize>, Vec<(usize, usize)>)> {
    (2usize..65)
        .prop_flat_map(|n| {
            (
                Just((0..n).map(|i| i * 3 + 7).collect::<Vec<usize>>()),
                prop::collection::vec((0usize..n + 4, 0usize..n + 4, 1usize..3), 0..2 * n),
            )
        })
        .prop_map(|(items, index_pairs)| {
            // Indices past the item list map to foreign ids (≡ 2 mod 3,
            // never an item id).
            let id = |k: usize| items.get(k).copied().unwrap_or(k * 3 + 8);
            let edges: Vec<(usize, usize)> = index_pairs
                .into_iter()
                .flat_map(|(a, b, copies)| std::iter::repeat_n((id(a), id(b)), copies))
                .collect();
            (items, edges)
        })
}

proptest! {
    #[test]
    fn bisections_return_balanced_exact_partitions(
        graph in graph(),
        seed in 0u64..1_000,
    ) {
        let (items, edges) = graph;
        let (l, r) = min_bisection(&items, &edges, &mut StdRng::seed_from_u64(seed));
        assert_balanced_partition(&items, &l, &r)?;
        let (l, r) = random_bisection(&items, &mut StdRng::seed_from_u64(seed));
        assert_balanced_partition(&items, &l, &r)?;
    }

    #[test]
    fn fixed_seed_reproduces_the_split(
        graph in graph(),
        seed in 0u64..1_000,
    ) {
        let (items, edges) = graph;
        let a = min_bisection(&items, &edges, &mut StdRng::seed_from_u64(seed));
        let b = min_bisection(&items, &edges, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(a, b, "min_bisection must be deterministic for a fixed seed");
        let a = random_bisection(&items, &mut StdRng::seed_from_u64(seed));
        let b = random_bisection(&items, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(a, b, "random_bisection must be deterministic for a fixed seed");
    }

    #[test]
    fn incremental_gain_matches_the_recounting_reference(
        graph in graph(),
        seed in 0u64..1_000,
    ) {
        let (items, edges) = graph;
        let fast = min_bisection(&items, &edges, &mut StdRng::seed_from_u64(seed));
        let reference = reference_min_bisection(&items, &edges, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(fast, reference, "incremental gains must replay Algorithm 4 exactly");
    }

    #[test]
    fn local_search_never_cuts_more_than_the_random_split(
        graph in graph(),
        seed in 0u64..1_000,
    ) {
        let (items, edges) = graph;
        // Seeded identically, min_bisection starts from exactly the
        // split random_bisection returns and only ever improves it.
        let (ml, mr) = min_bisection(&items, &edges, &mut StdRng::seed_from_u64(seed));
        let (rl, rr) = random_bisection(&items, &mut StdRng::seed_from_u64(seed));
        prop_assert!(
            cut_size(&ml, &mr, &edges) <= cut_size(&rl, &rr, &edges),
            "local search returned a worse cut than its starting split"
        );
    }

    #[test]
    fn derived_streams_canonicalize_id_order(
        graph in graph(),
        seed in 0u64..1_000,
        rotation in 0usize..24,
    ) {
        let (items, _) = graph;
        // The partition stream is a function of the candidate *set*:
        // any permutation of the ids draws identical randomness.
        let mut permuted = items.clone();
        permuted.reverse();
        let rot = rotation % permuted.len();
        permuted.rotate_left(rot);
        let a: u64 = partition_rng(seed, &items).gen();
        let b: u64 = partition_rng(seed, &permuted).gen();
        prop_assert_eq!(a, b);
        // Distinct stream tags decorrelate: the partition draw for a
        // node never reuses the application draw of the same node.
        let mut sorted = items.clone();
        sorted.sort_unstable();
        prop_assert!(
            stream_seed(seed, PARTITION_STREAM, &sorted)
                != stream_seed(seed, APPLY_STREAM, &sorted)
        );
        // And the stream depends on the id set, not just the seed.
        let mut grown = sorted.clone();
        grown.push(sorted.last().unwrap() + 1);
        prop_assert!(
            stream_seed(seed, PARTITION_STREAM, &sorted)
                != stream_seed(seed, PARTITION_STREAM, &grown)
        );
    }
}
