//! Algorithm 4 (appendix A) — local-search minimum bisection of the
//! PVT-dependency graph.
//!
//! Group testing wants both partitions to keep dependent PVTs (those
//! sharing attributes) together, so that discarding a useless
//! partition prunes whole attribute neighborhoods at once. Minimum
//! bisection is NP-hard; the paper uses the classic local-search
//! heuristic: start from a random balanced split, then swap PVT pairs
//! across the cut while the number of cut edges decreases.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// Derive the seed of one of the documented per-node RNG streams of
/// the group-testing recursion: a SplitMix64-style mix of the run
/// seed ([`crate::PrismConfig::seed`]), a stream tag, and the
/// canonical (sorted) id set identifying the node. The mix is fully
/// specified here — no `std` hasher — so derived streams are stable
/// across runs, platforms, and toolchains.
///
/// Making every partition and every composed application a *pure
/// function* of `(seed, ids)` — instead of consuming one global
/// sequential stream — is what lets the parallel runtime speculate
/// arbitrary descendants of the recursion tree: any future node's
/// candidate frame can be materialized on a worker thread without
/// replaying the serial history, and the serial replay derives the
/// exact same stream when it arrives. It also makes `GrpTest`
/// baseline partitions reproducible across thread counts and
/// intervention histories.
pub fn stream_seed(seed: u64, tag: u64, ids: &[usize]) -> u64 {
    let mut acc = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for &id in ids {
        let mut z = acc
            .wrapping_add(id as u64)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc = z ^ (z >> 31);
    }
    acc
}

/// Stream tag for partitioning draws (bisection shuffles and local
/// search) — see [`stream_seed`].
pub const PARTITION_STREAM: u64 = 0x50_41_52_54; // "PART"

/// Stream tag for transformation-application draws (composed
/// transforms consuming randomness) — see [`stream_seed`].
pub const APPLY_STREAM: u64 = 0x41_50_50_4C; // "APPL"

/// The RNG for partitioning the candidate set `ids`: seeded from the
/// documented [`PARTITION_STREAM`] over the canonicalized id set, so
/// the same candidates always partition the same way for a given run
/// seed — regardless of thread count, speculation depth, or how many
/// interventions preceded the call.
pub fn partition_rng(seed: u64, ids: &[usize]) -> StdRng {
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    StdRng::seed_from_u64(stream_seed(seed, PARTITION_STREAM, &sorted))
}

/// Partition `items` into two halves whose sizes differ by at most
/// one, minimizing (locally) the number of `edges` crossing the cut.
///
/// `items` are distinct ids. `edges` are unordered pairs of ids: a
/// pair listed k times weighs k, self-loops never cross the cut, and
/// pairs naming an id outside `items` are ignored. Items appearing in
/// no edge are free movers the search places wherever balance
/// requires.
///
/// This is Algorithm 4's local search — start from a shuffled
/// balanced split, scan swaps `left[i] ↔ right[j]` with `i` outer and
/// `j` inner, accept the first swap that strictly shrinks the cut,
/// and restart the scan from `(0, 0)` — with the cut kept
/// incrementally instead of recounted per trial. Every item `p`
/// carries `D[p]` = (edge weight to the other half) − (edge weight to
/// its own half), and swapping `u` and `v` shrinks the cut by exactly
/// `D[u] + D[v] − 2·w(u, v)`. Costs:
///
/// - setup: O(n² + |edges|) for the dense n × n weight matrix (callers
///   bound n — group testing runs local search on at most 64
///   candidates);
/// - a trial swap: O(1), one gain lookup;
/// - an accepted swap: O(deg u + deg v), updating `D` of the swapped
///   pair and their neighbours.
///
/// A trial is accepted iff its gain is positive, which is exactly
/// when the recounted cut would be strictly smaller; since the scan
/// order, the acceptance rule and the restart rule are Algorithm 4's,
/// the returned `(left, right)` equals what rebuilding and recounting
/// the cut for every trial returns, element for element.
pub fn min_bisection(
    items: &[usize],
    edges: &[(usize, usize)],
    rng: &mut StdRng,
) -> (Vec<usize>, Vec<usize>) {
    let n = items.len();
    if n <= 1 {
        return (items.to_vec(), Vec::new());
    }
    // Line 1: random balanced initialization. Shuffling positions
    // draws exactly what shuffling the ids would.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let half = n.div_ceil(2);
    let mut right = order.split_off(half);
    let mut left = order;

    // Edge multiplicities between item positions, plus adjacency.
    let pos: HashMap<usize, usize> = items.iter().enumerate().map(|(p, &id)| (id, p)).collect();
    let mut weight = vec![0i64; n * n];
    let mut adjacent: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, b) in edges {
        let (Some(&p), Some(&q)) = (pos.get(a), pos.get(b)) else {
            continue;
        };
        if p == q {
            continue;
        }
        if weight[p * n + q] == 0 {
            adjacent[p].push(q);
            adjacent[q].push(p);
        }
        weight[p * n + q] += 1;
        weight[q * n + p] += 1;
    }
    let mut on_left = vec![false; n];
    for &p in &left {
        on_left[p] = true;
    }
    let mut gain: Vec<i64> = (0..n)
        .map(|p| {
            adjacent[p]
                .iter()
                .map(|&q| {
                    let w = weight[p * n + q];
                    if on_left[p] == on_left[q] {
                        -w
                    } else {
                        w
                    }
                })
                .sum()
        })
        .collect();

    // Lines 2–14: swap pairs while the cut shrinks.
    'pass: loop {
        for slot_u in left.iter_mut() {
            for slot_v in right.iter_mut() {
                let (u, v) = (*slot_u, *slot_v);
                let w_uv = weight[u * n + v];
                if gain[u] + gain[v] - 2 * w_uv <= 0 {
                    continue;
                }
                *slot_u = v;
                *slot_v = u;
                on_left[u] = false;
                on_left[v] = true;
                for moved in [u, v] {
                    for &x in &adjacent[moved] {
                        if x != u && x != v {
                            let w = 2 * weight[moved * n + x];
                            gain[x] += if on_left[x] == on_left[moved] { -w } else { w };
                        }
                    }
                }
                gain[u] = 2 * w_uv - gain[u];
                gain[v] = 2 * w_uv - gain[v];
                continue 'pass;
            }
        }
        break;
    }
    (
        left.into_iter().map(|p| items[p]).collect(),
        right.into_iter().map(|p| items[p]).collect(),
    )
}

/// Random balanced bisection — the partitioning used by the `GrpTest`
/// baseline (traditional adaptive group testing, \[21\]).
pub fn random_bisection(items: &[usize], rng: &mut StdRng) -> (Vec<usize>, Vec<usize>) {
    let mut shuffled = items.to_vec();
    shuffled.shuffle(rng);
    let half = shuffled.len().div_ceil(2);
    let right = shuffled.split_off(half);
    (shuffled, right)
}

/// Number of dependency edges crossing a bisection — the objective
/// [`min_bisection`] minimizes, re-derived from the graph's edge
/// predicate. Quadratic in the half sizes; used to annotate
/// [`dp_trace::Event::BisectionPartition`] events, so it only runs
/// when a trace sink is attached.
pub fn cut_size(
    left: &[usize],
    right: &[usize],
    dependent: impl Fn(usize, usize) -> bool,
) -> usize {
    left.iter()
        .map(|&i| right.iter().filter(|&&j| dependent(i, j)).count())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    fn cut_size(l: &[usize], r: &[usize], edges: &[(usize, usize)]) -> usize {
        let ls: BTreeSet<usize> = l.iter().copied().collect();
        let rs: BTreeSet<usize> = r.iter().copied().collect();
        edges
            .iter()
            .filter(|(a, b)| {
                (ls.contains(a) && rs.contains(b)) || (rs.contains(a) && ls.contains(b))
            })
            .count()
    }

    #[test]
    fn perfect_split_of_two_cliques() {
        // Two 4-cliques with no inter-clique edges: the optimum cut
        // is 0, and local search must find it.
        let items: Vec<usize> = (0..8).collect();
        let mut edges = Vec::new();
        for group in [[0, 1, 2, 3], [4, 5, 6, 7]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((group[i], group[j]));
                }
            }
        }
        let mut r = rng();
        let (l, rp) = min_bisection(&items, &edges, &mut r);
        assert_eq!(l.len(), 4);
        assert_eq!(rp.len(), 4);
        assert_eq!(cut_size(&l, &rp, &edges), 0, "{l:?} | {rp:?}");
    }

    #[test]
    fn paper_fig6_pair_structure() {
        // Fig 6(a): pairs (X1,X4), (X2,X3), (X5,X7), (X6,X8) are
        // dependent. Min bisection must never split a pair.
        let items: Vec<usize> = (1..=8).collect();
        let edges = vec![(1, 4), (2, 3), (5, 7), (6, 8)];
        let mut r = rng();
        let (l, rp) = min_bisection(&items, &edges, &mut r);
        assert_eq!(cut_size(&l, &rp, &edges), 0);
        for (a, b) in &edges {
            let same = (l.contains(a) && l.contains(b)) || (rp.contains(a) && rp.contains(b));
            assert!(same, "pair ({a},{b}) split across {l:?} | {rp:?}");
        }
    }

    #[test]
    fn balanced_sizes_odd_count() {
        let items: Vec<usize> = (0..7).collect();
        let mut r = rng();
        let (l, rp) = min_bisection(&items, &[], &mut r);
        assert_eq!(l.len(), 4);
        assert_eq!(rp.len(), 3);
        let mut all: Vec<usize> = l.iter().chain(rp.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, items);
    }

    #[test]
    fn random_bisection_is_balanced_partition() {
        let items: Vec<usize> = (0..9).collect();
        let mut r = rng();
        let (l, rp) = random_bisection(&items, &mut r);
        assert_eq!(l.len(), 5);
        assert_eq!(rp.len(), 4);
        let mut all: Vec<usize> = l.iter().chain(rp.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, items);
    }

    #[test]
    fn degenerate_inputs() {
        let mut r = rng();
        let (l, rp) = min_bisection(&[], &[], &mut r);
        assert!(l.is_empty() && rp.is_empty());
        let (l, rp) = min_bisection(&[42], &[], &mut r);
        assert_eq!(l, vec![42]);
        assert!(rp.is_empty());
    }
}
