//! Random graph families (Erdős–Rényi, random regular), fully seeded.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, Node};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Erdős–Rényi `G(n, p)`: each of the `C(n,2)` pairs is an edge
/// independently with probability `p`. For `p ≥ c·ln n / n` the graph is
/// connected w.h.p. and λ concentrates at δ.
///
/// Sampling uses the skip-geometric method (`O(m)` expected work) rather
/// than testing all pairs, so large sparse graphs are cheap.
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p));
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    if p > 0.0 && n >= 2 {
        if p >= 1.0 {
            for u in 0..n as Node {
                for v in (u + 1)..n as Node {
                    b.push_edge(u, v);
                }
            }
        } else {
            // Iterate pair index space [0, C(n,2)) with geometric skips.
            let total = n * (n - 1) / 2;
            let log1mp = (1.0 - p).ln();
            let mut idx: usize = 0;
            loop {
                // Geometric(p) skip: floor(ln U / ln(1-p)).
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let skip = (u.ln() / log1mp).floor() as usize;
                idx = match idx.checked_add(skip) {
                    Some(i) => i,
                    None => break,
                };
                if idx >= total {
                    break;
                }
                let (a, bb) = pair_from_index(n, idx);
                b.push_edge(a, bb);
                idx += 1;
            }
        }
    }
    b.build().expect("gnp generates distinct pairs")
}

/// Map a linear index in `[0, C(n,2))` to the pair `(u, v)`, `u < v`, in
/// lexicographic order.
fn pair_from_index(n: usize, idx: usize) -> (Node, Node) {
    // Row u starts at offset u*n - u*(u+1)/2 - u ... solve by scan-free math:
    // offset(u) = u*(2n - u - 1)/2. Binary search u.
    let mut lo = 0usize;
    let mut hi = n - 1;
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        let off = mid * (2 * n - mid - 1) / 2;
        if off <= idx {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let u = lo;
    let off = u * (2 * n - u - 1) / 2;
    let v = u + 1 + (idx - off);
    (u as Node, v as Node)
}

/// `G(n, p)` conditioned on connectivity: resamples (bumping the seed) until
/// connected. Panics after 64 attempts — p is below the connectivity
/// threshold, pick a larger p.
pub fn gnp_connected(n: usize, p: f64, seed: u64) -> Graph {
    try_gnp_connected(n, p, seed).unwrap_or_else(|| {
        panic!("gnp_connected: no connected sample in 64 attempts (n={n}, p={p}); p too small")
    })
}

/// [`gnp_connected`] for a `p` that came from outside: `None` where that
/// one panics.
pub fn try_gnp_connected(n: usize, p: f64, seed: u64) -> Option<Graph> {
    (0..64)
        .map(|attempt| gnp(n, p, seed.wrapping_add(attempt)))
        .find(crate::algo::components::is_connected)
}

/// Random `d`-regular graph via the configuration model with **swap
/// repair**: pair up `n·d` half-edges uniformly, then eliminate self-loops
/// and parallel edges by degree-preserving double-edge swaps against
/// uniformly random partners. Full restarts would need ~e^{d²/4} attempts;
/// repair converges in O(bad edges) expected swaps. `n·d` must be even.
///
/// Random regular graphs are expanders w.h.p., so δ = λ = d w.h.p. —
/// verified by the max-flow ground truth in tests.
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    try_random_regular(n, d, seed)
        .unwrap_or_else(|| panic!("random_regular: repair failed after 32 restarts (n={n}, d={d})"))
}

/// [`random_regular`] for an `(n, d)` that came from outside: `None` where
/// the repair gives up (near-complete degrees, where almost no swap stays
/// simple) and that one panics. The preconditions are still asserted.
pub fn try_random_regular(n: usize, d: usize, seed: u64) -> Option<Graph> {
    assert!(d < n, "d must be < n");
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = n * d / 2;
    'attempt: for _ in 0..32 {
        // Random perfect matching of stubs: shuffle, pair consecutive.
        let mut stubs: Vec<Node> = (0..n as Node)
            .flat_map(|v| std::iter::repeat_n(v, d))
            .collect();
        for i in (1..stubs.len()).rev() {
            let j = rng.gen_range(0..=i);
            stubs.swap(i, j);
        }
        let canon = |a: Node, b: Node| if a < b { (a, b) } else { (b, a) };
        let mut edges: Vec<(Node, Node)> = (0..m)
            .map(|i| canon(stubs[2 * i], stubs[2 * i + 1]))
            .collect();
        // Classify: the first occurrence of each simple edge is good; loops
        // and repeats are bad and go on the repair stack.
        let mut good = EdgeSet::with_capacity_and_hasher(m, Default::default());
        let mut bad: Vec<usize> = Vec::new();
        for (i, &(a, b)) in edges.iter().enumerate() {
            if a == b || !good.insert((a, b)) {
                bad.push(i);
            }
        }
        // Repair: swap a bad edge (a,b) with a random good edge (c,d) into
        // (a,c), (b,d) when that stays simple. Each success fixes one bad
        // edge without creating new ones.
        let mut budget = 200 * m + 10_000;
        while let Some(&i) = bad.last() {
            if budget == 0 {
                continue 'attempt;
            }
            budget -= 1;
            let (a, b) = edges[i];
            let j = rng.gen_range(0..m);
            if j == i || bad.contains(&j) {
                continue;
            }
            let (c, d) = edges[j];
            // Try both swap orientations.
            let candidates = [[canon2(a, c), canon2(b, d)], [canon2(a, d), canon2(b, c)]];
            let mut applied = false;
            for cand in candidates {
                let [e1, e2] = cand;
                let (e1, e2) = match (e1, e2) {
                    (Some(x), Some(y)) if x != y => (x, y),
                    _ => continue,
                };
                if good.contains(&e1) || good.contains(&e2) {
                    continue;
                }
                good.remove(&(c, d));
                good.insert(e1);
                good.insert(e2);
                edges[i] = e1;
                edges[j] = e2;
                bad.pop();
                applied = true;
                break;
            }
            let _ = applied;
        }
        return Some(
            GraphBuilder::new(n)
                .edges(edges)
                .build()
                .expect("repaired configuration model output is simple"),
        );
    }
    None
}

/// The repair's set of simple edges. It is only probed, never iterated,
/// so its hasher cannot change the graph; a multiply-shift over the packed
/// pair replaces SipHash, whose keyed rounds cost more than the probe.
type EdgeSet = HashSet<(Node, Node), BuildHasherDefault<EdgeHasher>>;

/// Packs the two `u32` endpoints an edge hashes as into one word, and
/// spreads it with one multiply at `finish`.
#[derive(Default)]
struct EdgeHasher(u64);

impl Hasher for EdgeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0 << 8 | b as u64;
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.0 = self.0 << 32 | x as u64;
    }

    fn finish(&self) -> u64 {
        let z = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^ z >> 32
    }
}

/// Canonical edge unless it would be a self-loop.
#[inline]
fn canon2(a: Node, b: Node) -> Option<(Node, Node)> {
    match a.cmp(&b) {
        std::cmp::Ordering::Less => Some((a, b)),
        std::cmp::Ordering::Equal => None,
        std::cmp::Ordering::Greater => Some((b, a)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::components::is_connected;
    use crate::algo::connectivity::edge_connectivity;

    #[test]
    fn gnp_dense_is_connected_with_expected_density() {
        let g = gnp(100, 0.2, 42);
        let expected = 0.2 * (100.0 * 99.0 / 2.0);
        let got = g.m() as f64;
        assert!(
            (got - expected).abs() < 0.25 * expected,
            "m = {got}, expected ≈ {expected}"
        );
        assert!(is_connected(&g));
    }

    #[test]
    fn gnp_zero_and_one() {
        assert_eq!(gnp(10, 0.0, 1).m(), 0);
        assert_eq!(gnp(10, 1.0, 1).m(), 45);
    }

    #[test]
    fn gnp_deterministic_in_seed() {
        let g1 = gnp(50, 0.1, 7);
        let g2 = gnp(50, 0.1, 7);
        let g3 = gnp(50, 0.1, 8);
        assert_eq!(g1, g2);
        assert_ne!(g1, g3);
    }

    #[test]
    fn pair_index_roundtrip() {
        let n = 9;
        let mut idx = 0;
        for u in 0..n as Node {
            for v in (u + 1)..n as Node {
                assert_eq!(pair_from_index(n, idx), (u, v));
                idx += 1;
            }
        }
    }

    #[test]
    fn random_regular_is_regular_and_connected() {
        let g = random_regular(60, 6, 3);
        assert_eq!(g.n(), 60);
        for v in 0..60 {
            assert_eq!(g.degree(v), 6);
        }
        assert!(is_connected(&g));
        // Random 6-regular graphs are 6-edge-connected w.h.p.
        assert_eq!(edge_connectivity(&g), 6);
    }

    #[test]
    fn gnp_connected_retries() {
        // p well above threshold: should succeed immediately.
        let g = gnp_connected(64, 0.15, 9);
        assert!(is_connected(&g));
    }
}
