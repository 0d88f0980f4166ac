//! Property-based tests for tree packings: matroid-union optimality
//! against a greedy comparator, Nash-Williams, and impossibility
//! certificates on arbitrary connected graphs.

use congest_graph::algo::components::{is_connected, UnionFind};
use congest_graph::algo::connectivity::edge_connectivity;
use congest_graph::{Graph, GraphBuilder};
use congest_packing::matroid::{exact_tree_packing, matroid_forest_packing};
use proptest::prelude::*;

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (4..max_n, any::<u64>(), 30u64..90).prop_map(|(n, seed, density)| {
        let mut b = GraphBuilder::new(n);
        let mut edges = std::collections::BTreeSet::new();
        for v in 1..n as u32 {
            let u = (mix(seed ^ v as u64) % v as u64) as u32;
            edges.insert((u, v));
        }
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if mix(seed ^ (((u as u64) << 32) | v as u64)) % 100 < density {
                    edges.insert((u, v));
                }
            }
        }
        for (u, v) in edges {
            b.push_edge(u, v);
        }
        b.build().unwrap()
    })
}

fn validate_forests(g: &Graph, forests: &[Vec<u32>]) {
    let mut seen = vec![false; g.m()];
    for f in forests {
        let mut uf = UnionFind::new(g.n());
        for &e in f {
            assert!(!seen[e as usize], "edge reuse");
            seen[e as usize] = true;
            let (u, v) = g.endpoints(e);
            assert!(uf.union(u, v), "cycle in forest");
        }
    }
}

/// The greedy comparator: up to `k` spanning trees, each a Kruskal pass
/// over the unused edges in a seeded random order, stopping at the first
/// pass that does not span. Returns the edges used.
fn random_kruskal_trees(g: &Graph, k: usize, seed: u64) -> usize {
    let mut used = vec![false; g.m()];
    let mut total = 0;
    for t in 0..k as u64 {
        let mut order: Vec<u32> = (0..g.m() as u32).filter(|&e| !used[e as usize]).collect();
        for i in (1..order.len()).rev() {
            let j = (mix(seed ^ mix(t << 32 | i as u64)) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut uf = UnionFind::new(g.n());
        let mut tree = Vec::new();
        for e in order {
            let (u, v) = g.endpoints(e);
            if uf.union(u, v) {
                tree.push(e);
            }
        }
        if tree.len() + 1 != g.n() {
            break;
        }
        for &e in &tree {
            used[e as usize] = true;
        }
        total += tree.len();
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Matroid forest packings are always valid, dominate greedy in total
    /// edges, and k=1 recovers a spanning tree.
    #[test]
    fn matroid_dominates_greedy(g in arb_connected_graph(16), k in 1usize..4) {
        prop_assume!(is_connected(&g));
        let exact = matroid_forest_packing(&g, k);
        validate_forests(&g, &exact.forests);
        let greedy_total = random_kruskal_trees(&g, k, 7);
        prop_assert!(exact.total_edges() >= greedy_total,
            "matroid union must be maximum: {} < {}", exact.total_edges(), greedy_total);
        if k == 1 {
            prop_assert_eq!(exact.forests[0].len(), g.n() - 1);
        }
    }

    /// Nash-Williams/Tutte realized: any ⌊λ/2⌋-tree request succeeds.
    #[test]
    fn nash_williams_always_satisfied(g in arb_connected_graph(14)) {
        prop_assume!(is_connected(&g));
        let lam = edge_connectivity(&g);
        let k = lam / 2;
        prop_assume!(k >= 1);
        let packing = exact_tree_packing(&g, k, 0);
        prop_assert!(
            packing.is_some(),
            "⌊λ/2⌋ = {k} trees must exist at λ = {lam}"
        );
        let packing = packing.unwrap();
        packing.validate(&g).unwrap();
        prop_assert!(packing.stats(&g).edge_disjoint);
    }

    /// A packing of k spanning trees requires k·(n−1) edges and λ ≥ k;
    /// when the exact algorithm says None for k = ⌊λ/2⌋ + overshoot,
    /// the shortage must be structural (too few edges or λ < k... we
    /// check the edge-count certificate).
    #[test]
    fn impossibility_certificates(g in arb_connected_graph(12)) {
        prop_assume!(is_connected(&g));
        let n = g.n();
        let k_too_big = g.m() / (n - 1) + 1; // more trees than edges allow
        prop_assert!(exact_tree_packing(&g, k_too_big, 0).is_none());
    }
}
