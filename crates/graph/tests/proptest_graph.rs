//! Property-based tests for the graph substrate: the CSR structure, flows
//! and cuts, diameters, and components must agree with independent
//! reference computations on arbitrary graphs.

use congest_graph::algo::components::{connected_components, is_connected, UnionFind};
use congest_graph::algo::connectivity::{dominating_set, edge_connectivity, min_edge_cut};
use congest_graph::algo::diameter::{diameter_exact, two_sweep_lower_bound};
use congest_graph::algo::stoer_wagner::stoer_wagner_min_cut;
use congest_graph::algo::UnitFlow;
use congest_graph::generators::{
    barbell, clique_chain, clique_ring, gk13_lower_bound, gnp, random_regular, theorem9_instance,
    thick_path,
};
use congest_graph::{Graph, GraphBuilder, WeightedGraph};
use proptest::prelude::*;

/// Arbitrary simple graph from a random edge mask.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..max_n, any::<u64>(), 10u32..80).prop_map(|(n, seed, density)| {
        use congest_sim_free_mix::mix64;
        let mut b = GraphBuilder::new(n);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                let h = mix64(seed ^ mix64(((u as u64) << 32) | v as u64));
                if (h % 100) < density as u64 {
                    b.push_edge(u, v);
                }
            }
        }
        b.build().unwrap()
    })
}

/// Graphs on which λ is settled in different ways: G(n,p) (possibly
/// disconnected) and random regular graphs, where usually λ = δ and the
/// degree bound answers, and the families with λ < δ, where the minimum
/// cut is only found because the dominating set meets both of its sides.
///
/// Node ids are shuffled, because the greedy dominating set goes by id: in
/// generator order each family would always offer the same source and the
/// same few targets in the same order.
fn arb_family() -> impl Strategy<Value = Graph> {
    (0u32..8, 2usize..6, 3usize..7, any::<u64>()).prop_map(|(kind, a, b, seed)| {
        let pick = |upto: usize| 1 + (seed % upto as u64) as usize;
        let g = match kind {
            0 => gnp(6 * a + b, 0.1 * (a + 1) as f64, seed),
            1 => random_regular(2 * (a + b), b, seed),
            2 => clique_chain(a, b + 1, pick(b)),
            3 => clique_ring(a + 1, 2 * b, pick(b)),
            4 => barbell(b, a),
            5 => thick_path(a, b),
            6 => gk13_lower_bound(a + 2, b).0,
            _ => theorem9_instance(a + b + 4, a, 3.0, 2.0, seed)
                .graph
                .graph()
                .clone(),
        };
        let mut id: Vec<u32> = (0..g.n() as u32).collect();
        for i in (1..id.len()).rev() {
            let j = congest_sim_free_mix::mix64(seed ^ i as u64) % (i as u64 + 1);
            id.swap(i, j as usize);
        }
        GraphBuilder::new(g.n())
            .edges(
                g.edge_list()
                    .map(|(_, u, v)| (id[u as usize], id[v as usize])),
            )
            .build()
            .unwrap()
    })
}

/// λ the long way round: the same kernel, uncapped, to every other node.
fn all_targets_lambda(g: &Graph) -> usize {
    let mut net = UnitFlow::new(g);
    (1..g.n() as u32)
        .map(|t| net.max_flow(0, t, usize::MAX))
        .min()
        .unwrap_or(0)
}

/// Local SplitMix64 copy so this test crate needs no sim dependency.
mod congest_sim_free_mix {
    pub fn mix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// CSR invariants: degree sums, sorted adjacency, reverse-arc
    /// involution, endpoint consistency.
    #[test]
    fn csr_invariants(g in arb_graph(24)) {
        prop_assert_eq!(g.degree_sum(), 2 * g.m());
        for v in 0..g.n() as u32 {
            let ns = g.neighbors(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
            for (u, e) in g.edges_of(v) {
                let (a, b) = g.endpoints(e);
                prop_assert_eq!((a, b), (v.min(u), v.max(u)));
                prop_assert!(g.has_edge(u, v));
            }
        }
        for arc in 0..g.num_arcs() {
            prop_assert_eq!(g.reverse_arc(g.reverse_arc(arc)), arc);
        }
    }

    /// Union-find agrees with BFS-based components.
    #[test]
    fn union_find_matches_components(g in arb_graph(24)) {
        let (labels, count) = connected_components(&g);
        let mut uf = UnionFind::new(g.n());
        for (_, u, v) in g.edge_list() {
            uf.union(u, v);
        }
        prop_assert_eq!(uf.num_components(), count);
        for u in 0..g.n() as u32 {
            for v in 0..g.n() as u32 {
                prop_assert_eq!(
                    uf.same(u, v),
                    labels[u as usize] == labels[v as usize]
                );
            }
        }
    }

    /// Two-sweep is a genuine lower bound within factor 2.
    #[test]
    fn two_sweep_bounds_diameter(g in arb_graph(20)) {
        prop_assume!(is_connected(&g) && g.n() >= 2);
        let d = diameter_exact(&g).unwrap();
        let lb = two_sweep_lower_bound(&g, 0).unwrap();
        prop_assert!(lb <= d);
        prop_assert!(2 * lb >= d);
    }

    /// λ ≤ δ ≤ 2m/n ordering (paper §2).
    #[test]
    fn parameter_ordering(g in arb_graph(16)) {
        prop_assume!(g.n() >= 2);
        let lam = edge_connectivity(&g);
        prop_assert!(lam <= g.min_degree());
        prop_assert!(g.min_degree() as f64 <= g.avg_degree() + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Flow-based edge connectivity (one capped flow per dominating-set
    /// vertex) equals one uncapped flow per node with the same kernel, and
    /// equals Stoer–Wagner's min cut on unit weights, an independent
    /// algorithm — in particular where λ < δ and the lemma carries the answer.
    #[test]
    fn dinic_equals_stoer_wagner(g in arb_graph(14), f in arb_family()) {
        for g in [g, f] {
            let lam = edge_connectivity(&g);
            prop_assert_eq!(lam, all_targets_lambda(&g));
            if is_connected(&g) {
                let (sw, _) = stoer_wagner_min_cut(&WeightedGraph::unit(g.clone())).unwrap();
                prop_assert_eq!(lam as f64, sw);
            }
        }
    }

    /// Every node is in the greedy dominating set or next to a member.
    #[test]
    fn dominating_set_dominates(g in arb_graph(24), f in arb_family()) {
        for g in [g, f] {
            let mut member = vec![false; g.n()];
            for v in dominating_set(&g) {
                member[v as usize] = true;
            }
            for v in 0..g.n() as u32 {
                prop_assert!(member[v as usize] || g.neighbors(v).iter().any(|&u| member[u as usize]));
            }
        }
    }

    /// The cut returned with λ is proper and really has λ crossing edges,
    /// whether a flow found it (λ < δ) or it is one minimum-degree vertex.
    #[test]
    fn min_cut_side_is_consistent(g in arb_graph(14), f in arb_family()) {
        for g in [g, f] {
            if !is_connected(&g) {
                continue;
            }
            let (lam, side) = min_edge_cut(&g);
            let crossing = g
                .edge_list()
                .filter(|&(_, u, v)| side[u as usize] != side[v as usize])
                .count();
            prop_assert_eq!(crossing, lam);
            let inside = side.iter().filter(|&&x| x).count();
            prop_assert!(0 < inside && inside < g.n());
            prop_assert!(lam < g.min_degree() || inside == 1);
        }
    }
}
