//! Property-based tests for the APSP applications: spanner stretch and
//! (3,2)-estimate domination on arbitrary weighted graphs.

use congest_apsp::baswana_sen::baswana_sen_spanner;
use congest_apsp::clustering::ClusterMsg;
use congest_apsp::prt12::prt12_apsp;
use congest_graph::algo::apsp::{apsp_unweighted, apsp_weighted, measure_stretch_weighted};
use congest_graph::algo::components::is_connected;
use congest_graph::{Graph, GraphBuilder, WeightedGraph};
use congest_sim::message::low_mask;
use congest_sim::{MsgWord, PackedMsg};
use proptest::prelude::*;

fn arb_connected_weighted(max_n: usize) -> impl Strategy<Value = WeightedGraph> {
    (5..max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mix = |mut z: u64| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        };
        let mut b = GraphBuilder::new(n);
        let mut edges = std::collections::BTreeSet::new();
        for v in 1..n as u32 {
            let u = (mix(seed ^ v as u64) % v as u64) as u32;
            edges.insert((u, v));
        }
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if mix(seed ^ (((u as u64) << 32) | v as u64)) % 100 < 40 {
                    edges.insert((u, v));
                }
            }
        }
        let edge_vec: Vec<(u32, u32)> = edges.into_iter().collect();
        for &(u, v) in &edge_vec {
            b.push_edge(u, v);
        }
        let g = b.build().unwrap();
        let w: Vec<f64> = (0..g.m())
            .map(|e| 1.0 + (mix(seed ^ (e as u64) << 7) % 50) as f64)
            .collect();
        WeightedGraph::new(g, w)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Clustering's wire format round-trips at 0, the largest center id
    /// and a drawn one, packs below its `WIDTH`, and that width is its row
    /// of README's "Per-protocol bit budgets", 33.
    #[test]
    fn cluster_msg_keeps_its_width(center in any::<u32>()) {
        prop_assert_eq!(ClusterMsg::WIDTH, 33);
        let centers = [0, u32::MAX, center].map(ClusterMsg::MyCluster);
        for m in centers.into_iter().chain([ClusterMsg::Announce]) {
            prop_assert_eq!(ClusterMsg::unpack(m.pack()), m);
            prop_assert_eq!(m.pack().to_u128() & !low_mask(ClusterMsg::WIDTH), 0, "{:?}", m);
        }
    }

    /// Baswana–Sen stretch ≤ 2k−1 on arbitrary connected weighted graphs,
    /// with the spanner always a subgraph that dominates distances.
    #[test]
    fn spanner_stretch_bound(g in arb_connected_weighted(18), k in 1usize..4, seed in any::<u64>()) {
        let spanner = baswana_sen_spanner(&g, k, seed);
        let h = spanner.as_graph(&g);
        let dg = apsp_weighted(&g);
        let dh = apsp_weighted(&h);
        let stretch = measure_stretch_weighted(&dg, &dh).expect("domination");
        prop_assert!(stretch <= (2 * k - 1) as f64 + 1e-9,
            "stretch {} > {}", stretch, 2 * k - 1);
    }

    /// PRT12's staggered schedule is collision-free and exact on
    /// arbitrary connected graphs.
    #[test]
    fn prt12_exact_and_collision_free(g in arb_connected_weighted(18)) {
        let base: &Graph = g.graph();
        prop_assume!(is_connected(base));
        let out = prt12_apsp(base);
        prop_assert!(out.max_collisions <= 1);
        let exact = apsp_unweighted(base);
        prop_assert_eq!(out.dist, exact);
    }

    /// Spanner size bound `O(k·n^{1+1/k})` with a generous constant.
    #[test]
    fn spanner_size_law(g in arb_connected_weighted(20), seed in any::<u64>()) {
        let k = 2;
        let spanner = baswana_sen_spanner(&g, k, seed);
        let n = g.n() as f64;
        let bound = 8.0 * k as f64 * n.powf(1.0 + 1.0 / k as f64);
        prop_assert!((spanner.size() as f64) < bound,
            "size {} vs bound {}", spanner.size(), bound);
    }
}
