//! Property-based tests for the graph substrate: the CSR structure, flows
//! and cuts, diameters, and components must agree with independent
//! reference computations on arbitrary graphs.

use congest_graph::algo::components::{connected_components, is_connected, UnionFind};
use congest_graph::algo::connectivity::{dominating_set, edge_connectivity, min_edge_cut};
use congest_graph::algo::diameter::{diameter_exact, two_sweep_lower_bound};
use congest_graph::algo::stoer_wagner::stoer_wagner_min_cut;
use congest_graph::algo::UnitFlow;
use congest_graph::builder::BuildError;
use congest_graph::generators::{
    barbell, clique_chain, clique_ring, gk13_lower_bound, gnp, random_regular, theorem9_instance,
    thick_path,
};
use congest_graph::{Graph, GraphBuilder, Node, WeightedGraph};
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

/// A graph's CSR arrays, read through the public accessors: offsets,
/// arc targets, arc edge ids, canonical endpoints, reverse arcs.
type Csr = (Vec<u32>, Vec<Node>, Vec<u32>, Vec<(Node, Node)>, Vec<u32>);

fn csr_of(g: &Graph) -> Csr {
    let n = g.n() as Node;
    (
        (0..=n).map(|v| g.arc_offset(v) as u32).collect(),
        g.arc_targets().to_vec(),
        (0..n).flat_map(|v| g.incident_edges(v).to_vec()).collect(),
        g.edge_list().map(|(_, u, v)| (u, v)).collect(),
        g.reverse_arcs().to_vec(),
    )
}

/// The sort-based build `GraphBuilder::build` replaced, kept as its
/// oracle: sort the canonical edge list, fill, sort every adjacency list,
/// binary-search every reverse arc.
fn reference_build(n: usize, edges: &[(Node, Node)]) -> Result<Csr, BuildError> {
    let mut canon: Vec<(Node, Node)> = Vec::with_capacity(edges.len());
    for &(u, v) in edges {
        if u as usize >= n || v as usize >= n {
            return Err(BuildError::NodeOutOfRange { edge: (u, v), n });
        }
        if u == v {
            return Err(BuildError::SelfLoop(u));
        }
        canon.push(if u < v { (u, v) } else { (v, u) });
    }
    canon.sort_unstable();
    if let Some(w) = canon.windows(2).find(|w| w[0] == w[1]) {
        return Err(BuildError::DuplicateEdge(w[0].0, w[0].1));
    }
    if canon.len() > u32::MAX as usize {
        return Err(BuildError::TooManyEdges);
    }

    let m = canon.len();
    let mut offsets = vec![0u32; n + 1];
    for &(u, v) in &canon {
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    let mut adj_node = vec![0 as Node; 2 * m];
    let mut adj_edge = vec![0u32; 2 * m];
    for (e, &(u, v)) in canon.iter().enumerate() {
        let cu = cursor[u as usize] as usize;
        adj_node[cu] = v;
        adj_edge[cu] = e as u32;
        cursor[u as usize] += 1;
        let cv = cursor[v as usize] as usize;
        adj_node[cv] = u;
        adj_edge[cv] = e as u32;
        cursor[v as usize] += 1;
    }
    let mut scratch: Vec<(Node, u32)> = Vec::new();
    for v in 0..n {
        let lo = offsets[v] as usize;
        let hi = offsets[v + 1] as usize;
        if hi - lo <= 1 {
            continue;
        }
        scratch.clear();
        scratch.extend(
            adj_node[lo..hi]
                .iter()
                .copied()
                .zip(adj_edge[lo..hi].iter().copied()),
        );
        scratch.sort_unstable();
        for (i, &(nb, e)) in scratch.iter().enumerate() {
            adj_node[lo + i] = nb;
            adj_edge[lo + i] = e;
        }
    }

    let mut reverse_arc = vec![0u32; 2 * m];
    for v in 0..n as Node {
        let lo = offsets[v as usize] as usize;
        let hi = offsets[v as usize + 1] as usize;
        for i in lo..hi {
            let u = adj_node[i];
            let ulo = offsets[u as usize] as usize;
            let uhi = offsets[u as usize + 1] as usize;
            let pos = adj_node[ulo..uhi]
                .binary_search(&v)
                .expect("reverse arc must exist");
            reverse_arc[i] = (ulo + pos) as u32;
        }
    }
    Ok((offsets, adj_node, adj_edge, canon, reverse_arc))
}

/// The fingerprint's digest recomputed from the public accessors:
/// splitmix64 chained over n, m, the offsets and every arc's
/// `(neighbor, edge)` pair.
fn recomputed_fingerprint(g: &Graph) -> u64 {
    use congest_sim_free_mix::mix64;
    let (offsets, targets, edges, _, _) = csr_of(g);
    let mut h = mix64(0xF1_9927 ^ g.n() as u64) ^ mix64(0x9127_0C5A ^ g.m() as u64);
    for o in offsets {
        h = mix64(h ^ o as u64);
    }
    for (v, e) in targets.into_iter().zip(edges) {
        h = mix64(h ^ ((v as u64) << 32 | e as u64));
    }
    h
}

/// An edge list as a caller might hand it over: a simple graph's edges in
/// scrambled order and orientation, then `faults` offenders (a repeated
/// edge in either orientation, a self-loop, an id `>= n`) spliced in at
/// random positions — so some lists build and some fail, on any rule.
fn arb_edge_list() -> impl Strategy<Value = (usize, Vec<(Node, Node)>)> {
    (0usize..24, any::<u64>(), 0u32..100, 0u32..8).prop_map(|(n, seed, density, faults)| {
        use congest_sim_free_mix::mix64;
        let mut list = Vec::new();
        for u in 0..n as Node {
            for v in (u + 1)..n as Node {
                let h = mix64(seed ^ mix64(((u as u64) << 32) | v as u64));
                if h % 100 < density as u64 {
                    list.push(if h & 1 << 40 == 0 { (u, v) } else { (v, u) });
                }
            }
        }
        for i in (1..list.len()).rev() {
            list.swap(i, (mix64(seed ^ !(i as u64)) % (i as u64 + 1)) as usize);
        }
        // Faults 4..8 read as none, so most lists stay valid.
        for f in 0..if faults < 4 { faults } else { 0 } {
            let h = mix64(seed ^ 0xFA17 ^ f as u64);
            let at = (h >> 8) as usize % (list.len() + 1);
            let nn = n.max(1) as u64;
            let (a, b) = ((h >> 24) % nn, (h >> 40) % nn);
            let offender = match h % 4 {
                0 | 1 if !list.is_empty() => {
                    let (u, v) = list[(h >> 16) as usize % list.len()];
                    if h & 1 == 0 {
                        (u, v)
                    } else {
                        (v, u)
                    }
                }
                2 => (a as Node, a as Node),
                _ if h & 1 << 60 == 0 => (a as Node, (n as u64 + b) as Node),
                _ => ((n as u64 + b) as Node, a as Node),
            };
            list.insert(at, offender);
        }
        (n, list)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The linear build returns what the sort-based one returns on any
    /// edge list: the same CSR arrays, or the same error with the same
    /// payload — the first invalid edge in input order, else the first
    /// duplicate in canonical order.
    #[test]
    fn build_matches_the_sort_based_reference((n, list) in arb_edge_list()) {
        let built = GraphBuilder::new(n).edges(list.iter().copied()).build();
        prop_assert_eq!(built.as_ref().map(csr_of).map_err(Clone::clone), reference_build(n, &list));
        if let Ok(g) = built {
            prop_assert_eq!(g.fingerprint(), recomputed_fingerprint(&g));
        }
    }

    /// The stored fingerprint is the digest of the graph's arrays on every
    /// family, numbered by its generator or shuffled.
    #[test]
    fn fingerprint_is_the_digest_of_the_arrays(f in arb_family()) {
        prop_assert_eq!(f.fingerprint(), recomputed_fingerprint(&f));
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
