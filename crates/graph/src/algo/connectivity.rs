//! Exact edge connectivity λ.
//!
//! λ = min over all nonempty proper subsets S of |E(S, V∖S)|, and by Menger
//! `maxflow(s, t) = λ` whenever a minimum cut separates s from t. λ ≤ δ (a
//! minimum-degree vertex alone is a side), so flows are capped at the running
//! bound, which starts at δ. And few flows are needed: if λ < δ, **each side
//! of a minimum cut contains a vertex whose whole closed neighbourhood is on
//! that side** (Matula; Esfahanian–Hakimi). Otherwise every vertex of a side
//! S has a neighbour across, so |S| ≤ λ < δ; and since [`Graph`] has no
//! parallel edges, each vertex of S has at most |S|−1 neighbours inside and
//! at least δ−|S|+1 across: a cut of |S|(δ−|S|+1) ≥ δ edges or more for
//! 1 ≤ |S| ≤ δ, not a minimum one. So a dominating set D meets both sides,
//! and for any fixed s ∈ D, λ = min(δ, min over t ∈ D∖{s} of maxflow(s, t)):
//! |D|−1 [`UnitFlow`]s in one serial loop, not one per vertex.

use crate::algo::components::is_connected;
use crate::algo::maxflow::UnitFlow;
use crate::graph::{Graph, Node};

/// A dominating set of `g` (every node is in it or adjacent to a member),
/// built greedily in node-id order, so deterministic.
pub fn dominating_set(g: &Graph) -> Vec<Node> {
    let mut covered = vec![false; g.n()];
    let mut set = Vec::new();
    for v in 0..g.n() as Node {
        if !covered[v as usize] {
            set.push(v);
            covered[v as usize] = true;
            for &u in g.neighbors(v) {
                covered[u as usize] = true;
            }
        }
    }
    set
}

/// The loop behind both public functions: λ, one side of a cut of λ edges
/// (empty when λ = 0), and the number of flows run.
fn search(g: &Graph) -> (usize, Vec<bool>, usize) {
    let mut side = vec![false; g.n()];
    if g.n() <= 1 || !is_connected(g) {
        return (0, side, 0);
    }
    // λ ≤ δ, and a minimum-degree vertex alone is a side that says so.
    let lowest = (0..g.n() as Node).min_by_key(|&v| g.degree(v));
    let lowest = lowest.expect("n ≥ 2");
    side[lowest as usize] = true;
    let (mut best, mut flows) = (g.degree(lowest), 0);
    let targets = dominating_set(g);
    let mut net = UnitFlow::new(g);
    for &t in &targets[1..] {
        if best == 1 {
            break; // connected, so λ ≥ 1: nothing left to find
        }
        let flow = net.max_flow(targets[0], t, best);
        flows += 1;
        if flow < best {
            (best, side) = (flow, net.source_side());
        }
    }
    (best, side, flows)
}

/// Exact edge connectivity of `g`; 0 for disconnected or single-node graphs.
pub fn edge_connectivity(g: &Graph) -> usize {
    search(g).0
}

/// Exact edge connectivity together with one side of a minimum cut.
pub fn min_edge_cut(g: &Graph) -> (usize, Vec<bool>) {
    let (lambda, side, _) = search(g);
    (lambda, side)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barbell, clique_chain, complete, cycle, harary, hypercube, path};

    #[test]
    fn known_families() {
        assert_eq!(edge_connectivity(&complete(7)), 6);
        assert_eq!(edge_connectivity(&cycle(9)), 2);
        assert_eq!(edge_connectivity(&path(9)), 1);
        assert_eq!(edge_connectivity(&hypercube(3)), 3);
        assert_eq!(edge_connectivity(&harary(6, 30)), 6);
    }

    #[test]
    fn disconnected_is_zero() {
        let g = crate::builder::GraphBuilder::new(3)
            .edge(0, 1)
            .build()
            .unwrap();
        assert_eq!(edge_connectivity(&g), 0);
        let (v, _) = min_edge_cut(&g);
        assert_eq!(v, 0);
    }

    #[test]
    fn min_cut_side_is_a_real_cut_of_min_size() {
        let g = clique_chain(3, 5, 2);
        let (lam, side) = min_edge_cut(&g);
        assert_eq!(lam, 2);
        // The returned side must actually cut exactly lam edges.
        let crossing = g
            .edge_list()
            .filter(|&(_, u, v)| side[u as usize] != side[v as usize])
            .count();
        assert_eq!(crossing, lam);
        // Proper cut: both sides nonempty.
        assert!(side.iter().any(|&x| x));
        assert!(side.iter().any(|&x| !x));
    }

    #[test]
    fn barbell_cut_is_the_bridge() {
        let g = barbell(4, 2);
        let (lam, side) = min_edge_cut(&g);
        assert_eq!(lam, 1);
        let crossing = g
            .edge_list()
            .filter(|&(_, u, v)| side[u as usize] != side[v as usize])
            .count();
        assert_eq!(crossing, 1);
    }

    #[test]
    fn thin_graphs_stop_once_the_bound_is_one() {
        // δ = 1: the bound starts at the floor and no flow runs.
        let (lam, _, flows) = search(&path(100_000));
        assert_eq!((lam, flows), (1, 0));
        // δ = 2, λ = 1: the first flow across the bridge ends the search.
        let g = barbell(6, 20);
        assert_eq!(dominating_set(&g).len(), 11);
        let (lam, _, flows) = search(&g);
        assert_eq!((lam, flows), (1, 1));
    }

    #[test]
    fn lambda_equal_delta_cuts_off_a_min_degree_vertex() {
        let g = harary(6, 30);
        let (lam, side) = min_edge_cut(&g);
        assert_eq!(lam, 6);
        assert_eq!(side.iter().filter(|&&x| x).count(), 1);
    }

    #[test]
    fn lambda_never_exceeds_min_degree() {
        for g in [harary(4, 16), clique_chain(2, 4, 3), hypercube(4)] {
            assert!(edge_connectivity(&g) <= g.min_degree());
        }
    }
}
