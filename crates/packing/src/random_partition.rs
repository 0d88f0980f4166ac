//! Tree packings from the Theorem 2 random edge partition.
//!
//! §3.1: *"By spending extra O((n log n)/δ) rounds to perform a BFS in
//! parallel for all the edge-disjoint spanning subgraphs in Theorem 2, we
//! may obtain a tree packing of Ω(λ/log n) edge-disjoint spanning trees
//! with diameter O((n log n)/δ)."*
//!
//! [`partition_packing`] builds that packing centrally: the partition (a
//! pure function of the seed, so the one Theorem 1's phase 4 computes) and
//! a BFS from `root` inside every class. Its trees have the per-class
//! depths Theorem 1's phase 5 ([`congest_core::bfs::SubgraphBfs`]) reaches
//! by message passing; the rounds that costs are read from Theorem 1's own
//! `subgraph-bfs` phase. A class that misses a node is Theorem 2's failure
//! event, [`BroadcastError::NotSpanning`], and
//! [`partition_packing_retrying`] retries it through Theorem 1's one loop,
//! [`retry_spanning`].

use crate::packing::TreePacking;
use congest_core::broadcast::{retry_spanning, BroadcastError};
use congest_core::partition::{EdgePartition, PartitionParams};
use congest_graph::algo::bfs::bfs_tree_restricted;
use congest_graph::{Graph, Node};

/// Centralized Theorem 2 packing: partition edges into `num_subgraphs`
/// classes with `seed`, BFS each class from `root`.
pub fn partition_packing(
    g: &Graph,
    num_subgraphs: usize,
    root: Node,
    seed: u64,
) -> Result<(TreePacking, EdgePartition), BroadcastError> {
    let part = EdgePartition::compute(g, PartitionParams::explicit(num_subgraphs), seed);
    let mut trees = Vec::with_capacity(num_subgraphs);
    for c in 0..num_subgraphs as u32 {
        let t = bfs_tree_restricted(g, root, |e| part.color(e) == c);
        if !t.is_spanning() {
            return Err(BroadcastError::NotSpanning {
                subgraph: c,
                unreached: g.n() - t.reached(),
            });
        }
        trees.push(t);
    }
    Ok((TreePacking::new(trees), part))
}

/// [`partition_packing`] through [`retry_spanning`] for the w.h.p.
/// guarantee: attempt `a` at seed `seed + a·0x9E37`, at most
/// `attempts.max(1)` attempts. On success, also returns how many ran.
pub fn partition_packing_retrying(
    g: &Graph,
    num_subgraphs: usize,
    root: Node,
    seed: u64,
    attempts: usize,
) -> Result<(TreePacking, EdgePartition, usize), BroadcastError> {
    let ((packing, part), ran) = retry_spanning(attempts, |a| {
        partition_packing(g, num_subgraphs, root, seed.wrapping_add(a * 0x9E37))
    })?;
    Ok((packing, part, ran))
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_core::bfs::SubgraphBfs;
    use congest_core::partition::EdgePartitionProtocol;
    use congest_graph::generators::{complete, cycle, harary, hypercube, thick_path};
    use congest_sim::{EngineConfig, Session};

    #[test]
    fn centralized_packing_is_valid_and_disjoint() {
        let g = harary(16, 64);
        let (packing, part, _) = partition_packing_retrying(&g, 3, 0, 42, 20).unwrap();
        packing.validate(&g).unwrap();
        let stats = packing.stats(&g);
        assert_eq!(stats.num_trees, 3);
        assert!(stats.edge_disjoint, "partition classes are edge-disjoint");
        assert!(part.all_spanning(&g));
    }

    /// The centralized packing is the one Theorem 1's stage c builds by
    /// message passing: its partition protocol (one round) and its
    /// per-class BFS reach every node at the depth the centralized tree
    /// gives it. Parent *choices* may differ (both resolve equal-distance
    /// ties, but by different deterministic rules), so this compares
    /// depths — the quantity Theorem 2 bounds — not shapes.
    #[test]
    fn distributed_matches_centralized_depths() {
        let g = harary(12, 36);
        let (seed, lp) = (7, 2);
        let (central, _) = partition_packing(&g, lp, 0, seed).unwrap();
        let mut host = Session::new(&g);
        let colors = host
            .run(
                |v, g| EdgePartitionProtocol::new(v, seed, lp, g.degree(v)),
                EngineConfig::with_seed(seed),
            )
            .unwrap();
        assert_eq!(colors.stats.rounds, 1);
        let colors = colors.take_outputs();
        let infos = host
            .run(
                |v, _| SubgraphBfs::new(0, v, colors[v as usize].clone(), lp),
                EngineConfig::with_seed(seed),
            )
            .unwrap()
            .take_outputs();
        for (c, tree) in central.trees.iter().enumerate() {
            for (v, info) in infos.iter().enumerate() {
                assert!(info[c].reached, "class {c} reaches node {v}");
                assert_eq!(info[c].depth, tree.depth[v], "class {c}, node {v}");
            }
        }
    }

    #[test]
    fn theorem2_diameter_bound_on_thick_path() {
        // thick_path(L, λ): δ = λ, n = Lλ. Theorem 2: tree diameters
        // should be O((C n ln n)/δ) = O(C·L·ln n). Verify within a
        // moderate constant.
        let lambda = 12;
        let cols = 8;
        let g = thick_path(cols, lambda);
        let (packing, _, _) = partition_packing_retrying(&g, 2, 0, 3, 20).unwrap();
        let stats = packing.stats(&g);
        let n = g.n() as f64;
        let delta = g.min_degree() as f64;
        let bound = 4.0 * n * n.ln() / delta;
        assert!(
            (stats.max_diameter as f64) <= bound,
            "max diameter {} exceeds Theorem 2 bound {bound:.1}",
            stats.max_diameter
        );
    }

    #[test]
    fn failure_reported_not_hidden() {
        // cycle has λ = 2; 8 classes cannot all span.
        let g = cycle(12);
        let err = partition_packing(&g, 8, 0, 1).unwrap_err();
        assert!(matches!(err, BroadcastError::NotSpanning { unreached, .. } if unreached > 0));
    }

    #[test]
    fn complete_graph_many_trees() {
        let g = complete(64);
        let (packing, _, _) = partition_packing_retrying(&g, 8, 0, 5, 10).unwrap();
        let stats = packing.stats(&g);
        assert_eq!(stats.num_trees, 8);
        assert!(stats.edge_disjoint);
        // Each class ≈ G(64, 1/8) has diameter ~3; its BFS *tree* diameter
        // is at most twice that.
        assert!(
            stats.max_diameter <= 10,
            "K_64 class tree diameter {} should be tiny",
            stats.max_diameter
        );
    }

    /// The packing retries through Theorem 1's one loop: attempt `a` at
    /// seed `seed + a·0x9E37`; when every attempt fails, the last one's
    /// `NotSpanning` stands, and zero attempts is one.
    #[test]
    fn retrying_goes_through_the_one_loop() {
        let g = cycle(12);
        let attempt = |a: u64| partition_packing(&g, 8, 0, a * 0x9E37).unwrap_err();
        let (first, last) = (attempt(0), attempt(1));
        assert!(matches!(last, BroadcastError::NotSpanning { .. }));
        assert_ne!(first, last, "the two attempts must be told apart");
        let retried = |attempts| partition_packing_retrying(&g, 8, 0, 0, attempts).unwrap_err();
        assert_eq!(retried(2), last);
        assert_eq!(retried(0), first);
        // `fastbcast packing hypercube:6 --trees 2` (its golden): the
        // eleventh seed is the first whose two classes both span.
        let (packing, _, ran) = partition_packing_retrying(&hypercube(6), 2, 0, 7, 30).unwrap();
        assert_eq!(ran, 11);
        assert_eq!(packing.trees.len(), 2);
    }
}
