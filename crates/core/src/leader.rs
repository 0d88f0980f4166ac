//! Flood-max leader election, by rank: the protocol lives in
//! [`congest_sim::leader`], where the job plane runs it too; the Theorem 1
//! drivers reach it through this path.

pub use congest_sim::leader::{rank, unrank, FloodMax, LeaderInfo};

#[cfg(test)]
use congest_graph::Node;

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::algo::bfs::{bfs_distances, UNREACHABLE};
    use congest_graph::generators::{cycle, harary, path, torus2d};
    use congest_graph::Graph;
    use congest_sim::{run_protocol, EngineConfig, RunOutcome};

    fn elect(g: &Graph) -> RunOutcome<LeaderInfo> {
        run_protocol(g, |v, _| FloodMax::new(v), EngineConfig::default()).unwrap()
    }

    /// The node of highest rank among `nodes`.
    fn highest_rank(nodes: impl IntoIterator<Item = Node>) -> Node {
        nodes.into_iter().max_by_key(|&v| rank(v)).unwrap()
    }

    #[test]
    fn unrank_inverts_rank() {
        for x in 0..1u32 << 20 {
            assert_eq!(unrank(rank(x)), x, "{x}");
        }
        for x in [u32::MAX, u32::MAX - 1, 1 << 31, 0xdead_beef] {
            assert_eq!(unrank(rank(x)), x, "{x}");
        }
    }

    #[test]
    fn everyone_agrees_on_highest_rank() {
        for g in [path(7), cycle(9), torus2d(4, 4), harary(6, 40)] {
            let want = highest_rank(0..g.n() as Node);
            let out = elect(&g);
            for (v, info) in out.outputs.iter().enumerate() {
                assert_eq!(info.leader, want, "node {v}");
                assert_eq!(info.is_leader, v as Node == want);
            }
        }
    }

    #[test]
    fn rounds_bounded_by_diameter_plus_one() {
        // The election lasts as long as the leader's rank travels.
        for g in [path(16), cycle(33), torus2d(6, 9), harary(4, 64)] {
            let out = elect(&g);
            let leader = out.outputs[0].leader;
            let dist = bfs_distances(&g, leader);
            let ecc = *dist.iter().max().unwrap() as u64;
            let rounds = out.stats.rounds;
            assert!(
                (ecc..=ecc + 1).contains(&rounds),
                "rounds {rounds}, ecc {ecc}"
            );
        }
    }

    #[test]
    fn disconnected_components_elect_separately() {
        let g = congest_graph::GraphBuilder::new(5)
            .edges([(0, 1), (2, 3)])
            .build()
            .unwrap();
        let out = elect(&g);
        for v in 0..5u32 {
            let dist = bfs_distances(&g, v);
            let component = (0..5).filter(|&u| dist[u as usize] != UNREACHABLE);
            let want = highest_rank(component);
            assert_eq!(out.outputs[v as usize].leader, want, "node {v}");
            assert_eq!(out.outputs[v as usize].is_leader, v == want);
        }
    }

    /// Where raw ids cost `≈ m · D` (535 552, 540 672 and 2 101 248
    /// messages here), the ranked election stays inside `2m · (2 + ln n)`.
    #[test]
    fn messages_stay_within_the_ranked_bound() {
        for g in [harary(8, 1024), torus2d(64, 64), cycle(2048)] {
            let out = elect(&g);
            let bound = 2.0 * g.m() as f64 * (2.0 + (g.n() as f64).ln());
            let msgs = out.stats.total_messages;
            assert!((msgs as f64) <= bound, "n = {}: {msgs} > {bound:.0}", g.n());
        }
    }
}
