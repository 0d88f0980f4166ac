//! Shard-aware partitioning of the CSR arc layout.
//!
//! The CONGEST engine runs both phases of a round — node stepping and the
//! delivery/metering sweep — as parallel-for over *shards*: contiguous
//! node ranges whose flattened arc ranges are balanced by arc count. A
//! [`ShardPlan`] additionally assigns every shard a disjoint range of
//! **occupancy words** (64 arcs per `u64` in the arc-indexed bitsets), so
//! a shard can fold, meter, and zero its own region of the message plane
//! with plain unsynchronized stores: word ownership never straddles two
//! shards even when a node boundary falls mid-word.

use crate::graph::{Graph, Node};
use std::ops::Range;

/// A partition of a graph's nodes into contiguous shards, balanced by arc
/// count and equipped with disjoint occupancy-word ranges covering all
/// arcs. Built once per run by [`Graph::shard_plan`]; immutable afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Shard `s` owns nodes `node_starts[s]..node_starts[s + 1]`.
    node_starts: Vec<Node>,
    /// Shard `s` owns occupancy words `word_starts[s]..word_starts[s + 1]`
    /// of any arc-indexed bitset (and therefore arc bytes
    /// `64 * word_starts[s]..(64 * word_starts[s + 1]).min(arcs)` of any
    /// arc-indexed byte mask).
    word_starts: Vec<u32>,
    /// Shard `s` owns words `node_word_starts[s]..node_word_starts[s + 1]`
    /// of any *node*-indexed bitset (one bit per node — the engine's
    /// broadcast-presence plane). Aligned the same way as `word_starts`:
    /// boundary words go to the later shard.
    node_word_starts: Vec<u32>,
    /// Total arc count (`= 2m`), the length every arc-indexed slab has.
    arcs: usize,
    /// Node count.
    n: usize,
}

impl ShardPlan {
    /// Number of shards (≥ 1; empty graphs get one empty shard).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.node_starts.len() - 1
    }

    /// The node range shard `s` steps.
    #[inline]
    pub fn nodes(&self, s: usize) -> Range<Node> {
        self.node_starts[s]..self.node_starts[s + 1]
    }

    /// The occupancy-word range shard `s` sweeps (indexes into a
    /// `words_for(arcs)`-long `u64` bitset).
    #[inline]
    pub fn words(&self, s: usize) -> Range<usize> {
        self.word_starts[s] as usize..self.word_starts[s + 1] as usize
    }

    /// The arc range covered by shard `s`'s occupancy words (indexes into
    /// any arc-indexed slab; the last shard's range is clipped to `arcs`).
    #[inline]
    pub fn arcs_of(&self, s: usize) -> Range<usize> {
        let lo = (self.word_starts[s] as usize) * 64;
        let hi = ((self.word_starts[s + 1] as usize) * 64).min(self.arcs);
        lo..hi.max(lo)
    }

    /// Total arcs covered by the plan.
    #[inline]
    pub fn arcs(&self) -> usize {
        self.arcs
    }

    /// Number of arcs in shard `s`'s word-aligned sweep region — the
    /// per-shard share of any arc-indexed slab pass.
    #[inline]
    pub fn arc_count(&self, s: usize) -> usize {
        self.arcs_of(s).len()
    }

    /// Upper bound on the number of per-arc sends the nodes of shard `s`
    /// can stage in one round (their total out-degree). The true value is
    /// `offsets[nodes.end] - offsets[nodes.start]`; the plan only keeps
    /// word-aligned boundaries, so this pads by at most 63 arcs at each
    /// cut. Used to size per-shard active-send worklists without the
    /// `shards × total_arcs` blowup a uniform cap would cost.
    #[inline]
    pub fn out_arc_bound(&self, s: usize) -> usize {
        (self.arc_count(s) + 63).min(self.arcs)
    }

    /// The node-bitset word range shard `s` sweeps (indexes into a
    /// `words_for(n)`-long `u64` bitset over nodes).
    #[inline]
    pub fn node_words(&self, s: usize) -> Range<usize> {
        self.node_word_starts[s] as usize..self.node_word_starts[s + 1] as usize
    }

    /// The node range covered by shard `s`'s node-bitset words (clipped to
    /// `n`; boundary words belong to the later shard, so this range can
    /// differ slightly from [`ShardPlan::nodes`]).
    #[inline]
    pub fn node_word_nodes(&self, s: usize) -> Range<usize> {
        let lo = (self.node_word_starts[s] as usize) * 64;
        let hi = ((self.node_word_starts[s + 1] as usize) * 64).min(self.n);
        lo..hi.max(lo)
    }
}

impl Graph {
    /// Partition the nodes into at most `shards` contiguous shards,
    /// balanced by arc count, with disjoint word-aligned metering regions
    /// (see [`ShardPlan`]). The plan is a pure function of the graph and
    /// `shards` — engines at any pool width build the identical plan.
    pub fn shard_plan(&self, shards: usize) -> ShardPlan {
        let n = self.n();
        let arcs = self.num_arcs();
        let s_count = shards.clamp(1, n.max(1));
        let total_words = arcs.div_ceil(64);
        let total_node_words = n.div_ceil(64);
        let mut node_starts = Vec::with_capacity(s_count + 1);
        let mut word_starts = Vec::with_capacity(s_count + 1);
        let mut node_word_starts = Vec::with_capacity(s_count + 1);
        node_starts.push(0u32);
        word_starts.push(0u32);
        node_word_starts.push(0u32);
        let mut prev_node = 0usize;
        for s in 1..s_count {
            // The node whose arc offset first reaches the balanced target;
            // strictly increasing so every shard owns at least one node.
            let target = (arcs * s) / s_count;
            let found = self
                .offsets
                .partition_point(|&off| (off as usize) < target)
                .clamp(prev_node + 1, n - (s_count - s));
            node_starts.push(found as u32);
            // Boundary words belong to the *later* shard, so word ranges
            // are monotone and partition `0..total_words` exactly.
            let word = (self.offsets[found] as usize / 64).min(total_words) as u32;
            word_starts.push(word.max(*word_starts.last().unwrap()));
            let node_word = (found / 64).min(total_node_words) as u32;
            node_word_starts.push(node_word.max(*node_word_starts.last().unwrap()));
            prev_node = found;
        }
        node_starts.push(n as u32);
        word_starts.push(total_words as u32);
        node_word_starts.push(total_node_words as u32);
        ShardPlan {
            node_starts,
            word_starts,
            node_word_starts,
            arcs,
            n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, harary, path};

    fn check_plan(g: &Graph, shards: usize) {
        let plan = g.shard_plan(shards);
        let s_count = plan.num_shards();
        assert!(s_count >= 1 && s_count <= shards.max(1));
        // Node ranges partition 0..n.
        let mut node = 0u32;
        for s in 0..s_count {
            let r = plan.nodes(s);
            assert_eq!(r.start, node);
            assert!(r.end >= r.start);
            node = r.end;
        }
        assert_eq!(node as usize, g.n());
        // Word ranges partition 0..words_for(arcs).
        let mut word = 0usize;
        for s in 0..s_count {
            let r = plan.words(s);
            assert_eq!(r.start, word);
            word = r.end;
        }
        assert_eq!(word, g.num_arcs().div_ceil(64));
        // Arc ranges concatenate to 0..arcs.
        let mut arc = 0usize;
        for s in 0..s_count {
            let r = plan.arcs_of(s);
            assert_eq!(r.start, arc);
            arc = r.end;
        }
        assert_eq!(arc, g.num_arcs());
        // Node-word ranges partition 0..words_for(n), and their node spans
        // concatenate to 0..n.
        let mut nw = 0usize;
        let mut nn = 0usize;
        for s in 0..s_count {
            let r = plan.node_words(s);
            assert_eq!(r.start, nw);
            nw = r.end;
            let r = plan.node_word_nodes(s);
            assert_eq!(r.start, nn);
            nn = r.end;
        }
        assert_eq!(nw, g.n().div_ceil(64));
        assert_eq!(nn, g.n());
        // Every shard with multiple requested shards owns ≥ 1 node when
        // shards ≤ n.
        if shards <= g.n() {
            for s in 0..s_count {
                assert!(!plan.nodes(s).is_empty(), "shard {s} empty");
            }
        }
    }

    #[test]
    fn plans_partition_nodes_words_and_arcs() {
        for g in [harary(6, 100), complete(40), path(9), harary(16, 257)] {
            for shards in [1usize, 2, 3, 4, 7, 8, 64, 1000] {
                check_plan(&g, shards);
            }
        }
    }

    #[test]
    fn active_count_accessors_bound_the_true_counts() {
        for g in [harary(6, 100), complete(40), path(9), harary(16, 257)] {
            for shards in [1usize, 2, 3, 7, 64] {
                let plan = g.shard_plan(shards);
                let mut arc_sum = 0usize;
                let mut node_sum = 0usize;
                for s in 0..plan.num_shards() {
                    assert_eq!(plan.arc_count(s), plan.arcs_of(s).len());
                    // The true out-degree sum of the shard's nodes never
                    // exceeds the word-padded bound.
                    let out: usize = plan.nodes(s).map(|v| g.degree(v)).sum();
                    assert!(
                        out <= plan.out_arc_bound(s),
                        "shard {s}: out {out} > bound {}",
                        plan.out_arc_bound(s)
                    );
                    assert!(plan.out_arc_bound(s) <= g.num_arcs());
                    arc_sum += plan.arc_count(s);
                    node_sum += plan.nodes(s).len();
                }
                assert_eq!(arc_sum, g.num_arcs());
                assert_eq!(node_sum, g.n());
            }
        }
    }

    #[test]
    fn arc_balance_is_reasonable() {
        let g = harary(16, 4096);
        let plan = g.shard_plan(8);
        assert_eq!(plan.num_shards(), 8);
        let per = g.num_arcs() / 8;
        for s in 0..8 {
            let owned = plan.arcs_of(s).len();
            assert!(
                owned > per / 2 && owned < per * 2,
                "shard {s} owns {owned} arcs, target {per}"
            );
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = crate::builder::GraphBuilder::new(0).build().unwrap();
        let plan = g.shard_plan(4);
        assert_eq!(plan.num_shards(), 1);
        assert!(plan.nodes(0).is_empty());
        assert!(plan.words(0).is_empty());

        let g = path(2);
        check_plan(&g, 8);
    }
}
