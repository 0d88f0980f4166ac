//! Tier-2 scale smoke tests over the `large_sparse` generator preset
//! (bounded degree 6, δ = λ = 6, diameter `O(n^{1/3})`).
//!
//! These are `#[ignore]`d: they run minutes-scale workloads meant for
//! `cargo test --release -- --ignored` (or the CI tier-2 lane), not the
//! tier-1 suite.

use congest_core::broadcast::{partition_broadcast, BroadcastInput};
use congest_graph::generators::large_sparse;
use congest_sim::{run_protocol, EngineConfig, NodeCtx, Protocol, Session};

/// Message-driven flood from node 0.
struct Flood {
    informed: bool,
    relayed: bool,
}

impl Protocol for Flood {
    type Msg = ();
    type Output = bool;
    fn round(&mut self, ctx: &mut NodeCtx<'_, ()>) {
        if ctx.round == 0 && ctx.node == 0 {
            self.informed = true;
        }
        if ctx.inbox_len() > 0 {
            self.informed = true;
        }
        if self.informed && !self.relayed {
            ctx.send_all(());
            self.relayed = true;
        }
        ctx.set_done(self.relayed);
    }
    fn finish(self) -> bool {
        self.informed
    }
}

#[test]
#[ignore = "tier-2 scale smoke: ~10^6 nodes, run with --release -- --ignored"]
fn flood_broadcast_covers_a_million_node_large_sparse() {
    let n = 1_000_000;
    let g = large_sparse(n);
    assert_eq!(g.max_degree(), 6);
    let out = run_protocol(
        &g,
        |_, _| Flood {
            informed: false,
            relayed: false,
        },
        EngineConfig::with_seed(7).max_rounds(5_000),
    )
    .expect("flood must terminate within the diameter bound");
    assert!(out.outputs.iter().all(|&x| x), "every node informed");
    // Diameter is O(n^{1/3}) ≈ 150 for n = 10^6; leave generous slack.
    assert!(
        out.stats.rounds <= 1_000,
        "diameter-bound broadcast took {} rounds",
        out.stats.rounds
    );
    assert!(
        out.stats.total_messages as usize >= n,
        "flood reached everyone"
    );
}

#[test]
#[ignore = "tier-2 scale smoke: Theorem 1 broadcast at 2·10^5 nodes, run with --release -- --ignored"]
fn partition_broadcast_over_large_sparse() {
    let g = large_sparse(200_000);
    let input = BroadcastInput::at_single_node(&g, 0, 8);
    let out =
        partition_broadcast(&mut Session::new(&g), &input, 6, 42).expect("broadcast completes");
    assert!(out.all_delivered(), "all 8 messages at every node");
}
