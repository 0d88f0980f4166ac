//! Datacenter gossip: the §1.2 "everyone broadcasts one value" workload
//! (k = n — one round of the broadcast congested clique) across network
//! fabrics of different redundancy, including the case where the operator
//! does **not** know the fabric's edge connectivity (exponential search).
//!
//! Scenario: every rack holds one health summary that every other rack
//! must learn. Fat fabrics (high λ) should disseminate in far fewer
//! rounds than thin ones — exactly Theorem 1's promise.
//!
//! ```text
//! cargo run --release --example datacenter_gossip
//! ```

use fast_broadcast::core::broadcast::{partition_broadcast, BroadcastConfig, BroadcastInput};
use fast_broadcast::core::exp_search::exp_search_broadcast;
use fast_broadcast::core::textbook::textbook_broadcast;
use fast_broadcast::graph::generators::{clique_chain, harary, random_regular, torus2d};
use fast_broadcast::graph::Graph;
use fast_broadcast::sim::Session;

fn main() {
    println!("datacenter gossip: every node broadcasts one value (k = n)\n");
    let fabrics: Vec<(&str, Graph, usize)> = vec![
        ("2-D torus 12×12 (thin, λ=4)", torus2d(12, 12), 4),
        (
            "clique-chain 6×24, 8 uplinks (λ=8)",
            clique_chain(6, 24, 8),
            8,
        ),
        ("circulant fat fabric (λ=24)", harary(24, 144), 24),
        ("random 16-regular fabric", random_regular(144, 16, 7), 16),
    ];

    println!(
        "{:<40} {:>6} {:>12} {:>12} {:>9}",
        "fabric", "n", "thm1 rounds", "textbook", "speedup"
    );
    for (name, g, lambda) in &fabrics {
        let input = BroadcastInput::one_per_node(g);
        let out =
            partition_broadcast(&mut Session::new(g), &input, *lambda, 99).expect("broadcast");
        assert!(out.all_delivered());
        let tb = textbook_broadcast(g, &input, 99).expect("textbook");
        println!(
            "{:<40} {:>6} {:>12} {:>12} {:>8.2}x",
            name,
            g.n(),
            out.total_rounds,
            tb.total_rounds,
            tb.total_rounds as f64 / out.total_rounds as f64
        );
    }

    // Operating without knowing λ: the exponential-search variant learns a
    // workable decomposition on its own (paper §1.1 Remark).
    println!("\nunknown-λ operation (exponential search) on the fat fabric:");
    let g = harary(24, 144);
    let input = BroadcastInput::one_per_node(&g);
    let (out, report) =
        exp_search_broadcast(&g, &input, &BroadcastConfig::with_seed(7)).expect("exp search");
    assert!(out.all_delivered());
    println!(
        "  learned δ = {}, tried λ̃ = {:?}, accepted λ̃ = {} → λ' = {} trees, {} rounds total",
        report.delta, report.tried, report.accepted, report.num_subgraphs, out.total_rounds
    );
}
