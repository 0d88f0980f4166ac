//! Quickstart: run the paper's broadcast (Theorem 1) on a well-connected
//! network and compare it with the textbook baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fast_broadcast::core::broadcast::{partition_broadcast, BroadcastInput};
use fast_broadcast::core::lower_bounds::{optimality_ratio, theorem3_broadcast_lb};
use fast_broadcast::core::textbook::textbook_broadcast;
use fast_broadcast::graph::algo::eccentricity;
use fast_broadcast::graph::generators::harary;
use fast_broadcast::graph::metrics::GraphParams;
use fast_broadcast::sim::Session;

fn main() {
    // A λ=16-edge-connected circulant network on 128 nodes.
    let lambda = 16;
    let g = harary(lambda, 128);
    let params = GraphParams::measure(&g);
    println!(
        "network: n = {}, m = {}, δ = {}, λ = {}, D = {:?}",
        params.n, params.m, params.delta, params.lambda, params.diameter
    );

    // k = 4n messages scattered uniformly at random.
    let k = 4 * g.n();
    let input = BroadcastInput::random_spread(&g, k, 2024);
    println!("broadcasting k = {k} messages…");

    // Theorem 1: partition broadcast.
    let outcome = partition_broadcast(&mut Session::new(&g), &input, lambda, 0xC0FFEE)
        .expect("partition broadcast");
    assert!(outcome.all_delivered());
    println!(
        "\n== Theorem 1 (partition broadcast): {} rounds over {} edge-disjoint trees",
        outcome.total_rounds, outcome.num_subgraphs
    );
    print!("{}", outcome.phases.breakdown());

    // Textbook O(D + k) baseline.
    let tb = textbook_broadcast(&g, &input, 0xC0FFEE).expect("textbook broadcast");
    assert!(tb.all_delivered());
    println!(
        "\n== textbook (single BFS tree): {} rounds",
        tb.total_rounds
    );
    print!("{}", tb.phases.breakdown());

    // How close to the lower bound? Theorem 3's Ω(k/λ), and the
    // eccentricity of s₀, the node holding message 0: everyone must hear it.
    let lb = theorem3_broadcast_lb(k as u64, lambda as u64);
    let ecc = eccentricity(&g, input.messages[0].0).expect("connected") as u64;
    println!("\nlower bound: max(ecc(s₀) = {ecc}, Theorem 3's Ω(k/λ) ≈ {lb:.0}) rounds");
    println!(
        "optimality ratio: theorem 1 = {:.1}×LB, textbook = {:.1}×LB, speedup = {:.2}×",
        optimality_ratio(outcome.total_rounds, k as u64, lambda as u64, ecc),
        optimality_ratio(tb.total_rounds, k as u64, lambda as u64, ecc),
        tb.total_rounds as f64 / outcome.total_rounds as f64
    );
}
