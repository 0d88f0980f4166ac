//! The CONGEST O(log n)-bit message discipline, checked rather than
//! assumed: every protocol in the workspace must ship messages of a small
//! constant number of machine words — never growing with k, n, or the
//! number of subgraphs. Every phase that sends reports its protocol's
//! fixed wire width, `PackedMsg::WIDTH`, as
//! [`fast_broadcast::sim::RunStats::max_message_bits`]; these tests pin
//! the ceilings.

use fast_broadcast::core::broadcast::{
    partition_broadcast_hosted, BroadcastConfig, BroadcastInput,
};
use fast_broadcast::core::partition::PartitionParams;
use fast_broadcast::core::textbook::textbook_broadcast;
use fast_broadcast::graph::generators::harary;
use fast_broadcast::sim::Session;

/// A generous constant ceiling: three 64-bit words. Every wire format in
/// the workspace (ids + payload + tags) fits; anything larger would mean
/// a protocol smuggling non-CONGEST amounts of data per round.
const CEILING_BITS: usize = 192;

#[test]
fn theorem1_messages_fit_constant_words() {
    let g = harary(16, 96);
    for k in [24usize, 96, 384] {
        let input = BroadcastInput::random_spread(&g, k, 1);
        let params = PartitionParams::from_lambda(96, 16, 2.0);
        let (out, _) = partition_broadcast_hosted(
            &mut Session::new(&g),
            &input,
            params,
            &BroadcastConfig::with_seed(5),
            30,
        )
        .unwrap();
        assert!(out.all_delivered());
        assert!(
            out.stats.max_message_bits <= CEILING_BITS,
            "k = {k}: message of {} bits exceeds the CONGEST ceiling",
            out.stats.max_message_bits
        );
    }
}

#[test]
fn message_size_does_not_grow_with_k() {
    // The defining property of O(log n) messages: quadrupling k leaves
    // the max message size unchanged (contrast with shipping message
    // *sets*, which would grow linearly).
    let g = harary(16, 96);
    let size_at = |k: usize| {
        let input = BroadcastInput::random_spread(&g, k, 2);
        let params = PartitionParams::from_lambda(96, 16, 2.0);
        let (out, _) = partition_broadcast_hosted(
            &mut Session::new(&g),
            &input,
            params,
            &BroadcastConfig::with_seed(7),
            30,
        )
        .unwrap();
        out.stats.max_message_bits
    };
    assert_eq!(size_at(48), size_at(192));
}

#[test]
fn textbook_messages_fit_too() {
    let g = harary(8, 64);
    let input = BroadcastInput::random_spread(&g, 128, 3);
    let out = textbook_broadcast(&g, &input, 9).unwrap();
    assert!(out.all_delivered());
    assert!(out.stats.max_message_bits <= CEILING_BITS);
}

#[test]
fn congestion_accounting_matches_lemma1_claim() {
    // Lemma 1: congestion O(k) on the single tree. Theorem 1: congestion
    // O(k/λ′)·const per edge in the routing phase. Check the *ratio*.
    let g = harary(32, 96);
    let k = 8 * 96;
    let input = BroadcastInput::random_spread(&g, k, 4);
    let tb = textbook_broadcast(&g, &input, 11).unwrap();
    let params = PartitionParams::from_lambda(96, 32, 2.0);
    let (pt, _) = partition_broadcast_hosted(
        &mut Session::new(&g),
        &input,
        params,
        &BroadcastConfig::with_seed(11),
        30,
    )
    .unwrap();
    let tb_routing = tb
        .phases
        .phases()
        .find(|(n, _)| n.contains("pipeline"))
        .unwrap()
        .1
        .max_edge_congestion;
    let pt_routing = pt
        .phases
        .phases()
        .find(|(n, _)| n.contains("routing"))
        .unwrap()
        .1
        .max_edge_congestion;
    assert!(
        pt_routing < tb_routing,
        "splitting k over λ' trees must reduce per-edge congestion: {pt_routing} vs {tb_routing}"
    );
}
