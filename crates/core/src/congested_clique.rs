//! Simulating the **broadcast congested clique** (paper §1.2).
//!
//! In the broadcast congested clique model \[DKO14\], every node per round
//! broadcasts one `O(log n)`-bit value that *all* other nodes receive. The
//! paper: *"we can broadcast k = Θ(n) messages in O((n log n)/λ) rounds.
//! In particular, … this immediately yields a simulation of one round of
//! the broadcast congested clique model"* — universally optimal up to the
//! log factor.
//!
//! [`simulate_bcc_round`] runs one BCC round (everyone's value reaches
//! everyone) through the real Theorem 1 broadcast; [`simulate_bcc`] chains
//! `T` rounds of a user-supplied BCC algorithm, where each node's next
//! value may depend on everything heard so far — which is exactly the BCC
//! computational model.

use crate::broadcast::{partition_broadcast_at, BroadcastError, BroadcastInput};
use congest_graph::{Graph, Node};
use congest_sim::{PhaseLog, Session};

/// One node's view after a BCC round: every node's broadcast value,
/// indexed by node id.
pub type BccView = Vec<u64>;

/// Outcome of simulating one or more BCC rounds.
#[derive(Debug, Clone)]
pub struct BccOutcome {
    /// CONGEST rounds spent per simulated BCC round.
    pub rounds_per_bcc_round: Vec<u64>,
    /// Total CONGEST rounds.
    pub total_rounds: u64,
    /// Full per-phase accounting.
    pub phases: PhaseLog,
    /// The final views (identical at every node; returned once).
    pub final_view: BccView,
}

/// Simulate one round of the broadcast congested clique: node `v`
/// contributes `values[v]`; afterwards every node knows all `n` values.
///
/// The payload packs `(v, value)` so receivers can index the view; values
/// must fit 32 bits (one `O(log n)`-bit word — the BCC contract).
pub fn simulate_bcc_round(
    g: &Graph,
    values: &[u32],
    lambda: usize,
    seed: u64,
) -> Result<(BccView, u64, PhaseLog), BroadcastError> {
    bcc_round(&mut Session::new(g), values, lambda, seed)
}

/// [`simulate_bcc_round`] on the caller's session, so chained BCC rounds
/// reuse one preallocated engine.
fn bcc_round(
    host: &mut Session<'_>,
    values: &[u32],
    lambda: usize,
    seed: u64,
) -> Result<(BccView, u64, PhaseLog), BroadcastError> {
    let n = host.graph().n();
    assert_eq!(values.len(), n);
    let input = BroadcastInput {
        messages: (0..n as Node)
            .map(|v| (v, ((v as u64) << 32) | values[v as usize] as u64))
            .collect(),
    };
    let out = partition_broadcast_at(host, &input, lambda, seed)?;
    // Every node now holds every `(v, value)` by the delivery guarantee,
    // so the view is the values themselves.
    let view = values.iter().map(|&x| x as u64).collect();
    Ok((view, out.total_rounds, out.phases))
}

/// Simulate `T` rounds of a BCC algorithm: `step(v, round, view)` returns
/// node `v`'s next broadcast value given the previous round's full view
/// (round 0 receives the initial values as the "view" of themselves only).
pub fn simulate_bcc<F>(
    g: &Graph,
    initial: &[u32],
    lambda: usize,
    rounds: usize,
    seed: u64,
    mut step: F,
) -> Result<BccOutcome, BroadcastError>
where
    F: FnMut(Node, usize, &BccView) -> u32,
{
    let n = g.n();
    // One resident engine serves every broadcast of every BCC round.
    let mut host = Session::new(g);
    let mut values: Vec<u32> = initial.to_vec();
    let mut phases = PhaseLog::new();
    let mut per_round = Vec::with_capacity(rounds);
    let mut view: BccView = initial.iter().map(|&x| x as u64).collect();
    for t in 0..rounds {
        let (new_view, cost, round_phases) = bcc_round(
            &mut host,
            &values,
            lambda,
            seed.wrapping_add(t as u64 * 0x9E37),
        )?;
        view = new_view;
        per_round.push(cost);
        phases.append(&format!("bcc[{t}] "), round_phases);
        values = (0..n as Node).map(|v| step(v, t, &view)).collect();
    }
    Ok(BccOutcome {
        total_rounds: per_round.iter().sum(),
        rounds_per_bcc_round: per_round,
        phases,
        final_view: view,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators::{complete, harary};

    #[test]
    fn one_bcc_round_spreads_all_values() {
        let g = harary(16, 64);
        let values: Vec<u32> = (0..64).map(|v| v * v + 1).collect();
        let (view, cost, _) = simulate_bcc_round(&g, &values, 16, 7).unwrap();
        for v in 0..64usize {
            assert_eq!(view[v], (values[v]) as u64);
        }
        assert!(cost > 0);
    }

    #[test]
    fn multi_round_bcc_computes_global_max_in_one_step() {
        // Classic BCC warm-up: after one exchange everyone knows the max.
        let g = harary(16, 48);
        let initial: Vec<u32> = (0..48).map(|v| (v * 37) % 101).collect();
        let expected_max = *initial.iter().max().unwrap();
        let out = simulate_bcc(&g, &initial, 16, 2, 3, |_, _, view| {
            view.iter().map(|&x| x as u32).max().unwrap()
        })
        .unwrap();
        assert_eq!(out.rounds_per_bcc_round.len(), 2);
        // After round 0 everyone broadcast the max; round 1's view is all-max.
        assert!(out.final_view.iter().all(|&x| x == expected_max as u64));
    }

    #[test]
    fn bcc_cost_scales_inverse_with_lambda() {
        let values: Vec<u32> = (0..96).collect();
        let (_, thin, _) = simulate_bcc_round(&harary(8, 96), &values, 8, 5).unwrap();
        let (_, fat, _) = simulate_bcc_round(&complete(96), &values, 95, 5).unwrap();
        assert!(
            fat < thin,
            "the clique (λ=95) must simulate BCC faster than λ=8: {fat} vs {thin}"
        );
    }
}
