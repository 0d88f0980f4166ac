//! Property-based tests for the multiplexer port rings: random
//! push/pop/serve interleavings checked against a plain `VecDeque` model,
//! including ring wraparound, drain orders, and capacities sitting
//! exactly at the Theorem-12 congestion bound.

use congest_sim::sched::PortRings;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Drive `rings` and a `VecDeque`-per-port model through the same
/// operation stream, asserting identical observable behavior after every
/// step. `ops` entries pick a port and an action; pushes respect the
/// capacity bound (overflow is a separate panic test).
fn check_against_model(degree: usize, cap: usize, ops: &[(u8, u8)]) {
    let mut rings = PortRings::new(degree, cap);
    let mut model: Vec<VecDeque<u128>> = vec![VecDeque::new(); degree];
    let mut next_word: u128 = 1;
    let mut model_peak = 0usize;
    for &(port_pick, action) in ops {
        let p = port_pick as usize % degree;
        match action % 4 {
            // Push (skipped at the bound — overflow panics by contract).
            0 | 1 => {
                if model[p].len() < rings.capacity() {
                    rings.push(p, next_word);
                    model[p].push_back(next_word);
                    model_peak = model_peak.max(model[p].len());
                    next_word += 1;
                }
            }
            // Pop one from this port.
            2 => {
                assert_eq!(rings.pop(p), model[p].pop_front(), "pop on port {p}");
            }
            // Serve: pop one from every nonempty port, ascending.
            _ => {
                let mut served = Vec::new();
                rings.serve(|port, word| served.push((port, word)));
                let mut expect = Vec::new();
                for (port, q) in model.iter_mut().enumerate() {
                    if let Some(w) = q.pop_front() {
                        expect.push((port, w));
                    }
                }
                assert_eq!(served, expect, "serve order/content");
            }
        }
        assert_eq!(
            rings.queued(),
            model.iter().map(|q| q.len()).sum::<usize>(),
            "queued total"
        );
        for (port, q) in model.iter().enumerate() {
            assert_eq!(rings.len(port), q.len(), "len on port {port}");
        }
    }
    // Full drain, port by port, must replay every queue in FIFO order.
    for (port, q) in model.iter_mut().enumerate() {
        while let Some(w) = q.pop_front() {
            assert_eq!(rings.pop(port), Some(w), "drain port {port}");
        }
        assert_eq!(rings.pop(port), None);
    }
    assert_eq!(rings.queued(), 0);
    assert_eq!(rings.peak(), model_peak, "peak depth matches the model");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings over random shapes: every push/pop/serve/
    /// wraparound/drain order the model can express.
    #[test]
    fn rings_match_vecdeque_model(
        degree in 1usize..9,
        cap in 1usize..20,
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..200),
    ) {
        check_against_model(degree, cap, &ops);
    }

    /// Capacity exactly at the Theorem-12 bound: fill every port to the
    /// brim, then drain in FIFO order — the
    /// boundary the congestion theorem parameterizes the scheduler by.
    #[test]
    fn exact_capacity_fill_and_drain(
        degree in 1usize..6,
        cap in 1usize..40,
        interleave in any::<bool>(),
    ) {
        let mut rings = PortRings::new(degree, cap);
        let total = rings.capacity();
        prop_assert_eq!(total, cap, "the capacity is the declared bound");
        for p in 0..degree {
            for i in 0..total {
                rings.push(p, (p * 1000 + i) as u128);
            }
            prop_assert_eq!(rings.len(p), total);
        }
        if interleave {
            // One pop frees exactly one slot at the bound; push refills it.
            for p in 0..degree {
                prop_assert_eq!(rings.pop(p), Some((p * 1000) as u128));
                rings.push(p, 0xFFFF + p as u128);
            }
        }
        for p in 0..degree {
            for i in 0..total {
                let expect = if interleave && i == 0 {
                    continue; // popped above
                } else {
                    (p * 1000 + i) as u128
                };
                prop_assert_eq!(rings.pop(p), Some(expect), "port {} slot {}", p, i);
            }
            if interleave {
                prop_assert_eq!(rings.pop(p), Some(0xFFFF + p as u128));
            }
            prop_assert_eq!(rings.pop(p), None);
        }
        prop_assert_eq!(rings.queued(), 0);
    }
}

/// One past the bound must panic with the congestion hint, at small and
/// large capacities alike.
#[test]
fn overflow_panics_at_every_capacity() {
    for cap in [1usize, 3, 4, 5, 7, 12] {
        let result = std::panic::catch_unwind(|| {
            let mut rings = PortRings::new(2, cap);
            for i in 0..=rings.capacity() as u128 {
                rings.push(1, i);
            }
        });
        let err = result.expect_err("push past capacity must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(
            msg.contains("ring overflow on port 1"),
            "cap {cap}: message was {msg:?}"
        );
    }
}
