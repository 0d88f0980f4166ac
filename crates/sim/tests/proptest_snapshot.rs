//! The snapshot differential harness: interrupting a multi-phase
//! composition at any phase boundary — snapshot, restore into a fresh
//! session (standing in for a fresh process), continue — must be
//! bit-identical to the uninterrupted run: outputs, stats, traces,
//! per-edge congestion, and the per-phase state hashes, across
//! checkpoint positions × shard counts × fault plans.
//!
//! Alongside the oracle: state-hash invariance across pool widths ×
//! shard counts (the hash folds only nonzero words, so execution
//! strategy cannot leak into it), and the tamper suite (a mutation property over valid frames — byte flips,
//! truncations, inflated length prefixes, header fields out of range —
//! beside the fixed magic, version, fingerprint, unknown-flag and
//! trailing-bytes cases: every corruption is a typed refusal), and the
//! frame of a round-limited session, which continues like the session it
//! was taken from and refuses a flipped clean flag.

use congest_graph::{Graph, GraphBuilder};
use congest_sim::rng::{mix64, phase_seed};
use congest_sim::{EngineConfig, FaultPlan, NodeCtx, Protocol, RunStats, Session, SnapshotError};
use proptest::prelude::*;

fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (4..max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mix = |mut z: u64| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        };
        let mut b = GraphBuilder::new(n);
        let mut edges = std::collections::BTreeSet::new();
        for v in 1..n as u32 {
            let u = (mix(seed ^ v as u64) % v as u64) as u32;
            edges.insert((u, v));
        }
        for i in 0..2 * n as u64 {
            let u = (mix(seed ^ (i << 20)) % n as u64) as u32;
            let v = (mix(seed ^ (i << 21) ^ 7) % n as u64) as u32;
            if u != v {
                edges.insert((u.min(v), u.max(v)));
            }
        }
        for (u, v) in edges {
            b.push_edge(u, v);
        }
        b.build().unwrap()
    })
}

/// Random mix of `send_all`, per-port `send`, and silence (the engine
/// oracle workload, as in `proptest_session.rs`).
struct Chatter {
    rounds: u64,
    salt: u64,
    heard: u64,
}

impl Protocol for Chatter {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        self.heard = ctx.inbox().fold(self.heard, |a, (p, m)| {
            a.wrapping_mul(17).wrapping_add(m ^ p as u64)
        });
        if ctx.round < self.rounds {
            use rand::Rng;
            let a = ctx.rng().gen_range(0..8u32);
            let m: u64 = ctx.rng().gen();
            if a == 0 {
                ctx.send_all(m ^ self.salt);
            } else if a < 5 {
                for p in 0..ctx.degree().min(64) as u32 {
                    if m >> p & 1 == 1 {
                        ctx.send(p, m.wrapping_add(self.salt ^ p as u64));
                    }
                }
            }
        }
        ctx.set_done(ctx.round >= self.rounds);
    }
    fn finish(self) -> u64 {
        self.heard
    }
}

/// Wide `(u32, u64)` phase in the `u128` slab, so the composition grows
/// the high-water marks a snapshot must carry across.
struct WideChatter {
    rounds: u64,
    heard: u64,
}

impl Protocol for WideChatter {
    type Msg = (u32, u64);
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, (u32, u64)>) {
        self.heard = ctx.inbox().fold(self.heard, |a, (_, (id, p))| {
            a.wrapping_mul(31).wrapping_add(id as u64 ^ p)
        });
        if ctx.round < self.rounds {
            ctx.send_all((ctx.node, self.heard | 1));
        } else {
            ctx.set_done(true);
        }
    }
    fn finish(self) -> u64 {
        self.heard
    }
}

/// One phase's complete observable footprint plus the post-phase state
/// hash.
#[derive(Debug, PartialEq)]
struct PhaseObs {
    outputs: Vec<u64>,
    stats: RunStats,
    trace: Vec<u64>,
    edge_congestion: Vec<u64>,
    state_hash: u64,
}

const PHASES: u64 = 5;

/// Run phase `k` (1-based) of the five-phase composition on `session`:
/// dense chatter, a wide `u128` phase, sparse-forced chatter, a faulted
/// phase, and default-threshold chatter — the same grid the session
/// differential harness sweeps.
fn run_phase(
    session: &mut Session<'_>,
    k: u64,
    seed: u64,
    shards: usize,
    fault_budget: usize,
    fseed: u64,
) -> PhaseObs {
    let engine = EngineConfig::with_seed(phase_seed(seed, k))
        .shards(shards)
        .trace();
    let observe = |out: congest_sim::PhaseOutcome<'_, u64>| {
        (
            out.stats,
            out.trace().unwrap().to_vec(),
            out.edge_congestion().to_vec(),
            out.take_outputs(),
        )
    };
    // On one lane, so the pinned shards run in order on the calling thread.
    let (stats, trace, edge_congestion, outputs) = congest_par::with_threads(1, || match k {
        1 => observe(
            session
                .run(
                    |_, _| Chatter {
                        rounds: 6,
                        salt: 1,
                        heard: 0,
                    },
                    engine,
                )
                .unwrap(),
        ),
        2 => {
            let out = session
                .run(
                    |_, _| WideChatter {
                        rounds: 5,
                        heard: 1,
                    },
                    engine,
                )
                .unwrap();
            (
                out.stats,
                out.trace().unwrap().to_vec(),
                out.edge_congestion().to_vec(),
                out.take_outputs(),
            )
        }
        3 => observe(
            session
                .run(
                    |_, _| Chatter {
                        rounds: 6,
                        salt: 3,
                        heard: 0,
                    },
                    engine.sparse_threshold(usize::MAX),
                )
                .unwrap(),
        ),
        4 => observe(
            session
                .run(
                    |_, _| Chatter {
                        rounds: 7,
                        salt: 4,
                        heard: 0,
                    },
                    engine
                        .sparse_threshold(0)
                        .with_faults(FaultPlan::new(fault_budget, fseed)),
                )
                .unwrap(),
        ),
        _ => observe(
            session
                .run(
                    |_, _| Chatter {
                        rounds: 6,
                        salt: 5,
                        heard: 0,
                    },
                    engine,
                )
                .unwrap(),
        ),
    });
    PhaseObs {
        outputs,
        stats,
        trace,
        edge_congestion,
        state_hash: session.state_hash(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole oracle: snapshot at phase boundary `cut`, restore
    /// into a fresh session, continue — every phase's outputs, stats,
    /// trace, per-edge congestion, and state hash match the
    /// uninterrupted run, and the restored hash equals the recorded one.
    #[test]
    fn snapshot_restore_continue_is_bit_identical(
        g in arb_connected_graph(20),
        seed in any::<u64>(),
        cut in 0u64..=PHASES,
        fault_budget in 0usize..3,
        fseed in any::<u64>(),
    ) {
        for &shards in &[1usize, 5] {
            // Uninterrupted reference.
            let mut reference = Session::new(&g);
            let expected: Vec<PhaseObs> = (1..=PHASES)
                .map(|k| run_phase(&mut reference, k, seed, shards, fault_budget, fseed))
                .collect();

            // Interrupted arm: run to the cut, checkpoint, restore.
            let mut first = Session::new(&g);
            let mut got: Vec<PhaseObs> = (1..=cut)
                .map(|k| run_phase(&mut first, k, seed, shards, fault_budget, fseed))
                .collect();
            let bytes = first.snapshot();
            drop(first);

            let header = congest_sim::snapshot::peek(&bytes).unwrap();
            prop_assert_eq!(header.fingerprint, g.fingerprint());
            prop_assert!(header.clean);

            let mut resumed = Session::restore(&g, &bytes).unwrap();
            prop_assert_eq!(resumed.state_hash(), header.state_hash);
            got.extend(
                (cut + 1..=PHASES)
                    .map(|k| run_phase(&mut resumed, k, seed, shards, fault_budget, fseed)),
            );
            prop_assert_eq!(&got, &expected, "cut={} shards={}", cut, shards);
        }
    }

    /// The per-phase state-hash sequence is invariant across execution
    /// strategy: one shard on one lane vs one and five shards on two- and
    /// four-lane pools produce identical hashes at every boundary.
    #[test]
    fn state_hash_is_execution_invariant(
        g in arb_connected_graph(18),
        seed in any::<u64>(),
    ) {
        let hashes = |shards: usize, threads: usize| -> Vec<u64> {
            congest_par::with_threads(threads, || {
                let mut s = Session::new(&g);
                (1..=PHASES)
                    .map(|k| {
                        let cfg = EngineConfig::with_seed(phase_seed(seed, k)).shards(shards);
                        let out = s
                            .run(
                                |_, _| Chatter {
                                    rounds: 5,
                                    salt: k,
                                    heard: 0,
                                },
                                cfg,
                            )
                            .unwrap();
                        drop(out);
                        s.state_hash()
                    })
                    .collect()
            })
        };
        let serial = hashes(1, 1);
        for (shards, threads) in [(1, 2), (5, 4)] {
            let par = hashes(shards, threads);
            prop_assert_eq!(&par, &serial, "shards={} threads={}", shards, threads);
        }
    }
}

// ---- Tamper suite: every corruption is a typed refusal. ----

/// `unwrap_err` without requiring `Debug` on the session types.
fn refusal<T>(r: Result<T, SnapshotError>) -> SnapshotError {
    match r {
        Err(e) => e,
        Ok(_) => panic!("expected a snapshot refusal"),
    }
}

fn small_graph() -> Graph {
    GraphBuilder::new(6)
        .edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        .build()
        .unwrap()
}

fn warm_frame(g: &Graph) -> Vec<u8> {
    let mut s = Session::new(g);
    let out = s
        .run(
            |_, _| Chatter {
                rounds: 4,
                salt: 7,
                heard: 0,
            },
            EngineConfig::with_seed(11),
        )
        .unwrap();
    drop(out);
    s.snapshot()
}

/// A frame with the checksum recomputed over whatever it now holds — the
/// checksum is a public fold, so this is what a crafted frame looks like.
fn resealed(mut frame: Vec<u8>) -> Vec<u8> {
    let sum = congest_sim::snapshot::checksum(&frame[24..]);
    frame[16..24].copy_from_slice(&sum.to_le_bytes());
    frame
}

fn word_at(frame: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(frame[at..at + 8].try_into().unwrap())
}

fn with_word(frame: &[u8], at: usize, word: u64) -> Vec<u8> {
    let mut bad = frame.to_vec();
    bad[at..at + 8].copy_from_slice(&word.to_le_bytes());
    bad
}

/// Byte offsets of the fixed header's fields (`congest_sim::snapshot`
/// module docs).
const FINGERPRINT: usize = 24;
const SHAPE: [usize; 3] = [32, 40, 48];
const STATE_HASH: usize = 56;
const BODY: usize = 64;

/// Offsets of every length prefix in a frame's body, walking the layout
/// the module docs give: the engine payload's two `u64` vectors. Ends
/// exactly at the frame's end or the layout moved.
fn length_prefixes(frame: &[u8]) -> Vec<usize> {
    let mut found = Vec::new();
    let mut at = BODY;
    for _ in 0..2 {
        found.push(at);
        at += 8 + word_at(frame, at) as usize * 8;
    }
    assert_eq!(at, frame.len(), "the frame layout moved");
    found
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The mutation property: take a valid `Session` frame — cold or
    /// warm — and damage it one way at a time. Any single byte flip and any
    /// truncation (as they are, and the truncation also with the checksum
    /// recomputed); any length prefix inflated and any header field moved,
    /// both with the checksum recomputed. None may panic, abort (a length
    /// believed is an allocation), or restore.
    #[test]
    fn mutated_frames_never_restore(
        g in arb_connected_graph(14),
        seed in any::<u64>(),
        phases in 0u64..3,
        picks in any::<u64>(),
    ) {
        let mut s = Session::new(&g);
        for k in 1..=phases {
            run_phase(&mut s, k, seed, 2, 1, seed);
        }
        let frame = s.snapshot();
        let restore = |bytes: &[u8]| Session::restore(&g, bytes).map(drop);
        prop_assert_eq!(restore(&frame), Ok(()));
        let prefixes = length_prefixes(&frame);
        // Far past anything a graph of < 14 nodes allows, below and at the
        // top of the range.
        let absurd = |r: u64| if r & 1 == 0 { (1 << 40) + (r >> 24) } else { u64::MAX - (r >> 24) };

        let mut picks = picks;
        let mut pick = || {
            picks = mix64(picks.wrapping_add(0x9E37_79B9_7F4A_7C15));
            picks
        };
        for _ in 0..4 {
            let at = pick() as usize % frame.len();
            let mut bad = frame.clone();
            bad[at] ^= (1 + pick() % 255) as u8;
            prop_assert!(restore(&bad).is_err(), "byte {} flipped", at);

            let cut = pick() as usize % frame.len();
            prop_assert!(restore(&frame[..cut]).is_err(), "cut at {}", cut);
            if cut >= 24 {
                let bad = resealed(frame[..cut].to_vec());
                prop_assert!(restore(&bad).is_err(), "cut at {}, resealed", cut);
            }

            let at = prefixes[pick() as usize % prefixes.len()];
            let r = pick();
            for len in [word_at(&frame, at) + 1 + r % 64, absurd(r)] {
                let bad = resealed(with_word(&frame, at, len));
                prop_assert!(restore(&bad).is_err(), "length {} at byte {}", len, at);
            }
        }
        // Header fields: the fingerprint, the shape and the state hash
        // refuse any other value.
        for at in [FINGERPRINT, STATE_HASH].into_iter().chain(SHAPE) {
            let moved = word_at(&frame, at) ^ (1 + pick() % u64::MAX);
            let bad = resealed(with_word(&frame, at, moved));
            prop_assert!(restore(&bad).is_err(), "header word at {} -> {}", at, moved);
        }
    }
}

#[test]
fn tampered_frames_are_refused() {
    let g = small_graph();
    let bytes = warm_frame(&g);

    // Bad magic is its own refusal.
    let mut bad = bytes.clone();
    bad[0] ^= 1;
    assert_eq!(refusal(Session::restore(&g, &bad)), SnapshotError::BadMagic);

    // So are the previous formats: version 1 carried the meter planes,
    // version 2 could carry a 64-lane phase's slab capacities, version 3
    // carried the round loop's scratch buffers, version 4 the shard-plan
    // key and the slab and arena high-water marks.
    for version in [1u32, 2, 3, 4] {
        let mut old = bytes.clone();
        old[8..12].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            refusal(Session::restore(&g, &old)),
            SnapshotError::BadVersion(version)
        );
    }
    assert_eq!(congest_sim::SNAPSHOT_VERSION, 5);

    // The frame ends with the trace: a byte after it is refused, even
    // with the checksum recomputed.
    let mut long = bytes.clone();
    long.push(0);
    assert_eq!(
        refusal(Session::restore(&g, &resealed(long))),
        SnapshotError::SizeMismatch("frame length")
    );

    // A different graph refuses by fingerprint.
    let other = congest_graph::generators::complete(6);
    assert!(matches!(
        refusal(Session::restore(&other, &bytes)),
        SnapshotError::FingerprintMismatch { .. }
    ));

    // A flag bit this build does not know is a frame kind it cannot
    // restore: bits 1 and 2 marked the retired embedded-graph and
    // dynamic-topology sections, 4 and 31 were never used. The flags sit
    // before the checksummed region, so no reseal is needed.
    for bit in [1u32, 2, 4, 31] {
        let mut bad = bytes.clone();
        let flags = u32::from_le_bytes(bad[12..16].try_into().unwrap()) | 1 << bit;
        bad[12..16].copy_from_slice(&flags.to_le_bytes());
        assert_eq!(
            refusal(Session::restore(&g, &bad)),
            SnapshotError::WrongKind,
            "flag bit {bit}"
        );
    }
}

/// A phase that hits its round limit leaves the session dirty, with its
/// last round's mail still in the scratch buffers. The frame carries none
/// of it and restores with the clean flag unset; the original scrubs those
/// buffers before its next phase, the restored session starts from zero,
/// and the two continue bit-identically.
#[test]
fn a_round_limited_sessions_frame_continues_like_the_session() {
    let g = small_graph();
    let mut original = Session::new(&g);
    let limited = original.run(
        |_, _| Chatter {
            rounds: 6,
            salt: 9,
            heard: 0,
        },
        EngineConfig::with_seed(11).max_rounds(3).trace(),
    );
    assert!(limited.is_err(), "the phase hits its round limit");
    let dirty = original.snapshot();
    let header = congest_sim::snapshot::peek(&dirty).unwrap();
    assert!(!header.clean);
    let mut restored = Session::restore(&g, &dirty).unwrap();
    assert_eq!(restored.state_hash(), original.state_hash());
    assert_eq!(restored.state_hash(), header.state_hash);

    // The clean flag sits outside the checksummed region, but the state
    // hash signs it: setting it over that frame is refused.
    let mut bad = dirty.clone();
    bad[12] |= 1;
    assert!(matches!(
        refusal(Session::restore(&g, &bad)),
        SnapshotError::StateHashMismatch { .. }
    ));

    for k in 1..=PHASES {
        assert_eq!(
            run_phase(&mut restored, k, 5, 2, 1, 5),
            run_phase(&mut original, k, 5, 2, 1, 5),
            "phase {k}"
        );
    }
}
