//! The wide-batch differential harness: a W-lane [`Session::run_wide`] must
//! be **bit-identical, lane by lane, to W sequential [`Session::run`]s** —
//! outputs, [`RunStats`], round traces, and per-edge congestion meters —
//! sweeping shard counts × per-lane fault plans × pool
//! widths, with the sequential arm's sparse fast path forced both ways
//! (the wide kernel has no sparse path, so equivalence across both
//! sequential modes proves it sits in the same result class).
//!
//! Lane `l` of the wide run corresponds to the sequential config
//! `EngineConfig { seed: lanes[l].seed, faults: lanes[l].faults, ..shared }`,
//! which is the contract drivers rely on to batch seed sweeps without
//! changing one bit of any result.

use congest_graph::{Graph, GraphBuilder};
use congest_sim::baseline::{run_baseline, BaselineCtx, BaselineProtocol};
use congest_sim::rng::node_rng;
use congest_sim::{EngineConfig, FaultPlan, LaneSpec, NodeCtx, Protocol, Session};
use proptest::prelude::*;
use rand::rngs::SmallRng;

fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (3..max_n, any::<u64>()).prop_map(|(n, seed)| {
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

/// Random mix of `send_all`, per-port `send`, and silence over `u64`
/// messages — the engine-oracle workload. NOT quiescent: it draws from
/// the node RNG every round, so the wide kernel must step it every round
/// exactly like the sequential engine does.
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

/// [`Chatter`] on the reference interpreter, whose context has no RNG: the
/// wrapper carries the node's own [`node_rng`] stream, seeded from the
/// lane's seed exactly as both kernels seed theirs.
struct BaselineChatter {
    inner: Chatter,
    rng: SmallRng,
}

impl BaselineProtocol for BaselineChatter {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut BaselineCtx<'_, u64>) {
        let Chatter {
            rounds,
            salt,
            heard,
        } = &mut self.inner;
        *heard = ctx.inbox().fold(*heard, |a, (p, &m)| {
            a.wrapping_mul(17).wrapping_add(m ^ p as u64)
        });
        if ctx.round < *rounds {
            use rand::Rng;
            let a = self.rng.gen_range(0..8u32);
            let m: u64 = self.rng.gen();
            if a == 0 {
                ctx.send_all(m ^ *salt);
            } else if a < 5 {
                for p in 0..ctx.degree().min(64) as u32 {
                    if m >> p & 1 == 1 {
                        ctx.send(p, m.wrapping_add(*salt ^ p as u64));
                    }
                }
            }
        }
        let done = ctx.round >= *rounds;
        ctx.set_done(done);
    }
    fn finish(self) -> u64 {
        self.inner.heard
    }
}

/// Quiescent flood-max gossip: converges on the max token, then goes
/// silent — once done with an empty inbox, `round` reads nothing, sends
/// nothing, and touches no state, so wide may skip the call entirely.
struct Gossip {
    token: u64,
}

impl Protocol for Gossip {
    type Msg = u64;
    type Output = u64;
    const QUIESCENT: bool = true;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        if ctx.round == 0 {
            ctx.send_all(self.token);
            return;
        }
        let prior = self.token;
        self.token = ctx.inbox().fold(self.token, |b, (_, m)| b.max(m));
        if self.token > prior {
            ctx.send_all(self.token);
        }
        ctx.set_done(true);
    }
    fn finish(self) -> u64 {
        self.token
    }
}

/// Pair-message phase (`(u32, u64)` → u128 wire words): exercises the
/// wide slab's byte-keyed width handling past u64.
struct PairChatter {
    rounds: u64,
    heard: u64,
}

impl Protocol for PairChatter {
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

/// One lane's complete observable footprint.
#[derive(Debug, PartialEq)]
struct LaneObs {
    outputs: Vec<u64>,
    stats: congest_sim::RunStats,
    trace: Option<Vec<u64>>,
    edge_congestion: Vec<u64>,
}

/// Wide arm: run all lanes at once on a fresh [`Session`].
fn wide_obs<P, F>(g: &Graph, lanes: &[LaneSpec], factory: F, config: EngineConfig) -> Vec<LaneObs>
where
    P: Protocol<Output = u64>,
    F: FnMut(congest_graph::Node, usize, &Graph) -> P,
{
    let mut session = Session::new(g);
    let mut out = session
        .run_wide(lanes, factory, config)
        .expect("wide terminates");
    (0..lanes.len())
        .map(|l| LaneObs {
            stats: out.stats(l),
            trace: out.trace(l).map(<[u64]>::to_vec),
            edge_congestion: out.edge_congestion(l).to_vec(),
            outputs: out.take_lane_outputs(l),
        })
        .collect()
}

/// Sequential arm: run each lane alone on a fresh [`Session`] under the
/// lane's derived config.
fn seq_obs<P, F>(
    g: &Graph,
    lanes: &[LaneSpec],
    mut factory: F,
    config: EngineConfig,
) -> Vec<LaneObs>
where
    P: Protocol<Output = u64>,
    F: FnMut(congest_graph::Node, usize, &Graph) -> P,
{
    lanes
        .iter()
        .enumerate()
        .map(|(l, spec)| {
            let cfg = EngineConfig {
                seed: spec.seed,
                faults: spec.faults,
                ..config.clone()
            };
            let mut session = Session::new(g);
            let out = session
                .run(|v, gr| factory(v, l, gr), cfg)
                .expect("sequential lane terminates");
            LaneObs {
                stats: out.stats,
                trace: out.trace().map(<[u64]>::to_vec),
                edge_congestion: out.edge_congestion().to_vec(),
                outputs: out.take_outputs(),
            }
        })
        .collect()
}

/// Mixed batch: lane seeds derived from `seed`, even lanes under the
/// lane-derived fault plan, odd lanes faultless.
fn mixed_lanes(seed: u64, w: usize, fault_budget: usize, fseed: u64) -> Vec<LaneSpec> {
    let base = FaultPlan::new(fault_budget, fseed);
    LaneSpec::batch(seed, w)
        .into_iter()
        .enumerate()
        .map(|(l, spec)| {
            if l % 2 == 0 && fault_budget > 0 {
                spec.with_faults(base.with_lane_seed(l))
            } else {
                spec
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Non-quiescent RNG-driven chatter: wide ≡ sequential per lane,
    /// across shard counts × faulted lanes, with the
    /// sequential arm's sparse fast path forced both off and on.
    #[test]
    fn wide_chatter_matches_sequential(
        g in arb_connected_graph(20),
        seed in any::<u64>(),
        w in 1usize..7,
        fault_budget in 0usize..3,
        fseed in any::<u64>(),
    ) {
        let lanes = mixed_lanes(seed, w, fault_budget, fseed);
        let mk = |_: u32, l: usize, _: &Graph| Chatter { rounds: 6, salt: l as u64 + 1, heard: 0 };
        for &shards in &[1usize, 5] {
            let config = EngineConfig::serial().shards(shards).trace();
            let wide = wide_obs(&g, &lanes, mk, config.clone());
            for &st in &[0usize, usize::MAX] {
                let seq = seq_obs(&g, &lanes, mk, config.clone().sparse_threshold(st));
                prop_assert_eq!(&wide, &seq, "shards={} sparse_threshold={}", shards, st);
            }
        }
    }

    /// Quiescent gossip: the wide kernel skips done-and-silent (node,
    /// lane) pairs; results still match the sequential engine, which
    /// steps every node every round.
    #[test]
    fn wide_quiescent_gossip_matches_sequential(
        g in arb_connected_graph(24),
        seed in any::<u64>(),
        w in 1usize..9,
        fault_budget in 0usize..2,
    ) {
        let lanes = mixed_lanes(seed, w, fault_budget, seed ^ 0xF00D);
        let mk = |v: u32, l: usize, _: &Graph| Gossip {
            token: (v as u64).wrapping_mul(0x9E37_79B9).rotate_left(l as u32),
        };
        for &shards in &[1usize, 4] {
            let config = EngineConfig::serial().shards(shards).trace();
            let wide = wide_obs(&g, &lanes, mk, config.clone());
            let seq = seq_obs(&g, &lanes, mk, config);
            prop_assert_eq!(&wide, &seq, "shards={}", shards);
        }
    }

    /// u128-word pair messages through the wide slab.
    #[test]
    fn wide_pair_messages_match_sequential(
        g in arb_connected_graph(16),
        seed in any::<u64>(),
        w in 1usize..6,
    ) {
        let lanes = LaneSpec::batch(seed, w);
        let mk = |_: u32, l: usize, _: &Graph| PairChatter { rounds: 4 + l as u64 % 3, heard: 1 };
        let config = EngineConfig::serial().shards(3).trace();
        let wide = wide_obs(&g, &lanes, mk, config.clone());
        let seq = seq_obs(&g, &lanes, mk, config);
        prop_assert_eq!(&wide, &seq);
    }

    /// Parallel wide execution is bit-identical to the serial sequential
    /// reference for any pool width (sharded step/deliver planes).
    #[test]
    fn wide_parallel_matches_serial_sequential(
        g in arb_connected_graph(18),
        seed in any::<u64>(),
    ) {
        let lanes = mixed_lanes(seed, 5, 1, seed ^ 0xCAFE);
        let mk = |_: u32, l: usize, _: &Graph| Chatter { rounds: 6, salt: l as u64, heard: 0 };
        let reference = seq_obs(&g, &lanes, mk, EngineConfig::serial().shards(4).trace());
        for threads in [2usize, 4] {
            let wide = congest_par::with_threads(threads, || {
                wide_obs(
                    &g,
                    &lanes,
                    mk,
                    EngineConfig::with_seed(0).shards(4).trace(),
                )
            });
            prop_assert_eq!(&wide, &reference, "threads={}", threads);
        }
    }

    /// Lane compaction at adversarial points: per-lane durations drawn
    /// by proptest stagger retirements so the live count repeatedly
    /// crosses the `live <= w/2` threshold and the sweep repacks
    /// mid-run. The compacting sweep and the per-lane sequential oracle
    /// (which has no lanes to repack) must agree bit-for-bit — outputs,
    /// stats, traces, and per-edge congestion.
    #[test]
    fn staggered_compaction_matches_sequential(
        g in arb_connected_graph(20),
        seed in any::<u64>(),
        w in 4usize..13,
        durs in collection::vec(1u64..12, 12..13),
        fault_budget in 0usize..3,
        fseed in any::<u64>(),
    ) {
        let lanes = mixed_lanes(seed, w, fault_budget, fseed);
        let mk = |_: u32, l: usize, _: &Graph| Chatter {
            rounds: durs[l % durs.len()],
            salt: l as u64 + 1,
            heard: 0,
        };
        let config = EngineConfig::serial().shards(2).trace();
        let wide = wide_obs(&g, &lanes, mk, config.clone());
        let seq = seq_obs(&g, &lanes, mk, config);
        prop_assert_eq!(&wide, &seq, "wide (compacting) diverged from sequential");
    }

    /// A lane blowing the round budget *after* the sweep has compacted
    /// down to it must fail exactly as its isolated run: all other
    /// lanes retire early (forcing compaction), the survivor chatters
    /// forever, and the batch errors with the same
    /// [`EngineError::RoundLimitExceeded`] the lone sequential run
    /// reports. The session must come back clean afterwards
    /// (post-compaction dirty scrub).
    #[test]
    fn round_limit_in_compacted_tail_fails_like_isolated(
        g in arb_connected_graph(14),
        seed in any::<u64>(),
        w in 5usize..9,
    ) {
        let lanes = LaneSpec::batch(seed, w);
        // Lanes 0..w-1 finish by round 2; the last lane never sets done,
        // so by the time the budget trips the sweep has long compacted
        // to a single live slot.
        let durs: Vec<u64> = (0..w).map(|l| if l + 1 == w { u64::MAX } else { 2 }).collect();
        let mk = |_: u32, l: usize, _: &Graph| Chatter {
            rounds: durs[l],
            salt: l as u64 + 1,
            heard: 0,
        };
        let config = EngineConfig::serial().shards(2).max_rounds(12);
        let mut solo = Session::new(&g);
        let isolated = match solo.run(
            |v, gr| mk(v, w - 1, gr),
            EngineConfig {
                seed: lanes[w - 1].seed,
                faults: lanes[w - 1].faults,
                ..config.clone()
            },
        ) {
            Err(e) => e,
            Ok(_) => panic!("the forever lane must blow the budget alone"),
        };
        prop_assert_eq!(&isolated, &congest_sim::EngineError::RoundLimitExceeded { limit: 12 });
        let mut session = Session::new(&g);
        let err = match session.run_wide(&lanes, mk, config) {
            Err(e) => e,
            Ok(_) => panic!("compacted tail must blow the budget"),
        };
        prop_assert_eq!(&err, &isolated);
        // The failed, compacted session scrubs back to a clean slate.
        let mk2 = |_: u32, l: usize, _: &Graph| Chatter { rounds: 4, salt: l as u64, heard: 0 };
        let cfg2 = EngineConfig::serial().shards(2).trace();
        let after: Vec<LaneObs> = {
            let mut out = session
                .run_wide(&lanes, mk2, cfg2.clone())
                .expect("post-failure run terminates");
            (0..lanes.len())
                .map(|l| LaneObs {
                    stats: out.stats(l),
                    trace: out.trace(l).map(<[u64]>::to_vec),
                    edge_congestion: out.edge_congestion(l).to_vec(),
                    outputs: out.take_lane_outputs(l),
                })
                .collect()
        };
        let fresh = wide_obs(&g, &lanes, mk2, cfg2);
        prop_assert_eq!(&after, &fresh);
    }

    /// Continuous refill: a queue of jobs streamed through
    /// [`Session::run_refill`] — admissions happening whenever a
    /// retiring lane frees a slot, at proptest-chosen durations — must
    /// match per-job isolated sequential runs bit-for-bit. Jobs whose
    /// isolated run errors with [`EngineError::RoundLimitExceeded`]
    /// must instead retire alone with `limit: Some(..)`, empty outputs,
    /// and default stats, without disturbing any other job.
    #[test]
    fn refill_stream_matches_isolated(
        g in arb_connected_graph(16),
        seed in any::<u64>(),
        w in 1usize..6,
        jobs in 4usize..14,
        durs in collection::vec(1u64..11, 14..15),
        fault_budget in 0usize..2,
        fseed in any::<u64>(),
    ) {
        let specs: Vec<LaneSpec> = mixed_lanes(seed, jobs, fault_budget, fseed);
        let mk = |_: u32, j: usize, _: &Graph| Chatter {
            rounds: durs[j % durs.len()],
            salt: j as u64 + 1,
            heard: 0,
        };
        // max_rounds 8 with durations up to 10: some jobs blow the
        // per-lane budget, most do not; the oracle decides which.
        let config = EngineConfig::serial().shards(2).max_rounds(8).trace();
        let init_w = w.min(jobs);
        let mut results: Vec<Option<LaneObs>> = (0..jobs).map(|_| None).collect();
        let mut limits: Vec<Option<u64>> = vec![None; jobs];
        let mut session = Session::new(&g);
        let admitted = session.run_refill::<Chatter, _, _, _>(
            &specs[..init_w],
            mk,
            config.clone(),
            |job| (job < jobs).then(|| specs[job].clone()),
            |mut r: congest_sim::LaneRetire<'_, u64>| {
                let mut outputs = Vec::new();
                r.take_outputs_into(&mut outputs);
                limits[r.job] = r.limit;
                results[r.job] = Some(LaneObs {
                    outputs,
                    stats: r.stats,
                    trace: r.trace.map(<[u64]>::to_vec),
                    edge_congestion: r.edge_congestion.to_vec(),
                });
            },
        );
        prop_assert_eq!(admitted, jobs);
        for (j, spec) in specs.iter().enumerate() {
            let got = results[j].take();
            let got = match got {
                Some(o) => o,
                None => panic!("job {j} never retired"),
            };
            let cfg_j = EngineConfig { seed: spec.seed, faults: spec.faults, ..config.clone() };
            let mut s = Session::new(&g);
            let run = s.run(|v, gr| mk(v, j, gr), cfg_j);
            match run {
                Ok(out) => {
                    prop_assert_eq!(limits[j], None, "job {} limited but isolated ran fine", j);
                    let want = LaneObs {
                        stats: out.stats,
                        trace: out.trace().map(<[u64]>::to_vec),
                        edge_congestion: out.edge_congestion().to_vec(),
                        outputs: out.take_outputs(),
                    };
                    prop_assert_eq!(&got, &want, "job {} diverged from isolated", j);
                }
                Err(congest_sim::EngineError::RoundLimitExceeded { limit }) => {
                    prop_assert_eq!(limits[j], Some(limit), "job {} limit mismatch", j);
                    prop_assert!(got.outputs.is_empty(), "limited job {} kept outputs", j);
                    prop_assert_eq!(&got.stats, &congest_sim::RunStats::default());
                    prop_assert!(got.edge_congestion.is_empty());
                }
            }
        }
    }

    /// The wide counters against the reference interpreter's plain `u64`
    /// ones, through everything a counter column travels through between
    /// a lane's admission and its drain. Six slots, ten jobs: the four
    /// short starters free their slots by round ≈ 16 and jobs 6..10 refill
    /// them mid-sweep (slot reuse on a drained column). With the source
    /// dry, jobs 8, 9 and 7 retire by round ≈ 52 and leave 3 of 6 live, so
    /// the sweep compacts around jobs 1, 3 and 5: job 1 (70 rounds) and
    /// job 3 (120, and 3 → 1 is a second compaction) are drained from
    /// columns a compaction moved, and job 5 never finishes, so it blows
    /// the 150-round budget alone and is scrubbed at the narrowest stride.
    /// Every job but that one equals `run_baseline` on its own seed and
    /// faults — outputs, stats, trace, and congestion edge for edge.
    #[test]
    fn refill_counters_match_reference_through_compaction_and_slot_reuse(
        g in arb_connected_graph(14),
        seed in any::<u64>(),
        fault_budget in 0usize..2,
        fseed in any::<u64>(),
    ) {
        const DURS: [u64; 10] = [5, 70, 9, 120, 14, u64::MAX, 3, 40, 8, 20];
        const SLOTS: usize = 6;
        const BUDGET: u64 = 150;
        let specs = mixed_lanes(seed, DURS.len(), fault_budget, fseed);
        let mk = |j: usize| Chatter { rounds: DURS[j], salt: j as u64 + 1, heard: 0 };
        let mut got: Vec<Option<(LaneObs, Option<u64>)>> = DURS.iter().map(|_| None).collect();
        let admitted = Session::new(&g).run_refill::<Chatter, _, _, _>(
            &specs[..SLOTS],
            |_, j, _| mk(j),
            EngineConfig::serial().shards(2).max_rounds(BUDGET).trace(),
            |job| specs.get(job).cloned(),
            |mut r: congest_sim::LaneRetire<'_, u64>| {
                let mut outputs = Vec::new();
                r.take_outputs_into(&mut outputs);
                let obs = LaneObs {
                    outputs,
                    stats: r.stats,
                    trace: r.trace.map(<[u64]>::to_vec),
                    edge_congestion: r.edge_congestion.to_vec(),
                };
                got[r.job] = Some((obs, r.limit));
            },
        );
        prop_assert_eq!(admitted, DURS.len());
        for (j, spec) in specs.iter().enumerate() {
            let (obs, limit) = got[j].take().expect("every admitted job retires");
            if DURS[j] == u64::MAX {
                prop_assert_eq!(limit, Some(BUDGET));
                prop_assert!(obs.outputs.is_empty() && obs.edge_congestion.is_empty());
                continue;
            }
            let want = run_baseline::<BaselineChatter, _>(
                &g,
                |v, _| BaselineChatter { inner: mk(j), rng: node_rng(spec.seed, v) },
                BUDGET,
                spec.faults,
            );
            prop_assert_eq!(limit, None);
            prop_assert!(DURS[j] < 64 || want.stats.rounds > 63, "job {} is a long one", j);
            let want = LaneObs {
                outputs: want.outputs,
                stats: want.stats,
                trace: Some(want.trace),
                edge_congestion: want.edge_congestion,
            };
            prop_assert_eq!(&obs, &want, "job {} diverged from the reference interpreter", j);
        }
    }

    /// A wide run that hits the round limit must leave the session
    /// reusable: the next wide run on the same session matches a fresh
    /// session's run lane-for-lane (the dirty-scrub path).
    #[test]
    fn failed_wide_run_leaves_session_clean(
        g in arb_connected_graph(14),
        seed in any::<u64>(),
    ) {
        /// Never terminates: chatters forever.
        struct Forever;
        impl Protocol for Forever {
            type Msg = u64;
            type Output = u64;
            fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
                ctx.send_all(ctx.round | 1);
            }
            fn finish(self) -> u64 {
                0
            }
        }
        let lanes = LaneSpec::batch(seed, 4);
        let mut session = Session::new(&g);
        let err = match session.run_wide(
            &lanes,
            |_, _, _| Forever,
            EngineConfig::serial().max_rounds(5),
        ) {
            Err(e) => e,
            Ok(_) => panic!("Forever must exceed the round limit"),
        };
        prop_assert_eq!(err, congest_sim::EngineError::RoundLimitExceeded { limit: 5 });
        let mk = |_: u32, l: usize, _: &Graph| Chatter { rounds: 5, salt: l as u64, heard: 0 };
        let config = EngineConfig::serial().shards(2).trace();
        let after: Vec<LaneObs> = {
            let mut out = session
                .run_wide(&lanes, mk, config.clone())
                .expect("post-failure run terminates");
            (0..lanes.len())
                .map(|l| LaneObs {
                    stats: out.stats(l),
                    trace: out.trace(l).map(<[u64]>::to_vec),
                    edge_congestion: out.edge_congestion(l).to_vec(),
                    outputs: out.take_lane_outputs(l),
                })
                .collect()
        };
        let fresh = wide_obs(&g, &lanes, mk, config);
        prop_assert_eq!(&after, &fresh);
    }
}

/// Full-width boundary: all 64 lanes in one run (bit 63 in every lane
/// word), staggered termination, identical to 64 sequential runs.
#[test]
fn wide_64_lanes_match_sequential() {
    let g = congest_graph::generators::harary(4, 12);
    let lanes = mixed_lanes(42, 64, 1, 7);
    let mk = |v: u32, l: usize, _: &Graph| Gossip {
        token: (v as u64 + 1).wrapping_mul(l as u64 + 1),
    };
    let config = EngineConfig::serial().shards(3).trace();
    let wide = wide_obs(&g, &lanes, mk, config.clone());
    let seq = seq_obs(&g, &lanes, mk, config);
    assert_eq!(wide, seq);
}
