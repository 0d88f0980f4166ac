//! The serving-layer oracle: **any interleaving of submissions through a
//! [`PoolServer`] produces outputs bit-identical to running each job
//! alone on a fresh [`Session`]** (`run_job_isolated`), whatever ran on
//! the warm session before it, across queue capacities × drain points ×
//! shard counts × per-job fault plans.
//!
//! This is the property that makes the pool *transparent*: a tenant can
//! never observe that its run shared a warm state or a drain with other
//! tenants. The first case also checks what a flood-max job computes:
//! unfaulted, every node outputs the node of highest rank in its
//! component. The last case is the pool under eviction: a key
//! whose graph aged out is a typed error from every keyed call until the
//! graph is registered again.

use congest_graph::algo::bfs::{bfs_distances, UNREACHABLE};
use congest_graph::{Graph, GraphBuilder, Node};
use congest_sim::leader::rank;
use congest_sim::{
    run_job_isolated, EngineConfig, EvictionPolicy, FaultPlan, Job, JobOutput, JobSpec, JobStatus,
    PoolError, PoolServer,
};
use proptest::prelude::*;

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

/// One submission, in strategy-friendly raw form.
#[derive(Debug, Clone)]
struct RawJob {
    graph: usize,
    family: u8,
    seed: u64,
    fault_budget: usize,
    fault_seed: u64,
    tenant: u32,
    /// Drain the server right after this submission.
    drain_after: bool,
}

fn arb_jobs(max_jobs: usize) -> impl Strategy<Value = Vec<RawJob>> {
    proptest::collection::vec(
        (
            (0usize..2, 0u8..3, any::<u64>()),
            (0usize..3, any::<u64>(), 0u32..4, any::<bool>()),
        )
            .prop_map(
                |((graph, family, seed), (fault_budget, fault_seed, tenant, drain_after))| RawJob {
                    graph,
                    family,
                    seed,
                    fault_budget,
                    fault_seed,
                    tenant,
                    drain_after,
                },
            ),
        1..max_jobs,
    )
}

fn spec_for(raw: &RawJob, g: &Graph) -> JobSpec {
    match raw.family {
        0 => JobSpec::FloodMax,
        1 => JobSpec::Rumor {
            source: (raw.seed % g.n() as u64) as u32,
        },
        _ => JobSpec::Gossip {
            rounds: 2 + raw.seed % 4,
        },
    }
}

fn faults_for(raw: &RawJob) -> Option<FaultPlan> {
    (raw.fault_budget > 0).then(|| FaultPlan::new(raw.fault_budget, raw.fault_seed))
}

/// What an unfaulted flood-max job outputs at each node: the node of
/// highest rank in that node's component.
fn highest_rank_per_component(g: &Graph) -> Vec<u64> {
    (0..g.n() as Node)
        .map(|v| {
            let dist = bfs_distances(g, v);
            let component = (0..g.n() as Node).filter(|&u| dist[u as usize] != UNREACHABLE);
            component.max_by_key(|&u| rank(u)).unwrap() as u64
        })
        .collect()
}

/// Push the whole stream through one server (interleaving drains as the
/// stream dictates, plus whatever backpressure forces) and return the
/// outputs keyed by submission index.
fn serve_all(
    raws: &[RawJob],
    graphs: &[Graph; 2],
    config: &EngineConfig,
    capacity: usize,
) -> Vec<JobOutput> {
    let mut server = PoolServer::new(config.clone(), capacity);
    let keys = [
        server.register_graph(graphs[0].clone()),
        server.register_graph(graphs[1].clone()),
    ];
    let mut out = Vec::new();
    for raw in raws {
        let job = Job {
            graph: keys[raw.graph],
            protocol: spec_for(raw, &graphs[raw.graph]),
            seed: raw.seed,
            faults: faults_for(raw),
            tenant: raw.tenant,
        };
        server.submit(job, &mut out).expect("graph is registered");
        if raw.drain_after {
            server.drain(&mut out);
        }
    }
    server.drain(&mut out);
    out.sort_by_key(|o| o.id);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole property: pooled ≡ isolated, bit for bit, for every
    /// job in every interleaving; and an unfaulted flood-max job elects,
    /// at every node, the highest rank of the node's component.
    #[test]
    fn any_interleaving_matches_isolated_sessions(
        g0 in arb_connected_graph(16),
        g1 in arb_connected_graph(14),
        raws in arb_jobs(18),
        capacity in 1usize..6,
        shards in 1usize..4,
    ) {
        let graphs = [g0, g1];
        let config = EngineConfig::default().shards(shards);
        // On one lane, so the pinned shards run in order on the calling
        // thread.
        congest_par::with_threads(1, || {
            let out = serve_all(&raws, &graphs, &config, capacity);
            prop_assert_eq!(out.len(), raws.len());
            for (raw, o) in raws.iter().zip(&out) {
                let g = &graphs[raw.graph];
                let (outputs, stats) = run_job_isolated(
                    g,
                    &spec_for(raw, g),
                    raw.seed,
                    faults_for(raw),
                    &config,
                )
                .expect("isolated run terminates");
                prop_assert_eq!(o.status, JobStatus::Done);
                prop_assert_eq!(o.tenant, raw.tenant);
                prop_assert_eq!(&o.outputs, &outputs, "outputs of job {:?}", o.id);
                prop_assert_eq!(o.stats, stats, "stats of job {:?}", o.id);
                if matches!(spec_for(raw, g), JobSpec::FloodMax) && faults_for(raw).is_none() {
                    let want = highest_rank_per_component(g);
                    prop_assert_eq!(&o.outputs, &want, "leaders of job {:?}", o.id);
                }
            }
        });
    }

    /// The grouping is invisible: reordering the *queue contents* between
    /// drains never changes any job's result, only which sweep ran it —
    /// served twice with different drain interleavings, every job's
    /// output is identical.
    #[test]
    fn drain_points_never_change_results(
        g0 in arb_connected_graph(14),
        g1 in arb_connected_graph(12),
        mut raws in arb_jobs(14),
        capacity in 1usize..5,
    ) {
        let graphs = [g0, g1];
        let config = EngineConfig::default();
        let a = serve_all(&raws, &graphs, &config, capacity);
        for raw in &mut raws {
            raw.drain_after = !raw.drain_after;
        }
        let b = serve_all(&raws, &graphs, &config, 1 + capacity / 2);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(&x.outputs, &y.outputs);
            prop_assert_eq!(x.stats, y.stats);
        }
    }

    /// Evict, then check out: with room for one graph, whichever of two
    /// the access sequence touched less recently has aged out, and its key
    /// is [`PoolError::UnknownGraph`] from all three keyed pool calls and
    /// from `try_submit` — no panic, no closure call, no hit or miss
    /// counted. Registering the graph again returns the same key, and the
    /// job that follows checks out a cold session and runs exactly what an
    /// isolated one runs.
    #[test]
    fn evicted_keys_are_typed_errors_until_reregistered(
        g0 in arb_connected_graph(14),
        g1 in arb_connected_graph(12),
        touches in proptest::collection::vec((0usize..2, any::<bool>(), any::<u64>()), 2..10),
    ) {
        prop_assume!(g0.fingerprint() != g1.fingerprint());
        let graphs = [g0, g1];
        let config = EngineConfig::default();
        let mut server = PoolServer::new(config.clone(), 4);
        server.pool_mut().set_policy(EvictionPolicy { max_graphs: 1, max_warm_bytes: usize::MAX });
        let keys = [0, 1].map(|i| server.register_graph(graphs[i].clone()));
        for (which, reregister, seed) in touches {
            let pool = server.pool_mut();
            pool.enforce_eviction();
            prop_assert_eq!(pool.len(), 1);
            let lost = if pool.contains(keys[0]) { 1 } else { 0 };
            let gone = PoolError::UnknownGraph(keys[lost]);
            let counters = (pool.hits(), pool.misses());
            prop_assert_eq!(pool.graph(keys[lost]).err(), Some(gone));
            prop_assert_eq!(pool.warm_bytes(keys[lost]), Err(gone));
            let mut ran = false;
            prop_assert_eq!(pool.with_session(keys[lost], |_| ran = true), Err(gone));
            prop_assert!(!ran, "a refused checkout ran its closure");
            prop_assert_eq!((pool.hits(), pool.misses()), counters);

            let (key, g) = (keys[which], &graphs[which]);
            let protocol = JobSpec::Gossip { rounds: 2 + seed % 4 };
            let job = Job { graph: key, protocol: protocol.clone(), seed, faults: None, tenant: 0 };
            if which == lost {
                prop_assert_eq!(server.try_submit(job.clone()), Err(gone));
                if !reregister {
                    continue;
                }
                prop_assert_eq!(server.register_graph(g.clone()), key);
                prop_assert_eq!(server.pool().warm_bytes(key), Ok(0));
            }
            let mut out = Vec::new();
            server.try_submit(job).expect("held or just re-registered");
            server.drain(&mut out);
            let (outputs, stats) = run_job_isolated(g, &protocol, seed, None, &config).unwrap();
            prop_assert_eq!((out[0].status, &out[0].outputs, out[0].stats), (JobStatus::Done, &outputs, stats));
        }
    }
}
