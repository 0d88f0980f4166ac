//! Property-based tests for the core protocols: BFS, numbering, pipeline,
//! and partition invariants on arbitrary connected graphs.

use congest_core::bfs::{BfsMsg, BfsProtocol, SubBfsMsg, SubgraphBfs};
use congest_core::broadcast::ParallelPipeline;
use congest_core::convergecast::{AggOp, Aggregate, Numbering, NumberingMsg, TreeView, UpDown};
use congest_core::leader::{rank, unrank, FloodMax};
use congest_core::partition::{EdgePartition, EdgePartitionProtocol, PartitionParams};
use congest_core::pipeline::{expected_checksums, PipeCore, PipeMsg, PipeResult, TreePipeline};
use congest_core::resilient::ReplicatedPipeline;
use congest_graph::algo::{bfs_distances, UNREACHABLE};
use congest_graph::generators::{
    barbell, clique_chain, clique_ring, cycle, gk13_lower_bound, gnp, gnp_connected, harary, path,
    random_regular, theorem9_instance, thick_path, torus2d,
};
use congest_graph::{Graph, GraphBuilder, Node, Port};
use congest_sim::message::low_mask;
use congest_sim::{
    check_quiescent, run_protocol, EngineConfig, FaultPlan, MsgWord, PackedMsg, Tagged,
};
use proptest::prelude::*;
use std::collections::VecDeque;

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
        for i in 0..(3 * n) as u64 {
            let u = (mix(seed ^ (i << 17)) % n as u64) as u32;
            let v = (mix(seed ^ (i << 18) ^ 99) % n as u64) as u32;
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

/// The families the graph crate's oracles range over — G(n,p) (possibly
/// disconnected), random regular, and the λ < δ ones — with node ids
/// shuffled, so that ids carry no position; and the generator-numbered
/// families, whose ids run along the topology.
fn arb_family() -> impl Strategy<Value = Graph> {
    (0u32..12, 2usize..6, 3usize..7, any::<u64>()).prop_map(|(kind, a, b, seed)| {
        let pick = |upto: usize| 1 + (seed % upto as u64) as usize;
        let g = match kind {
            0 => gnp(6 * a + b, 0.1 * (a + 1) as f64, seed),
            1 => random_regular(2 * (a + b), b, seed),
            2 => clique_chain(a, b + 1, pick(b)),
            3 => clique_ring(a + 1, 2 * b, pick(b)),
            4 => barbell(b, a),
            5 => thick_path(a, b),
            6 => gk13_lower_bound(a + 2, b).0,
            7 => theorem9_instance(a + b + 4, a, 3.0, 2.0, seed)
                .graph
                .graph()
                .clone(),
            8 => return path(a * b + 2),
            9 => return cycle(a * b + 3),
            10 => return torus2d(a + 1, b),
            _ => return harary(2 * a, 8 * b),
        };
        let mut id: Vec<u32> = (0..g.n() as u32).collect();
        for i in (1..id.len()).rev() {
            let j = congest_sim::rng::mix64(seed ^ i as u64) % (i as u64 + 1);
            id.swap(i, j as usize);
        }
        GraphBuilder::new(g.n())
            .edges(
                g.edge_list()
                    .map(|(_, u, v)| (id[u as usize], id[v as usize])),
            )
            .build()
            .unwrap()
    })
}

fn bfs_views(g: &Graph, root: Node) -> Vec<TreeView> {
    run_protocol(g, |v, _| BfsProtocol::new(root, v), EngineConfig::default())
        .unwrap()
        .outputs
        .iter()
        .map(TreeView::from_bfs)
        .collect()
}

/// The two-queue Lemma 1 state machine [`PipeCore`] replaced, kept as the
/// reference model: an up queue and a down queue at every node, nothing
/// forwarded before it has been queued.
struct TwoQueueCore {
    tree: TreeView,
    k: u64,
    delivered: Vec<(u32, u64)>,
    up: VecDeque<PipeMsg>,
    down: VecDeque<PipeMsg>,
}

impl TwoQueueCore {
    fn new(tree: TreeView, k: u64, own: Vec<PipeMsg>) -> Self {
        let mut core = TwoQueueCore {
            tree,
            k,
            delivered: Vec::new(),
            up: VecDeque::new(),
            down: VecDeque::new(),
        };
        for m in own {
            if core.tree.parent_port.is_none() {
                core.deliver_and_stream_down(m);
            } else {
                core.up.push_back(m);
            }
        }
        core
    }

    fn deliver_and_stream_down(&mut self, m: PipeMsg) {
        self.delivered.push((m.id, m.payload));
        if !self.tree.children_ports.is_empty() {
            self.down.push_back(m);
        }
    }

    fn on_receive(&mut self, port: Port, m: PipeMsg) {
        if self.tree.parent_port == Some(port) || self.tree.parent_port.is_none() {
            self.deliver_and_stream_down(m);
        } else {
            self.up.push_back(m);
        }
    }

    fn transmit(&mut self) -> Vec<(Port, PipeMsg)> {
        let mut sent = Vec::new();
        if let Some(parent) = self.tree.parent_port {
            if let Some(m) = self.up.pop_front() {
                sent.push((parent, m));
            }
        }
        if let Some(m) = self.down.pop_front() {
            sent.extend(self.tree.children_ports.iter().map(|&child| (child, m)));
        }
        sent
    }

    fn quiescent(&self) -> bool {
        self.up.is_empty() && self.down.is_empty()
    }

    fn complete(&self) -> bool {
        self.delivered.len() as u64 >= self.k && self.quiescent()
    }

    fn into_result(self) -> PipeResult {
        let (xor_check, sum_check) = expected_checksums(self.delivered.iter());
        PipeResult {
            delivered: self.delivered.len() as u64,
            xor_check,
            sum_check,
            recorded: Some(self.delivered),
        }
    }
}

/// `k` messages over `n` nodes: everything at `root` (shape 0),
/// everything at one leaf (shape 1), or scattered by `seed`.
fn place(views: &[TreeView], root: Node, k: usize, shape: u8, seed: u64) -> Vec<Vec<PipeMsg>> {
    let n = views.len();
    let leaf = (0..n)
        .rev()
        .find(|&v| views[v].children_ports.is_empty())
        .expect("a tree has a leaf");
    let mut own = vec![Vec::new(); n];
    for i in 0..k {
        let holder = match shape {
            0 => root as usize,
            1 => leaf,
            _ => (congest_sim::rng::mix64(seed ^ i as u64) % n as u64) as usize,
        };
        own[holder].push(PipeMsg {
            id: i as u32,
            payload: congest_sim::rng::mix64(seed.wrapping_add(i as u64)),
        });
    }
    own
}

/// 0, the largest value of a `bits`-bit field, and `x` cut to the field.
fn field(bits: u32, x: u64) -> [u64; 3] {
    let max = u64::MAX >> (64 - bits);
    [0, max, x & max]
}

/// The wire contract of one value: `unpack(pack(m)) == m`, and `pack`
/// sets no bit at or above `M::WIDTH`.
fn check_wire<M: PackedMsg + PartialEq + std::fmt::Debug>(m: M) {
    assert_eq!(M::unpack(m.pack()), m);
    let stray = m.pack().to_u128() & !low_mask(M::WIDTH);
    assert_eq!(stray, 0, "{m:?} packs above bit {}", M::WIDTH);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every wire format of Theorem 1 keeps its contract at the extremes
    /// of each field, and its `WIDTH` is its row of README's
    /// "Per-protocol bit budgets": the one bit budget, which a phase
    /// reports as `RunStats::max_message_bits`.
    #[test]
    fn wire_formats_keep_their_widths(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        prop_assert_eq!(BfsMsg::WIDTH, 33);
        prop_assert_eq!(SubBfsMsg::WIDTH, 49);
        prop_assert_eq!(UpDown::WIDTH, 65);
        prop_assert_eq!(NumberingMsg::WIDTH, 127);
        prop_assert_eq!(PipeMsg::WIDTH, 96);
        prop_assert_eq!(Tagged::<PipeMsg>::WIDTH, 112);
        check_wire(BfsMsg::Child);
        for x in field(32, a) {
            check_wire(BfsMsg::Wave { depth: x as u32 });
        }
        for s in field(16, a) {
            check_wire(SubBfsMsg::Child { subgraph: s as u32 });
            for d in field(32, b) {
                check_wire(SubBfsMsg::Wave { subgraph: s as u32, depth: d as u32 });
            }
        }
        for x in field(64, a) {
            check_wire(UpDown::Up(x));
            check_wire(UpDown::Down(x));
        }
        for start in field(63, a) {
            check_wire(NumberingMsg::Up(start));
            for total in field(63, b) {
                check_wire(NumberingMsg::Down(start, total));
            }
        }
        for id in field(32, a) {
            for payload in field(64, b) {
                let pipe = PipeMsg { id: id as u32, payload };
                check_wire(pipe);
                for algo in field(16, c) {
                    check_wire(Tagged { algo: algo as u32, msg: pipe });
                }
            }
        }
    }

    /// [`PipeCore`] (one queue + a forward slot) against the two-queue
    /// model, node by node and round by round on a hand-rolled synchronous
    /// network that loses `loss`/8 of all deliveries — the regime
    /// `ReplicatedPipeline` runs in: same transmissions on the same ports,
    /// same `quiescent` / `complete`, same result. A non-root model's down
    /// queue must be empty whenever a down message arrives: that is the
    /// invariant the forward slot rests on (`PipeCore::on_receive` also
    /// debug-asserts it on its own slot).
    #[test]
    fn pipe_core_matches_the_two_queue_model(
        g in arb_connected_graph(16),
        root_pick in any::<u32>(),
        k in 0usize..40,
        shape in 0u8..4,
        loss in 0u64..3,
        seed in any::<u64>(),
    ) {
        let n = g.n();
        let root = root_pick % n as u32;
        let views = bfs_views(&g, root);
        let own = place(&views, root, k, shape, seed);
        let mut cores: Vec<PipeCore> = (0..n)
            .map(|v| PipeCore::new(views[v].clone(), k as u64, own[v].clone(), true))
            .collect();
        let mut models: Vec<TwoQueueCore> = (0..n)
            .map(|v| TwoQueueCore::new(views[v].clone(), k as u64, own[v].clone()))
            .collect();
        let mut inboxes: Vec<Vec<(Port, PipeMsg)>> = vec![Vec::new(); n];
        for round in 0u64.. {
            prop_assert!(round < 4 * (n + k) as u64 + 8, "Lemma 1 is O(depth + k)");
            let mut next: Vec<Vec<(Port, PipeMsg)>> = vec![Vec::new(); n];
            for v in 0..n {
                // The engine delivers in ascending port order.
                inboxes[v].sort_unstable_by_key(|&(port, _)| port);
                for &(port, m) in &inboxes[v] {
                    if views[v].parent_port == Some(port) {
                        prop_assert!(models[v].down.is_empty(), "node {} round {}", v, round);
                    }
                    cores[v].on_receive(port, m);
                    models[v].on_receive(port, m);
                }
                let mut sent = Vec::new();
                cores[v].transmit(|port, m| sent.push((port, m)));
                prop_assert_eq!(&sent, &models[v].transmit(), "node {} round {}", v, round);
                prop_assert_eq!(cores[v].quiescent(), models[v].quiescent());
                prop_assert_eq!(cores[v].complete(), models[v].complete());
                for (port, m) in sent {
                    let coin = congest_sim::rng::mix64(
                        seed ^ round << 40 ^ (v as u64) << 20 ^ port as u64,
                    );
                    if coin % 8 >= loss {
                        let u = g.neighbor_at(v as Node, port);
                        let back = g.port_to(u, v as Node).expect("edges are symmetric");
                        next[u as usize].push((back, m));
                    }
                }
            }
            inboxes = next;
            if inboxes.iter().all(Vec::is_empty) && cores.iter().all(PipeCore::quiescent) {
                break;
            }
        }
        for (core, model) in cores.into_iter().zip(models) {
            prop_assert!(loss > 0 || core.complete(), "lossless runs deliver everything");
            prop_assert_eq!(core.into_result(), model.into_result());
        }
    }

    /// Every protocol in the tree that promises `Protocol::QUIESCENT`,
    /// held to the promise: `Session::run` — which steps only the nodes a
    /// round lists — equals the same run with the promise withdrawn
    /// (`congest_sim::Eager`), in outputs, `RunStats`, trace, per-edge
    /// congestion and state hash. Under a fault plan a pipeline may stall
    /// short of its `k`; it then ends once it is quiescent, and both runs
    /// must end the same way.
    #[test]
    fn quiescent_protocols_match_their_eager_twins(
        family in 0u8..3,
        seed in any::<u64>(),
        root_pick in any::<u32>(),
        k in 0usize..24,
        shape in 0u8..3,
        budget in 0usize..3,
    ) {
        // λ′ = 2 where two classes can be expected to span, else 1.
        let (g, lp) = match family {
            0 => (harary(8, 20 + (seed % 13) as usize), 2usize),
            1 => (torus2d(3 + (seed % 3) as usize, 4 + (seed % 4) as usize), 1),
            _ => (gnp_connected(14 + (seed % 12) as usize, 0.3, seed), 1),
        };
        let root = root_pick % g.n() as u32;
        let base = EngineConfig {
            seed,
            max_rounds: 300,
            faults: (budget > 0).then(|| FaultPlan::new(budget, seed ^ 0xFA17)),
            ..EngineConfig::default()
        };
        // The two that stand on nothing first: the rest are built on BFS
        // trees, and a broken `BfsProtocol` should be named as such.
        let flood = check_quiescent(&g, |v, _| FloodMax::new(v), &base);
        prop_assert_eq!(flood, Ok(()), "FloodMax");
        let bfs = check_quiescent(&g, |v, _| BfsProtocol::new(root, v), &base);
        prop_assert_eq!(bfs, Ok(()), "BfsProtocol");
        // What the later phases stand on, from unfaulted runs.
        let views = bfs_views(&g, root);
        let partition = EdgePartition::compute(&g, PartitionParams::explicit(lp), seed);
        let colors = |v: Node| partition.port_colors(&g, v);
        let class_trees = run_protocol(
            &g,
            |v, _| SubgraphBfs::new(root, v, colors(v), lp),
            EngineConfig::default(),
        )
        .unwrap()
        .outputs;
        let own = place(&views, root, k, shape, seed);
        // Message `id` rides class `id % λ′`.
        let cores = |v: Node| -> Vec<PipeCore> {
            (0..lp)
                .map(|c| {
                    let rides = |id: u32| id as usize % lp == c;
                    PipeCore::new(
                        TreeView::from_bfs(&class_trees[v as usize][c]),
                        (0..k as u32).filter(|&id| rides(id)).count() as u64,
                        own[v as usize].iter().copied().filter(|m| rides(m.id)).collect(),
                        true,
                    )
                })
                .collect()
        };
        let view = |v: Node| views[v as usize].clone();
        // The two convergecasts are always done and `finish` expects an
        // answer: a lost message is a panic, not a stall. Unfaulted only.
        let lossless = EngineConfig { faults: None, ..base.clone() };

        let held = [
            (
                "SubgraphBfs",
                check_quiescent(&g, |v, _| SubgraphBfs::new(root, v, colors(v), lp), &base),
            ),
            (
                "Aggregate",
                check_quiescent(&g, |v, _| Aggregate::new(view(v), AggOp::Sum, (seed >> (v % 32)) & 0xFFFF), &lossless),
            ),
            (
                "Numbering",
                check_quiescent(&g, |v, _| Numbering::new(view(v), (seed >> (v % 32)) & 3), &lossless),
            ),
            (
                "TreePipeline",
                check_quiescent(
                    &g,
                    |v, _| TreePipeline::new(view(v), k as u64, own[v as usize].clone(), true),
                    &base,
                ),
            ),
            (
                "ParallelPipeline",
                check_quiescent(&g, |v, _| ParallelPipeline::new(cores(v)), &base),
            ),
            (
                "ReplicatedPipeline",
                check_quiescent(
                    &g,
                    |v, _| {
                        let unique: Vec<(u32, u64)> =
                            own[v as usize].iter().map(|m| (m.id, m.payload)).collect();
                        ReplicatedPipeline::new(cores(v), &unique)
                    },
                    &base,
                ),
            ),
        ];
        for (protocol, verdict) in held {
            prop_assert_eq!(verdict, Ok(()), "{}", protocol);
        }
    }

    /// `unrank` inverts `rank` on all of `u32`.
    #[test]
    fn unrank_inverts_rank(x in any::<u32>()) {
        prop_assert_eq!(unrank(rank(x)), x);
    }

    /// Flood-max elects the node of highest rank in every connected
    /// component: every node outputs it and it alone says `is_leader`.
    /// The election lasts as long as the slowest leader's rank travels:
    /// between ecc(leader) and ecc(leader) + 1 rounds.
    #[test]
    fn flood_max_elects_the_highest_rank_per_component(g in arb_family()) {
        let out = run_protocol(&g, |v, _| FloodMax::new(v), EngineConfig::default()).unwrap();
        let mut ecc = 0;
        for v in 0..g.n() as Node {
            let dist = bfs_distances(&g, v);
            let component = (0..g.n() as Node).filter(|&u| dist[u as usize] != UNREACHABLE);
            let want = component.max_by_key(|&u| rank(u)).unwrap();
            prop_assert_eq!(out.outputs[v as usize].leader, want, "node {}", v);
            prop_assert_eq!(out.outputs[v as usize].is_leader, v == want, "node {}", v);
            ecc = ecc.max(dist[want as usize] as u64);
        }
        let rounds = out.stats.rounds;
        prop_assert!((ecc..=ecc + 1).contains(&rounds), "rounds {}, ecc {}", rounds, ecc);
    }

    /// Distributed numbering assigns disjoint covering ranges whatever the
    /// item distribution.
    #[test]
    fn numbering_is_a_bijection(
        g in arb_connected_graph(20),
        items_seed in any::<u64>(),
    ) {
        let views = bfs_views(&g, 0);
        let items = |v: usize| ((items_seed >> (v % 32)) & 3) as u64;
        let out = run_protocol(
            &g,
            |v, _| Numbering::new(views[v as usize].clone(), items(v as usize)),
            EngineConfig::default(),
        )
        .unwrap();
        let total: u64 = (0..g.n()).map(items).sum();
        let mut covered = vec![false; total as usize];
        for v in 0..g.n() {
            let (start, t) = out.outputs[v];
            prop_assert_eq!(t, total);
            for id in start..start + items(v) {
                prop_assert!(!covered[id as usize]);
                covered[id as usize] = true;
            }
        }
        prop_assert!(covered.iter().all(|&c| c));
    }

    /// The pipelined broadcast delivers every message to every node on
    /// arbitrary trees (built by BFS from arbitrary roots).
    #[test]
    fn pipeline_delivers_everywhere(
        g in arb_connected_graph(16),
        root_pick in any::<u32>(),
        k in 1usize..30,
    ) {
        let root = root_pick % g.n() as u32;
        let views = bfs_views(&g, root);
        let msgs: Vec<(u32, u64)> = (0..k as u32).map(|i| (i, 0xD00 + i as u64)).collect();
        let holder = |i: usize| (i * 13 + 5) % g.n();
        let out = run_protocol(
            &g,
            |v, _| {
                let own: Vec<PipeMsg> = msgs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| holder(*i) == v as usize)
                    .map(|(_, &(id, payload))| PipeMsg { id, payload })
                    .collect();
                TreePipeline::new(views[v as usize].clone(), k as u64, own, false)
            },
            EngineConfig::default(),
        )
        .unwrap();
        let (ex, es) = expected_checksums(msgs.iter());
        for r in &out.outputs {
            prop_assert_eq!(r.delivered, k as u64);
            prop_assert_eq!((r.xor_check, r.sum_check), (ex, es));
        }
        // Lemma 1's congestion claim.
        prop_assert!(out.stats.max_edge_congestion <= 2 * k as u64);
    }

    /// Aggregates over distributed BFS trees compute exactly the global
    /// fold for arbitrary values.
    #[test]
    fn aggregate_exactness(g in arb_connected_graph(18), vals_seed in any::<u64>()) {
        let views = bfs_views(&g, 0);
        let val = |v: usize| (vals_seed.rotate_left(v as u32 % 64)) & 0xFFFF;
        for (op, fold) in [
            (AggOp::Sum, (0..g.n()).map(val).sum::<u64>()),
            (AggOp::Min, (0..g.n()).map(val).min().unwrap()),
            (AggOp::Max, (0..g.n()).map(val).max().unwrap()),
        ] {
            let out = run_protocol(
                &g,
                |v, _| Aggregate::new(views[v as usize].clone(), op, val(v as usize)),
                EngineConfig::default(),
            )
            .unwrap();
            for &x in &out.outputs {
                prop_assert_eq!(x, fold);
            }
        }
    }

    /// The distributed one-round partition protocol matches the
    /// centralized mirror on every port of every node.
    #[test]
    fn partition_protocol_matches_mirror(
        g in arb_connected_graph(16),
        seed in any::<u64>(),
        lp in 1usize..5,
    ) {
        let central = EdgePartition::compute(&g, PartitionParams::explicit(lp), seed);
        let out = run_protocol(
            &g,
            |v, gr| EdgePartitionProtocol::new(v, seed, lp, gr.degree(v)),
            EngineConfig::default(),
        )
        .unwrap();
        prop_assert!(out.stats.rounds <= 1);
        for v in 0..g.n() as Node {
            prop_assert_eq!(&out.outputs[v as usize], &central.port_colors(&g, v));
        }
    }
}
