//! Lemma 1's round body allocates nothing, *measured*: a counting global
//! allocator wraps the system allocator (the `crates/sim/tests/zero_alloc.rs`
//! idiom), and a routing phase at 4k messages must perform the same number
//! of heap allocations as at k — give or take a few queue doublings — not
//! one more per node-round that has mail.
//!
//! This file deliberately contains a single test: the allocator counter is
//! process-global, and the harness runs tests in one process.

use congest_core::bfs::{BfsNodeInfo, BfsProtocol, SubgraphBfs};
use congest_core::broadcast::ParallelPipeline;
use congest_core::convergecast::TreeView;
use congest_core::partition::{EdgePartition, PartitionParams};
use congest_core::pipeline::{PipeCore, PipeMsg, TreePipeline};
use congest_graph::generators::harary;
use congest_graph::{Graph, Node};
use congest_sim::{run_protocol, EngineConfig, Session};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ROOT: Node = 0;
const CLASSES: usize = 3;

/// `k` messages, all at the root.
fn own(v: Node, k: usize) -> Vec<PipeMsg> {
    let count = if v == ROOT { k } else { 0 };
    (0..count as u32)
        .map(|id| PipeMsg {
            id,
            payload: congest_sim::rng::mix64(id as u64),
        })
        .collect()
}

/// Allocations of one `TreePipeline` phase on the BFS tree `views`.
fn tree_allocs(session: &mut Session<'_>, views: &[TreeView], k: usize) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = session
        .run(
            |v, _| TreePipeline::new(views[v as usize].clone(), k as u64, own(v, k), false),
            EngineConfig::default(),
        )
        .unwrap();
    assert!(out.outputs().iter().all(|r| r.delivered == k as u64));
    drop(out);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Allocations of one λ′ = 3 `ParallelPipeline` phase: message `id` rides
/// class `id mod 3` on that class's tree.
fn parallel_allocs(session: &mut Session<'_>, trees: &[Vec<BfsNodeInfo>], k: usize) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = session
        .run(
            |v, _| {
                let cores = (0..CLASSES)
                    .map(|c| {
                        let riding: Vec<PipeMsg> = own(v, k)
                            .into_iter()
                            .filter(|m| m.id as usize % CLASSES == c)
                            .collect();
                        let k_c = (k + CLASSES - 1 - c) / CLASSES;
                        PipeCore::new(
                            TreeView::from_bfs(&trees[v as usize][c]),
                            k_c as u64,
                            riding,
                            false,
                        )
                    })
                    .collect();
                ParallelPipeline::new(cores)
            },
            EngineConfig::default(),
        )
        .unwrap();
    assert!(out.outputs().iter().all(|r| r.delivered == k as u64));
    drop(out);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Three edge-disjoint spanning trees of `g` rooted at [`ROOT`]: the
/// first Theorem 2 partition seed whose three classes all span.
fn class_trees(g: &Graph) -> Vec<Vec<BfsNodeInfo>> {
    (0..64)
        .find_map(|seed| {
            let part = EdgePartition::compute(g, PartitionParams::explicit(CLASSES), seed);
            let trees = run_protocol(
                g,
                |v, gr: &Graph| SubgraphBfs::new(ROOT, v, part.port_colors(gr, v), CLASSES),
                EngineConfig::default(),
            )
            .unwrap()
            .outputs;
            let spans = trees.iter().flatten().all(|info| info.reached);
            spans.then_some(trees)
        })
        .expect("three classes of harary(16, 48) span under some seed")
}

/// The allocation counter is process-global, so a single sample can be
/// polluted by test-harness noise; a genuine round-loop allocation
/// inflates *every* sample, so the minimum of a few sheds the noise.
fn min_allocs(mut f: impl FnMut() -> u64) -> u64 {
    (0..5).map(|_| f()).min().unwrap()
}

#[test]
fn routing_round_bodies_do_not_allocate() {
    let g = harary(16, 48);
    let n = g.n() as u64;
    let views: Vec<TreeView> = run_protocol(
        &g,
        |v, _| BfsProtocol::new(ROOT, v),
        EngineConfig::default(),
    )
    .unwrap()
    .outputs
    .iter()
    .map(TreeView::from_bfs)
    .collect();
    let trees = class_trees(&g);
    let (k, k4) = (96usize, 4 * 96usize);

    // Warm the session at the larger size, so slab and arena growth is
    // behind us and what is left is the factories plus the round loop.
    let mut session = Session::new(&g);
    tree_allocs(&mut session, &views, k4);
    parallel_allocs(&mut session, &trees, k4);

    // 4k instead of k is 3k(n − 1) more node-rounds with mail; a round
    // body that allocates would show every one of them.
    let mail_rounds = 3 * k as u64 * (n - 1);
    let handful = 8;
    let tree = (
        min_allocs(|| tree_allocs(&mut session, &views, k)),
        min_allocs(|| tree_allocs(&mut session, &views, k4)),
    );
    assert!(
        tree.1 <= tree.0 + handful,
        "TreePipeline: {} allocations at k, {} at 4k ({mail_rounds} more node-rounds with mail)",
        tree.0,
        tree.1
    );
    let parallel = (
        min_allocs(|| parallel_allocs(&mut session, &trees, k)),
        min_allocs(|| parallel_allocs(&mut session, &trees, k4)),
    );
    assert!(
        parallel.1 <= parallel.0 + handful,
        "ParallelPipeline: {} allocations at k, {} at 4k ({mail_rounds} more node-rounds with mail)",
        parallel.0,
        parallel.1
    );
}
