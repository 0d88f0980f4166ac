//! Broadcast-as-a-service in one process: three tenants share a
//! [`PoolServer`] — a warm [`SessionPool`] keyed by graph fingerprint
//! plus a bounded job queue whose drain runs each job on its graph's
//! warm session. Every job's result is bit-identical to running it
//! alone on a fresh session (checked live at the end), the pool reuses
//! warm engine state across the whole run, and each tenant gets an
//! aggregate congestion/bit meter for its own jobs only.
//!
//! ```text
//! cargo run --release --example serve_mix
//! ```

use fast_broadcast::graph::generators::{harary, torus2d};
use fast_broadcast::sim::fault::FaultPlan;
use fast_broadcast::sim::rng::mix64;
use fast_broadcast::sim::{run_job_isolated, EngineConfig, Job, JobSpec, JobStatus, PoolServer};

fn main() {
    let config = EngineConfig::default();
    let mut server = PoolServer::new(config.clone(), 16);

    // Two customer topologies, registered once; jobs reference them by
    // fingerprint key.
    let mesh = harary(6, 384);
    let grid = torus2d(12, 16);
    let mesh_key = server.register_graph(mesh.clone());
    let grid_key = server.register_graph(grid.clone());
    println!(
        "registered: mesh n={} (key {:#018x}), grid n={} (key {:#018x})\n",
        mesh.n(),
        mesh_key.fingerprint(),
        grid.n(),
        grid_key.fingerprint()
    );

    // A mixed multi-tenant stream: tenant 0 floods leader elections on
    // the mesh, tenant 1 spreads rumors on both graphs, tenant 2 runs
    // seeded gossip (dense: every node talks every round) and a few
    // faulted rumor runs.
    let mut jobs = Vec::new();
    for j in 0..12u64 {
        jobs.push(Job {
            graph: mesh_key,
            protocol: JobSpec::FloodMax,
            seed: mix64(j),
            faults: None,
            tenant: 0,
        });
        jobs.push(Job {
            graph: if j % 2 == 0 { mesh_key } else { grid_key },
            protocol: JobSpec::Rumor {
                source: (mix64(0xA0 ^ j) % 192) as u32,
            },
            seed: mix64(0xB0 ^ j),
            faults: None,
            tenant: 1,
        });
        if j % 3 == 0 {
            jobs.push(Job {
                graph: grid_key,
                protocol: JobSpec::Gossip { rounds: 6 + j % 3 },
                seed: mix64(0xC0 ^ j),
                faults: None,
                tenant: 2,
            });
            jobs.push(Job {
                graph: mesh_key,
                protocol: JobSpec::Rumor { source: 0 },
                seed: mix64(0xD0 ^ j),
                faults: Some(FaultPlan::new(3, mix64(0xFA ^ j))),
                tenant: 2,
            });
        }
    }

    // Submit through the bounded queue; `submit` drains the backlog for
    // us whenever the queue fills (backpressure), then one final drain.
    let mut done = Vec::new();
    for job in &jobs {
        server.submit(job.clone(), &mut done).expect("registered");
    }
    server.drain(&mut done);

    println!(
        "served {} jobs in submission order: pool {} warm hits / {} cold builds\n",
        done.len(),
        server.pool().hits(),
        server.pool().misses()
    );

    println!("| tenant | jobs | rounds | messages | dropped | max edge congestion |");
    println!("|---|---|---|---|---|---|");
    for (tenant, m) in server.meters() {
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            tenant, m.jobs, m.rounds, m.messages, m.dropped, m.max_edge_congestion
        );
    }

    // The serving contract, demonstrated on the live results: every
    // pooled output is bit-identical to the job alone on a fresh session.
    let graph_of = |job: &Job| if job.graph == mesh_key { &mesh } else { &grid };
    for (job, out) in jobs.iter().zip(&done) {
        assert_eq!(out.status, JobStatus::Done);
        let (outputs, stats) =
            run_job_isolated(graph_of(job), &job.protocol, job.seed, job.faults, &config)
                .expect("isolated run terminates");
        assert_eq!(out.outputs, outputs);
        assert_eq!(out.stats, stats);
    }
    println!(
        "\nall {} results bit-identical to isolated fresh-session runs",
        done.len()
    );
}
