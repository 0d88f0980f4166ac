//! `fastbcast` — command-line driver for the fast-broadcast library.
//!
//! ```text
//! fastbcast params    <family>                         measure n/m/δ/λ/D (+ bridge diagnosis)
//! fastbcast broadcast <family> [--k K] [--seed S]      Theorem 1 vs textbook, with phase breakdown
//! fastbcast packing   <family> [--trees T] [--exact]   tree packings (partition / matroid union)
//! fastbcast apsp      <family> [--seed S]              (3,2)-approximate APSP quality report
//! fastbcast cuts      <family> [--eps E] [--seed S]    sparsifier all-cuts report
//! fastbcast serve     [--graphs G1+G2] [--jobs N] ...  multi-tenant session-pool server (job mix)
//! fastbcast snapshot  <family> [--phases N] [--cut K]  run K phases, checkpoint the engine to a file
//! fastbcast resume    <family> --in FILE [...]         restore the checkpoint, run the remaining phases
//!
//! <family> grammar:
//!   harary:L,N | complete:N | torus:RxC | hypercube:D | clique-chain:C,S,B
//!   thick-path:L,W | gnp:N,P | regular:N,D | gk13:COLS,L | barbell:S,P | bipartite:A,B
//! ```
//!
//! Examples:
//! ```text
//! fastbcast params harary:16,128
//! fastbcast broadcast harary:32,192 --k 768
//! fastbcast packing complete:64 --trees 8 --exact
//! ```

use fast_broadcast::apsp::unweighted_apsp_approx;
use fast_broadcast::core::broadcast::{
    partition_broadcast_hosted, BroadcastConfig, BroadcastInput, DEFAULT_PARTITION_C,
};
use fast_broadcast::core::leader::rank;
use fast_broadcast::core::lower_bounds::{optimality_ratio, theorem3_broadcast_lb};
use fast_broadcast::core::partition::PartitionParams;
use fast_broadcast::core::textbook::textbook_broadcast;
use fast_broadcast::graph::algo::apsp::{apsp_unweighted, measure_stretch_unweighted};
use fast_broadcast::graph::algo::bridges::bridges;
use fast_broadcast::graph::algo::eccentricity;
use fast_broadcast::graph::generators as gen;
use fast_broadcast::graph::metrics::GraphParams;
use fast_broadcast::graph::{Graph, WeightedGraph};
use fast_broadcast::packing::matroid::exact_tree_packing;
use fast_broadcast::packing::random_partition::partition_packing_retrying;
use fast_broadcast::sim::fault::FaultPlan;
use fast_broadcast::sim::protocol::NodeCtx;
use fast_broadcast::sim::rng::{mix64, phase_seed};
use fast_broadcast::sim::{
    EngineConfig, EvictionPolicy, Job, JobSpec, JobStatus, PoolError, PoolServer, Protocol, Session,
};
use fast_broadcast::sparsify::cuts::theorem7_all_cuts;
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        // Whoever reads the output stopped reading (`| head`): done.
        Err(Failure::Output(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Output(e)) => {
            eprintln!("error: cannot write the output: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Why a subcommand stopped early.
enum Failure {
    /// Bad input or a failed run: reported with the usage text.
    Usage(String),
    /// Writing to stdout failed.
    Output(std::io::Error),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Usage(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Usage(msg.to_string())
    }
}

/// `println!` for a subcommand's output: a failed write (a closed pipe)
/// returns [`Failure::Output`] from the subcommand instead of panicking.
macro_rules! say {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*).map_err(Failure::Output)?
    };
}

/// `text` to stdout as it is, the way [`say!`] writes a line.
fn emit(text: &str) -> Result<(), Failure> {
    std::io::stdout()
        .write_all(text.as_bytes())
        .map_err(Failure::Output)
}

fn run(args: &[String]) -> Result<(), Failure> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            say!("{}", USAGE);
            Ok(())
        }
        "params" => cmd_params(&args[1..]),
        "broadcast" => cmd_broadcast(&args[1..]),
        "packing" => cmd_packing(&args[1..]),
        "apsp" => cmd_apsp(&args[1..]),
        "cuts" => cmd_cuts(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "snapshot" => cmd_snapshot(&args[1..]),
        "resume" => cmd_resume(&args[1..]),
        other => Err(format!("unknown subcommand `{other}`").into()),
    }
}

const USAGE: &str = "\
fastbcast — fast broadcast in highly connected networks (SPAA 2024 reproduction)

  fastbcast params    <family>
  fastbcast broadcast <family> [--k K] [--seed S]
  fastbcast packing   <family> [--trees T] [--exact] [--seed S]
                      (T defaults to λ' = max(1, ⌊λ/(2 ln n)⌋), the Theorem 2
                      partition's count, or to ⌊λ/2⌋ with --exact)
  fastbcast apsp      <family> [--seed S]
  fastbcast cuts      <family> [--eps E] [--seed S]
  fastbcast serve     [--graphs F1+F2+..] [--jobs N] [--tenants T] [--queue Q]
                      [--mix flood,rumor,gossip] [--fault-edges F] [--seed S]
                      [--max-graphs G] [--max-warm-bytes B]
  fastbcast snapshot  <family> [--phases N] [--cut K] [--seed S] [--out FILE]
  fastbcast resume    <family> --in FILE [--phases N] [--cut K] [--seed S] [--verify]

families:
  harary:L,N         circulant with λ = L on N nodes
  complete:N         K_N
  torus:RxC          2-D torus
  hypercube:D        Q_D
  clique-chain:C,S,B C cliques of size S, B-wide bridges
  thick-path:L,W     L columns of width W
  gnp:N,P            Erdős–Rényi (connected resample)
  regular:N,D        random D-regular
  gk13:COLS,L        the Appendix B lower-bound family
  barbell:S,P        two S-cliques + P-edge path (λ = 1)
  bipartite:A,B      K_{A,B}";

/// Refuse any `--flag` in `args` that the subcommand `cmd` does not take:
/// a misspelt flag is a usage error, not a silent default.
fn known_flags(args: &[String], cmd: &str, takes: &[&str]) -> Result<(), String> {
    match args
        .iter()
        .find(|a| a.starts_with("--") && !takes.contains(&a.as_str()))
    {
        Some(unknown) => Err(format!("{cmd} does not take `{unknown}`")),
        None => Ok(()),
    }
}

/// Parse `--flag value` style options from the tail of an argument list.
fn opt<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => {
            let value = args.get(i + 1).ok_or(format!("{flag} needs a value"))?;
            value
                .parse()
                .map_err(|_| format!("bad value `{value}` for {flag}"))
        }
    }
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parse a family spec like `harary:16,96`. Parameters are separated by
/// `,` (`torus:RxC` alone also by `x`). Every malformed spec — missing
/// `:`, wrong parameter count, non-numeric parameter, a parameter outside
/// what the family's generator is defined on — is a clean `Err` naming the
/// offending token or rule, never a panic.
fn parse_family(spec: &str) -> Result<Graph, String> {
    let (kind, rest) = spec
        .split_once(':')
        .ok_or(format!("family must be kind:params, got `{spec}`"))?;
    let nums = |arity: usize, grammar: &str| -> Result<Vec<usize>, String> {
        let v: Vec<usize> = rest
            .split(|c| c == ',' || (c == 'x' && kind == "torus"))
            .map(|x| {
                x.parse()
                    .map_err(|_| format!("bad number `{x}` in `{spec}`"))
            })
            .collect::<Result<_, _>>()?;
        if v.len() != arity {
            return Err(format!(
                "`{spec}` takes {arity} parameter(s): {grammar}, got {}",
                v.len()
            ));
        }
        Ok(v)
    };
    // The generators `assert!` their preconditions; hold the spec to them
    // here, where a violation is the user's typo and not a bug.
    let need = |ok: bool, rule: &str| -> Result<(), String> {
        if ok {
            Ok(())
        } else {
            Err(format!("`{spec}`: {rule}"))
        }
    };
    match kind {
        "harary" => {
            let v = nums(2, "harary:L,N")?;
            let (l, n) = (v[0], v[1]);
            need(l >= 2, "harary needs L >= 2")?;
            need(n > l, "harary needs N > L")?;
            need(
                l % 2 == 0 || n % 2 == 0,
                "an odd-L harary graph needs an even N",
            )?;
            Ok(gen::harary(l, n))
        }
        "complete" => {
            let n = nums(1, "complete:N")?[0];
            need(n >= 1, "complete needs N >= 1")?;
            Ok(gen::complete(n))
        }
        "torus" => {
            let v = nums(2, "torus:RxC")?;
            need(v[0] >= 3 && v[1] >= 3, "torus needs both dimensions >= 3")?;
            Ok(gen::torus2d(v[0], v[1]))
        }
        "hypercube" => {
            let d = nums(1, "hypercube:D")?[0];
            need((1..=30).contains(&d), "hypercube needs D in 1..=30")?;
            Ok(gen::hypercube(d))
        }
        "clique-chain" => {
            let v = nums(3, "clique-chain:C,S,B")?;
            need(
                v[0] >= 1 && v[1] >= 2,
                "clique-chain needs C >= 1 and S >= 2",
            )?;
            need((1..=v[1]).contains(&v[2]), "clique-chain needs B in 1..=S")?;
            Ok(gen::clique_chain(v[0], v[1], v[2]))
        }
        "thick-path" => {
            let v = nums(2, "thick-path:L,W")?;
            need(v[0] >= 2 && v[1] >= 2, "thick-path needs L >= 2 and W >= 2")?;
            Ok(gen::thick_path(v[0], v[1]))
        }
        "gnp" => {
            let (n, p) = rest.split_once(',').ok_or("gnp:N,P")?;
            let n: usize = n.parse().map_err(|_| format!("bad N `{n}` in `{spec}`"))?;
            let p: f64 = p.parse().map_err(|_| format!("bad P `{p}` in `{spec}`"))?;
            need(n >= 1, "gnp needs N >= 1")?;
            need((0.0..=1.0).contains(&p), "gnp needs P in 0..=1")?;
            gen::random::try_gnp_connected(n, p, 0xC11).ok_or(format!(
                "`{spec}`: no connected sample in 64 attempts, P is too small for N"
            ))
        }
        "regular" => {
            let v = nums(2, "regular:N,D")?;
            let (n, d) = (v[0], v[1]);
            need(d < n, "regular needs D < N")?;
            need(n % 2 == 0 || d % 2 == 0, "regular needs N * D even")?;
            gen::random::try_random_regular(n, d, 0xC11).ok_or(format!(
                "`{spec}`: no simple D-regular sample in 32 attempts, D is too close to N"
            ))
        }
        "gk13" => {
            let v = nums(2, "gk13:COLS,L")?;
            need(v[0] >= 4 && v[1] >= 3, "gk13 needs COLS >= 4 and L >= 3")?;
            Ok(gen::gk13_lower_bound(v[0], v[1]).0)
        }
        "barbell" => {
            let v = nums(2, "barbell:S,P")?;
            need(v[0] >= 2 && v[1] >= 1, "barbell needs S >= 2 and P >= 1")?;
            Ok(gen::barbell(v[0], v[1]))
        }
        "bipartite" => {
            let v = nums(2, "bipartite:A,B")?;
            need(v[0] >= 1 && v[1] >= 1, "bipartite needs A >= 1 and B >= 1")?;
            Ok(gen::complete_bipartite(v[0], v[1]))
        }
        other => Err(format!("unknown family kind `{other}`")),
    }
}

fn cmd_params(args: &[String]) -> Result<(), Failure> {
    known_flags(args, "params", &[])?;
    let spec = args.first().ok_or("params needs a <family>")?;
    let g = parse_family(spec)?;
    let p = GraphParams::measure(&g);
    say!("family      : {spec}");
    say!("n           : {}", p.n);
    say!("m           : {}", p.m);
    say!("min degree δ: {}", p.delta);
    say!("edge conn λ : {} (exact, max-flow)", p.lambda);
    match p.diameter {
        Some(d) => say!("diameter D  : {d}"),
        None => say!("diameter D  : ∞ (disconnected)"),
    }
    if let Some(r) = p.observation1_ratio() {
        say!("D·δ/n       : {r:.3} (Observation 1: ≤ 3)");
    }
    let br = bridges(&g);
    if br.is_empty() && p.lambda >= 2 {
        say!("bridges     : none (2-edge-connected)");
    } else if br.is_empty() {
        // λ 0 without a bridge: one node, or components without bridges.
        say!("bridges     : none");
    } else {
        say!(
            "bridges     : {} — λ = 1 regime; broadcast is Ω(k) here (paper §1)",
            br.len()
        );
    }
    Ok(())
}

fn cmd_broadcast(args: &[String]) -> Result<(), Failure> {
    known_flags(args, "broadcast", &["--k", "--seed"])?;
    let spec = args.first().ok_or("broadcast needs a <family>")?;
    let g = parse_family(spec)?;
    let k = opt(args, "--k", 2 * g.n())?;
    if k == 0 {
        // Theorem 3's bound is 0 at k = 0: the optimality ratios would
        // divide by it.
        return Err("--k must be at least 1".into());
    }
    let seed: u64 = opt(args, "--seed", 42u64)?;
    let lambda = fast_broadcast::graph::algo::edge_connectivity(&g);
    if lambda == 0 {
        return Err("graph is disconnected".into());
    }
    let input = BroadcastInput::random_spread(&g, k, seed);
    let params = PartitionParams::from_lambda(g.n(), lambda, DEFAULT_PARTITION_C);
    let (mut host, cfg) = (Session::new(&g), BroadcastConfig::with_seed(seed));
    let (out, attempts) = partition_broadcast_hosted(&mut host, &input, params, &cfg, 30)
        .map_err(|e| e.to_string())?;
    assert!(out.all_delivered());
    say!(
        "family {spec}: n = {}, λ = {lambda}, k = {k}, λ' = {}, root = {} (rank {:#010x})",
        g.n(),
        params.num_subgraphs,
        out.root,
        rank(out.root)
    );
    say!(
        "\n== Theorem 1 broadcast: {} rounds (partition attempts: {attempts})",
        out.total_rounds
    );
    emit(&out.phases.breakdown())?;

    let tb = textbook_broadcast(&g, &input, seed).map_err(|e| e.to_string())?;
    assert!(tb.all_delivered());
    say!("\n== textbook baseline: {} rounds", tb.total_rounds);
    emit(&tb.phases.breakdown())?;

    // Every node must hear s₀'s message (s₀ holds message 0), so ecc(s₀)
    // rounds are necessary too; the ratios divide by the larger floor.
    let s0 = input.messages[0].0;
    let ecc = eccentricity(&g, s0).expect("λ > 0, so the graph is connected") as u64;
    let thm3 = theorem3_broadcast_lb(k as u64, lambda as u64);
    let ratio = |rounds| optimality_ratio(rounds, k as u64, lambda as u64, ecc);
    say!("\nlower bound max(ecc(s₀) = {ecc}, Thm 3 ≈ {thm3:.0}) rounds; optimality ratios: thm1 {:.1}×, textbook {:.1}×; speedup {:.2}×",
        ratio(out.total_rounds),
        ratio(tb.total_rounds),
        tb.total_rounds as f64 / out.total_rounds as f64);
    Ok(())
}

fn cmd_packing(args: &[String]) -> Result<(), Failure> {
    known_flags(args, "packing", &["--trees", "--exact", "--seed"])?;
    let spec = args.first().ok_or("packing needs a <family>")?;
    let g = parse_family(spec)?;
    let lambda = fast_broadcast::graph::algo::edge_connectivity(&g);
    let exact = flag(args, "--exact");
    // Each construction's default is the count it reaches: Nash-Williams
    // packs ⌊λ/2⌋ trees; Theorem 2's partition spans w.h.p. at
    // λ′ = max(1, ⌊λ/(C ln n)⌋) classes.
    let default_trees = if exact {
        (lambda / 2).max(1)
    } else {
        PartitionParams::from_lambda(g.n(), lambda, DEFAULT_PARTITION_C).num_subgraphs
    };
    let trees = opt(args, "--trees", default_trees)?;
    if trees == 0 {
        return Err("--trees must be at least 1".into());
    }
    let seed: u64 = opt(args, "--seed", 7u64)?;
    say!(
        "family {spec}: n = {}, m = {}, λ = {lambda}, requesting {trees} trees",
        g.n(),
        g.m()
    );
    let packing = if exact {
        say!("construction: exact matroid union (Nash-Williams optimal)");
        exact_tree_packing(&g, trees, 0).ok_or(format!(
            "no edge-disjoint packing of {trees} spanning trees exists"
        ))?
    } else {
        say!("construction: Theorem 2 random partition + per-class BFS");
        let (p, _, attempts) = partition_packing_retrying(&g, trees, 0, seed, 30)
            .map_err(|e| format!("{e}; try --exact or fewer --trees"))?;
        say!("(spanning after {attempts} seed attempt(s))");
        p
    };
    packing.validate(&g).map_err(|e| e.to_string())?;
    let stats = packing.stats(&g);
    say!("\ntrees         : {}", stats.num_trees);
    say!("edge-disjoint : {}", stats.edge_disjoint);
    say!("congestion    : {}", stats.congestion);
    say!("max diameter  : {}", stats.max_diameter);
    say!("mean diameter : {:.1}", stats.mean_diameter);
    say!("per-tree      : {:?}", stats.tree_diameters);
    let n = g.n() as f64;
    say!(
        "Theorem 2 envelope D·δ/(n·ln n) : {:.3}",
        stats.max_diameter as f64 * g.min_degree() as f64 / (n * n.ln())
    );
    Ok(())
}

fn cmd_apsp(args: &[String]) -> Result<(), Failure> {
    known_flags(args, "apsp", &["--seed"])?;
    let spec = args.first().ok_or("apsp needs a <family>")?;
    let g = parse_family(spec)?;
    let seed: u64 = opt(args, "--seed", 3u64)?;
    let lambda = fast_broadcast::graph::algo::edge_connectivity(&g);
    if lambda == 0 {
        return Err("graph is disconnected".into());
    }
    say!("family {spec}: n = {}, λ = {lambda}", g.n());
    let out = unweighted_apsp_approx(&g, lambda, seed).map_err(|e| e.to_string())?;
    let exact = apsp_unweighted(&g);
    let alpha = measure_stretch_unweighted(&exact, &out.estimate, 2).map_err(|e| e.to_string())?;
    say!("\nclusters      : {}", out.cluster_graph.centers.len());
    say!("total rounds  : {}", out.total_rounds);
    say!("verified α    : {alpha:.3} (Theorem 4 bound: 3, plus additive 2)");
    emit(&out.phases.breakdown())?;
    Ok(())
}

fn cmd_cuts(args: &[String]) -> Result<(), Failure> {
    known_flags(args, "cuts", &["--eps", "--seed"])?;
    let spec = args.first().ok_or("cuts needs a <family>")?;
    let g = parse_family(spec)?;
    let eps: f64 = opt(args, "--eps", 0.5f64)?;
    // Written so that NaN is refused too.
    if !(eps > 0.0 && eps <= 1.0) {
        return Err("--eps must be in (0, 1]".into());
    }
    let seed: u64 = opt(args, "--seed", 9u64)?;
    let lambda = fast_broadcast::graph::algo::edge_connectivity(&g);
    if lambda == 0 {
        return Err("graph is disconnected".into());
    }
    say!(
        "family {spec}: n = {}, m = {}, λ = {lambda}, ε = {eps}",
        g.n(),
        g.m()
    );
    let out = theorem7_all_cuts(&WeightedGraph::unit(g.clone()), eps, lambda, seed)
        .map_err(|e| e.to_string())?;
    say!(
        "\nsparsifier    : {} / {} edges",
        out.sparsifier_edges,
        g.m()
    );
    say!("total rounds  : {}", out.total_rounds);
    say!("cuts audited  : {}", out.quality.num_cuts);
    say!("worst error   : {:.4}", out.quality.max_rel_error);
    say!("mean error    : {:.5}", out.quality.mean_rel_error);
    say!(
        "min cut       : {} → {} (G → sparsifier)",
        out.quality.min_cut_g,
        out.quality.min_cut_h
    );
    Ok(())
}

/// The in-process serving driver: register a graph mix, synthesize a
/// deterministic multi-tenant job stream over it, push it through the
/// session-pool server (bounded queue → one run per job on its graph's
/// warm session), and report throughput plus the per-tenant
/// congestion/bit meters.
fn cmd_serve(args: &[String]) -> Result<(), Failure> {
    known_flags(
        args,
        "serve",
        &[
            "--graphs",
            "--jobs",
            "--tenants",
            "--queue",
            "--seed",
            "--fault-edges",
            "--mix",
            "--max-graphs",
            "--max-warm-bytes",
        ],
    )?;
    let graphs_spec: String = opt(args, "--graphs", "harary:6,256+torus:16x16".to_string())?;
    let jobs: u64 = opt(args, "--jobs", 96u64)?;
    let tenants: u32 = opt(args, "--tenants", 4u32)?;
    let queue: usize = opt(args, "--queue", 32usize)?;
    let seed: u64 = opt(args, "--seed", 42u64)?;
    let fault_edges: usize = opt(args, "--fault-edges", 0usize)?;
    let mix_spec: String = opt(args, "--mix", "flood,rumor,gossip".to_string())?;
    let max_graphs: usize = opt(args, "--max-graphs", usize::MAX)?;
    let max_warm_bytes: usize = opt(args, "--max-warm-bytes", usize::MAX)?;
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    if tenants == 0 {
        return Err("--tenants must be at least 1".into());
    }
    if queue == 0 {
        return Err("--queue must be at least 1".into());
    }
    if max_graphs == 0 {
        return Err("--max-graphs must be at least 1".into());
    }
    if max_warm_bytes == 0 {
        return Err("--max-warm-bytes must be at least 1".into());
    }
    let graphs: Vec<Graph> = graphs_spec
        .split('+')
        .map(parse_family)
        .collect::<Result<_, _>>()?;
    let mix: Vec<&str> = mix_spec.split(',').collect();
    for fam in &mix {
        if !matches!(*fam, "flood" | "rumor" | "gossip") {
            return Err(format!("unknown mix family `{fam}` (expected flood|rumor|gossip)").into());
        }
    }

    let mut server = PoolServer::new(EngineConfig::default(), queue);
    server.pool_mut().set_policy(EvictionPolicy {
        max_graphs,
        max_warm_bytes,
    });
    let keys: Vec<_> = graphs
        .iter()
        .map(|g| (server.register_graph(g.clone()), g.n()))
        .collect();
    say!(
        "serving {jobs} jobs: {} graph(s) × {} famil(y/ies), {tenants} tenant(s), queue capacity {queue}",
        keys.len(),
        mix.len()
    );

    let mut out = Vec::with_capacity(jobs as usize);
    let mut reregistered = 0u64;
    let t0 = std::time::Instant::now();
    for j in 0..jobs {
        let (key, n) = keys[j as usize % keys.len()];
        let protocol = match mix[(j as usize / keys.len()) % mix.len()] {
            "flood" => JobSpec::FloodMax,
            "rumor" => JobSpec::Rumor {
                source: (mix64(seed ^ j) % n as u64) as u32,
            },
            _ => JobSpec::Gossip { rounds: 4 + j % 4 },
        };
        let faults = (fault_edges > 0 && j % 2 == 1)
            .then(|| FaultPlan::new(fault_edges, mix64(seed ^ 0xFA17 ^ j)));
        let job = Job {
            graph: key,
            protocol,
            seed: mix64(seed ^ mix64(j)),
            faults,
            tenant: (j % tenants as u64) as u32,
        };
        // `submit` drains the backlog when the bounded queue fills — the
        // in-process face of backpressure. An aggressive `--max-graphs`
        // budget can age this job's graph out between drains; keys are
        // content fingerprints, so re-registering restores the same key
        // (cold) and the submission proceeds.
        match server.submit(job.clone(), &mut out) {
            Ok(_) => {}
            Err(PoolError::UnknownGraph(_)) => {
                reregistered += 1;
                server.register_graph(graphs[j as usize % keys.len()].clone());
                server.submit(job, &mut out).map_err(|e| e.to_string())?;
            }
            Err(e) => return Err(e.to_string().into()),
        }
    }
    server.drain(&mut out);
    let secs = t0.elapsed().as_secs_f64();

    let limited = out
        .iter()
        .filter(|o| matches!(o.status, JobStatus::RoundLimit { .. }))
        .count();
    let evicted = out
        .iter()
        .filter(|o| o.status == JobStatus::GraphEvicted)
        .count();
    say!(
        "\ndrained     : {} jobs in {secs:.3} s → {:.0} jobs/sec",
        out.len(),
        out.len() as f64 / secs.max(1e-9)
    );
    say!(
        "jobs        : {} run on their graph's warm session, {limited} round-limited, {evicted} graph-evicted",
        server.solo_jobs()
    );
    say!(
        "pool        : {} graph entr(y/ies) live, {} warm hits, {} cold builds, ~{} KiB warm",
        server.pool().len(),
        server.pool().hits(),
        server.pool().misses(),
        server.pool().warm_bytes_total() / 1024
    );
    say!(
        "eviction    : {} graphs aged out, {} warm states dropped, {reregistered} re-registrations",
        server.pool().graph_evictions(),
        server.pool().warm_evictions()
    );
    // What the mix costs, by family (model quantities only: equal at every
    // pool width). A fresh server numbers its jobs 0, 1, … in
    // submission order, so job `j`'s family and graph are the loop's above.
    say!("\nper-family traffic:");
    say!("  family      jobs    rounds     messages  node-rounds");
    for fam in ["flood", "rumor", "gossip"] {
        let (mut jobs, mut rounds, mut messages, mut node_rounds) = (0u64, 0u64, 0u64, 0u64);
        for o in &out {
            let j = o.id.index() as usize;
            if mix[(j / keys.len()) % mix.len()] == fam {
                jobs += 1;
                rounds += o.stats.rounds;
                messages += o.stats.total_messages;
                node_rounds += o.stats.rounds * keys[j % keys.len()].1 as u64;
            }
        }
        if jobs > 0 {
            say!("  {fam:<8} {jobs:>7} {rounds:>9} {messages:>12} {node_rounds:>12}");
        }
    }
    say!("\nper-tenant meters:");
    say!("  tenant      jobs    rounds  messages   dropped  max-cong  max-bits");
    for (t, m) in server.meters() {
        say!(
            "  {t:<8} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9}",
            m.jobs,
            m.rounds,
            m.messages,
            m.dropped,
            m.max_edge_congestion,
            m.max_message_bits
        );
    }
    Ok(())
}

/// The checkpoint walkthrough's phase protocol: every node stirs its
/// inbox into a splitmix accumulator and chatters a salted digest to all
/// neighbors for a fixed number of rounds. Fully deterministic in
/// (node, round, phase salt) — so an interrupted run and its resumed
/// half are comparable bit-for-bit against an uninterrupted one.
struct Pulse {
    node: u64,
    salt: u64,
    acc: u64,
    rounds: u64,
}

impl Protocol for Pulse {
    type Msg = u64;
    type Output = u64;
    fn round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        for (_, m) in ctx.inbox() {
            self.acc = mix64(self.acc ^ m);
        }
        if ctx.round < self.rounds {
            ctx.send_all(mix64(self.salt ^ self.node ^ (ctx.round << 32) ^ self.acc));
        }
        ctx.set_done(ctx.round >= self.rounds);
    }
    fn finish(self) -> u64 {
        self.acc
    }
}

/// Run phases `[from, to)` of the deterministic pulse composition on
/// `session`, printing each phase's post-phase state hash.
fn run_pulse_phases(
    session: &mut Session<'_>,
    from: u64,
    to: u64,
    seed: u64,
) -> Result<Vec<u64>, Failure> {
    let mut last = Vec::new();
    for k in from..to {
        let salt = phase_seed(seed, k);
        let rounds = 4 + k % 3;
        let out = session
            .run(
                |v, _| Pulse {
                    node: v as u64,
                    salt,
                    acc: mix64(salt ^ v as u64),
                    rounds,
                },
                EngineConfig::with_seed(salt),
            )
            .map_err(|e| e.to_string())?;
        last = out.take_outputs();
        say!(
            "phase {k:>2}: {rounds} rounds, state hash {:016x}",
            session.state_hash()
        );
    }
    Ok(last)
}

/// Run the first `--cut` phases of a deterministic multi-phase
/// composition, then checkpoint the engine into `--out` — the file
/// `fastbcast resume` continues from, in this or any other process.
fn cmd_snapshot(args: &[String]) -> Result<(), Failure> {
    known_flags(args, "snapshot", &["--phases", "--cut", "--seed", "--out"])?;
    let spec = args.first().ok_or("snapshot needs a <family>")?;
    let g = parse_family(spec)?;
    let phases: u64 = opt(args, "--phases", 6u64)?;
    let cut: u64 = opt(args, "--cut", phases / 2)?;
    let seed: u64 = opt(args, "--seed", 42u64)?;
    let path: String = opt(args, "--out", "fastbcast.snap".to_string())?;
    if cut > phases {
        return Err(format!("--cut {cut} exceeds --phases {phases}").into());
    }
    say!(
        "family {spec}: n = {}, m = {}, fingerprint {:016x}",
        g.n(),
        g.m(),
        g.fingerprint()
    );
    let mut session = Session::new(&g);
    run_pulse_phases(&mut session, 0, cut, seed)?;
    let bytes = session.snapshot();
    std::fs::write(&path, &bytes).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    say!(
        "checkpoint  : {path} ({} bytes) after phase {cut}/{phases}, state hash {:016x}",
        bytes.len(),
        session.state_hash()
    );
    say!("resume with : fastbcast resume {spec} --in {path} --phases {phases} --cut {cut} --seed {seed}");
    Ok(())
}

/// Restore a `fastbcast snapshot` checkpoint and run the remaining
/// phases. With `--verify`, also rerun the whole composition
/// uninterrupted and check the outputs and final state hash agree —
/// the CLI face of the snapshot→restore→continue bit-identity oracle.
fn cmd_resume(args: &[String]) -> Result<(), Failure> {
    known_flags(
        args,
        "resume",
        &["--in", "--phases", "--cut", "--seed", "--verify"],
    )?;
    let spec = args.first().ok_or("resume needs a <family>")?;
    let g = parse_family(spec)?;
    let path: String = opt(args, "--in", String::new())?;
    if path.is_empty() {
        return Err("resume needs --in FILE".into());
    }
    let phases: u64 = opt(args, "--phases", 6u64)?;
    let cut: u64 = opt(args, "--cut", phases / 2)?;
    let seed: u64 = opt(args, "--seed", 42u64)?;
    if cut > phases {
        return Err(format!("--cut {cut} exceeds --phases {phases}").into());
    }
    let bytes = std::fs::read(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let header = fast_broadcast::sim::snapshot::peek(&bytes).map_err(|e| e.to_string())?;
    say!(
        "checkpoint  : {path} ({} bytes), graph {:016x}, state hash {:016x}",
        bytes.len(),
        header.fingerprint,
        header.state_hash
    );
    let mut session = Session::restore(&g, &bytes).map_err(|e| e.to_string())?;
    say!("restored    : family {spec}, continuing at phase {cut}/{phases}");
    let outputs = run_pulse_phases(&mut session, cut, phases, seed)?;
    let final_hash = session.state_hash();
    say!("final state hash {final_hash:016x}");

    if flag(args, "--verify") {
        let mut oracle = Session::new(&g);
        let expected = run_pulse_phases(&mut oracle, 0, phases, seed)?;
        if (cut < phases && expected != outputs) || oracle.state_hash() != final_hash {
            return Err("verification FAILED: resumed run diverged from uninterrupted run".into());
        }
        say!("verified    : resumed run is bit-identical to an uninterrupted run");
    }
    Ok(())
}
