//! `fastbcast` CLI error-path contract: every malformed invocation —
//! bad family specs, non-numeric flag values, unknown subcommands and
//! flags, missing arguments — exits non-zero with an `error:` line plus the
//! usage text on stderr, and never panics or silently succeeds.

use std::process::Command;

fn fastbcast(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fastbcast"))
        .args(args)
        .output()
        .expect("spawn fastbcast")
}

#[test]
fn bad_invocations_fail_with_usage_on_stderr() {
    // (args, substring the error message must carry)
    let table: &[(&[&str], &str)] = &[
        (&[], "missing subcommand"),
        (&["frobnicate"], "unknown subcommand"),
        (&["params"], "params needs a <family>"),
        (&["params", "harary"], "kind:params"),
        (&["params", "klein:4,4"], "unknown family kind"),
        (&["params", "harary:a,b"], "bad number `a`"),
        // `x` separates torus's RxC and nothing else: the whole token is
        // named, not the empty half of a split on the letter.
        (
            &["params", "harary:x,12"],
            "bad number `x` in `harary:x,12`",
        ),
        (&["params", "harary:4x12"], "bad number `4x12`"),
        (&["params", "torus:4x8x2"], "2 parameter(s)"),
        (&["params", "torus:4xx8"], "bad number ``"),
        (&["params", "harary:16"], "2 parameter(s)"),
        (&["params", "complete:"], "bad number"),
        (&["params", "complete:8,9"], "1 parameter(s)"),
        (&["params", "torus:3"], "2 parameter(s)"),
        (&["params", "hypercube:3,3"], "1 parameter(s)"),
        (&["params", "clique-chain:4,6"], "3 parameter(s)"),
        (&["params", "thick-path:9"], "2 parameter(s)"),
        (&["params", "regular:64"], "2 parameter(s)"),
        (&["params", "gk13:4"], "2 parameter(s)"),
        (&["params", "barbell:8"], "2 parameter(s)"),
        (&["params", "bipartite:4"], "2 parameter(s)"),
        (&["params", "gnp:64"], "gnp:N,P"),
        (&["params", "gnp:x,0.5"], "bad N"),
        // Well-formed numbers outside what the family's generator is
        // defined on: its `assert!`s are for callers, not for input.
        (&["params", "gnp:50,1.5"], "gnp needs P in 0..=1"),
        (&["params", "gnp:30,0.05"], "no connected sample"),
        (&["params", "torus:0x4"], "torus needs both dimensions >= 3"),
        (&["params", "hypercube:40"], "hypercube needs D in 1..=30"),
        (&["params", "regular:11,3"], "regular needs N * D even"),
        (&["params", "regular:5,7"], "regular needs D < N"),
        (&["params", "regular:6,5"], "no simple D-regular sample"),
        (&["params", "harary:1,5"], "harary needs L >= 2"),
        (&["params", "harary:3,7"], "needs an even N"),
        (&["params", "thick-path:0,3"], "thick-path needs L >= 2"),
        (&["params", "clique-chain:2,2,3"], "needs B in 1..=S"),
        (&["params", "gk13:1,1"], "gk13 needs COLS >= 4"),
        (&["params", "barbell:1,0"], "barbell needs S >= 2"),
        (&["params", "bipartite:0,1"], "bipartite needs A >= 1"),
        // A family with no node: every subcommand indexes node 0 or
        // divides by n.
        (&["packing", "complete:0"], "complete needs N >= 1"),
        (&["packing", "gnp:0,0.5"], "gnp needs N >= 1"),
        (
            &["serve", "--graphs", "complete:0", "--mix", "rumor"],
            "complete needs N >= 1",
        ),
        (&["broadcast"], "broadcast needs a <family>"),
        (
            &["broadcast", "harary:4,32", "--k", "zebra"],
            "bad value `zebra` for --k",
        ),
        (
            &["broadcast", "harary:4,32", "--k", "0"],
            "--k must be at least 1",
        ),
        (
            &["broadcast", "harary:4,32", "--seed"],
            "--seed needs a value",
        ),
        (
            &["packing", "complete:16", "--trees", "-3"],
            "bad value `-3` for --trees",
        ),
        (
            &["packing", "complete:8", "--trees", "0"],
            "--trees must be at least 1",
        ),
        (
            &["packing", "complete:8", "--trees", "0", "--exact"],
            "--trees must be at least 1",
        ),
        (
            &["apsp", "harary:4,32", "--seed", "1.5"],
            "bad value `1.5` for --seed",
        ),
        (
            &["cuts", "harary:4,32", "--eps", "wide"],
            "bad value `wide` for --eps",
        ),
        (
            &["cuts", "complete:8", "--eps", "0"],
            "--eps must be in (0, 1]",
        ),
        (
            &["cuts", "complete:8", "--eps", "-1"],
            "--eps must be in (0, 1]",
        ),
        (
            &["cuts", "complete:8", "--eps", "2"],
            "--eps must be in (0, 1]",
        ),
        (
            &["cuts", "complete:8", "--eps", "nan"],
            "--eps must be in (0, 1]",
        ),
        (&["serve", "--jobs", "many"], "bad value `many` for --jobs"),
        (&["serve", "--jobs", "0"], "--jobs must be at least 1"),
        (&["serve", "--queue", "0"], "--queue must be at least 1"),
        (&["serve", "--graphs", "harary:4"], "2 parameter(s)"),
        (&["serve", "--graphs", "harary:1,5"], "harary needs L >= 2"),
        (&["serve", "--mix", "flood,osmosis"], "unknown mix family"),
        // A flag the subcommand does not take is named, not ignored: a
        // misspelt or retired flag would otherwise run on the defaults.
        (
            &["broadcast", "harary:8,64", "--sed", "5"],
            "broadcast does not take `--sed`",
        ),
        (
            &["serve", "--warm-limit", "1"],
            "serve does not take `--warm-limit`",
        ),
        // The pool width is the one parallelism switch
        // (`CONGEST_PAR_THREADS=1` runs serially).
        (&["serve", "--serial"], "serve does not take `--serial`"),
        (
            &["params", "harary:4,16", "--k", "3"],
            "params does not take `--k`",
        ),
        (
            &["serve", "--max-graphs", "-2"],
            "bad value `-2` for --max-graphs",
        ),
        (
            &["serve", "--max-graphs", "0"],
            "--max-graphs must be at least 1",
        ),
        (
            &["serve", "--max-warm-bytes", "4MiB"],
            "bad value `4MiB` for --max-warm-bytes",
        ),
        (
            &["serve", "--max-warm-bytes", "0"],
            "--max-warm-bytes must be at least 1",
        ),
    ];
    for (args, needle) in table {
        let out = fastbcast(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "fastbcast {args:?} should fail, got success\nstderr: {stderr}"
        );
        assert_eq!(
            out.status.code(),
            Some(1),
            "fastbcast {args:?} should exit 1 (a panic exits 101)\nstderr: {stderr}"
        );
        assert!(
            stderr.contains("error:"),
            "fastbcast {args:?} stderr missing `error:`\nstderr: {stderr}"
        );
        assert!(
            stderr.contains(needle),
            "fastbcast {args:?} stderr missing `{needle}`\nstderr: {stderr}"
        );
        assert!(
            stderr.contains("fastbcast params"),
            "fastbcast {args:?} stderr missing usage text\nstderr: {stderr}"
        );
    }
}

#[test]
fn good_invocations_still_succeed() {
    for args in [
        &["params", "harary:4,16"][..],
        &["params", "torus:4x8"],
        &["params", "torus:4,8"],
        // One node, no edge: λ = 0 and D = 0.
        &["params", "complete:1"],
        &["help"],
        &["serve", "--jobs", "8", "--graphs", "harary:4,32"],
        // Each subcommand at its own defaults; `packing` without `--exact`
        // asks for the Theorem 2 partition's λ′ trees.
        &["packing", "harary:16,128"],
        &["packing", "complete:64"],
        &["apsp", "harary:12,96"],
        &["cuts", "harary:16,64"],
    ] {
        let out = fastbcast(args);
        assert!(
            out.status.success(),
            "fastbcast {args:?} failed\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // A graph without a bridge is 2-edge-connected only at λ ≥ 2: one
    // node has no bridge and λ 0.
    let params = fastbcast(&["params", "complete:1"]);
    let stdout = String::from_utf8_lossy(&params.stdout);
    let tail: Vec<&str> = stdout.lines().skip(4).collect();
    assert_eq!(
        tail,
        [
            "edge conn λ : 0 (exact, max-flow)",
            "diameter D  : 0",
            "D·δ/n       : 0.000 (Observation 1: ≤ 3)",
            "bridges     : none",
        ],
        "params complete:1: {stdout}"
    );
    let serve = fastbcast(&["serve", "--jobs", "8", "--graphs", "harary:4,32"]);
    let stdout = String::from_utf8_lossy(&serve.stdout);
    assert!(stdout.contains("jobs/sec"), "serve output: {stdout}");
    assert!(
        stdout.contains("per-tenant meters"),
        "serve output: {stdout}"
    );
    assert!(
        stdout.contains("8 run on their graph's warm session"),
        "serve output: {stdout}"
    );
    // One line per family between the two table headers, and their job
    // counts add up to the batch.
    let family_jobs: u64 = stdout
        .lines()
        .skip_while(|l| !l.starts_with("per-family traffic"))
        .skip(2)
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_whitespace().nth(1).unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(family_jobs, 8, "serve output: {stdout}");

    // The broadcast header names the elected root by id and rank: the
    // node of highest rank.
    let bcast = fastbcast(&["broadcast", "harary:4,32", "--k", "16"]);
    let stdout = String::from_utf8_lossy(&bcast.stdout);
    assert!(bcast.status.success(), "broadcast output: {stdout}");
    let rank = fast_broadcast::core::leader::rank;
    let root = (0..32).max_by_key(|&v| rank(v)).unwrap();
    let header = stdout.lines().next().unwrap_or_default();
    assert!(
        header.ends_with(&format!("root = {root} (rank {:#010x})", rank(root))),
        "broadcast header: {header}"
    );

    // An aggressive eviction budget: two graphs alternating under
    // --max-graphs 1 forces graph aging + re-registration mid-stream,
    // and the run still completes with eviction stats reported.
    let serve = fastbcast(&[
        "serve",
        "--jobs",
        "24",
        "--graphs",
        "harary:4,32+torus:4x8",
        "--queue",
        "4",
        "--max-graphs",
        "1",
        "--max-warm-bytes",
        "65536",
    ]);
    let stdout = String::from_utf8_lossy(&serve.stdout);
    assert!(
        serve.status.success(),
        "aggressive-eviction serve failed\nstderr: {}",
        String::from_utf8_lossy(&serve.stderr)
    );
    let aged: u64 = stdout
        .lines()
        .find_map(|l| l.split_once(" graphs aged out").map(|(pre, _)| pre))
        .and_then(|pre| pre.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no eviction stats in serve output: {stdout}"));
    assert!(aged > 0, "aggressive budget must actually evict: {stdout}");
}

/// Output into a closed pipe (`fastbcast broadcast … | head -1` once
/// `head` has exited) ends the program quietly: exit status 0 and nothing
/// on stderr, not a panic (101) on the first line that fails to print.
/// The pipe's read end is dropped before the child starts, so every write
/// fails with EPIPE, whatever the timing.
#[test]
fn a_closed_stdout_ends_the_program_quietly() {
    for args in [&["broadcast", "harary:16,256", "--k", "300"][..], &["help"]] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_fastbcast"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn fastbcast");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(0),
            "fastbcast {args:?} into a closed pipe\nstderr: {stderr}"
        );
        assert!(stderr.is_empty(), "fastbcast {args:?}: stderr {stderr}");
    }
}

/// A scratch file of this test process's own (tests run in parallel and
/// must not share one).
fn scratch_file(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fastbcast-{}-{name}", std::process::id()))
}

#[test]
fn checkpoint_cli_round_trips_and_refuses_bad_frames() {
    let snap = scratch_file("ok.snap");
    let snap_arg = snap.to_str().expect("utf-8 temp path");
    let out = fastbcast(&["snapshot", "harary:8,64", "--out", snap_arg]);
    assert!(
        out.status.success(),
        "snapshot failed\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = fastbcast(&["resume", "harary:8,64", "--in", snap_arg, "--verify"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("verified"),
        "resume --verify\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let frame = std::fs::read(&snap).expect("the snapshot file");
    // A truncated copy, and a crafted one: the per-edge length prefix (the
    // first body word, byte 64) claiming 2^62 words, with the checksum
    // recomputed. Believed, it would be an allocation that aborts the
    // process inside `Session::restore`.
    let mut crafted = frame.clone();
    crafted[64..72].copy_from_slice(&(1u64 << 62).to_le_bytes());
    let sum = fast_broadcast::sim::snapshot::checksum(&crafted[24..]);
    crafted[16..24].copy_from_slice(&sum.to_le_bytes());
    // A version-1 frame, a version-3 one (the last format that carried
    // the round loop's scratch buffers) and a version-4 one (the last that
    // carried the shard-plan key and the buffer high-water marks).
    let version = |v: u32| {
        let mut old = frame.clone();
        old[8..12].copy_from_slice(&v.to_le_bytes());
        old
    };
    let (v1, v3, v4) = (version(1), version(3), version(4));
    for (name, bytes, needle) in [
        ("cut.snap", &frame[..frame.len() / 2], "checksum mismatch"),
        ("crafted.snap", &crafted[..], "truncated"),
        ("v1.snap", &v1[..], "unsupported snapshot version 1"),
        ("v3.snap", &v3[..], "unsupported snapshot version 3"),
        ("v4.snap", &v4[..], "unsupported snapshot version 4"),
    ] {
        let path = scratch_file(name);
        std::fs::write(&path, bytes).expect("write the bad frame");
        let out = fastbcast(&["resume", "harary:8,64", "--in", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "resume on {name} should exit 1 (a panic exits 101, an abort has no code)\nstderr: {stderr}"
        );
        assert!(
            stderr.contains("error:") && stderr.contains(needle),
            "resume on {name}: stderr missing `{needle}`\nstderr: {stderr}"
        );
        assert!(
            stderr.contains("fastbcast params"),
            "resume on {name}: stderr missing usage text\nstderr: {stderr}"
        );
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&snap).ok();
}
