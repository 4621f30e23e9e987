//! Table-driven coverage of the `mtp` CLI surface: every flag spelling
//! of `mtp sweep`, `mtp serve`, `mtp advise`, and `mtp bench` that
//! parses, and every rejection path with its exact exit code and error
//! message. The
//! messages are part of the CLI contract — scripts grep them — so each
//! invalid case locks the wording, not just the failure.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

fn mtp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mtp")).args(args).output().expect("spawn mtp")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

// ---------------------------------------------------------------------
// Rejection paths: exit code 1, `error: ` prefix, exact wording.
// ---------------------------------------------------------------------

/// Every invalid spelling the three subcommands reject, with the exact
/// message fragment the CLI must print. All of these fail during
/// argument parsing, so they are cheap no matter the subcommand.
#[test]
fn invalid_flags_exit_nonzero_with_exact_messages() {
    let cases: &[(&[&str], &str)] = &[
        (&["bogus"], "unknown command `bogus`"),
        // sweep: base-grid and sink conflicts
        (
            &["sweep", "--deep", "--batch"],
            "--deep and --batch are mutually exclusive base grids \
             (use --deep --batches N,M for a batched deep sweep)",
        ),
        (
            &["sweep", "--stream", "--csv", "a.csv", "--json", "b.json"],
            "--stream writes one sink at a time (drop --csv or --json)",
        ),
        // sweep: axis vocabulary
        (&["sweep", "--models", "nope"], "unknown model `nope`"),
        (&["sweep", "--modes", "fast"], "unknown mode `fast` (ar|prompt)"),
        (&["sweep", "--chips", "two"], "bad chip count `two`"),
        (&["sweep", "--link-bw", "0"], "bad link bandwidth percentage `0`"),
        (&["sweep", "--batches", "0"], "bad batch size `0` (need a positive integer)"),
        (&["sweep", "--chips", ","], "the grid is empty (every axis needs at least one value)"),
        // sweep: link-regime spellings
        (
            &["sweep", "--link-regime", "warp"],
            "unknown link regime 'warp' (expected affine, queued[:BYTES], \
             droptail:BYTES[:NACK], or lossy:PERMILLE[:NACK])",
        ),
        (
            &["sweep", "--link-regime", "queued:0"],
            "queued buffer wants a positive byte count, got '0'",
        ),
        (
            &["sweep", "--link-regime", "droptail:4096:soon"],
            "droptail NACK wants cycles, got 'soon'",
        ),
        (
            &["sweep", "--link-regime", "lossy:1000"],
            "lossy rate must be 1..=999 per mille, got 1000 (use 'affine' for a lossless link)",
        ),
        // serve: arrival processes
        (
            &["serve", "--arrivals", "bogus"],
            "unknown arrival process `bogus` (expected poisson:RATE, bursty:RATE:BURST, or \
             trace:C1,C2,...)",
        ),
        (
            &["serve", "--arrivals", "poisson:0"],
            "bad arrival rate `0` (need a finite rate > 0 in requests per megacycle)",
        ),
        (
            &["serve", "--arrivals", "poisson:inf"],
            "bad arrival rate `inf` (need a finite rate > 0 in requests per megacycle)",
        ),
        (&["serve", "--arrivals", "bursty:2"], "bad bursty spec `2` (expected bursty:RATE:BURST)"),
        (&["serve", "--arrivals", "bursty:2:0"], "bad burst size `0` (need a positive integer)"),
        (
            &["serve", "--arrivals", "trace:10,soon"],
            "bad trace cycle `soon` (need a non-negative integer)",
        ),
        (
            &["serve", "--arrivals", ";"],
            "the serving grid is empty (every axis needs at least one value)",
        ),
        // serve: policies, billing, shape
        (
            &["serve", "--policies", "lru:4"],
            "unknown batch policy `lru:4` (expected static:BATCH or continuous:SLOTS)",
        ),
        (&["serve", "--policies", "static:0"], "bad batch size `0` (need a positive integer)"),
        (&["serve", "--policies", "continuous:0"], "bad slot count `0` (need a positive integer)"),
        (
            &["serve", "--billing", "half"],
            "unknown billing model `half` (expected full or per-request)",
        ),
        (&["serve", "--requests", "0"], "bad request count `0` (need a positive integer)"),
        (&["serve", "--prompt-len", "0"], "bad prompt length `0` (need a positive integer)"),
        (&["serve", "--decode-len", "-1"], "bad decode length `-1` (need a non-negative integer)"),
        (&["serve", "--seed", "-1"], "bad seed `-1`"),
        (&["serve", "--models", "nope"], "unknown model `nope`"),
        (&["serve", "--chips", "two"], "bad chip count `two`"),
        // sweep: fault plans, failover policy, cost source
        (
            &["sweep", "--faults", "meteor"],
            "unknown fault event 'meteor' (expected failstop:CHIP:AT, stall:CHIP:AT:DUR, \
             slow:CHIP:FROM:DUR:PCT, flap:CHIP:FROM:DUR:PCT, or seeded:SEED:COUNT[:HORIZON])",
        ),
        (
            &["sweep", "--faults", "seeded:1:2+stall:0:1:100"],
            "seeded fault plans cannot combine with '+' events",
        ),
        (
            &["sweep", "--faults", "slow:0:0:1000:50"],
            "slow factor is percent of nominal duration and must exceed 100, got 50",
        ),
        (&["sweep", "--faults", "stall:0:0:0"], "stall duration must be positive"),
        (
            &["sweep", "--fail-policy", "keep"],
            "unknown fail policy `keep` (expected abort, restart, or spare)",
        ),
        (&["sweep", "--cost-source", "magic"], "unknown cost source `magic` (analytic|calibrated)"),
        // serve: fault profiles
        (
            &["serve", "--faults", "chaos"],
            "unknown fault profile `chaos` \
             (expected none or fail:PERMILLE[:RETRIES[:TIMEOUT_KCYC[:QCAP]]])",
        ),
        (&["serve", "--faults", "fail:2000"], "bad failure rate `2000` (need 0..=1000 per mille)"),
        (
            &["serve", "--faults", "fail:100:1:0:0"],
            "bad queue capacity `0` (need a positive integer)",
        ),
        (
            &["serve", "--faults", ","],
            "the serving grid is empty (every axis needs at least one value)",
        ),
        // advise: model/axis vocabulary and bandwidth-range grammar
        (&["advise", "--model", "nope"], "unknown model `nope`"),
        (&["advise", "--chips", "two"], "bad chip count `two`"),
        (&["advise", "--link-bw", "0"], "bad link bandwidth `0` (want PCT or LO..HI[:STEP])"),
        (
            &["advise", "--link-bw", "50..40"],
            "bad link bandwidth `50..40` (want PCT or LO..HI[:STEP])",
        ),
        (
            &["advise", "--link-bw", "10..20:0"],
            "bad link bandwidth `10..20:0` (want PCT or LO..HI[:STEP])",
        ),
    ];
    for (args, fragment) in cases {
        let out = mtp(args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let err = stderr(&out);
        assert!(err.starts_with("error: "), "{args:?}: stderr `{err}` lacks the error prefix");
        assert!(err.contains(fragment), "{args:?}: stderr `{err}` lacks `{fragment}`");
    }
}

/// `mtp bench --check` without a baseline is rejected (after the quick
/// run — the flag is validated where the comparison would happen).
#[test]
fn bench_check_without_compare_is_rejected() {
    let out = mtp(&["bench", "--quick", "--check"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("--check requires --compare <BENCH_N.json>"));
}

/// A depth whose cycle counters do not fit in `u64` is a typed error,
/// never a wrapped number printed as a result.
#[test]
fn simulate_past_u64_cycles_is_a_typed_overflow() {
    let blocks = "1000000000000000000";
    let out = mtp(&["simulate", "--model", "tinyllama", "--chips", "8", "--blocks", blocks]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains(&format!("cycle counters overflow u64 at {blocks} blocks")), "{err}");
    assert!(stdout(&out).is_empty(), "no report may be printed");
}

/// A stall long enough to push a chip's clock past `u64` is the
/// executor's typed overflow: the sweep fails instead of printing the
/// wrapped (fault-free-looking) cycle count.
#[test]
fn sweep_past_u64_cycles_is_a_typed_overflow() {
    let grid = [
        "sweep",
        "--models",
        "tinyllama",
        "--modes",
        "ar",
        "--chips",
        "8",
        "--link-bw",
        "100",
        "--placements",
        "auto",
        "--topologies",
        "hier4",
    ];
    let out = mtp(&[&grid[..], &["--faults", "stall:0:1:18446744073709551000"]].concat());
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("simulation failed: chip0 cycle or byte counters overflow u64"), "{err}");
    assert!(stdout(&out).is_empty(), "no table may be printed");
    // Streamed rows fail the same way once the stream ends.
    let out =
        mtp(&[&grid[..], &["--stream", "--faults", "stall:0:1:18446744073709551000"]].concat());
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("simulation failed: chip0 cycle or byte counters overflow u64"), "{err}");
    assert!(!stdout(&out).contains("tinyllama"), "no row may be written");
    // A stall that fits is simulated and printed as before.
    let out = mtp(&[&grid[..], &["--faults", "stall:0:1:1000000"]].concat());
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("1,114,079"));
}

/// Spec grammars whose size the input chooses have explicit budgets:
/// over-budget input is rejected up front, naming the budget, instead of
/// running without bound.
#[test]
fn over_budget_specs_are_rejected_naming_the_budget() {
    let out = mtp(&[
        "sweep",
        "--models",
        "tinyllama",
        "--modes",
        "ar",
        "--chips",
        "8",
        "--faults",
        "seeded:1:100000000",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains(
            "seeded COUNT 100000000 exceeds the budget of 10000 events (MAX_SEEDED_FAULTS)"
        ),
        "{}",
        stderr(&out)
    );
    let out = mtp(&["advise", "--link-bw", "1..100000000:1"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains(
            "--link-bw `1..100000000:1` expands to 100000000 points; the list may hold at most \
             10000 (MAX_LINK_BW_POINTS)"
        ),
        "{}",
        stderr(&out)
    );
    // The budget counts the whole list, not each item alone.
    let out = mtp(&["advise", "--link-bw", "1..6000,1..6000"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("`1..6000` expands to 6000 points"), "{}", stderr(&out));
    // Serving: the request count and the retry count are both bounded
    // before anything is allocated or simulated.
    let out = mtp(&["serve", "--models", "tinyllama", "--chips", "4", "--requests", "100000000"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains(
            "--requests 100000000 exceeds the budget of 100000 requests (MAX_SERVE_REQUESTS)"
        ),
        "{}",
        stderr(&out)
    );
    // Rejected while parsing, before any engine or thread exists.
    let out = mtp(&["sweep", "--threads", "100000000"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out)
            .contains("--threads 100000000 exceeds the budget of 256 threads (MAX_SWEEP_THREADS)"),
        "{}",
        stderr(&out)
    );
    let out = mtp(&["serve", "--models", "tinyllama", "--chips", "4", "--faults", "fail:1000:101"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out)
            .contains("retry count 101 exceeds the budget of 100 retries (MAX_SERVE_RETRIES)"),
        "{}",
        stderr(&out)
    );
}

/// A batch whose steady state is not proven falls back to the full run,
/// which would materialize one copy of the block per instance: past
/// `MAX_FULL_RUN_OPS` the sweep refuses with a typed exit 1 before
/// allocating, streamed or not. The queued link regime with a finite
/// buffer never proves a steady state.
#[test]
fn a_full_run_past_the_op_budget_is_refused_naming_the_budget() {
    for batches in ["1000000", "1000000000000"] {
        for stream in [false, true] {
            let mut args = vec![
                "sweep",
                "--models",
                "tinyllama",
                "--modes",
                "ar",
                "--chips",
                "8",
                "--topologies",
                "hier4",
                "--link-regime",
                "queued:262144",
                "--span",
                "model",
                "--batches",
                batches,
            ];
            if stream {
                args.push("--stream");
            }
            let out = mtp(&args);
            assert_eq!(out.status.code(), Some(1), "{batches} {stream}");
            assert!(
                stderr(&out).contains("exceeds the budget of 4194304 ops (MAX_FULL_RUN_OPS)"),
                "{}",
                stderr(&out)
            );
        }
    }
}

/// The retry budget accepts its own value.
#[test]
fn serve_retry_budget_accepts_its_limit() {
    let out = mtp(&[
        "serve",
        "--models",
        "tinyllama",
        "--chips",
        "4",
        "--arrivals",
        "poisson:0.5",
        "--policies",
        "continuous:4",
        "--requests",
        "2",
        "--prompt-len",
        "8",
        "--decode-len",
        "1",
        "--faults",
        "fail:1000:100",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("f1000r100q64"), "{}", stdout(&out));
}

// ---------------------------------------------------------------------
// Accepted spellings: exit 0 and the expected output shape.
// ---------------------------------------------------------------------

#[test]
fn help_and_bare_invocation_print_usage() {
    for args in [&[][..], &["--help"][..], &["-h"][..]] {
        let out = mtp(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let text = stdout(&out);
        assert!(text.contains("mtp simulate"), "{args:?}");
        assert!(text.contains("mtp serve"), "{args:?}");
        assert!(text.contains("mtp sweep"), "{args:?}");
    }
}

/// A small sweep accepting every link-regime spelling in one grid.
#[test]
fn sweep_accepts_every_link_regime_spelling() {
    let out = mtp(&[
        "sweep",
        "--models",
        "tinyllama",
        "--modes",
        "ar",
        "--chips",
        "2",
        "--topologies",
        "hier4",
        "--serial",
        "--link-regime",
        "affine,queued,queued:65536,droptail:65536:700,lossy:5:700",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for label in ["@q65536", "@qdrop65536n700", "@loss5n700"] {
        assert!(text.contains(label), "missing regime-tagged row `{label}` in:\n{text}");
    }
    assert!(text.contains("5 scenario(s)"), "{text}");
}

/// A small serving grid across both policies and billing models, with
/// every shape flag exercised and CSV/JSON sinks written.
#[test]
fn serve_runs_a_small_grid_and_writes_sinks() {
    let dir = std::env::temp_dir().join(format!("mtp-cli-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv_path = dir.join("serve.csv");
    let json_path = dir.join("serve.json");
    let out = mtp(&[
        "serve",
        "--models",
        "tinyllama",
        "--chips",
        "2",
        "--arrivals",
        "trace:0,0,0;poisson:2",
        "--policies",
        "static:2,continuous:2",
        "--billing",
        "full,per-request",
        "--requests",
        "3",
        "--prompt-len",
        "8",
        "--decode-len",
        "2",
        "--seed",
        "7",
        "--csv",
        csv_path.to_str().unwrap(),
        "--json",
        json_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("ttft_p50"), "{text}");
    assert!(text.contains("8 serving scenario(s)"), "{text}");

    let csv = std::fs::read_to_string(&csv_path).unwrap();
    let header = csv.lines().next().unwrap();
    for col in ["ttft_p50", "ttft_p95", "ttft_p99", "tpot_p99", "slo_ok", "goodput_rps"] {
        assert!(header.contains(col), "CSV header misses `{col}`: {header}");
    }
    assert_eq!(csv.lines().count(), 9, "8 rows + header");
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"ttft_p99\":"));

    // Determinism across processes: a second run writes identical bytes.
    let csv2_path = dir.join("serve2.csv");
    let out2 = mtp(&[
        "serve",
        "--models",
        "tinyllama",
        "--chips",
        "2",
        "--arrivals",
        "trace:0,0,0;poisson:2",
        "--policies",
        "static:2,continuous:2",
        "--billing",
        "full,per-request",
        "--requests",
        "3",
        "--prompt-len",
        "8",
        "--decode-len",
        "2",
        "--seed",
        "7",
        "--csv",
        csv2_path.to_str().unwrap(),
    ]);
    assert_eq!(out2.status.code(), Some(0));
    assert_eq!(csv, std::fs::read_to_string(&csv2_path).unwrap(), "serve CSV not reproducible");
    std::fs::remove_dir_all(&dir).ok();
}

/// A small design-space search over every advise axis, including the
/// `LO..HI:STEP` bandwidth-range grammar, with CSV/JSON sinks written
/// and a second process reproducing the CSV byte for byte.
#[test]
fn advise_searches_a_space_and_writes_deterministic_sinks() {
    let dir = std::env::temp_dir().join(format!("mtp-cli-advise-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |csv: &std::path::Path, json: Option<&std::path::Path>| {
        let mut args = vec![
            "advise",
            "--model",
            "tinyllama",
            "--mode",
            "ar",
            "--latency-ms",
            "5",
            "--chips",
            "1,8",
            "--topologies",
            "hier4,flat",
            "--placements",
            "auto",
            "--link-bw",
            "25,50..100:25",
            "--csv",
            csv.to_str().unwrap(),
        ];
        if let Some(j) = json {
            args.extend(["--json", j.to_str().unwrap()]);
        }
        mtp(&args)
    };
    let csv_a = dir.join("advise-a.csv");
    let json_a = dir.join("advise-a.json");
    let out = run(&csv_a, Some(&json_a));
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("Pareto frontier"), "{text}");
    assert!(text.contains("recommendation: 8chips/"), "{text}");

    let csv = std::fs::read_to_string(&csv_a).unwrap();
    let header = csv.lines().next().unwrap();
    for col in ["link_bw_pct", "pareto", "feasible", "recommended"] {
        assert!(header.contains(col), "CSV header misses `{col}`: {header}");
    }
    // 2 chip counts x 2 topologies x 1 placement x 4 bandwidths (25 and
    // the 50..100:25 range), single-chip topologies both evaluated.
    assert_eq!(csv.lines().count(), 17, "16 rows + header:\n{csv}");
    assert_eq!(csv.matches(",1\n").count(), 1, "exactly one recommended row:\n{csv}");
    let json = std::fs::read_to_string(&json_a).unwrap();
    assert!(json.contains("\"recommended\":true"), "{json}");

    let csv_b = dir.join("advise-b.csv");
    let out2 = run(&csv_b, None);
    assert_eq!(out2.status.code(), Some(0));
    assert_eq!(csv, std::fs::read_to_string(&csv_b).unwrap(), "advise CSV not reproducible");
    std::fs::remove_dir_all(&dir).ok();
}

/// An unwritable sink path is a clean exit-1 error, not a panic.
#[test]
fn unwritable_sink_path_is_a_typed_error() {
    for sub in ["sweep", "serve"] {
        let out = mtp(&[
            sub,
            "--models",
            "tinyllama",
            "--chips",
            "2",
            "--csv",
            "/nonexistent-mtp-dir/out.csv",
        ]);
        assert_eq!(out.status.code(), Some(1), "{sub} must exit 1 on a bad sink");
        assert!(stderr(&out).starts_with("error: "), "{sub}: {}", stderr(&out));
    }
}

/// A faulted sweep runs every fault-plan spelling, tags the span
/// column, and writes byte-identical CSV across two processes (the
/// cross-process half of the determinism proof — same binary, fresh
/// caches, same bytes).
#[test]
fn faulted_sweep_is_reproducible_across_processes() {
    let dir = std::env::temp_dir().join(format!("mtp-cli-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |csv: &std::path::Path| {
        mtp(&[
            "sweep",
            "--models",
            "tinyllama",
            "--modes",
            "ar",
            "--chips",
            "4",
            "--topologies",
            "hier4",
            "--faults",
            "none;stall:0:1000:5000+slow:1:0:50000:150;seeded:7:3;failstop:0:200000",
            "--fail-policy",
            "spare",
            "--csv",
            csv.to_str().unwrap(),
        ])
    };
    let a_path = dir.join("a.csv");
    let b_path = dir.join("b.csv");
    let out = run(&a_path);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for label in ["st0@1000x5000", "seed7c3", "fs0@200000"] {
        assert!(text.contains(label), "missing fault-tagged row `{label}` in:\n{text}");
    }
    assert_eq!(run(&b_path).status.code(), Some(0));
    let a = std::fs::read_to_string(&a_path).unwrap();
    let b = std::fs::read_to_string(&b_path).unwrap();
    assert!(!a.is_empty());
    assert_eq!(a, b, "faulted sweep CSV not reproducible across processes");
    std::fs::remove_dir_all(&dir).ok();
}

/// A faulted serving run reports the degraded-mode columns and is
/// byte-identical across two processes.
#[test]
fn faulted_serve_is_reproducible_across_processes() {
    let dir = std::env::temp_dir().join(format!("mtp-cli-fserve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |csv: &std::path::Path| {
        mtp(&[
            "serve",
            "--models",
            "tinyllama",
            "--chips",
            "4",
            "--arrivals",
            "poisson:2",
            "--policies",
            "continuous:4",
            "--requests",
            "12",
            "--prompt-len",
            "8",
            "--decode-len",
            "2",
            "--faults",
            "none,fail:300:1:0:4",
            "--csv",
            csv.to_str().unwrap(),
        ])
    };
    let a_path = dir.join("a.csv");
    let b_path = dir.join("b.csv");
    let out = run(&a_path);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("f300r1q4"), "{}", stdout(&out));
    let a = std::fs::read_to_string(&a_path).unwrap();
    let header = a.lines().next().unwrap();
    for col in ["faults", "availability", "retries", "sheds", "timeouts", "failed"] {
        assert!(header.contains(col), "CSV header misses `{col}`: {header}");
    }
    assert_eq!(a.lines().count(), 3, "2 rows + header");
    assert_eq!(run(&b_path).status.code(), Some(0));
    assert_eq!(
        a,
        std::fs::read_to_string(&b_path).unwrap(),
        "faulted serve CSV not reproducible across processes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that closes stdout after one line (`mtp ... | head -1`)
/// ends the run cleanly: exit 0, and no panic on stderr.
#[test]
fn closed_stdout_is_a_clean_exit() {
    let pcts = (1..=100).map(|p| p.to_string()).collect::<Vec<_>>().join(",");
    // 400 rows: the table and the streamed CSV both outgrow a pipe
    // buffer, so the closed pipe is always hit.
    let grid = ["--models", "tinyllama", "--modes", "ar", "--chips", "1,2,4,8", "--link-bw", &pcts];
    let cases = [
        vec!["simulate", "--model", "tinyllama", "--chips", "8", "--blocks", "96", "--trace"],
        [&["sweep"][..], &grid].concat(),
        [&["sweep", "--stream"][..], &grid].concat(),
    ];
    for args in cases {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mtp"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn mtp");
        let mut line = String::new();
        // Dropping the reader closes the read end of the pipe.
        BufReader::new(child.stdout.take().unwrap()).read_line(&mut line).unwrap();
        assert!(!line.is_empty(), "{args:?} printed nothing");
        let out = child.wait_with_output().expect("wait for mtp");
        assert!(out.status.success(), "{args:?} exited {:?}:\n{}", out.status, stderr(&out));
        assert!(!stderr(&out).contains("panicked"), "{args:?}:\n{}", stderr(&out));
    }
}
