//! Input the trace analyzers cannot meaningfully check must fail loudly.
//!
//! `sgtrace` and `sgstat` read JSON-lines dumps that CI steps produce. A
//! broken harness can leave a trace that holds shard headers but no
//! events; a vacuous "all walks conform" or "conservation: OK" would
//! hide it. So would a trace cut off mid-shard, or one whose events hold
//! no recovery walk for `sgtrace verify` to check. A hostile or corrupt
//! line of deeply nested brackets must be a parse error, not a stack
//! overflow. Either way the analyzers exit 1
//! with a message on stderr.

use std::path::PathBuf;
use std::process::Output;

/// Write `text` to a file of its own under the test target's scratch
/// directory (tests run in parallel and must not share files).
fn input(name: &str, text: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write analyzer input");
    path
}

fn run(bin: &str, subcommand: &str, path: &PathBuf) -> Output {
    std::process::Command::new(bin)
        .arg(subcommand)
        .arg(path)
        .output()
        .expect("run analyzer")
}

/// Assert a clean failure: exit code 1 (not a panic's 101 or an abort's
/// 134), nothing claimed on stdout, and `message` on stderr.
fn assert_fails_with(out: &Output, message: &str) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "expected exit 1\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains(message),
        "stderr lacks {message:?}:\n{stderr}"
    );
    assert!(
        !stdout.contains("conform") && !stdout.contains("OK"),
        "a failed check must not report success:\n{stdout}"
    );
}

const HEADER_ONLY: &str = "{\"v\":1,\"shard\":\"empty\",\"names\":[\"booter\"],\"events\":0,\
                           \"dropped\":0,\"dropped_recovery\":0,\"span_count\":0}\n";

#[test]
fn sgtrace_verify_rejects_a_trace_without_events() {
    let header_only = input("sgtrace_header_only.jsonl", HEADER_ONLY);
    let out = run(env!("CARGO_BIN_EXE_sgtrace"), "verify", &header_only);
    assert_fails_with(&out, "no trace events");
    let empty = input("sgtrace_empty.jsonl", "");
    let out = run(env!("CARGO_BIN_EXE_sgtrace"), "verify", &empty);
    assert_fails_with(&out, "no trace events");
}

/// A fault-free run: one call into lock, no recovery episode, so no
/// replay sequence for `sgtrace verify` to check.
const FAULT_FREE: &str = "\
{\"v\":1,\"shard\":\"fault-free\",\"names\":[\"booter\",\"app1\",\"lock\"],\"events\":2,\
\"dropped\":0,\"dropped_recovery\":0,\"span_count\":2}
{\"span\":0,\"parent\":null,\"ts\":800,\"dur\":0,\"tid\":1,\"comp\":2,\"name\":\"lock\",\
\"epoch\":0,\"kind\":\"invoke_enter\",\"function\":\"lock_alloc\",\"client\":1}
{\"span\":1,\"parent\":0,\"ts\":800,\"dur\":0,\"tid\":1,\"comp\":2,\"name\":\"lock\",\
\"epoch\":0,\"kind\":\"invoke_exit\",\"outcome\":\"ok\"}
";

/// A trace with events but no recovery walk gives `verify` nothing to
/// check; "all observed recovery walks conform" would be a vacuous pass.
#[test]
fn sgtrace_verify_rejects_a_trace_without_replay_sequences() {
    let fault_free = input("sgtrace_fault_free.jsonl", FAULT_FREE);
    let out = run(env!("CARGO_BIN_EXE_sgtrace"), "verify", &fault_free);
    assert_fails_with(&out, "no per-descriptor replay sequence to check");
}

#[test]
fn sgstat_avail_rejects_a_trace_without_events() {
    let header_only = input("sgstat_header_only.jsonl", HEADER_ONLY);
    let out = run(env!("CARGO_BIN_EXE_sgstat"), "avail", &header_only);
    assert_fails_with(&out, "no trace events");
    let empty = input("sgstat_empty.jsonl", "");
    let out = run(env!("CARGO_BIN_EXE_sgstat"), "avail", &empty);
    assert_fails_with(&out, "no trace events");
}

/// A trace cut off mid-shard (here the golden flight-recorder episode
/// cut to its first 20 lines, mid-episode, under a header declaring 27
/// events) must fail on its event count, not pass the checks over what
/// survived or fail on a misleading conservation mismatch.
#[test]
fn every_trace_subcommand_rejects_a_truncated_trace() {
    let golden = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden/flight_recorder_episode.jsonl"),
    )
    .expect("read golden trace");
    let cut: String = golden.lines().take(20).map(|l| format!("{l}\n")).collect();
    let truncated = input("truncated.jsonl", &cut);
    let message = "shard golden/evt/superglue declares 27 events, found 19 (truncated trace)";
    for (bin, subcommand) in [
        (env!("CARGO_BIN_EXE_sgtrace"), "timeline"),
        (env!("CARGO_BIN_EXE_sgtrace"), "tree"),
        (env!("CARGO_BIN_EXE_sgtrace"), "verify"),
        (env!("CARGO_BIN_EXE_sgstat"), "avail"),
        (env!("CARGO_BIN_EXE_sgstat"), "critpath"),
        (env!("CARGO_BIN_EXE_sgstat"), "slo"),
    ] {
        let out = run(bin, subcommand, &truncated);
        assert_fails_with(&out, message);
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sgtrace"))
        .arg("diff")
        .args([&truncated, &truncated])
        .output()
        .expect("run analyzer");
    assert_fails_with(&out, message);
}

#[test]
fn deeply_nested_input_is_a_parse_error_not_a_crash() {
    let deep = input("deep_nesting.jsonl", &"[".repeat(100_000));
    for (bin, subcommand) in [
        (env!("CARGO_BIN_EXE_sgtrace"), "verify"),
        (env!("CARGO_BIN_EXE_sgstat"), "avail"),
    ] {
        let out = run(bin, subcommand, &deep);
        assert_fails_with(&out, "nesting deeper than 128 levels");
    }
}

/// A wrong invocation is a usage error (exit 2, usage on stderr), so it
/// never looks like a failed check (exit 1).
#[test]
fn malformed_invocations_exit_2_with_usage() {
    let trace = input("usage_trace.jsonl", HEADER_ONLY);
    let trace = trace.to_str().unwrap();
    let cases: [(&str, &[&str]); 10] = [
        (env!("CARGO_BIN_EXE_sgtrace"), &[]),
        (env!("CARGO_BIN_EXE_sgtrace"), &["frobnicate", trace]),
        (env!("CARGO_BIN_EXE_sgtrace"), &["verify"]),
        (env!("CARGO_BIN_EXE_sgtrace"), &["diff", trace]),
        (
            env!("CARGO_BIN_EXE_sgtrace"),
            &["replay", trace, "--to", "x"],
        ),
        (env!("CARGO_BIN_EXE_sgstat"), &[]),
        (env!("CARGO_BIN_EXE_sgstat"), &["avail", trace, "extra"]),
        (env!("CARGO_BIN_EXE_sgstat"), &["critpath", trace, "--flat"]),
        (
            env!("CARGO_BIN_EXE_sgstat"),
            &["slo", trace, "--min-availability", "1.5"],
        ),
        (
            env!("CARGO_BIN_EXE_sgstat"),
            &["slo", trace, "--max-p99-ns", "-1"],
        ),
    ];
    for (bin, args) in cases {
        let out = std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("run analyzer");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?}");
    }
}
