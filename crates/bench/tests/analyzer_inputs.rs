//! Input the trace analyzers cannot meaningfully check must fail loudly.
//!
//! `sgtrace` and `sgstat` read JSON-lines dumps that CI steps produce. A
//! broken harness can leave a trace that holds shard headers but no
//! events; a vacuous "all walks conform" or "conservation: OK" would
//! hide it. A hostile or corrupt line of deeply nested brackets must be
//! a parse error, not a stack overflow. Either way the analyzers exit 1
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

#[test]
fn sgstat_avail_rejects_a_trace_without_events() {
    let header_only = input("sgstat_header_only.jsonl", HEADER_ONLY);
    let out = run(env!("CARGO_BIN_EXE_sgstat"), "avail", &header_only);
    assert_fails_with(&out, "no trace events");
    let empty = input("sgstat_empty.jsonl", "");
    let out = run(env!("CARGO_BIN_EXE_sgstat"), "avail", &empty);
    assert_fails_with(&out, "no trace events");
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
