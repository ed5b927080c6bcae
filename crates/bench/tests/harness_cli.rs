//! End-to-end tests of the harness binaries' command lines: exit codes
//! and usage text, exactly as CI invokes them.
//!
//! The convention is `sglint`'s: 0 ok, 1 a failed check or an I/O
//! error, 2 a usage error. `--help` exits 0 and names every flag the
//! binary's module docs list; a malformed invocation exits 2 with the
//! usage on stderr, before any work runs and never through a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

/// One binary under test.
struct Bin {
    name: &'static str,
    exe: &'static str,
    /// Arguments that put the cursor where a flag may follow (a
    /// subcommand and its input, for the analyzers).
    prefix: &'static [&'static str],
    /// A flag that takes a value.
    value_flag: &'static str,
}

const BINS: [Bin; 8] = [
    Bin {
        name: "table2",
        exe: env!("CARGO_BIN_EXE_table2"),
        prefix: &[],
        value_flag: "--injections",
    },
    Bin {
        name: "fig7",
        exe: env!("CARGO_BIN_EXE_fig7"),
        prefix: &[],
        value_flag: "--seconds",
    },
    Bin {
        name: "pipeline",
        exe: env!("CARGO_BIN_EXE_pipeline"),
        prefix: &[],
        value_flag: "--messages",
    },
    Bin {
        name: "ablations",
        exe: env!("CARGO_BIN_EXE_ablations"),
        prefix: &[],
        value_flag: "--jobs",
    },
    Bin {
        name: "fig6",
        exe: env!("CARGO_BIN_EXE_fig6"),
        prefix: &[],
        value_flag: "--check-ratio",
    },
    Bin {
        name: "modelcheck",
        exe: env!("CARGO_BIN_EXE_modelcheck"),
        prefix: &[],
        value_flag: "--core-steps",
    },
    Bin {
        name: "sgtrace",
        exe: env!("CARGO_BIN_EXE_sgtrace"),
        prefix: &["replay", "counterexample.json"],
        value_flag: "--to",
    },
    Bin {
        name: "sgstat",
        exe: env!("CARGO_BIN_EXE_sgstat"),
        prefix: &["slo", "trace.jsonl"],
        value_flag: "--max-p99-ns",
    },
];

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("binary runs")
}

/// Every `--flag` the binary's `//!` module docs mention, except on
/// the `cargo run …` lines (whose flags are cargo's).
fn documented_flags(name: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("src/bin/{name}.rs"));
    let source = std::fs::read_to_string(&path).expect("read harness source");
    let mut flags: Vec<String> = Vec::new();
    let docs = source.lines().filter_map(|l| l.strip_prefix("//!"));
    for line in docs.filter(|l| !l.contains("cargo ")) {
        let mut rest = line;
        while let Some(at) = rest.find("--") {
            let tail = &rest[at + 2..];
            let len = tail
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(tail.len());
            if len > 0 {
                flags.push(format!("--{}", &tail[..len]));
            }
            rest = &tail[len..];
        }
    }
    flags.sort();
    flags.dedup();
    flags
}

/// A usage error: exit 2, nothing on stdout, the usage on stderr, no
/// panic.
fn assert_usage_error(bin: &Bin, args: &[&str]) {
    let out = run(bin.exe, args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let what = format!("{} {}", bin.name, args.join(" "));
    assert_eq!(out.status.code(), Some(2), "{what}\nstderr:\n{stderr}");
    assert!(stdout.is_empty(), "{what}: ran anyway:\n{stdout}");
    assert!(
        stderr.starts_with(&format!("{}: ", bin.name)),
        "{what}: {stderr}"
    );
    assert!(stderr.contains("usage:"), "{what}: no usage: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
}

#[test]
fn help_exits_0_and_documents_flags() {
    for bin in &BINS {
        let flags = documented_flags(bin.name);
        assert!(!flags.is_empty(), "{}: no flags documented", bin.name);
        for help in ["--help", "-h"] {
            let out = run(bin.exe, &[help]);
            assert_eq!(out.status.code(), Some(0), "{} {help}", bin.name);
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(stdout.contains("usage:"), "{}: {stdout}", bin.name);
            assert!(stdout.contains("exit status"), "{}: {stdout}", bin.name);
            for flag in &flags {
                assert!(
                    stdout.contains(flag.as_str()),
                    "{} {help} omits documented {flag}:\n{stdout}",
                    bin.name
                );
            }
        }
    }
}

#[test]
fn usage_errors_exit_2() {
    for bin in &BINS {
        let with = |extra: &[&'static str]| -> Vec<&'static str> {
            bin.prefix.iter().chain(extra).copied().collect()
        };
        assert_usage_error(bin, &with(&["--no-such-flag"]));
        assert_usage_error(bin, &with(&[bin.value_flag]));
        assert_usage_error(bin, &with(&["--seed", "notanumber"]));
    }
}

#[test]
fn out_of_range_values_are_usage_errors() {
    let [table2, fig7, pipeline, _, fig6, modelcheck, ..] = &BINS;
    assert_usage_error(fig7, &["--repetitions", "0"]);
    assert_usage_error(pipeline, &["--repetitions", "0"]);
    assert_usage_error(pipeline, &["--poison-limit", "4"]);
    assert_usage_error(table2, &["--variant", "bare"]);
    assert_usage_error(table2, &["--mask", "0xZZ"]);
    assert_usage_error(table2, &["--injections", "0"]);
    assert_usage_error(table2, &["--series", "s.jsonl", "--series-window", "0"]);
    assert_usage_error(modelcheck, &["--seed", "0xZZ"]);
    assert_usage_error(fig6, &["--check-ratio", "NaN"]);
}

/// A typo in CI's ratio gate must not pass silently: it is a usage
/// error before any measurement runs.
#[test]
fn fig6_rejects_a_malformed_ratio_gate_before_measuring() {
    let fig6 = &BINS[4];
    assert_usage_error(fig6, &["--check-ratio", "0.01x"]);
    assert_usage_error(fig6, &["--bogus"]);
    assert_usage_error(fig6, &["--bench-json", "x.json", "--check-ratio"]);
}

/// An unwritable artifact path exits 1 with `error: cannot write PATH`
/// before the run, not with a panic after it.
#[test]
fn unwritable_outputs_fail_before_the_run() {
    let cases: [(&str, &[&str], &str); 5] = [
        (
            env!("CARGO_BIN_EXE_table2"),
            &["--injections", "5"],
            "--json",
        ),
        (env!("CARGO_BIN_EXE_fig7"), &["--seconds", "1"], "--metrics"),
        (
            env!("CARGO_BIN_EXE_pipeline"),
            &["--messages", "10"],
            "--series",
        ),
        (env!("CARGO_BIN_EXE_ablations"), &[], "--trace"),
        (env!("CARGO_BIN_EXE_fig6"), &["--loc"], "--bench-json"),
    ];
    let path = "/nonexistent/x.json";
    for (exe, args, flag) in cases {
        let mut argv = args.to_vec();
        argv.extend([flag, path]);
        let out = run(exe, &argv);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{exe} {flag}: {stderr}");
        assert!(
            stderr.contains(&format!("error: cannot write {path}")),
            "{exe} {flag}: {stderr}"
        );
        assert!(stdout.is_empty(), "{exe} {flag}: ran first:\n{stdout}");
        assert!(!stderr.contains("panicked"), "{exe} {flag}: {stderr}");
    }
}
