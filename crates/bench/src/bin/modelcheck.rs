//! `modelcheck`: the property-based recovery model checker.
//!
//! Two layers, both driven by the same deterministic
//! generate/apply/shrink harness (`composite_core::check`):
//!
//! * **core** — [`composite::KernelWalk`] random-walks the pure kernel
//!   transition function (`step`) through fault injections, nested
//!   episodes, watchdog expiries, reboot storms, and admission traffic,
//!   recomputing five recovery invariants from independent shadow state
//!   after every step.
//! * **system** — [`sg_bench::modelck::SystemWalk`] random-walks a full
//!   SuperGlue testbed (IDL stubs, storage, booter runtime) and checks
//!   the paper-level invariants: no lost wakeups, bounded episode depth,
//!   descriptor-leak freedom at quiescence, σ-table/trace-counter
//!   agreement, and episode-latency conservation.
//!
//! On a violation the harness shrinks the event sequence to a minimal
//! reproducer, writes it as a JSON artifact (`--out`, consumable by
//! `sgtrace replay` for the core layer), prints it, and exits nonzero.
//!
//! * **elide** — [`sg_bench::modelck::ElideDiffWalk`] drives a
//!   fully-tracked and a certified-elision testbed through the identical
//!   randomized fault schedule and requires them observationally
//!   indistinguishable after every operation, down to byte-identical
//!   flight-recorder traces (the dynamic check behind SG060–SG065).
//!
//! ```text
//! modelcheck [--core-steps N] [--system-steps N] [--elide-steps N] [--seed S] [--out PATH]
//! ```

use std::process::ExitCode;

use composite::{run_check, CheckConfig, Counterexample, Json, KernelWalk};
use sg_bench::cli::Cli;
use sg_bench::modelck::{event_to_json, sysop_to_json, ElideDiffWalk, SystemWalk};

const USAGE: &str = "usage: modelcheck [--core-steps N] [--system-steps N] [--elide-steps N] \
                     [--seed S] [--out PATH]";

struct Args {
    core_steps: usize,
    system_steps: usize,
    elide_steps: usize,
    seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        core_steps: 10_000,
        system_steps: 300,
        elide_steps: 300,
        seed: 0xC3_5EED,
        out: "target/modelcheck-counterexample.json".to_owned(),
    };
    let mut cli = Cli::new("modelcheck", USAGE);
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--core-steps" => args.core_steps = cli.value(),
            "--system-steps" => args.system_steps = cli.value(),
            "--elide-steps" => args.elide_steps = cli.value(),
            "--seed" => {
                args.seed = cli.parse_with(|v| {
                    v.strip_prefix("0x")
                        .map_or_else(|| v.parse(), |h| u64::from_str_radix(h, 16))
                });
            }
            "--out" => args.out = cli.value(),
            _ => cli.unknown(),
        }
    }
    args
}

/// Write the shrunk counterexample as a JSON artifact and print it.
fn report_failure<E, F: Fn(&E) -> Json>(
    layer: &str,
    seed: u64,
    cex: &Counterexample<E>,
    to_json: F,
    out: &str,
) {
    println!(
        "FAIL [{layer}] invariant {:?} violated: {}",
        cex.violation.invariant, cex.violation.detail
    );
    println!(
        "  shrunk to {} events (from {} generated, {} shrink iterations):",
        cex.events.len(),
        cex.original_len,
        cex.shrink_iterations
    );
    let mut lines: Vec<Json> = Vec::new();
    for (i, ev) in cex.events.iter().enumerate() {
        let mut j = to_json(ev);
        j.push("span", i as u64);
        println!("    [{i:>3}] {}", j.to_line());
        lines.push(j);
    }
    let mut artifact = Json::object();
    artifact
        .push("model", layer)
        .push("seed", seed)
        .push("invariant", cex.violation.invariant)
        .push("detail", cex.violation.detail.as_str())
        .push("original_len", cex.original_len as u64)
        .push("shrink_iterations", cex.shrink_iterations)
        .push("events", lines);
    if let Some(dir) = std::path::Path::new(out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(out, artifact.to_pretty()) {
        Ok(()) => println!("  counterexample written to {out}"),
        Err(e) => eprintln!("  could not write {out}: {e}"),
    }
    if layer == "core" {
        println!("  time-travel through it with: sgtrace replay {out} --to <span>");
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut failed = false;

    if args.core_steps > 0 {
        let mut walk = KernelWalk::new();
        let report = run_check(
            &mut walk,
            &CheckConfig {
                seed: args.seed,
                steps: args.core_steps,
                max_shrink_iters: 4_000,
            },
        );
        match &report.counterexample {
            None => println!(
                "ok   [core]   {} random-walk steps, 5 invariants checked after every step \
                 (seed {:#x})",
                report.steps_run, args.seed
            ),
            Some(cex) => {
                failed = true;
                report_failure("core", args.seed, cex, event_to_json, &args.out);
            }
        }
    }

    if args.system_steps > 0 {
        let mut walk = SystemWalk::new();
        let report = run_check(
            &mut walk,
            &CheckConfig {
                seed: args.seed ^ 0x5157_EA11, // distinct stream, same reproducibility
                steps: args.system_steps,
                max_shrink_iters: 400,
            },
        );
        match &report.counterexample {
            None => {
                // Per-step invariants held; now the trace-level pair.
                let trace_violations = walk.finish();
                if trace_violations.is_empty() {
                    println!(
                        "ok   [system] {} operations against the SuperGlue testbed, \
                         trace/σ-table agreement and latency conservation verified",
                        report.steps_run
                    );
                } else {
                    failed = true;
                    for v in &trace_violations {
                        println!("FAIL [system] invariant {:?}: {}", v.invariant, v.detail);
                    }
                }
            }
            Some(cex) => {
                failed = true;
                report_failure("system", args.seed, cex, sysop_to_json, &args.out);
            }
        }
    }

    if args.elide_steps > 0 {
        let mut walk = ElideDiffWalk::new();
        let report = run_check(
            &mut walk,
            &CheckConfig {
                seed: args.seed ^ 0xE11D_E0FF, // distinct stream, same reproducibility
                steps: args.elide_steps,
                max_shrink_iters: 400,
            },
        );
        match &report.counterexample {
            None => {
                let trace_violations = walk.finish();
                if trace_violations.is_empty() {
                    println!(
                        "ok   [elide]  {} lock-step operations: certified-elision stubs \
                         observationally identical to fully tracked (incl. trace bytes)",
                        report.steps_run
                    );
                } else {
                    failed = true;
                    for v in &trace_violations {
                        println!("FAIL [elide] invariant {:?}: {}", v.invariant, v.detail);
                    }
                }
            }
            Some(cex) => {
                failed = true;
                report_failure("elide", args.seed, cex, sysop_to_json, &args.out);
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
