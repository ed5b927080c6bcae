//! The repository's benchmark: host time of the SuperGlue reproduction on
//! three workloads, plus a traced run that splits it by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign|webserver|pipeline --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the workload runs untraced for `S` seconds and the
//! end-to-end metrics are reported; with `--trace 1` the traced passes
//! run and the per-layer metrics are reported. Either way the last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it holds the
//! run's metadata. See `perfbench/README.md`.

mod alloc;
mod campaign;
mod pipe;
mod report;
mod span;
mod stats;
mod system;
mod web;
mod wrap;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use report::{Layers, Measured};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 3] = ["campaign", "webserver", "pipeline"];

/// Every per-layer metric a traced run reports, in `BENCHMARK.json`
/// order.
const PER_LAYER: &[&str] = &[
    "superglue.compile_all_us",
    "superglue.testbed_build_us",
    "sg-swifi.machine_boots_per_100_inj",
    "sg-swifi.shard_ms.sched",
    "sg-swifi.shard_ms.mm",
    "sg-swifi.shard_ms.fs",
    "sg-swifi.shard_ms.lock",
    "sg-swifi.shard_ms.evt",
    "sg-swifi.shard_ms.tmr",
    "superglue.stub_call_self_ns_p50",
    "superglue.stub_call_self_ns_p90",
    "superglue.stub_recover_us",
    "superglue.tracked_descriptors",
    "composite.invoke_self_ns_p50",
    "composite.executor_self_ms",
    "composite.invocations_per_unit",
    "composite.faults_per_unit",
    "composite.reboots_per_unit",
    "composite.watchdog_fires_per_unit",
    "composite.mech.R0_per_unit",
    "composite.mech.T0_per_unit",
    "composite.mech.T1_per_unit",
    "composite.mech.D0_per_unit",
    "composite.mech.D1_per_unit",
    "composite.mech.G0_per_unit",
    "composite.mech.G1_per_unit",
    "composite.mech.U0_per_unit",
    "composite.mech.CR0_per_unit",
    "composite.mech.DL0_per_unit",
    "composite.sinks_record_ms",
    "composite.sinks_snapshot_ms",
    "composite.sinks_render_ms",
    "composite.trace_bytes",
    "sg-services.call_self_ns_p50",
    "sg-services.busy_share.sched",
    "sg-services.busy_share.mm",
    "sg-services.busy_share.fs",
    "sg-services.busy_share.lock",
    "sg-services.busy_share.evt",
    "sg-services.busy_share.storage",
    "sg-services.busy_share.chan",
    "sg-services.reset_us",
    "sg-webserver.step_self_ns",
    "sg-pipeline.invocations_per_msg",
    "sg-bench.merge_ms",
    "alloc.count_per_unit",
    "alloc.bytes_per_unit",
    "alloc.self_count_per_unit.composite",
    "alloc.self_count_per_unit.superglue",
    "alloc.self_count_per_unit.sg-services",
    "alloc.self_count_per_unit.sg-swifi",
    "alloc.self_count_per_unit.sg-webserver",
    "alloc.self_count_per_unit.sg-pipeline",
    "alloc.self_count_per_unit.sg-bench",
    "alloc.self_bytes_per_unit.composite",
    "alloc.self_bytes_per_unit.superglue",
    "alloc.self_bytes_per_unit.sg-services",
    "alloc.self_bytes_per_unit.sg-swifi",
    "alloc.self_bytes_per_unit.sg-webserver",
    "alloc.self_bytes_per_unit.sg-pipeline",
    "alloc.self_bytes_per_unit.sg-bench",
    "trace.overhead_unit_ms_p50",
    "trace.overhead_pct",
];

/// Work counts: a function of the workload and seed only, so they must
/// repeat exactly between traced passes and between runs.
const WORK_COUNTS: &[&str] = &[
    "composite.invocations_per_unit",
    "composite.faults_per_unit",
    "composite.reboots_per_unit",
    "composite.watchdog_fires_per_unit",
    "composite.mech.R0_per_unit",
    "composite.mech.T0_per_unit",
    "composite.mech.T1_per_unit",
    "composite.mech.D0_per_unit",
    "composite.mech.D1_per_unit",
    "composite.mech.G0_per_unit",
    "composite.mech.G1_per_unit",
    "composite.mech.U0_per_unit",
    "composite.mech.CR0_per_unit",
    "composite.mech.DL0_per_unit",
    "composite.trace_bytes",
    "alloc.count_per_unit",
    "alloc.bytes_per_unit",
    "sg-pipeline.invocations_per_msg",
    "sg-swifi.machine_boots_per_100_inj",
    "superglue.tracked_descriptors",
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: sg-perfbench --workload campaign|webserver|pipeline \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|&&w| w == v)
                        .ok_or(format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sg-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let secs = args.seconds as f64;
    let (meta_metrics, result) = if args.trace {
        let (out, passes) = traced_run(args.workload, args.seed, secs);
        traced_result(&out, passes)
    } else {
        let m = match args.workload {
            "campaign" => campaign::measure(args.seed, secs),
            "webserver" => web::measure(args.seed, secs),
            _ => pipe::measure(args.seed, secs),
        };
        e2e_result(args.workload, &m)
    };
    println!("{}", meta_line(&args, &meta_metrics));
    println!("{result}");
    ExitCode::SUCCESS
}

/// One reported metric: name, value, unit, sample count, percentile.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: u64,
    percentile: Option<u32>,
    note: String,
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

fn e2e_result(workload: &str, m: &Measured) -> (Vec<Metric>, String) {
    let mut setup = m.setup_s.clone();
    let mut units: Vec<f64> = m.units.iter().map(|u| u.0).collect();
    let n = units.len() as u64;
    let work_unit = match workload {
        "campaign" => "injections",
        "webserver" => "requests",
        _ => "committed messages",
    };
    let failed_frac = m.failed_frac();
    let metrics = vec![
        Metric {
            name: "setup_s".into(),
            value: stats::median(&mut setup),
            unit: "s",
            samples: setup.len() as u64,
            percentile: Some(50),
            note: "median set-up".into(),
        },
        Metric {
            name: "throughput_per_s".into(),
            value: m.throughput(),
            unit: "1/s",
            samples: n,
            percentile: None,
            note: format!("{work_unit} per host second of timed units"),
        },
        Metric {
            name: "unit_ms_p50".into(),
            value: stats::percentile(&mut units, 50.0),
            unit: "ms",
            samples: n,
            percentile: Some(50),
            note: "host ms per timed unit".into(),
        },
        Metric {
            name: "unit_ms_p90".into(),
            value: stats::percentile(&mut units, 90.0),
            unit: "ms",
            samples: n,
            percentile: Some(90),
            note: "host ms per timed unit".into(),
        },
        Metric {
            name: "peak_rss_mb".into(),
            value: stats::peak_rss_mb(),
            unit: "MB",
            samples: 1,
            percentile: None,
            note: "VmHWM".into(),
        },
    ];
    for x in &metrics {
        println!(
            "{workload:10} {:18} {:>14.6} {:4} ({} samples) {}",
            x.name, x.value, x.unit, x.samples, x.note
        );
    }
    println!(
        "{workload:10} {:18} {:>14.6} {:4} ({} of {} units failed)",
        "failed_frac", failed_frac, "", m.failed, m.attempted
    );
    let attempted = m.attempted.max(1);
    let failed = if m.attempted == 0 { 1 } else { m.failed };
    let line = result_line(failed == 0, attempted, failed, &metrics);
    (metrics, line)
}

/// The traced run: the selected workload's full traced pass first, then
/// the build probe and small probe passes of the other two workloads
/// (they fill the per-layer metrics the selected workload does not
/// reach), then further full passes until `seconds` have passed, each
/// of which must reproduce the first pass's work counts exactly.
fn traced_run(workload: &'static str, seed: u64, seconds: f64) -> (Layers, u64) {
    let start = Instant::now();
    let mut out = Layers {
        pass: workload,
        ..Layers::default()
    };
    full_pass(workload, seed, &mut out);
    let mut passes = 1;
    out.pass = "probe:build";
    build_probe(&mut out);
    for w in WORKLOADS {
        if w != workload {
            out.pass = match w {
                "campaign" => "probe:campaign",
                "webserver" => "probe:webserver",
                _ => "probe:pipeline",
            };
            match w {
                "campaign" => campaign::traced(seed, 1, &mut out),
                "webserver" => web::traced(seed, 1, &mut out),
                _ => pipe::traced(seed, 2_000, &mut out),
            }
            passes += 1;
        }
    }
    while start.elapsed().as_secs_f64() < seconds {
        let mut again = Layers {
            pass: workload,
            ..Layers::default()
        };
        full_pass(workload, seed, &mut again);
        passes += 1;
        out.errors.append(&mut again.errors);
        for name in WORK_COUNTS {
            let a = out
                .vals
                .get(*name)
                .filter(|v| v.pass == workload)
                .map(|v| v.value);
            let b = again.vals.get(*name).map(|v| v.value);
            if a != b {
                out.errors
                    .push(format!("{name} did not repeat: {a:?} then {b:?}"));
            }
        }
    }
    (out, passes)
}

fn full_pass(workload: &str, seed: u64, out: &mut Layers) {
    match workload {
        "campaign" => campaign::traced(seed, 5, out),
        "webserver" => {
            // Long enough to take the first scheduled fault and recover.
            let cfg = web::config(seed);
            let first_fault = cfg.fault_period + cfg.fault_phase(web::REP);
            let slices = first_fault.as_nanos() / web::SLICE.as_nanos() + 2;
            web::traced(seed, slices, out);
        }
        _ => pipe::traced(seed, pipe::JOBS, out),
    }
}

/// `compile_all` and `Testbed::build_elided` on their own, 20 times
/// each.
fn build_probe(out: &mut Layers) {
    let mut prof = span::Profile::default();
    span::enable();
    for _ in 0..20 {
        let c = span::span("superglue.compile_all", superglue::compile_all);
        out.check(c.is_ok(), "build probe: IDL failed to compile");
        let t = span::span("superglue.testbed_build", || {
            superglue::Testbed::build_elided(superglue::Variant::SuperGlue, false)
        });
        out.check(t.is_ok(), "build probe: testbed failed to build");
    }
    prof.absorb(&span::take());
    span::disable();
    for (name, metric) in [
        ("superglue.compile_all", "superglue.compile_all_us"),
        ("superglue.testbed_build", "superglue.testbed_build_us"),
    ] {
        if let Some(a) = prof.get(name) {
            out.put_pct(metric, a, 50, 1e3, "us");
        }
    }
}

fn traced_result(out: &Layers, passes: u64) -> (Vec<Metric>, String) {
    let mut errors = out.errors.clone();
    let mut metrics = Vec::new();
    for &name in PER_LAYER {
        match out.vals.get(name) {
            Some(v) => metrics.push(Metric {
                name: name.to_owned(),
                value: v.value,
                unit: v.unit,
                samples: v.samples,
                percentile: v.percentile,
                note: v.pass.to_owned(),
            }),
            None => errors.push(format!("{name} was not measured")),
        }
    }
    for m in &metrics {
        println!("{:40} {:>16.6} {:8} [{}]", m.name, m.value, m.unit, m.note);
    }
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    let attempted = passes;
    let failed = if errors.is_empty() { 0 } else { attempted };
    let line = result_line(errors.is_empty(), attempted, failed, &metrics);
    (metrics, line)
}

fn meta_line(args: &Args, metrics: &[Metric]) -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut s = format!(
        "{{\"meta\": {{\"bench\": \"sg-perfbench\", \"workload\": \"{}\", \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"rustc\": \"{}\", \"nproc\": {nproc}, \
         \"commit\": \"{commit}\", \"flags\": \"{}\", \"metrics\": {{",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC"),
        flags(args.workload),
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let pct = m.percentile.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"unit\": \"{}\", \"samples\": {}, \"percentile\": {pct}, \"note\": \"{}\"}}",
            m.name, m.unit, m.samples, m.note
        );
    }
    s.push_str("}}}");
    s
}

/// The workload's fixed configuration, for the metadata line.
fn flags(workload: &str) -> String {
    match workload {
        "campaign" => format!(
            "variant=superglue mode=single shard_injections={} targets=sched,mm,fs,lock,evt,tmr",
            sg_swifi::SHARD_INJECTIONS
        ),
        "webserver" => {
            let c = web::config(0);
            format!(
                "variant=superglue+faults connections={} handler_work_ns={} fault_period_ns={} rep={} slice_ns={}",
                c.connections,
                c.handler_work.as_nanos(),
                c.fault_period.as_nanos(),
                web::REP,
                web::SLICE.as_nanos()
            )
        }
        _ => {
            let c = pipe::config(0, pipe::JOBS, true);
            format!(
                "variant=superglue+faults jobs={} work_ns={} poison_every={} poison_limit={} fault_period_ns={} cap_ns={} slice_ns={} sinks=trace,series,metrics",
                c.jobs,
                c.work.as_nanos(),
                c.poison_every,
                c.poison_limit,
                c.fault_period.as_nanos(),
                c.duration.as_nanos(),
                pipe::SLICE.as_nanos()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_frac_is_one_against_a_wrong_reference() {
        let good = campaign::measure_against(7, 0.001, sg_swifi::SHARD_INJECTIONS);
        assert_eq!(good.attempted, 6, "one round over the six targets");
        assert_eq!(good.failed_frac(), 0.0);
        let wrong = campaign::measure_against(7, 0.001, sg_swifi::SHARD_INJECTIONS + 1);
        assert_eq!(wrong.attempted, 6);
        assert_eq!(wrong.failed_frac(), 1.0);

        let good = pipe::measure_against(7, 0.001, 400, sg_pipeline::expected_output);
        assert!(good.attempted >= 1);
        assert_eq!(good.failed_frac(), 0.0);
        let wrong = pipe::measure_against(7, 0.001, 400, |cfg| {
            let mut out = sg_pipeline::expected_output(cfg);
            out.swap(0, 1);
            out
        });
        assert_eq!(wrong.attempted, good.attempted);
        assert_eq!(wrong.failed_frac(), 1.0);
        assert_eq!(Measured::default().failed_frac(), 1.0, "nothing attempted");
    }

    fn counts(pass: impl Fn(&mut Layers)) -> Vec<(&'static str, Option<f64>)> {
        let mut out = Layers::default();
        pass(&mut out);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        WORK_COUNTS
            .iter()
            .map(|&n| (n, out.vals.get(n).map(|v| v.value)))
            .collect()
    }

    #[test]
    fn traced_passes_repeat_their_work_counts() {
        for pass in [
            &(|out: &mut Layers| campaign::traced(3, 1, out)) as &dyn Fn(&mut Layers),
            &|out: &mut Layers| web::traced(3, 1, out),
            &|out: &mut Layers| pipe::traced(3, 300, out),
        ] {
            let first = counts(pass);
            assert!(first
                .iter()
                .any(|(n, v)| *n == "alloc.count_per_unit" && v.is_some()));
            assert_eq!(first, counts(pass));
        }
        let pipeline = counts(|out| pipe::traced(3, 300, out));
        let bytes = pipeline.iter().find(|(n, _)| *n == "composite.trace_bytes");
        assert!(bytes.and_then(|b| b.1).is_some_and(|b| b > 0.0));
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let spec = composite::Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(composite::Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(composite::Json::as_str)
                        .expect("name")
                        .to_owned()
                })
                .collect()
        };
        assert_eq!(names("per_layer"), PER_LAYER);
        let m = Measured {
            setup_s: vec![1.0],
            units: vec![(1.0, 1)],
            attempted: 1,
            failed: 0,
        };
        let (e2e, _) = e2e_result("campaign", &m);
        let mut emitted: Vec<String> = e2e.into_iter().map(|m| m.name).collect();
        let mut listed = names("end_to_end");
        emitted.sort();
        listed.sort();
        assert_eq!(emitted, listed);
    }

    #[test]
    fn every_per_layer_metric_is_listed_once() {
        let mut names = PER_LAYER.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        assert!(WORK_COUNTS.iter().all(|c| PER_LAYER.contains(c)));
    }
}
