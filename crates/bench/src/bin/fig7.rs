//! Fig 7 harness: web-server throughput for Apache, base COMPOSITE,
//! COMPOSITE+C³ and COMPOSITE+SuperGlue, without faults and (for the FT
//! variants) with one fault injected into a rotating system component
//! every 10 seconds.
//!
//! Run with `cargo run -p sg-bench --release --bin fig7`. Options:
//!
//! * `--seconds N` — virtual run duration (default 60);
//! * `--connections N` — concurrent connections (default 10);
//! * `--repetitions N` — repetitions per variant; repetitions differ
//!   only in the phase of the fault schedule and are averaged (default 1);
//! * `--seed S` — experiment seed for the per-repetition fault phase;
//! * `--jobs N` — worker threads over the (variant × repetition) grid
//!   (default: available parallelism). Output is bit-identical for every
//!   value of `--jobs`;
//! * `--json PATH` — additionally dump the rows as JSON;
//! * `--metrics PATH` — dump per-component recovery-mechanism counters
//!   as JSON-lines (one line per component per variant);
//! * `--trace PATH` — record a flight-recorder trace of every run:
//!   JSON-lines at PATH (analyze with `sgtrace`) plus a Chrome
//!   trace_event rendering at PATH.chrome.json (open in Perfetto).
//!   Byte-identical for every `--jobs` value;
//! * `--series PATH` — dump windowed recovery telemetry (per component,
//!   per simulated-time window) as JSON-lines for `sgstat series`.
//!   Byte-identical for every `--jobs` value;
//! * `--series-window NS` — window width in simulated nanoseconds
//!   (default 1,000,000,000 = 1s, matching the per-second throughput
//!   buckets);
//! * `--bench-json PATH` — write the throughput measurements as a JSON
//!   document (per-variant req/s mean ± stdev, request and fault
//!   totals, slowdown vs base, plus run metadata) for CI artifacts and
//!   regression diffing, mirroring `fig6 --bench-json`.

use composite::{
    default_jobs, parallel_map_indexed, Json, MetricsSnapshot, SeriesSnapshot, SimTime,
};
use sg_bench::rustc_version;
use sg_webserver::{run_fig7_rep, Fig7Config, Fig7Result, WebVariant};

/// Default telemetry window: 1 virtual second, matching the per-second
/// throughput buckets Fig 7 plots.
const FIG7_SERIES_WINDOW: SimTime = SimTime(1_000_000_000);

const VARIANTS: [WebVariant; 6] = [
    WebVariant::Apache,
    WebVariant::Composite,
    WebVariant::C3 { faults: false },
    WebVariant::SuperGlue { faults: false },
    WebVariant::C3 { faults: true },
    WebVariant::SuperGlue { faults: true },
];

/// One output row: a variant's repetitions merged.
struct Row {
    variant: WebVariant,
    mean_rps: f64,
    stdev_rps: f64,
    total_requests: u64,
    faults_injected: u64,
    unrecovered: u64,
    per_second: Vec<u64>,
    metrics: MetricsSnapshot,
    telemetry: SeriesSnapshot,
}

/// Merge a variant's repetitions in repetition order: the mean of the
/// per-rep means, the mean per-rep stdev, summed counters, and the
/// repetition-0 series (the unphased schedule Fig 7 plots).
fn merge_reps(reps: &[Fig7Result]) -> Row {
    let n = reps.len() as f64;
    let mut metrics = MetricsSnapshot::default();
    let mut telemetry = SeriesSnapshot::default();
    for r in reps {
        metrics.merge(&r.metrics);
        telemetry.merge(&r.telemetry);
    }
    Row {
        variant: reps[0].variant,
        mean_rps: reps.iter().map(|r| r.mean_rps).sum::<f64>() / n,
        stdev_rps: reps.iter().map(|r| r.stdev_rps).sum::<f64>() / n,
        total_requests: reps.iter().map(|r| r.total_requests).sum(),
        faults_injected: reps.iter().map(|r| r.faults_injected).sum(),
        unrecovered: reps.iter().map(|r| r.unrecovered).sum(),
        per_second: reps[0].series.buckets().to_vec(),
        metrics,
        telemetry,
    }
}

fn sparkline(buckets: &[u64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = buckets.iter().copied().max().unwrap_or(1).max(1);
    buckets
        .iter()
        .map(|&b| GLYPHS[((b * 7) / max) as usize])
        .collect()
}

fn main() {
    let mut cfg = Fig7Config::default();
    let mut json_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut series_path: Option<String> = None;
    let mut series_window = FIG7_SERIES_WINDOW;
    let mut bench_json: Option<String> = None;
    let mut jobs = default_jobs();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seconds" => {
                let s: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seconds N");
                cfg.duration = SimTime::from_secs(s);
            }
            "--connections" => {
                cfg.connections = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--connections N");
            }
            "--repetitions" => {
                cfg.repetitions = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--repetitions N");
                assert!(cfg.repetitions > 0, "--repetitions must be positive");
            }
            "--seed" => {
                cfg.seed = args.next().and_then(|v| v.parse().ok()).expect("--seed S");
            }
            "--jobs" => {
                jobs = args.next().and_then(|v| v.parse().ok()).expect("--jobs N");
            }
            "--json" => json_path = Some(args.next().expect("--json PATH")),
            "--metrics" => metrics_path = Some(args.next().expect("--metrics PATH")),
            "--trace" => {
                trace_path = Some(args.next().expect("--trace PATH"));
                cfg.trace = true;
            }
            "--series" => series_path = Some(args.next().expect("--series PATH")),
            "--series-window" => {
                series_window = SimTime(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--series-window NS"),
                );
            }
            "--bench-json" => bench_json = Some(args.next().expect("--bench-json PATH")),
            other => panic!("unknown argument {other:?}"),
        }
    }
    if series_path.is_some() {
        cfg.series_window = series_window;
    }

    println!(
        "Fig 7: web-server throughput, {} connections, {}s virtual time, fault period {}, {} rep(s), {jobs} jobs",
        cfg.connections,
        cfg.duration.as_secs_f64(),
        cfg.fault_period,
        cfg.repetitions,
    );
    println!(
        "{:<28} {:>12} {:>9} {:>10} {:>7} {:>9}",
        "system", "req/s", "stdev", "requests", "faults", "slowdown"
    );

    // Every (variant, repetition) pair is an independent deterministic
    // run; flatten the grid into one task pool and regroup in variant
    // order — bit-identical for any job count.
    let reps = cfg.repetitions as usize;
    let results = parallel_map_indexed(VARIANTS.len() * reps, jobs, |task| {
        run_fig7_rep(VARIANTS[task / reps], &cfg, (task % reps) as u64)
    });
    let rows: Vec<Row> = results.chunks(reps).map(merge_reps).collect();

    let base_rps = rows
        .iter()
        .find(|r| r.variant == WebVariant::Composite)
        .map(|r| r.mean_rps)
        .expect("Composite base runs");
    let slowdown = |r: &Row| {
        if r.variant == WebVariant::Apache {
            0.0
        } else {
            (1.0 - r.mean_rps / base_rps) * 100.0
        }
    };
    for r in &rows {
        println!(
            "{:<28} {:>12.0} {:>9.0} {:>10} {:>7} {:>8.2}%",
            r.variant.to_string(),
            r.mean_rps,
            r.stdev_rps,
            r.total_requests,
            r.faults_injected,
            slowdown(r)
        );
        if r.faults_injected > 0 {
            println!("  per-second: {}", sparkline(&r.per_second));
            assert_eq!(r.unrecovered, 0, "every injected fault must be recovered");
        }
    }

    println!();
    println!("paper: Apache ~17600 req/s, COMPOSITE ~16200, C3 -10.5%, SuperGlue -11.84%");
    println!("       (-13.6% with one crash injected every 10s); dips last <2s and never");
    println!("       drop throughput to zero.");

    if let Some(path) = json_path {
        let out: Vec<Json> = rows
            .iter()
            .map(|r| {
                let mut j = Json::object();
                j.push("variant", r.variant.to_string())
                    .push("mean_rps", r.mean_rps)
                    .push("stdev_rps", r.stdev_rps)
                    .push("total_requests", r.total_requests)
                    .push("faults_injected", r.faults_injected)
                    .push("unrecovered", r.unrecovered)
                    .push("slowdown_vs_base_pct", slowdown(r))
                    .push(
                        "per_second",
                        Json::Array(r.per_second.iter().map(|&b| Json::from(b)).collect()),
                    );
                j
            })
            .collect();
        std::fs::write(&path, Json::Array(out).to_pretty()).expect("write json");
        println!("rows written to {path}");
    }

    if let Some(path) = metrics_path {
        let mut out = String::new();
        for r in &rows {
            out.push_str(&r.metrics.to_json_lines(&variant_label(r.variant)));
        }
        std::fs::write(&path, out).expect("write metrics");
        println!("metrics written to {path}");
    }

    if let Some(path) = trace_path {
        // One shard per (variant, repetition), in task order.
        let shards: Vec<_> = results.iter().filter_map(|r| r.trace.clone()).collect();
        if let Err(e) = sg_bench::write_trace(&path, &shards) {
            eprintln!("error: cannot write trace {path}: {e}");
            std::process::exit(1);
        }
    }

    if let Some(path) = series_path {
        let sections: Vec<(String, &SeriesSnapshot)> = rows
            .iter()
            .map(|r| (variant_label(r.variant), &r.telemetry))
            .collect();
        sg_bench::write_series(&path, series_window.0, &sections);
    }

    if let Some(path) = bench_json {
        write_bench_json(&path, &cfg, &rows, slowdown);
    }
}

/// The context label a variant's metrics and series rows carry.
fn variant_label(v: WebVariant) -> String {
    match v {
        WebVariant::Apache => "fig7/apache".to_owned(),
        WebVariant::Composite => "fig7/composite".to_owned(),
        WebVariant::C3 { faults } => format!("fig7/c3/faults={faults}"),
        WebVariant::SuperGlue { faults } => format!("fig7/superglue/faults={faults}"),
    }
}

/// The Fig 7 counterpart of `fig6 --bench-json`: per-variant throughput
/// with run metadata, for CI artifacts and regression diffing.
fn write_bench_json(path: &str, cfg: &Fig7Config, rows: &[Row], slowdown: impl Fn(&Row) -> f64) {
    let mut doc = Json::object();
    doc.push("bench", "fig7_throughput");
    doc.push("unit", "requests_per_second");
    doc.push("connections", cfg.connections as u64);
    doc.push("seconds", cfg.duration.as_secs_f64());
    doc.push("repetitions", cfg.repetitions);
    doc.push("seed", cfg.seed);
    doc.push("rustc", rustc_version());
    let mut arr = Vec::new();
    for r in rows {
        let mut o = Json::object();
        o.push("variant", r.variant.to_string());
        o.push("mean_rps", r.mean_rps);
        o.push("stdev_rps", r.stdev_rps);
        o.push("total_requests", r.total_requests);
        o.push("faults_injected", r.faults_injected);
        o.push("unrecovered", r.unrecovered);
        o.push("slowdown_vs_base_pct", slowdown(r));
        arr.push(o);
    }
    doc.push("rows", arr);
    std::fs::write(path, doc.to_pretty()).expect("write bench json");
    println!("bench json written to {path}");
}
