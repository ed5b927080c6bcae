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
use sg_bench::cli::{exit_error, Cli, Outputs};
use sg_bench::rustc_version;
use sg_webserver::{run_fig7_rep, Fig7Config, Fig7Result, WebVariant};

const USAGE: &str = "\
usage: fig7 [--seconds N] [--connections N] [--repetitions N] [--seed S] [--jobs N]
            [--json PATH] [--metrics PATH] [--trace PATH] [--series PATH]
            [--series-window NS] [--bench-json PATH]";

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

/// The run's invariant: every injected fault was recovered.
fn check_rows(rows: &[Row]) -> Result<(), String> {
    match rows
        .iter()
        .find(|r| r.faults_injected > 0 && r.unrecovered > 0)
    {
        Some(r) => Err(format!(
            "{}: {} unrecovered call(s) after {} injected fault(s); \
             every injected fault must be recovered",
            r.variant, r.unrecovered, r.faults_injected
        )),
        None => Ok(()),
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
    let mut out = Outputs::new(FIG7_SERIES_WINDOW);
    let mut jobs = default_jobs();
    let mut cli = Cli::new("fig7", USAGE);
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--seconds" => cfg.duration = SimTime::from_secs(cli.value()),
            "--connections" => cfg.connections = cli.value(),
            "--repetitions" => cfg.repetitions = cli.value_in(1..),
            "--seed" => cfg.seed = cli.value(),
            "--jobs" => jobs = cli.value(),
            "--json" | "--metrics" | "--trace" | "--series" | "--series-window"
            | "--bench-json" => out.take(&mut cli),
            _ => cli.unknown(),
        }
    }
    cfg.trace = out.tracing();
    cfg.series_window = out.series_window();
    out.create();

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
        }
    }
    check_rows(&rows).unwrap_or_else(|e| exit_error(e));

    println!();
    println!("paper: Apache ~17600 req/s, COMPOSITE ~16200, C3 -10.5%, SuperGlue -11.84%");
    println!("       (-13.6% with one crash injected every 10s); dips last <2s and never");
    println!("       drop throughput to zero.");

    out.json(|| {
        rows.iter()
            .map(|r| {
                let mut j = row_json(r, slowdown(r));
                let per_second = r.per_second.iter().map(|&b| Json::from(b)).collect();
                j.push("per_second", Json::Array(per_second));
                j
            })
            .collect()
    });
    out.metrics(|| {
        rows.iter()
            .map(|r| r.metrics.to_json_lines(&variant_label(r.variant)))
            .collect()
    });
    // One shard per (variant, repetition), in task order.
    out.trace(|| results.iter().filter_map(|r| r.trace.clone()).collect());
    out.series(|| {
        rows.iter()
            .map(|r| (variant_label(r.variant), &r.telemetry))
            .collect()
    });
    out.bench_json(|| bench_json(&cfg, &rows, slowdown));
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
fn bench_json(cfg: &Fig7Config, rows: &[Row], slowdown: impl Fn(&Row) -> f64) -> Json {
    let mut doc = Json::object();
    doc.push("bench", "fig7_throughput");
    doc.push("unit", "requests_per_second");
    doc.push("connections", cfg.connections as u64);
    doc.push("seconds", cfg.duration.as_secs_f64());
    doc.push("repetitions", cfg.repetitions);
    doc.push("seed", cfg.seed);
    doc.push("rustc", rustc_version());
    let arr: Vec<Json> = rows.iter().map(|r| row_json(r, slowdown(r))).collect();
    doc.push("rows", arr);
    doc
}

/// A row's fields shared by `--json` and `--bench-json`, in output
/// order.
fn row_json(r: &Row, slowdown_pct: f64) -> Json {
    let mut j = Json::object();
    j.push("variant", r.variant.to_string())
        .push("mean_rps", r.mean_rps)
        .push("stdev_rps", r.stdev_rps)
        .push("total_requests", r.total_requests)
        .push("faults_injected", r.faults_injected)
        .push("unrecovered", r.unrecovered)
        .push("slowdown_vs_base_pct", slowdown_pct);
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(faults_injected: u64, unrecovered: u64) -> Row {
        Row {
            variant: WebVariant::SuperGlue { faults: true },
            mean_rps: 0.0,
            stdev_rps: 0.0,
            total_requests: 0,
            faults_injected,
            unrecovered,
            per_second: Vec::new(),
            metrics: MetricsSnapshot::default(),
            telemetry: SeriesSnapshot::default(),
        }
    }

    #[test]
    fn an_unrecovered_fault_fails_the_run() {
        assert_eq!(check_rows(&[row(2, 0)]), Ok(()));
        let err = check_rows(&[row(2, 0), row(2, 1)]).unwrap_err();
        assert!(err.contains("1 unrecovered call(s)"), "{err}");
    }
}
