//! Pipeline harness: the streaming actor-pipeline macro-benchmark
//! (Generator → Worker → Logger over two protected bounded channels)
//! under the standard fault-every-10s SWIFI schedule, plus the
//! channel-layer injection campaign (mid-peek / pre-commit / nested)
//! and the dead-letter showstopper sub-campaign.
//!
//! Run with `cargo run -p sg-bench --release --bin pipeline`. Options:
//!
//! * `--messages N` — jobs the generator emits per run (default 6000);
//! * `--work-us N` — worker processing cost per message in virtual
//!   microseconds (default 10,000 = 10ms, making the default run ~60s
//!   of virtual time so the 10s fault schedule lands ~6 faults);
//! * `--poison-every N` — poison every Nth job (default 0 = none);
//! * `--poison-limit K` — dead-letter threshold (default 3);
//! * `--capacity N` — channel ring capacity (default 8);
//! * `--repetitions N` — repetitions per variant, differing only in
//!   fault-schedule phase (default 1);
//! * `--seed S` — experiment seed;
//! * `--injections N` — campaign injections per phase (default 12);
//! * `--showstoppers N` — showstopper campaign repetitions (default 4);
//! * `--jobs N` — worker threads over the run grid (default: available
//!   parallelism). Output is bit-identical for every value;
//! * `--json PATH` — dump the variant rows as JSON;
//! * `--metrics PATH` — per-component mechanism counters as JSON-lines;
//! * `--trace PATH` — flight-recorder JSON-lines (analyze with
//!   `sgtrace`; `PATH.chrome.json` opens in Perfetto);
//! * `--series PATH` — windowed recovery telemetry as JSON-lines for
//!   `sgstat series` / `sgstat avail`;
//! * `--series-window NS` — window width in simulated nanoseconds
//!   (default 1,000,000,000 = 1s);
//! * `--bench-json PATH` — machine-readable summary for CI artifacts.

use composite::{
    default_jobs, parallel_map_indexed, Json, MetricsSnapshot, SeriesSnapshot, SimTime,
};
use sg_bench::rustc_version;
use sg_pipeline::{
    expected_output, run_pipeline_rep, PipelineConfig, PipelineResult, PipelineVariant,
};
use sg_swifi::{run_pipeline_campaign_parallel, CampaignRow, PipelineCampaignConfig};

/// Default telemetry window: 1 virtual second.
const SERIES_WINDOW: SimTime = SimTime(1_000_000_000);

const VARIANTS: [PipelineVariant; 3] = [
    PipelineVariant::Bare { faults: false },
    PipelineVariant::SuperGlue { faults: false },
    PipelineVariant::SuperGlue { faults: true },
];

/// One output row: a variant's repetitions merged in repetition order.
struct Row {
    variant: PipelineVariant,
    delivered: u64,
    expected: u64,
    dead_letters: u64,
    cursor_restores: u64,
    faults_injected: u64,
    unrecovered: u64,
    /// Every repetition's committed output was byte-identical to the
    /// closed-form fault-free log — the exactly-once witness.
    exact: bool,
    mean_mps: f64,
    metrics: MetricsSnapshot,
    telemetry: SeriesSnapshot,
}

fn merge_reps(cfg: &PipelineConfig, reps: &[PipelineResult]) -> Row {
    let oracle = expected_output(cfg);
    let mut metrics = MetricsSnapshot::default();
    let mut telemetry = SeriesSnapshot::default();
    for r in reps {
        metrics.merge(&r.metrics);
        telemetry.merge(&r.telemetry);
    }
    Row {
        variant: reps[0].variant,
        delivered: reps.iter().map(|r| r.delivered).sum(),
        expected: cfg.expected_delivered() * reps.len() as u64,
        dead_letters: reps.iter().map(|r| r.dead_letters).sum(),
        cursor_restores: reps.iter().map(|r| r.cursor_restores).sum(),
        faults_injected: reps.iter().map(|r| r.faults_injected).sum(),
        unrecovered: reps.iter().map(|r| r.unrecovered).sum(),
        exact: reps.iter().all(|r| r.output == oracle),
        mean_mps: reps
            .iter()
            .map(|r| r.delivered as f64 / r.wall.as_secs_f64().max(1e-9))
            .sum::<f64>()
            / reps.len() as f64,
        metrics,
        telemetry,
    }
}

fn main() {
    let mut cfg = PipelineConfig {
        jobs: 6_000,
        work: SimTime::from_micros(10_000),
        ..PipelineConfig::default()
    };
    let mut repetitions: u64 = 1;
    let mut campaign = PipelineCampaignConfig::default();
    let mut json_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut series_path: Option<String> = None;
    let mut series_window = SERIES_WINDOW;
    let mut bench_json: Option<String> = None;
    let mut jobs = default_jobs();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--messages" => {
                cfg.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--messages N");
            }
            "--work-us" => {
                let us: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--work-us N");
                cfg.work = SimTime::from_micros(us);
            }
            "--poison-every" => {
                cfg.poison_every = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--poison-every N");
            }
            "--poison-limit" => {
                cfg.poison_limit = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--poison-limit K");
                assert!(
                    (1..=3).contains(&cfg.poison_limit),
                    "--poison-limit must stay within the per-call retry budget (1..=3)"
                );
            }
            "--capacity" => {
                cfg.capacity = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--capacity N");
            }
            "--repetitions" => {
                repetitions = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--repetitions N");
                assert!(repetitions > 0, "--repetitions must be positive");
            }
            "--seed" => {
                cfg.seed = args.next().and_then(|v| v.parse().ok()).expect("--seed S");
            }
            "--injections" => {
                campaign.injections = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--injections N");
            }
            "--showstoppers" => {
                campaign.showstoppers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--showstoppers N");
            }
            "--jobs" => {
                jobs = args.next().and_then(|v| v.parse().ok()).expect("--jobs N");
            }
            "--json" => json_path = Some(args.next().expect("--json PATH")),
            "--metrics" => metrics_path = Some(args.next().expect("--metrics PATH")),
            "--trace" => {
                trace_path = Some(args.next().expect("--trace PATH"));
                cfg.trace = true;
                campaign.trace = true;
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
        campaign.series_window_ns = series_window.0;
    }
    // The run ends when the logger has everything; the duration is a
    // hard cap sized to the stream (worker-bound) plus generous
    // recovery slack.
    cfg.duration = SimTime(cfg.work.0.saturating_mul(cfg.jobs).saturating_mul(3) + 30_000_000_000);
    campaign.seed = cfg.seed;
    campaign.pipeline.poison_limit = cfg.poison_limit;

    println!(
        "Pipeline: {} messages, work {}µs, capacity {}, fault period {}, poison every {} (K={}), {} rep(s), seed {:#x}, {jobs} jobs",
        cfg.jobs,
        cfg.work.0 / 1_000,
        cfg.capacity,
        cfg.fault_period,
        cfg.poison_every,
        cfg.poison_limit,
        repetitions,
        cfg.seed,
    );
    println!(
        "{:<30} {:>10} {:>10} {:>8} {:>6} {:>7} {:>6} {:>10} {:>6}",
        "system", "delivered", "expected", "dead-ltr", "CR0", "faults", "unrec", "msg/s", "exact"
    );

    let reps = repetitions as usize;
    let results = parallel_map_indexed(VARIANTS.len() * reps, jobs, |task| {
        run_pipeline_rep(VARIANTS[task / reps], &cfg, (task % reps) as u64)
    });
    let rows: Vec<Row> = results
        .chunks(reps)
        .map(|chunk| merge_reps(&cfg, chunk))
        .collect();

    for r in &rows {
        println!(
            "{:<30} {:>10} {:>10} {:>8} {:>6} {:>7} {:>6} {:>10.0} {:>6}",
            r.variant.to_string(),
            r.delivered,
            r.expected,
            r.dead_letters,
            r.cursor_restores,
            r.faults_injected,
            r.unrecovered,
            r.mean_mps,
            if r.exact { "yes" } else { "NO" },
        );
        if matches!(r.variant, PipelineVariant::SuperGlue { .. }) {
            assert_eq!(r.unrecovered, 0, "every injected fault must be recovered");
            assert!(
                r.exact,
                "exactly-once: committed output must equal the fault-free oracle"
            );
        }
    }

    println!();
    println!(
        "SWIFI pipeline campaign: {} injections per phase, {} showstopper rep(s)",
        campaign.injections, campaign.showstoppers
    );
    let camp = run_pipeline_campaign_parallel(&campaign, jobs);
    println!("{}", CampaignRow::table_header());
    for row in camp.phases.iter().chain([&camp.showstopper.row]) {
        println!("{}", row.table_line());
        assert_eq!(
            row.recovered, row.injected,
            "{}: every channel-layer injection must recover exactly-once",
            row.component
        );
    }
    println!("{}", camp.showstopper.summary_line());
    assert_eq!(
        camp.showstopper.reboots, camp.showstopper.reboot_cap,
        "dead-letter routing must cap the reboot count"
    );

    if let Some(path) = json_path {
        let out: Vec<Json> = rows
            .iter()
            .map(|r| {
                let mut j = Json::object();
                j.push("variant", r.variant.to_string())
                    .push("delivered", r.delivered)
                    .push("expected", r.expected)
                    .push("dead_letters", r.dead_letters)
                    .push("cursor_restores", r.cursor_restores)
                    .push("faults_injected", r.faults_injected)
                    .push("unrecovered", r.unrecovered)
                    .push("mean_mps", r.mean_mps)
                    .push("exact", r.exact);
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
        out.push_str(&camp.metrics.to_json_lines("pipeline/campaign"));
        std::fs::write(&path, out).expect("write metrics");
        println!("metrics written to {path}");
    }

    if let Some(path) = trace_path {
        let mut shards: Vec<_> = results.iter().filter_map(|r| r.trace.clone()).collect();
        shards.extend(camp.trace.iter().cloned());
        if let Err(e) = sg_bench::write_trace(&path, &shards) {
            eprintln!("error: cannot write trace {path}: {e}");
            std::process::exit(1);
        }
    }

    if let Some(path) = series_path {
        let mut sections: Vec<(String, &SeriesSnapshot)> = rows
            .iter()
            .map(|r| (variant_label(r.variant), &r.telemetry))
            .collect();
        sections.push(("pipeline/campaign".to_owned(), &camp.series));
        sg_bench::write_series(&path, series_window.0, &sections);
    }

    if let Some(path) = bench_json {
        let mut doc = Json::object();
        doc.push("bench", "pipeline_exactly_once");
        doc.push("unit", "messages_per_second");
        doc.push("messages", cfg.jobs);
        doc.push("work_us", cfg.work.0 / 1_000);
        doc.push("poison_every", cfg.poison_every);
        doc.push("poison_limit", cfg.poison_limit);
        doc.push("repetitions", repetitions);
        doc.push("seed", cfg.seed);
        doc.push("rustc", rustc_version());
        let mut arr = Vec::new();
        for r in &rows {
            let mut o = Json::object();
            o.push("variant", r.variant.to_string());
            o.push("delivered", r.delivered);
            o.push("dead_letters", r.dead_letters);
            o.push("cursor_restores", r.cursor_restores);
            o.push("faults_injected", r.faults_injected);
            o.push("unrecovered", r.unrecovered);
            o.push("mean_mps", r.mean_mps);
            o.push("exact", r.exact);
            arr.push(o);
        }
        doc.push("rows", arr);
        let mut c = Json::object();
        for row in camp.phases.iter().chain([&camp.showstopper.row]) {
            let mut o = Json::object();
            o.push("injected", row.injected);
            o.push("recovered", row.recovered);
            o.push("nested_recovered", row.nested_recovered);
            c.push(&row.component.clone(), o);
        }
        c.push("dead_letters", camp.showstopper.dead_letters);
        c.push("reboots", camp.showstopper.reboots);
        c.push("reboot_cap", camp.showstopper.reboot_cap);
        doc.push("campaign", c);
        std::fs::write(&path, doc.to_pretty()).expect("write bench json");
        println!("bench json written to {path}");
    }
}

/// The context label a variant's metrics and series rows carry.
fn variant_label(v: PipelineVariant) -> String {
    match v {
        PipelineVariant::Bare { faults } => format!("pipeline/composite/faults={faults}"),
        PipelineVariant::SuperGlue { faults } => format!("pipeline/superglue/faults={faults}"),
    }
}
