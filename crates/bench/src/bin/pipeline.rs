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
use sg_bench::cli::{exit_error, Cli, Outputs};
use sg_bench::rustc_version;
use sg_pipeline::{
    expected_output, run_pipeline_rep, PipelineConfig, PipelineResult, PipelineVariant,
};
use sg_swifi::{
    run_pipeline_campaign_parallel, CampaignRow, PipelineCampaignConfig, PipelineCampaignResult,
};

const USAGE: &str = "\
usage: pipeline [--messages N] [--work-us N] [--poison-every N] [--poison-limit K]
                [--capacity N] [--repetitions N] [--seed S] [--injections N]
                [--showstoppers N] [--jobs N] [--json PATH] [--metrics PATH]
                [--trace PATH] [--series PATH] [--series-window NS] [--bench-json PATH]";

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

/// The run's invariants: every SuperGlue row recovered every fault and
/// committed exactly the fault-free output, every channel-layer
/// injection recovered, and dead-letter routing capped the reboots.
fn check_invariants(rows: &[Row], camp: &PipelineCampaignResult) -> Result<(), String> {
    for r in rows {
        if !matches!(r.variant, PipelineVariant::SuperGlue { .. }) {
            continue;
        }
        if r.unrecovered != 0 {
            return Err(format!(
                "{}: {} unrecovered call(s); every injected fault must be recovered",
                r.variant, r.unrecovered
            ));
        }
        if !r.exact {
            return Err(format!(
                "{}: exactly-once violated: committed output differs from the \
                 fault-free oracle",
                r.variant
            ));
        }
    }
    for row in camp.phases.iter().chain([&camp.showstopper.row]) {
        if row.recovered != row.injected {
            return Err(format!(
                "{}: {} of {} injections recovered; every channel-layer injection \
                 must recover exactly-once",
                row.component, row.recovered, row.injected
            ));
        }
    }
    let s = &camp.showstopper;
    if s.reboots != s.reboot_cap {
        return Err(format!(
            "showstoppers: {} reboots, cap {}; dead-letter routing must cap the \
             reboot count",
            s.reboots, s.reboot_cap
        ));
    }
    Ok(())
}

fn main() {
    let mut cfg = PipelineConfig {
        jobs: 6_000,
        work: SimTime::from_micros(10_000),
        ..PipelineConfig::default()
    };
    let mut repetitions: u64 = 1;
    let mut campaign = PipelineCampaignConfig::default();
    let mut out = Outputs::new(SERIES_WINDOW);
    let mut jobs = default_jobs();
    let mut cli = Cli::new("pipeline", USAGE);
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--messages" => cfg.jobs = cli.value(),
            "--work-us" => cfg.work = SimTime::from_micros(cli.value()),
            "--poison-every" => cfg.poison_every = cli.value(),
            // The dead-letter threshold must stay within the per-call
            // retry budget.
            "--poison-limit" => cfg.poison_limit = cli.value_in(1..=3),
            "--capacity" => cfg.capacity = cli.value(),
            "--repetitions" => repetitions = cli.value_in(1..),
            "--seed" => cfg.seed = cli.value(),
            "--injections" => campaign.injections = cli.value(),
            "--showstoppers" => campaign.showstoppers = cli.value(),
            "--jobs" => jobs = cli.value(),
            "--json" | "--metrics" | "--trace" | "--series" | "--series-window"
            | "--bench-json" => out.take(&mut cli),
            _ => cli.unknown(),
        }
    }
    cfg.trace = out.tracing();
    campaign.trace = out.tracing();
    cfg.series_window = out.series_window();
    campaign.series_window_ns = out.series_window().0;
    out.create();
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
    }
    println!("{}", camp.showstopper.summary_line());
    check_invariants(&rows, &camp).unwrap_or_else(|e| exit_error(e));

    out.json(|| {
        rows.iter()
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
            .collect()
    });
    out.metrics(|| {
        let mut lines: String = rows
            .iter()
            .map(|r| r.metrics.to_json_lines(&variant_label(r.variant)))
            .collect();
        lines.push_str(&camp.metrics.to_json_lines("pipeline/campaign"));
        lines
    });
    out.trace(|| {
        let mut shards: Vec<_> = results.iter().filter_map(|r| r.trace.clone()).collect();
        shards.extend(camp.trace.iter().cloned());
        shards
    });
    out.series(|| {
        let mut sections: Vec<(String, &SeriesSnapshot)> = rows
            .iter()
            .map(|r| (variant_label(r.variant), &r.telemetry))
            .collect();
        sections.push(("pipeline/campaign".to_owned(), &camp.series));
        sections
    });
    out.bench_json(|| {
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
        doc
    });
}

/// The context label a variant's metrics and series rows carry.
fn variant_label(v: PipelineVariant) -> String {
    match v {
        PipelineVariant::Bare { faults } => format!("pipeline/composite/faults={faults}"),
        PipelineVariant::SuperGlue { faults } => format!("pipeline/superglue/faults={faults}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(unrecovered: u64, exact: bool) -> Row {
        Row {
            variant: PipelineVariant::SuperGlue { faults: true },
            delivered: 0,
            expected: 0,
            dead_letters: 0,
            cursor_restores: 0,
            faults_injected: 1,
            unrecovered,
            exact,
            mean_mps: 0.0,
            metrics: MetricsSnapshot::default(),
            telemetry: SeriesSnapshot::default(),
        }
    }

    #[test]
    fn a_violated_invariant_fails_the_run() {
        let camp = PipelineCampaignResult::default();
        assert_eq!(check_invariants(&[row(0, true)], &camp), Ok(()));
        let err = check_invariants(&[row(1, true)], &camp).unwrap_err();
        assert!(err.contains("1 unrecovered call(s)"), "{err}");
        let err = check_invariants(&[row(0, false)], &camp).unwrap_err();
        assert!(err.contains("exactly-once violated"), "{err}");

        let mut lost = camp.clone();
        lost.phases.push(CampaignRow {
            injected: 2,
            recovered: 1,
            ..CampaignRow::new("Peek")
        });
        let err = check_invariants(&[row(0, true)], &lost).unwrap_err();
        assert!(err.contains("1 of 2 injections recovered"), "{err}");

        let mut uncapped = camp;
        uncapped.showstopper.reboots = 1;
        let err = check_invariants(&[row(0, true)], &uncapped).unwrap_err();
        assert!(err.contains("must cap the"), "{err}");
    }
}
