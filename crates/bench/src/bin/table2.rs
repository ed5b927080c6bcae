//! Table II harness: the SWIFI fault-injection campaign over all six
//! system services, sharded across worker threads.
//!
//! Run with `cargo run -p sg-bench --release --bin table2`. Options:
//!
//! * `--injections N` — faults per service (default 500, the paper's
//!   count);
//! * `--seed S` — RNG seed (printed for reproducibility);
//! * `--variant c3|superglue` — which protection runs (default
//!   superglue);
//! * `--mask HEX` — the 32-bit fault mask; only its set bits are
//!   injectable (default 0xFFFFFFFF, the paper's);
//! * `--jobs N` — worker threads (default: available parallelism).
//!   Output is bit-identical for every value of `--jobs`;
//! * `--json PATH` — additionally dump the rows as JSON;
//! * `--metrics PATH` — dump per-component recovery-mechanism counters
//!   as JSON-lines (one line per component per service campaign);
//! * `--trace PATH` — record a flight-recorder trace of every shard:
//!   JSON-lines at PATH (analyze with `sgtrace`) plus a Chrome
//!   trace_event rendering at PATH.chrome.json (open in Perfetto).
//!   Byte-identical for every `--jobs` value;
//! * `--series PATH` — dump windowed recovery telemetry (per component,
//!   per simulated-time window: invocations, faults, mechanism firings,
//!   recovery-latency quantiles) as JSON-lines for `sgstat series`.
//!   Byte-identical for every `--jobs` value;
//! * `--series-window NS` — window width in simulated nanoseconds
//!   (default 1,000,000 = 1ms);
//! * `--correlated` — run the Table II-B correlated-fault campaign
//!   instead: every service under the `burst`, `during-recovery`, and
//!   `cascade` regimes, with the degraded / watchdog-detected /
//!   nested-recovered columns;
//! * `--elide` — interpret the certified tracking-elision stub specs
//!   (`sm_elide` fast paths). Every output byte — rows, `--json`,
//!   `--metrics`, `--trace` — must be identical to a run without the
//!   flag; the CI differential diffs the two.

use std::time::Instant;

use composite::{default_jobs, parallel_map_indexed, Json, DEFAULT_SERIES_WINDOW};
use sg_bench::cli::{Cli, Outputs};
use sg_bench::SERVICES;
use sg_swifi::{
    merge_shards, run_shard, shard_sizes, CampaignConfig, CampaignMode, CampaignResult, CampaignRow,
};
use superglue::testbed::Variant;

const USAGE: &str = "\
usage: table2 [--injections N] [--seed S] [--variant c3|superglue] [--mask HEX]
              [--jobs N] [--correlated] [--elide] [--json PATH] [--metrics PATH]
              [--trace PATH] [--series PATH] [--series-window NS]";

/// The Table II-B correlated regimes, in output order.
const MODES: [(&str, CampaignMode); 3] = [
    ("burst", CampaignMode::Burst { flips: 3 }),
    ("during-recovery", CampaignMode::DuringRecovery),
    ("cascade", CampaignMode::Cascade),
];

fn main() {
    let mut cfg = CampaignConfig::default();
    let mut out = Outputs::new(DEFAULT_SERIES_WINDOW);
    let mut jobs = default_jobs();
    let mut correlated = false;
    let mut cli = Cli::new("table2", USAGE);
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--correlated" => correlated = true,
            // Interpret the certified-elision stubs. Every output byte
            // (rows, json, metrics, traces) must be identical to a run
            // without the flag — only proven-dead bookkeeping differs.
            "--elide" => cfg.elide = true,
            "--injections" => cfg.injections = cli.value(),
            "--seed" => cfg.seed = cli.value(),
            "--variant" => {
                cfg.variant = cli.parse_with(|v| match v {
                    "c3" => Ok(Variant::C3),
                    "superglue" => Ok(Variant::SuperGlue),
                    _ => Err("expected c3|superglue"),
                });
            }
            "--mask" => {
                cfg.fault_mask =
                    cli.parse_with(|v| u32::from_str_radix(v.trim_start_matches("0x"), 16));
            }
            "--jobs" => jobs = cli.value(),
            "--json" | "--metrics" | "--trace" | "--series" | "--series-window" => {
                out.take(&mut cli);
            }
            _ => cli.unknown(),
        }
    }
    cfg.trace = out.tracing();
    cfg.series_window_ns = out.series_window().0;
    if let Err(e) = cfg.validate() {
        cli.fail(e);
    }
    out.create();

    let variant_name = match cfg.variant {
        Variant::SuperGlue => "COMPOSITE+SuperGlue",
        Variant::C3 => "COMPOSITE+C3",
        Variant::Bare => "COMPOSITE (bare)",
    };
    println!(
        "SWIFI fault-injection campaign: {} injections/component, seed 0x{:X}, mask 0x{:08X}, {variant_name}, {jobs} jobs",
        cfg.injections, cfg.seed, cfg.fault_mask,
    );

    let (results, rows) = if correlated {
        run_correlated(&cfg, jobs)
    } else {
        run_table2(&cfg, jobs)
    };
    out.json(|| rows);
    out.metrics(|| {
        results
            .iter()
            .map(|(context, r)| r.metrics.to_json_lines(context))
            .collect()
    });
    out.trace(|| {
        results
            .iter()
            .flat_map(|(_, r)| r.trace.iter().cloned())
            .collect()
    });
    out.series(|| {
        results
            .iter()
            .map(|(context, r)| (context.clone(), &r.series))
            .collect()
    });
}

/// Merged campaigns, each under the context label its metrics and
/// series rows carry, and the `--json` rows.
type Tables = (Vec<(String, CampaignResult)>, Vec<Json>);

fn variant_slug(v: Variant) -> &'static str {
    match v {
        Variant::SuperGlue => "superglue",
        Variant::C3 => "c3",
        Variant::Bare => "bare",
    }
}

/// The `--json` fields both tables share, in output order.
fn push_counts<'j>(j: &'j mut Json, row: &CampaignRow) -> &'j mut Json {
    j.push("component", row.component.as_str())
        .push("injected", row.injected)
        .push("recovered", row.recovered)
        .push("segfault", row.segfault)
        .push("propagated", row.propagated)
        .push("other", row.other)
        .push("undetected", row.undetected)
}

/// Table II: flatten every (service, shard) pair into one task pool so
/// all workers stay busy across service boundaries, then merge per
/// service in shard order — bit-identical for any job count.
fn run_table2(cfg: &CampaignConfig, jobs: usize) -> Tables {
    let shards_per_iface = shard_sizes(cfg.injections).len();
    let start = Instant::now();
    let shard_results = parallel_map_indexed(SERVICES.len() * shards_per_iface, jobs, |task| {
        run_shard(
            SERVICES[task / shards_per_iface],
            cfg,
            task % shards_per_iface,
        )
    });
    let results: Vec<CampaignResult> = shard_results
        .chunks(shards_per_iface)
        .zip(SERVICES)
        .map(|(chunk, iface)| merge_shards(iface, chunk.iter()))
        .collect();
    let elapsed = start.elapsed();

    println!("{}", CampaignRow::table_header());
    for r in &results {
        println!("{}", r.row.table_line());
    }

    println!();
    println!("paper (Table II, 500 injections/component): activation 93.8-98.4%,");
    println!("success 88.6-96.1%, Sched worst for segfaults (10.8% of injections),");
    println!("propagation <=0.4%, hangs <=0.8%.");
    println!("wall clock: {:.2}s ({jobs} jobs)", elapsed.as_secs_f64());

    let rows = results
        .iter()
        .map(|r| {
            let mut j = Json::object();
            push_counts(&mut j, &r.row)
                .push("activation_ratio", r.row.activation_ratio())
                .push("success_rate", r.row.success_rate());
            j
        })
        .collect();
    let variant = variant_slug(cfg.variant);
    let results = SERVICES
        .iter()
        .zip(results)
        .map(|(iface, r)| (format!("table2/{iface}/{variant}"), r))
        .collect();
    (results, rows)
}

/// The Table II-B campaign: every (mode, service, shard) triple in one
/// flattened task pool, merged per (mode, service) in shard order —
/// byte-identical output for any `--jobs` value.
fn run_correlated(cfg: &CampaignConfig, jobs: usize) -> Tables {
    let shards_per_iface = shard_sizes(cfg.injections).len();
    let per_mode = SERVICES.len() * shards_per_iface;
    let start = Instant::now();
    let shard_results = parallel_map_indexed(MODES.len() * per_mode, jobs, |task| {
        let mut mcfg = *cfg;
        mcfg.mode = MODES[task / per_mode].1;
        let rest = task % per_mode;
        run_shard(
            SERVICES[rest / shards_per_iface],
            &mcfg,
            rest % shards_per_iface,
        )
    });
    let results: Vec<(usize, &str, CampaignResult)> = shard_results
        .chunks(shards_per_iface)
        .enumerate()
        .map(|(i, chunk)| {
            let iface = SERVICES[i % SERVICES.len()];
            (i / SERVICES.len(), iface, merge_shards(iface, chunk.iter()))
        })
        .collect();
    let elapsed = start.elapsed();

    for (mode_i, (mode_name, mode)) in MODES.iter().enumerate() {
        let regime = match mode {
            CampaignMode::Burst { flips } => format!("{mode_name} ({flips} flips/injection)"),
            _ => (*mode_name).to_owned(),
        };
        println!();
        println!("Table II-B (correlated faults) — regime: {regime}");
        println!("{}", CampaignRow::correlated_header());
        for (_, _, r) in results.iter().filter(|(m, _, _)| *m == mode_i) {
            println!("{}", r.row.correlated_line());
        }
    }
    println!();
    println!("wall clock: {:.2}s ({jobs} jobs)", elapsed.as_secs_f64());

    let rows = results
        .iter()
        .map(|(mode_i, _, r)| {
            let mut j = Json::object();
            j.push("mode", MODES[*mode_i].0);
            push_counts(&mut j, &r.row)
                .push("degraded", r.row.degraded)
                .push("watchdog_detected", r.row.watchdog_detected)
                .push("nested_recovered", r.row.nested_recovered)
                .push("success_rate", r.row.success_rate());
            j
        })
        .collect();
    let variant = variant_slug(cfg.variant);
    let results = results
        .into_iter()
        .map(|(mode_i, iface, r)| {
            let mode = MODES[mode_i].0;
            (format!("table2b/{mode}/{iface}/{variant}"), r)
        })
        .collect();
    (results, rows)
}
