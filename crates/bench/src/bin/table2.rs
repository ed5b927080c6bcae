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

use composite::{default_jobs, parallel_map_indexed, Json};
use sg_swifi::{
    merge_shards, run_shard, shard_sizes, CampaignConfig, CampaignMode, CampaignResult,
};
use superglue::testbed::Variant;

const IFACES: [&str; 6] = ["sched", "mm", "fs", "lock", "evt", "tmr"];

/// The Table II-B correlated regimes, in output order.
const MODES: [(&str, CampaignMode); 3] = [
    ("burst", CampaignMode::Burst { flips: 3 }),
    ("during-recovery", CampaignMode::DuringRecovery),
    ("cascade", CampaignMode::Cascade),
];

fn main() {
    let mut cfg = CampaignConfig::default();
    let mut json_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut series_path: Option<String> = None;
    let mut series_window = composite::DEFAULT_SERIES_WINDOW.0;
    let mut jobs = default_jobs();
    let mut correlated = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--correlated" => correlated = true,
            // Interpret the certified-elision stubs. Every output byte
            // (rows, json, metrics, traces) must be identical to a run
            // without the flag — only proven-dead bookkeeping differs.
            "--elide" => cfg.elide = true,
            "--injections" => {
                cfg.injections = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--injections N");
            }
            "--seed" => {
                cfg.seed = args.next().and_then(|v| v.parse().ok()).expect("--seed S");
            }
            "--variant" => match args.next().as_deref() {
                Some("c3") => cfg.variant = Variant::C3,
                Some("superglue") => cfg.variant = Variant::SuperGlue,
                other => panic!("--variant c3|superglue, got {other:?}"),
            },
            "--mask" => {
                let raw = args.next().expect("--mask HEX");
                cfg.fault_mask = u32::from_str_radix(raw.trim_start_matches("0x"), 16)
                    .expect("--mask takes a hex fault mask");
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
                series_window = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--series-window NS");
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    if series_path.is_some() {
        cfg.series_window_ns = series_window;
    }
    if let Err(e) = cfg.validate() {
        eprintln!("{e}");
        std::process::exit(2);
    }

    let variant_name = match cfg.variant {
        Variant::SuperGlue => "COMPOSITE+SuperGlue",
        Variant::C3 => "COMPOSITE+C3",
        Variant::Bare => "COMPOSITE (bare)",
    };
    println!(
        "SWIFI fault-injection campaign: {} injections/component, seed 0x{:X}, mask 0x{:08X}, {variant_name}, {jobs} jobs",
        cfg.injections, cfg.seed, cfg.fault_mask,
    );

    if correlated {
        run_correlated(&cfg, jobs, json_path, metrics_path, trace_path, series_path);
        return;
    }

    // Flatten every (service, shard) pair into one task pool so all
    // workers stay busy across service boundaries, then merge per
    // service in shard order — bit-identical for any job count.
    let shards_per_iface = shard_sizes(cfg.injections).len();
    let start = Instant::now();
    let shard_results = parallel_map_indexed(IFACES.len() * shards_per_iface, jobs, |task| {
        run_shard(
            IFACES[task / shards_per_iface],
            &cfg,
            task % shards_per_iface,
        )
    });
    let results: Vec<CampaignResult> = shard_results
        .chunks(shards_per_iface)
        .zip(IFACES)
        .map(|(chunk, iface)| merge_shards(iface, chunk.iter()))
        .collect();
    let elapsed = start.elapsed();

    println!("{}", sg_swifi::CampaignRow::table_header());
    for r in &results {
        println!("{}", r.row.table_line());
    }

    println!();
    println!("paper (Table II, 500 injections/component): activation 93.8-98.4%,");
    println!("success 88.6-96.1%, Sched worst for segfaults (10.8% of injections),");
    println!("propagation <=0.4%, hangs <=0.8%.");
    println!("wall clock: {:.2}s ({jobs} jobs)", elapsed.as_secs_f64());

    if let Some(path) = json_path {
        let rows: Vec<Json> = results
            .iter()
            .map(|r| {
                let mut j = Json::object();
                j.push("component", r.row.component.as_str())
                    .push("injected", r.row.injected)
                    .push("recovered", r.row.recovered)
                    .push("segfault", r.row.segfault)
                    .push("propagated", r.row.propagated)
                    .push("other", r.row.other)
                    .push("undetected", r.row.undetected)
                    .push("activation_ratio", r.row.activation_ratio())
                    .push("success_rate", r.row.success_rate());
                j
            })
            .collect();
        std::fs::write(&path, Json::Array(rows).to_pretty()).expect("write json");
        println!("rows written to {path}");
    }

    if let Some(path) = metrics_path {
        let mut out = String::new();
        for (iface, r) in IFACES.iter().zip(&results) {
            let variant = match cfg.variant {
                Variant::SuperGlue => "superglue",
                Variant::C3 => "c3",
                Variant::Bare => "bare",
            };
            out.push_str(
                &r.metrics
                    .to_json_lines(&format!("table2/{iface}/{variant}")),
            );
        }
        std::fs::write(&path, out).expect("write metrics");
        println!("metrics written to {path}");
    }

    if let Some(path) = trace_path {
        let shards: Vec<_> = results
            .iter()
            .flat_map(|r| r.trace.iter().cloned())
            .collect();
        if let Err(e) = sg_bench::write_trace(&path, &shards) {
            eprintln!("error: cannot write trace {path}: {e}");
            std::process::exit(1);
        }
    }

    if let Some(path) = series_path {
        let variant = variant_slug(cfg.variant);
        let sections: Vec<(String, &composite::SeriesSnapshot)> = IFACES
            .iter()
            .zip(&results)
            .map(|(iface, r)| (format!("table2/{iface}/{variant}"), &r.series))
            .collect();
        sg_bench::write_series(&path, cfg.series_window_ns, &sections);
    }
}

fn variant_slug(v: Variant) -> &'static str {
    match v {
        Variant::SuperGlue => "superglue",
        Variant::C3 => "c3",
        Variant::Bare => "bare",
    }
}

/// The Table II-B campaign: every (mode, service, shard) triple in one
/// flattened task pool, merged per (mode, service) in shard order —
/// byte-identical output for any `--jobs` value.
fn run_correlated(
    cfg: &CampaignConfig,
    jobs: usize,
    json_path: Option<String>,
    metrics_path: Option<String>,
    trace_path: Option<String>,
    series_path: Option<String>,
) {
    let shards_per_iface = shard_sizes(cfg.injections).len();
    let per_mode = IFACES.len() * shards_per_iface;
    let start = Instant::now();
    let shard_results = parallel_map_indexed(MODES.len() * per_mode, jobs, |task| {
        let mut mcfg = *cfg;
        mcfg.mode = MODES[task / per_mode].1;
        let rest = task % per_mode;
        run_shard(
            IFACES[rest / shards_per_iface],
            &mcfg,
            rest % shards_per_iface,
        )
    });
    let results: Vec<(usize, &str, CampaignResult)> = shard_results
        .chunks(shards_per_iface)
        .enumerate()
        .map(|(i, chunk)| {
            let iface = IFACES[i % IFACES.len()];
            (i / IFACES.len(), iface, merge_shards(iface, chunk.iter()))
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
        println!("{}", sg_swifi::CampaignRow::correlated_header());
        for (_, _, r) in results.iter().filter(|(m, _, _)| *m == mode_i) {
            println!("{}", r.row.correlated_line());
        }
    }
    println!();
    println!("wall clock: {:.2}s ({jobs} jobs)", elapsed.as_secs_f64());

    if let Some(path) = json_path {
        let rows: Vec<Json> = results
            .iter()
            .map(|(mode_i, _, r)| {
                let mut j = Json::object();
                j.push("mode", MODES[*mode_i].0)
                    .push("component", r.row.component.as_str())
                    .push("injected", r.row.injected)
                    .push("recovered", r.row.recovered)
                    .push("segfault", r.row.segfault)
                    .push("propagated", r.row.propagated)
                    .push("other", r.row.other)
                    .push("undetected", r.row.undetected)
                    .push("degraded", r.row.degraded)
                    .push("watchdog_detected", r.row.watchdog_detected)
                    .push("nested_recovered", r.row.nested_recovered)
                    .push("success_rate", r.row.success_rate());
                j
            })
            .collect();
        std::fs::write(&path, Json::Array(rows).to_pretty()).expect("write json");
        println!("rows written to {path}");
    }

    if let Some(path) = metrics_path {
        let variant = match cfg.variant {
            Variant::SuperGlue => "superglue",
            Variant::C3 => "c3",
            Variant::Bare => "bare",
        };
        let mut out = String::new();
        for (mode_i, iface, r) in &results {
            out.push_str(
                &r.metrics
                    .to_json_lines(&format!("table2b/{}/{iface}/{variant}", MODES[*mode_i].0)),
            );
        }
        std::fs::write(&path, out).expect("write metrics");
        println!("metrics written to {path}");
    }

    if let Some(path) = trace_path {
        let shards: Vec<_> = results
            .iter()
            .flat_map(|(_, _, r)| r.trace.iter().cloned())
            .collect();
        if let Err(e) = sg_bench::write_trace(&path, &shards) {
            eprintln!("error: cannot write trace {path}: {e}");
            std::process::exit(1);
        }
    }

    if let Some(path) = series_path {
        let variant = variant_slug(cfg.variant);
        let sections: Vec<(String, &composite::SeriesSnapshot)> = results
            .iter()
            .map(|(mode_i, iface, r)| {
                (
                    format!("table2b/{}/{iface}/{variant}", MODES[*mode_i].0),
                    &r.series,
                )
            })
            .collect();
        sg_bench::write_series(&path, cfg.series_window_ns, &sections);
    }
}
