//! Ablation benches for the design choices DESIGN.md §5 calls out.
//!
//! Run with `cargo run -p sg-bench --release --bin ablations`. The
//! three ablations are independent and run across worker threads
//! (`--jobs N`, default: available parallelism); their reports print in
//! ablation order regardless of the job count.
//!
//! `--trace PATH` records a flight-recorder trace of the recovery-policy
//! and G1 ablations' kernels (the tracking ablation captures none) as
//! JSON-lines at PATH plus a Chrome trace_event rendering at
//! PATH.chrome.json.
//!
//! `--series PATH` dumps windowed recovery telemetry of the same
//! kernels as JSON-lines for `sgstat series` (`--series-window NS`
//! overrides the 1ms default window).

use std::fmt::Write as _;
use std::time::Instant;

use composite::{
    default_jobs, parallel_map_indexed, CostModel, InterfaceCall as _, Kernel, KernelAccess as _,
    Priority, SeriesSnapshot, TraceShard, Value, DEFAULT_SERIES_WINDOW, DEFAULT_TRACE_CAPACITY,
};
use sg_bench::cli::{Cli, Outputs};
use sg_c3::RecoveryPolicy;
use superglue::testbed::{Testbed, Variant};

const USAGE: &str =
    "usage: ablations [--jobs N] [--trace PATH] [--series PATH] [--series-window NS]";

/// Ablation 1: on-demand (T1) vs eager recovery — what a high-priority
/// client waits for after a fault when many descriptors are live.
fn ablation_policy(opts: &Outputs) -> AblationOutput {
    let mut out = String::new();
    let mut shards = Vec::new();
    let mut series = Vec::new();
    let _ = writeln!(out, "== Ablation 1: on-demand (T1) vs eager recovery ==");
    const DESCRIPTORS: usize = 400;
    for policy in [RecoveryPolicy::OnDemand, RecoveryPolicy::Eager] {
        let mut tb = Testbed::build_with(Variant::SuperGlue, CostModel::paper_defaults(), policy)
            .expect("testbed builds");
        if opts.tracing() {
            tb.runtime
                .kernel_mut()
                .enable_tracing(DEFAULT_TRACE_CAPACITY);
        }
        if opts.series_on() {
            tb.runtime
                .kernel_mut()
                .enable_telemetry(opts.series_window());
        }
        let t = tb.spawn_thread(tb.ids.app1, Priority(5));
        let (app, lock) = (tb.ids.app1, tb.ids.lock);
        let mut ids = Vec::new();
        for _ in 0..DESCRIPTORS {
            let id = tb
                .runtime
                .interface_call(app, t, lock, "lock_alloc", &[Value::Int(1)])
                .expect("alloc")
                .int()
                .expect("id");
            ids.push(id);
        }
        tb.runtime.inject_fault(lock);
        let start = Instant::now();
        if policy == RecoveryPolicy::Eager {
            tb.runtime
                .handle_fault_now(lock, t)
                .expect("eager recovery");
        }
        // The "high-priority request": one take on one descriptor.
        tb.runtime
            .interface_call(
                app,
                t,
                lock,
                "lock_take",
                &[Value::Int(1), Value::Int(ids[0])],
            )
            .expect("take");
        let first_us = start.elapsed().as_secs_f64() * 1e6;
        let recovered = tb.runtime.stats().descriptors_recovered;
        let _ = writeln!(
            out,
            "  {policy:?}: first request served after {first_us:8.1} us wall  \
             ({recovered} descriptors recovered before it completed)"
        );
        if opts.series_on() {
            series.push((
                format!("ablations/policy/{policy:?}"),
                SeriesSnapshot::from_kernel(tb.runtime.kernel()),
            ));
        }
        if opts.tracing() {
            shards.push(
                tb.runtime
                    .kernel_mut()
                    .take_trace(&format!("ablations/policy/{policy:?}")),
            );
        }
    }
    let _ = writeln!(
        out,
        "  -> on-demand bounds the priority inversion: the first request pays for\n\
         \x20    one descriptor, not all {DESCRIPTORS} (the paper's schedulability argument)."
    );
    (out, shards, series)
}

/// Ablation 2+3: bounded state-machine tracking vs the operation log
/// §II-C rejects, and shortest-walk vs full-history replay, both
/// measured on the SuperGlue stub of the lock interface.
fn ablation_tracker(_opts: &Outputs) -> AblationOutput {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== Ablation 2: state-machine tracking vs operation log =="
    );
    const OPS: usize = 100_000;
    let mut tb = Testbed::build(Variant::SuperGlue).expect("testbed builds");
    let t = tb.spawn_thread(tb.ids.app1, Priority(5));
    let (app, lock) = (tb.ids.app1, tb.ids.lock);
    let id = tb
        .runtime
        .interface_call(app, t, lock, "lock_alloc", &[Value::Int(1)])
        .expect("alloc")
        .int()
        .expect("id");
    let args = [Value::Int(1), Value::Int(id)];
    for i in 0..OPS {
        let f = ["lock_take", "lock_release"][i % 2];
        tb.runtime
            .interface_call(app, t, lock, f, &args)
            .expect("valid transition");
    }
    // An operation log keeps one entry per call: the alloc plus OPS.
    let logged = OPS + 1;
    let tracked = tb.runtime.stub(app, lock).expect("stub").tracked_count();
    let _ = writeln!(
        out,
        "  after {OPS} lock_take/lock_release calls on one lock (SuperGlue stub):\n\
         \x20   descriptors the stub tracks:          {tracked:>7} (bounded by live descriptors)\n\
         \x20   entries an operation log would hold:  {logged:>7} (grows with every call)"
    );

    let _ = writeln!(
        out,
        "\n== Ablation 3: shortest recovery walk vs full-history replay =="
    );
    let before = tb.runtime.stats().walk_steps_replayed;
    tb.runtime.inject_fault(lock);
    tb.runtime
        .interface_call(app, t, lock, "lock_take", &args)
        .expect("take after fault");
    let replayed = tb.runtime.stats().walk_steps_replayed - before;
    let _ = writeln!(
        out,
        "  fault in lock, then one lock_take: walk_steps_replayed +{replayed} (shortest walk);\n\
         \x20 a log replay would re-execute {logged} calls ({}x more recovery work)",
        logged / replayed.max(1) as usize
    );
    (out, Vec::new(), Vec::new())
}

/// Ablation 4: G1 redundant storage on vs off — RamFS data survival.
fn ablation_g1(opts: &Outputs) -> AblationOutput {
    let mut out = String::new();
    let mut shards = Vec::new();
    let mut series = Vec::new();
    let _ = writeln!(out, "\n== Ablation 4: G1 redundant storage on vs off ==");
    for persist in [true, false] {
        let mut k = Kernel::with_costs(CostModel::free());
        if opts.tracing() {
            k.enable_tracing(DEFAULT_TRACE_CAPACITY);
        }
        if opts.series_on() {
            k.enable_telemetry(opts.series_window());
        }
        let app = k.add_client_component("app");
        let st = k.add_component(
            "storage",
            Box::new(sg_services::storage::StorageService::new()),
        );
        let cb = k.add_component("cbuf", Box::new(sg_services::cbuf::CbufService::new()));
        let fs_svc: Box<dyn composite::Service> = if persist {
            Box::new(sg_services::ramfs::RamFs::new(st, cb))
        } else {
            Box::new(sg_services::ramfs::RamFs::without_persistence(st, cb))
        };
        let fs = k.add_component("fs", fs_svc);
        k.grant(app, fs);
        k.grant(fs, st);
        k.grant(fs, cb);
        let t = k.create_thread(app, Priority(5));
        let fd = k
            .invoke(
                app,
                t,
                fs,
                "tsplit",
                &[Value::Int(1), Value::Int(0), Value::from("data")],
            )
            .expect("split")
            .int()
            .expect("fd");
        k.invoke(
            app,
            t,
            fs,
            "twrite",
            &[Value::Int(1), Value::Int(fd), Value::from(vec![7; 64])],
        )
        .expect("write");
        k.fault(fs);
        k.micro_reboot(fs).expect("reboot");
        let fd2 = k
            .invoke(
                app,
                t,
                fs,
                "tsplit",
                &[Value::Int(1), Value::Int(0), Value::from("data")],
            )
            .expect("split")
            .int()
            .expect("fd");
        let read = k
            .invoke(
                app,
                t,
                fs,
                "tread",
                &[Value::Int(1), Value::Int(fd2), Value::Int(64)],
            )
            .expect("read");
        let survived = matches!(&read, Value::Bytes(b) if b.len() == 64);
        if opts.series_on() {
            series.push((
                format!("ablations/g1/{}", if persist { "on" } else { "off" }),
                SeriesSnapshot::from_kernel(&k),
            ));
        }
        if opts.tracing() {
            shards.push(k.take_trace(&format!(
                "ablations/g1/{}",
                if persist { "on" } else { "off" }
            )));
        }
        let _ = writeln!(
            out,
            "  persistence {}: 64-byte file {} the micro-reboot",
            if persist { "ON (G1) " } else { "OFF      " },
            if survived {
                "SURVIVED"
            } else {
                "was LOST across"
            }
        );
    }
    let _ = writeln!(
        out,
        "  -> without the storage component, interface-driven recovery alone\n\
         \x20    cannot restore resource *data* — the reason G1 exists (SIII-C)."
    );
    (out, shards, series)
}

/// An ablation's report plus any flight-recorder shards and windowed
/// telemetry sections it captured.
type AblationOutput = (String, Vec<TraceShard>, Vec<(String, SeriesSnapshot)>);

/// One ablation: takes the requested artifacts, returns its output.
type Ablation = fn(&Outputs) -> AblationOutput;

fn main() {
    let mut jobs = default_jobs();
    let mut out = Outputs::new(DEFAULT_SERIES_WINDOW);
    let mut cli = Cli::new("ablations", USAGE);
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--jobs" => jobs = cli.value(),
            "--trace" | "--series" | "--series-window" => out.take(&mut cli),
            _ => cli.unknown(),
        }
    }
    out.create();
    let ablations: [Ablation; 3] = [ablation_policy, ablation_tracker, ablation_g1];
    let mut shards = Vec::new();
    let mut series = Vec::new();
    for (report, mut s, mut t) in
        parallel_map_indexed(ablations.len(), jobs, |i| ablations[i](&out))
    {
        print!("{report}");
        shards.append(&mut s);
        series.append(&mut t);
    }
    out.trace(|| shards);
    out.series(|| series.iter().map(|(c, s)| (c.clone(), s)).collect());
}
