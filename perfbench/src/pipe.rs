//! `pipeline`: the streaming Generator → Worker → Logger pipeline over
//! two SuperGlue-protected channels, with scheduled faults and poisoned
//! messages, and with the flight recorder, series and metrics on. The
//! trace is drained and rendered (JSON-lines and Chrome) in memory after
//! every unit; metrics and series are snapshotted and rendered at the
//! end of each repetition. G1 storage writes ride on every send and
//! commit, and hundreds of in-place recoveries (dead-letter routing and
//! cursor restores) happen without a machine rebuild. It is the only
//! workload where the observability sinks do much of the work.
//!
//! A unit is one fixed slice of virtual time. This loop mirrors
//! `sg_pipeline::run_pipeline_rep` step for step, so its simulated
//! outputs equal the library's; the traced run checks that.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use composite::{
    shards_to_chrome, shards_to_jsonl, ComponentId, Executor, MetricsSnapshot, RunExit,
    SeriesSnapshot, SimTime, TraceShard,
};
use sg_c3::FtRuntime;
use sg_pipeline::{
    build_pipeline, expected_output, pipeline_cost_model, run_pipeline_rep, PipelineBed,
    PipelineConfig, PipelineVariant,
};

use crate::report::{self, Layers, Measured};
use crate::span::{self, span, Profile, UNIT};
use crate::system::{attach_stages, traced_pipeline};
use crate::wrap::{RuntimeCtx, Traced};
use crate::{alloc, stats};

/// Messages per repetition: enough that the slice holding the end of
/// a repetition (the sinks' drain and render) is under 5 % of slices,
/// so it does not set `unit_ms_p90`.
pub const JOBS: u64 = 40_000;
/// Virtual time per timed unit. Dead-letter reboots make consecutive
/// 2 s slices alternate between two loads; 4 s slices hold one of each.
pub const SLICE: SimTime = SimTime(4_000_000_000);
/// Messages of the untimed warm-up repetition in each set-up sample.
const WARM_JOBS: u64 = 300;

const VARIANT: PipelineVariant = PipelineVariant::SuperGlue { faults: true };

fn at(n: u64) -> SimTime {
    SimTime(SLICE.0 * n)
}

/// The benchmark's pipeline load: `jobs` messages, every 300th
/// poisoned, a fault every 10 s of virtual time, all sinks on.
#[must_use]
pub fn config(seed: u64, jobs: u64, sinks: bool) -> PipelineConfig {
    let mut cfg = PipelineConfig {
        jobs,
        poison_every: 300,
        seed,
        trace: sinks,
        series_window: if sinks {
            SimTime::from_secs(1)
        } else {
            SimTime::ZERO
        },
        ..PipelineConfig::default()
    };
    cfg.duration = run_cap(&cfg);
    cfg
}

/// The virtual-time cap of one repetition, from its load: twice the
/// time every message and every dead-letter reboot could take, plus
/// 30 s. A repetition that reaches the cap stops short and fails.
#[must_use]
pub fn run_cap(cfg: &PipelineConfig) -> SimTime {
    let costs = pipeline_cost_model(VARIANT);
    // Every stage call a message can make, each with its storage round
    // trip, over-counted.
    let per_call = costs.invocation.0 + costs.tracking.0 + costs.storage_round_trip.0;
    let per_msg = cfg.work.0 + 20 * per_call;
    let reboots = (cfg.poison_count() * cfg.poison_limit + 1) * costs.micro_reboot.0;
    SimTime(2 * (cfg.jobs * per_msg + reboots) + SimTime::from_secs(30).0)
}

/// What a repetition produced in simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct PipeOutputs {
    pub completed: bool,
    pub output: Vec<String>,
    pub dead_letters: u64,
    pub cursor_restores: u64,
    pub faults_injected: u64,
    pub faults_handled: u64,
    pub unrecovered: u64,
    pub wall: SimTime,
    pub metrics: MetricsSnapshot,
    pub series: SeriesSnapshot,
    pub trace_bytes: u64,
}

impl PipeOutputs {
    /// Exactly-once: the committed log equals the oracle, every poisoned
    /// message was dead-lettered, nothing went unrecovered.
    #[must_use]
    pub fn correct(&self, cfg: &PipelineConfig, expected: &[String]) -> bool {
        self.completed
            && self.output == expected
            && self.dead_letters == cfg.poison_count()
            && self.unrecovered == 0
    }
}

/// One pipeline repetition under way.
pub struct PipeRun<C: RuntimeCtx> {
    pub ctx: C,
    ex: Executor<C>,
    output: Rc<RefCell<Vec<String>>>,
    rotation: [ComponentId; 2],
    edges: [(ComponentId, ComponentId); 4],
    next_fault: SimTime,
    fault_period: SimTime,
    duration: SimTime,
    faults_injected: u64,
    label: String,
    pub done: bool,
    pub trace_bytes: u64,
    /// Host time spent draining and snapshotting the sinks, in ns.
    pub snapshot_ns: u64,
    /// Host time spent rendering the sinks' artifacts, in ns.
    pub render_ns: u64,
}

impl<C: RuntimeCtx> PipeRun<C> {
    pub fn new(
        bed: PipelineBed,
        wrap: impl FnOnce(FtRuntime) -> C,
        cfg: &PipelineConfig,
        rep: u64,
    ) -> Self {
        let mut ex = Executor::new();
        attach_stages(&bed, &mut ex, cfg);
        Self {
            ctx: wrap(bed.runtime),
            ex,
            output: bed.output,
            rotation: [bed.chan_ab, bed.chan_bc],
            edges: [
                (bed.gen, bed.chan_ab),
                (bed.work, bed.chan_ab),
                (bed.work, bed.chan_bc),
                (bed.log, bed.chan_bc),
            ],
            next_fault: cfg.fault_period + cfg.fault_phase(rep),
            fault_period: cfg.fault_period,
            duration: cfg.duration,
            faults_injected: 0,
            label: format!("pipeline/rep{rep}"),
            done: false,
            trace_bytes: 0,
            snapshot_ns: 0,
            render_ns: 0,
        }
    }

    /// Run the `run_pipeline_rep` loop until virtual time reaches
    /// `until`, the run cap, or the pipeline drains. Returns whether the
    /// repetition is over.
    pub fn advance_to(&mut self, until: SimTime) -> bool {
        let stop = if until < self.duration {
            until
        } else {
            self.duration
        };
        while !self.done && self.ctx.kernel().now() < stop {
            if self.ctx.kernel().now() >= self.next_fault {
                let target = self.rotation[(self.faults_injected as usize) % self.rotation.len()];
                self.ctx.runtime_mut().inject_fault(target);
                self.faults_injected += 1;
                self.next_fault += self.fault_period;
            }
            let exit = span("composite.executor_run", || self.ex.run(&mut self.ctx, 128));
            self.done = exit != RunExit::StepLimit;
        }
        self.done || self.ctx.kernel().now() >= self.duration
    }

    /// Messages committed so far.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.output.borrow().len() as u64
    }

    /// Descriptors tracked across the four channel stubs.
    #[must_use]
    pub fn tracked(&self) -> usize {
        let rt = self.ctx.runtime();
        self.edges
            .iter()
            .filter_map(|&(c, s)| rt.stub(c, s))
            .map(|s| s.tracked_count())
            .sum()
    }

    /// End the repetition: drain the flight recorder and snapshot the
    /// metrics and series, then render all three as the `pipeline`
    /// binary's artifacts would be (trace as JSON-lines and Chrome JSON).
    pub fn finish(&mut self) -> PipeOutputs {
        let t = Instant::now();
        let (shards, metrics, series) = span("composite.sinks_snapshot", || {
            let k = self.ctx.kernel_mut();
            let mut shard = TraceShard::labeled(&self.label);
            if k.tracing_enabled() {
                shard.absorb(k.take_trace(&self.label));
            }
            let (m, s) = (
                MetricsSnapshot::from_kernel(k),
                SeriesSnapshot::from_kernel(k),
            );
            ([shard], m, s)
        });
        let t1 = Instant::now();
        if self.ctx.kernel().tracing_enabled() {
            let bytes = span("composite.sinks_render", || {
                std::hint::black_box(metrics.to_json_lines(&self.label));
                std::hint::black_box(series.to_json_lines(&self.label));
                shards_to_jsonl(&shards).len() + shards_to_chrome(&shards).len()
            });
            self.trace_bytes += bytes as u64;
        }
        self.snapshot_ns += (t1 - t).as_nanos() as u64;
        self.render_ns += t1.elapsed().as_nanos() as u64;
        let wall = self.ctx.kernel().now();
        let stats = self.ctx.runtime().stats();
        let (faults_handled, unrecovered) = (stats.faults_handled, stats.unrecovered);
        let completed = self.done;
        let (faults_injected, trace_bytes) = (self.faults_injected, self.trace_bytes);
        let output = std::mem::take(&mut *self.output.borrow_mut());
        PipeOutputs {
            completed,
            output,
            dead_letters: metrics.mechanism_total(composite::Mechanism::Dl0),
            cursor_restores: metrics.mechanism_total(composite::Mechanism::Cr0),
            faults_injected,
            faults_handled,
            unrecovered,
            wall,
            metrics,
            series,
            trace_bytes,
        }
    }
}

/// Run a repetition to its end, calling `unit` around each slice.
fn run_rep<C: RuntimeCtx>(
    run: &mut PipeRun<C>,
    mut unit: impl FnMut(&mut PipeRun<C>, SimTime) -> bool,
) -> u64 {
    let mut n = 0;
    loop {
        n += 1;
        if unit(run, at(n)) {
            return n;
        }
    }
}

fn library_run(cfg: &PipelineConfig, rep: u64) -> PipeRun<FtRuntime> {
    PipeRun::new(build_pipeline(VARIANT, cfg), |rt| rt, cfg, rep)
}

/// The untraced, time-bounded run: repetitions of [`JOBS`] messages,
/// each rebuilt, until `seconds` have passed. Repetition `r` uses fault
/// phase `r + 1`. A repetition whose output fails the exactly-once
/// check fails all its units.
#[must_use]
pub fn measure(seed: u64, seconds: f64) -> Measured {
    measure_against(seed, seconds, JOBS, expected_output)
}

/// [`measure`] with repetitions of `jobs` messages, each checked
/// against `oracle`'s committed output.
#[must_use]
pub fn measure_against(
    seed: u64,
    seconds: f64,
    jobs: u64,
    oracle: impl Fn(&PipelineConfig) -> Vec<String>,
) -> Measured {
    let warm = config(seed, WARM_JOBS, true);
    let setup = || {
        let mut run = library_run(&warm, 0);
        run_rep(&mut run, |r, until| r.advance_to(until));
        run.finish()
    };
    let t = Instant::now();
    let warm_out = setup();
    let mut m = Measured::new(vec![t.elapsed().as_secs_f64()]);
    let warm_ok = warm_out.correct(&warm, &oracle(&warm));
    let cfg = config(seed, jobs, true);
    let expected = oracle(&cfg);
    let start = Instant::now();
    let mut rep = 0;
    while start.elapsed().as_secs_f64() < seconds {
        rep += 1;
        let mut run = library_run(&cfg, rep);
        let mut last = (Instant::now(), 0);
        let mut rep_units = Vec::new();
        run_rep(&mut run, |r, until| {
            let done = r.advance_to(until);
            if !done {
                let committed = r.committed();
                rep_units.push((last.0.elapsed().as_secs_f64() * 1e3, committed - last.1));
                last = (Instant::now(), committed);
            }
            done
        });
        // The last slice's time includes the repetition's end: the
        // metrics/series snapshot and render.
        let committed = run.committed();
        let out = run.finish();
        rep_units.push((last.0.elapsed().as_secs_f64() * 1e3, committed - last.1));
        // A repetition's units pass or fail together.
        let ok = warm_ok && out.correct(&cfg, &expected);
        for (ms, work) in rep_units {
            m.unit(ms, work, ok);
        }
        m.maybe_setup(start.elapsed().as_secs_f64(), seconds, || drop(setup()));
    }
    m
}

/// The traced pass over one repetition of `jobs` messages: the library's
/// `run_pipeline_rep`, this loop untraced with sinks on and off, and
/// traced, all at the same configuration.
pub fn traced(seed: u64, jobs: u64, out: &mut Layers) {
    const REP: u64 = 1;
    let cfg = config(seed, jobs, true);
    let expected = expected_output(&cfg);
    let reference = run_pipeline_rep(VARIANT, &cfg, REP);

    let timed = |mut run: PipeRun<FtRuntime>| {
        let mut ms = Vec::new();
        let (a0, b0) = alloc::totals();
        let t = Instant::now();
        run_rep(&mut run, |r, until| {
            let t = Instant::now();
            let done = r.advance_to(until);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            done
        });
        let o = run.finish();
        let (snap, render) = (run.snapshot_ns, run.render_ns);
        let total = t.elapsed().as_nanos() as u64;
        let (a1, b1) = alloc::totals();
        (o, ms, total, snap, render, (a1 - a0, b1 - b0))
    };
    let (on, mut on_ms, on_ns, on_snap, on_render, allocs) = timed(library_run(&cfg, REP));
    let off_cfg = config(seed, jobs, false);
    let (off, _, off_ns, ..) = timed(library_run(&off_cfg, REP));

    out.check(
        on.correct(&cfg, &expected),
        "pipeline: exactly-once check failed",
    );
    out.check(
        on.output == reference.output
            && on.dead_letters == reference.dead_letters
            && on.cursor_restores == reference.cursor_restores
            && on.faults_injected == reference.faults_injected
            && on.faults_handled == reference.faults_handled
            && on.unrecovered == reference.unrecovered
            && on.wall == reference.wall
            && on.metrics == reference.metrics
            && on.series == reference.telemetry,
        "pipeline: benchmark loop differs from run_pipeline_rep",
    );
    out.check(
        off.output == on.output && off.metrics == on.metrics && off.wall == on.wall,
        "pipeline: sinks change the simulated outputs",
    );

    let mut run = PipeRun::new(traced_pipeline(&cfg), Traced, &cfg, REP);
    let mut prof = Profile::default();
    let mut tracked = 0;
    span::enable();
    let slices = run_rep(&mut run, |r, until| {
        let done = span(UNIT, || r.advance_to(until));
        prof.absorb(&span::take());
        tracked += r.tracked();
        done
    });
    let traced_out = run.finish();
    prof.absorb(&span::take());
    span::disable();
    out.check(
        traced_out == on,
        "pipeline: traced run differs from untraced",
    );

    let msgs = on.output.len() as f64;
    let slices = slices as f64;
    let invocations: u64 = on.metrics.rows.values().map(|r| r.invocations).sum();
    out.put(
        "sg-pipeline.invocations_per_msg",
        invocations as f64 / msgs,
        "count",
    );
    out.put("composite.trace_bytes", on.trace_bytes as f64, "bytes");
    let record_ns = on_ns as f64 - (on_snap + on_render) as f64 - off_ns as f64;
    out.put("composite.sinks_record_ms", record_ns / slices / 1e6, "ms");
    if let Some(a) = prof.get("composite.sinks_snapshot") {
        out.put(
            "composite.sinks_snapshot_ms",
            a.incl_ns as f64 / slices / 1e6,
            "ms",
        );
    }
    if let Some(a) = prof.get("composite.sinks_render") {
        out.put(
            "composite.sinks_render_ms",
            a.incl_ns as f64 / slices / 1e6,
            "ms",
        );
    }
    out.put(
        "superglue.tracked_descriptors",
        tracked as f64 / slices,
        "count",
    );
    report::put_work_counts(out, &on.metrics, msgs, allocs.0, allocs.1);
    report::put_profile(out, &prof, msgs, stats::median(&mut on_ms));
}
