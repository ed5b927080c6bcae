//! `webserver`: one long Fig 7 run of the SuperGlue variant with faults,
//! sinks off. One build per run, about five protected calls per request
//! and one fault per 10 s of virtual time: the steady-state invocation
//! path (kernel invoke, stub tracking, services) with the campaign's
//! rebuild cost absent. A unit is one 1 s slice of virtual time (about
//! six 8192-step executor chunks).
//!
//! This loop mirrors `sg_webserver::run_fig7_rep` step for step (same
//! assembly, same site set-up, same fault loop), so a run of `n` slices
//! is the library's run at `duration = n × SLICE`; the traced run checks
//! that equality.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use composite::{
    ComponentId, Executor, InterfaceCall, KernelAccess, MetricsSnapshot, Priority, RunExit,
    SimTime, Value,
};
use sg_c3::{FtRuntime, RecoveryPolicy};
use sg_services::api::ClientEnd;
use sg_webserver::loadgen::web_cost_model;
use sg_webserver::pipeline::{ConnEnds, Housekeeper, Logger, Site, WebConnection};
use sg_webserver::{run_fig7_rep, Fig7Config, ThroughputSeries, WebVariant};
use superglue::{Testbed, Variant};

use crate::report::{Layers, Measured};
use crate::span::{self, span, Profile, UNIT};
use crate::system::traced_testbed;
use crate::wrap::{RuntimeCtx, Traced};
use crate::{alloc, report, stats};

/// Virtual time per timed unit.
pub const SLICE: SimTime = SimTime(1_000_000_000);

/// Virtual time at the end of slice `n`.
fn at(n: u64) -> SimTime {
    SimTime(SLICE.0 * n)
}

/// The benchmark's Fig 7 repetition: rep 1, so the seed sets the phase
/// of the fault schedule.
pub const REP: u64 = 1;

const VARIANT: WebVariant = WebVariant::SuperGlue { faults: true };

#[must_use]
pub fn config(seed: u64) -> Fig7Config {
    Fig7Config {
        seed,
        ..Fig7Config::default()
    }
}

/// What a run produced in simulation; equal across the library run and
/// this loop, untraced and traced.
#[derive(Debug, Clone, PartialEq)]
pub struct WebOutputs {
    pub total_requests: u64,
    pub buckets: Vec<u64>,
    pub faults_injected: u64,
    pub unrecovered: u64,
    pub metrics: MetricsSnapshot,
}

/// A Fig 7 system under way.
pub struct WebRun<C: RuntimeCtx> {
    pub ctx: C,
    ex: Executor<C>,
    series: Rc<RefCell<ThroughputSeries>>,
    rotation: [ComponentId; 6],
    next_fault: SimTime,
    faults: bool,
    fault_period: SimTime,
    pub faults_injected: u64,
}

impl<C: RuntimeCtx> WebRun<C> {
    /// Attach the load to a built testbed, as `run_fig7_rep` does.
    pub fn new(
        mut tb: Testbed,
        wrap: impl FnOnce(FtRuntime) -> C,
        cfg: &Fig7Config,
        faults: bool,
    ) -> Self {
        let series = Rc::new(RefCell::new(ThroughputSeries::per_second()));
        let setup_thread = tb.spawn_thread(tb.ids.app1, Priority(3));
        let site = Rc::new(setup_site(&mut tb, setup_thread, cfg, series.clone()));
        let ids = tb.ids;
        let mut ex: Executor<C> = Executor::new();
        let mut conns = Vec::new();
        for i in 0..cfg.connections {
            let t = tb.spawn_thread(ids.app1, Priority(5));
            let ends = ConnEnds {
                lock: ClientEnd::new(ids.app1, t, ids.lock),
                fs: ClientEnd::new(ids.app1, t, ids.fs),
                evt: ClientEnd::new(ids.app1, t, ids.evt),
                mm: ClientEnd::new(ids.app1, t, ids.mm),
                sched: ClientEnd::new(ids.app1, t, ids.sched),
            };
            conns.push((t, WebConnection::new(ends, site.clone(), None, i as u64)));
        }
        let tl = tb.spawn_thread(ids.app2, Priority(6));
        let logger = Logger::new(
            ClientEnd::new(ids.app2, tl, ids.evt),
            ClientEnd::new(ids.app2, tl, ids.fs),
            site.log_evt,
        );
        let th = tb.spawn_thread(ids.app1, Priority(6));
        let hk = Housekeeper::new(
            ClientEnd::new(ids.app1, th, ids.tmr),
            SimTime::from_secs(1).as_nanos() as i64,
        );
        for (t, c) in conns {
            C::attach(&mut ex, t, "sg-webserver.step", Box::new(c));
        }
        C::attach(&mut ex, tl, "sg-webserver.step", Box::new(logger));
        C::attach(&mut ex, th, "sg-webserver.step", Box::new(hk));
        Self {
            ctx: wrap(tb.runtime),
            ex,
            series,
            rotation: [ids.sched, ids.mm, ids.fs, ids.lock, ids.evt, ids.tmr],
            next_fault: cfg.fault_period + cfg.fault_phase(REP),
            faults,
            fault_period: cfg.fault_period,
            faults_injected: 0,
        }
    }

    /// Run the `run_fig7_rep` loop until virtual time reaches `until`.
    ///
    /// # Errors
    ///
    /// When the workloads stop (crash or deadlock) before then.
    pub fn advance_to(&mut self, until: SimTime) -> Result<(), String> {
        while self.ctx.kernel().now() < until {
            if self.faults && self.ctx.kernel().now() >= self.next_fault {
                let target = self.rotation[(self.faults_injected as usize) % self.rotation.len()];
                self.ctx.runtime_mut().inject_fault(target);
                self.faults_injected += 1;
                self.next_fault += self.fault_period;
            }
            let exit = span("composite.executor_run", || {
                self.ex.run(&mut self.ctx, 8_192)
            });
            if exit != RunExit::StepLimit {
                return Err(format!("webserver: workloads stopped ({exit:?})"));
            }
        }
        Ok(())
    }

    #[must_use]
    pub fn requests(&self) -> u64 {
        self.series.borrow().total()
    }

    #[must_use]
    pub fn outputs(&self) -> WebOutputs {
        WebOutputs {
            total_requests: self.requests(),
            buckets: self.series.borrow().buckets().to_vec(),
            faults_injected: self.faults_injected,
            unrecovered: self.ctx.runtime().stats().unrecovered,
            metrics: MetricsSnapshot::from_kernel(self.ctx.kernel()),
        }
    }

    /// Descriptors tracked across every stub of the system.
    #[must_use]
    pub fn tracked(&self, ids: &superglue::testbed::SystemIds) -> usize {
        let rt = self.ctx.runtime();
        [ids.app1, ids.app2]
            .iter()
            .flat_map(|&app| ids.targets().map(|(_, svc)| (app, svc)))
            .filter_map(|(app, svc)| rt.stub(app, svc))
            .map(|s| s.tracked_count())
            .sum()
    }
}

/// The site resources `run_fig7_rep` creates before the load starts.
fn setup_site(
    tb: &mut Testbed,
    t: composite::ThreadId,
    cfg: &Fig7Config,
    series: Rc<RefCell<ThroughputSeries>>,
) -> Site {
    let ids = tb.ids;
    let app = ids.app1;
    let mut call = |server, f: &str, args: &[Value]| {
        tb.runtime
            .interface_call(app, t, server, f, args)
            .unwrap_or_else(|e| panic!("site set-up {f}: {e}"))
    };
    let int = |v: Value| v.int().expect("descriptor id");
    let session_lock = int(call(ids.lock, "lock_alloc", &[Value::from(app.0)]));
    let log_evt = int(call(
        ids.evt,
        "evt_split",
        &[Value::from(app.0), Value::Int(0), Value::Int(1)],
    ));
    let pages = vec![
        ("/index.html".to_owned(), "index.html".to_owned()),
        ("/style.css".to_owned(), "style.css".to_owned()),
    ];
    for (_, file) in &pages {
        let split = [
            Value::from(app.0),
            Value::Int(0),
            Value::from(file.as_str()),
        ];
        let fd = int(call(ids.fs, "tsplit", &split));
        let body = [
            Value::from(app.0),
            Value::Int(fd),
            Value::from(vec![b'x'; 1024]),
        ];
        call(ids.fs, "twrite", &body);
        call(ids.fs, "trelease", &[Value::from(app.0), Value::Int(fd)]);
    }
    Site {
        session_lock,
        log_evt,
        pages,
        work: cfg.handler_work,
        mm_every: cfg.mm_every,
        log_every: cfg.log_every,
        series,
    }
}

fn library_testbed() -> Testbed {
    Testbed::build_with(
        Variant::SuperGlue,
        web_cost_model(VARIANT),
        RecoveryPolicy::OnDemand,
    )
    .expect("testbed builds")
}

/// The untraced, time-bounded run: set up (build, site, load, one
/// warm-up slice), then time slices until `seconds` have passed.
#[must_use]
pub fn measure(seed: u64, seconds: f64) -> Measured {
    let cfg = config(seed);
    let setup = || {
        let mut run = WebRun::new(library_testbed(), |rt| rt, &cfg, true);
        let warm = run.advance_to(at(1));
        (run, warm)
    };
    let t = Instant::now();
    let (mut run, warm) = setup();
    let mut m = Measured::new(vec![t.elapsed().as_secs_f64()]);
    if warm.is_err() {
        m.attempted = 1;
        m.failed = 1;
        return m;
    }
    let faults = |run: &WebRun<FtRuntime>| run.ctx.kernel().stats().total_faults();
    let start = Instant::now();
    let mut n = 0;
    while start.elapsed().as_secs_f64() < seconds {
        n += 1;
        let before = (run.requests(), run.faults_injected, faults(&run));
        let unrecovered = run.ctx.stats().unrecovered;
        let t = Instant::now();
        let r = run.advance_to(at(n + 1));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let injected = run.faults_injected - before.1;
        // Each slice: nothing unrecovered, and the kernel saw exactly
        // the faults the schedule injected.
        let ok = r.is_ok()
            && run.ctx.stats().unrecovered == unrecovered
            && faults(&run) - before.2 == injected;
        m.unit(ms, run.requests() - before.0, ok);
        if r.is_err() {
            break;
        }
        m.maybe_setup(start.elapsed().as_secs_f64(), seconds, || drop(setup()));
    }
    m
}

/// The traced pass over `slices` slices of virtual time. Runs the
/// library's `run_fig7_rep` and this loop untraced and traced
/// at the same configuration and checks their simulated outputs agree,
/// then a traced run of the bare (stub-less) variant whose
/// `interface_call` self time is the kernel shell's.
pub fn traced(seed: u64, slices: u64, out: &mut Layers) {
    let cfg = config(seed);
    let reference = run_fig7_rep(
        VARIANT,
        &Fig7Config {
            duration: at(slices),
            ..cfg
        },
        REP,
    );

    let mut plain = WebRun::new(library_testbed(), |rt| rt, &cfg, true);
    let mut plain_ms = Vec::new();
    let (a0, b0) = alloc::totals();
    for s in 1..=slices {
        let t = Instant::now();
        let r = plain.advance_to(at(s));
        plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.check(r.is_ok(), "webserver: untraced run stopped");
    }
    let (a1, b1) = alloc::totals();
    let plain_out = plain.outputs();
    out.check(
        plain_out.total_requests == reference.total_requests
            && plain_out.faults_injected == reference.faults_injected
            && plain_out.unrecovered == reference.unrecovered
            && plain_out.metrics == reference.metrics
            && plain_out.buckets == reference.series.buckets(),
        "webserver: benchmark loop differs from run_fig7_rep",
    );
    out.check(plain_out.unrecovered == 0, "webserver: unrecovered faults");

    let tb = traced_testbed(Variant::SuperGlue, web_cost_model(VARIANT));
    let ids = tb.ids;
    let mut run = WebRun::new(tb, Traced, &cfg, true);
    let (prof, tracked) = traced_slices(&mut run, slices, &ids, out);
    let traced_out = run.outputs();
    out.check(
        traced_out == plain_out,
        "webserver: traced run differs from untraced",
    );

    let units = traced_out.total_requests as f64;
    out.put(
        "superglue.tracked_descriptors",
        tracked as f64 / slices as f64,
        "count",
    );
    report::put_work_counts(out, &traced_out.metrics, units, a1 - a0, b1 - b0);
    report::put_profile(out, &prof, units, stats::median(&mut plain_ms));

    let bare_variant = WebVariant::Composite;
    let tb = traced_testbed(Variant::Bare, web_cost_model(bare_variant));
    let ids = tb.ids;
    let mut bare = WebRun::new(tb, Traced, &cfg, false);
    let (bare_prof, _) = traced_slices(&mut bare, slices, &ids, out);
    if let Some(a) = bare_prof.get("composite.interface_call") {
        out.put_pct("composite.invoke_self_ns_p50", a, 50, 1.0, "ns");
    }
}

/// Trace `slices` slices; returns the profile and the sum over slices
/// of the descriptors tracked at each slice's end.
fn traced_slices(
    run: &mut WebRun<Traced>,
    slices: u64,
    ids: &superglue::testbed::SystemIds,
    out: &mut Layers,
) -> (Profile, usize) {
    let mut prof = Profile::default();
    let mut tracked = 0;
    span::enable();
    for s in 1..=slices {
        let r = span(UNIT, || run.advance_to(at(s)));
        prof.absorb(&span::take());
        tracked += run.tracked(ids);
        out.check(r.is_ok(), "webserver: traced run stopped");
    }
    span::disable();
    (prof, tracked)
}
