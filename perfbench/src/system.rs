//! The traced run's systems, assembled from public parts so that every
//! service and stub can be handed over inside a span-recording wrapper.
//! Each function mirrors its library counterpart (`Testbed::build_with`,
//! `sg_pipeline::build_pipeline`) step for step; the traced run checks
//! that the simulated outputs of both agree.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use composite::{CostModel, Executor, Kernel, KernelAccess, Priority, Service, SimTime};
use sg_c3::{FtRuntime, RecoveryPolicy, RuntimeConfig};
use sg_pipeline::stages::{Generator, SinkLogger, Worker};
use sg_pipeline::{
    compile_chan, pipeline_cost_model, ChannelService, PipelineBed, PipelineConfig,
    PipelineVariant, CHAN_A, CHAN_B,
};
use sg_services::api::ClientEnd;
use sg_services::cbuf::CbufService;
use sg_services::event::EventService;
use sg_services::lock::LockService;
use sg_services::mm::MemoryManager;
use sg_services::ramfs::RamFs;
use sg_services::scheduler::Scheduler;
use sg_services::storage::StorageService;
use sg_services::timer::TimerService;
use superglue::testbed::SystemIds;
use superglue::{compile_all, CompiledStub, Testbed, Variant};

use crate::span::span;
use crate::wrap::{RuntimeCtx, TracedService, TracedStub};

fn add(k: &mut Kernel, name: &str, svc: Box<dyn Service>) -> composite::ComponentId {
    k.add_component(name, TracedService::boxed(svc))
}

/// [`Testbed::build_with`] (on-demand recovery) for the SuperGlue or
/// Bare variant, with every service and stub wrapped.
///
/// # Panics
///
/// For the C³ variant, or if the shipped IDL fails to compile.
#[must_use]
pub fn traced_testbed(variant: Variant, costs: CostModel) -> Testbed {
    span("superglue.testbed_build", || {
        let mut k = Kernel::with_costs(costs);
        let app1 = k.add_client_component("app1");
        let app2 = k.add_client_component("app2");
        let storage = add(&mut k, "storage", Box::new(StorageService::new()));
        let cbuf = add(&mut k, "cbuf", Box::new(CbufService::new()));
        let sched = add(&mut k, "sched", Box::new(Scheduler::new()));
        let mm = add(&mut k, "mm", Box::new(MemoryManager::new()));
        let fs = add(&mut k, "fs", Box::new(RamFs::new(storage, cbuf)));
        let lock = add(&mut k, "lock", Box::new(LockService::new()));
        let evt = add(&mut k, "evt", Box::new(EventService::new()));
        let tmr = add(&mut k, "tmr", Box::new(TimerService::new()));
        k.grant(fs, storage);
        k.grant(fs, cbuf);
        let ids = SystemIds {
            app1,
            app2,
            sched,
            mm,
            fs,
            lock,
            evt,
            tmr,
            storage,
            cbuf,
        };
        let config = RuntimeConfig {
            policy: RecoveryPolicy::OnDemand,
            storage: Some(storage),
            max_retries: 3,
            ..RuntimeConfig::default()
        };
        let mut runtime = FtRuntime::new(k, config);
        let services = [
            ("sched", sched),
            ("mm", mm),
            ("fs", fs),
            ("lock", lock),
            ("evt", evt),
            ("tmr", tmr),
        ];
        match variant {
            Variant::Bare => {
                for app in [app1, app2] {
                    for (_, svc) in services {
                        runtime.kernel_mut().grant(app, svc);
                    }
                }
            }
            Variant::SuperGlue => {
                let compiled =
                    span("superglue.compile_all", compile_all).expect("shipped IDL compiles");
                for app in [app1, app2] {
                    for (iface, svc) in services {
                        let spec = compiled
                            .get(iface)
                            .expect("all six interfaces compiled")
                            .stub_spec
                            .clone();
                        let stub = CompiledStub::new(Arc::new(spec));
                        runtime.install_stub(app, svc, Box::new(TracedStub(Box::new(stub))));
                    }
                }
            }
            Variant::C3 => panic!("the benchmark runs SuperGlue and Bare only"),
        }
        Testbed {
            runtime,
            ids,
            variant,
        }
    })
}

/// `sg_pipeline::build_pipeline` for the faulted SuperGlue variant, with
/// the storage and channel services and all four channel stubs wrapped.
#[must_use]
pub fn traced_pipeline(cfg: &PipelineConfig) -> PipelineBed {
    let variant = PipelineVariant::SuperGlue { faults: true };
    let mut k = Kernel::with_costs(pipeline_cost_model(variant));
    if cfg.trace {
        k.enable_tracing(composite::DEFAULT_TRACE_CAPACITY);
    }
    if cfg.series_window > SimTime::ZERO {
        k.enable_telemetry(cfg.series_window);
    }
    let gen = k.add_client_component("gen");
    let work = k.add_client_component("work");
    let log = k.add_client_component("log");
    let storage = add(&mut k, "storage", Box::new(StorageService::new()));
    let channel = || Box::new(ChannelService::new(storage, cfg.capacity, cfg.poison_limit));
    let chan_ab = add(&mut k, "chan_ab", channel());
    let chan_bc = add(&mut k, "chan_bc", channel());
    k.grant(chan_ab, storage);
    k.grant(chan_bc, storage);
    let config = RuntimeConfig {
        policy: RecoveryPolicy::OnDemand,
        storage: Some(storage),
        max_retries: 3,
        ..RuntimeConfig::default()
    };
    let mut runtime = FtRuntime::new(k, config);
    let spec = Arc::new(compile_chan().stub_spec.clone());
    for (client, server) in [
        (gen, chan_ab),
        (work, chan_ab),
        (work, chan_bc),
        (log, chan_bc),
    ] {
        let stub = CompiledStub::new(spec.clone());
        runtime.install_stub(client, server, Box::new(TracedStub(Box::new(stub))));
    }
    let tg = runtime.kernel_mut().create_thread(gen, Priority(5));
    let tw = runtime.kernel_mut().create_thread(work, Priority(5));
    let tl = runtime.kernel_mut().create_thread(log, Priority(5));
    PipelineBed {
        runtime,
        gen,
        work,
        log,
        storage,
        chan_ab,
        chan_bc,
        threads: [tg, tw, tl],
        output: Rc::new(RefCell::new(Vec::new())),
        faults: true,
    }
}

/// `PipelineBed::attach_stages` through [`RuntimeCtx::attach`], so the
/// traced context wraps each stage's steps in a span.
pub fn attach_stages<C: RuntimeCtx>(bed: &PipelineBed, ex: &mut Executor<C>, cfg: &PipelineConfig) {
    let [tg, tw, tl] = bed.threads;
    C::attach(
        ex,
        tg,
        "sg-pipeline.step",
        Box::new(Generator::new(
            ClientEnd::new(bed.gen, tg, bed.chan_ab),
            CHAN_A,
            cfg.jobs,
            cfg.poison_every,
        )),
    );
    C::attach(
        ex,
        tw,
        "sg-pipeline.step",
        Box::new(Worker::new(
            ClientEnd::new(bed.work, tw, bed.chan_ab),
            ClientEnd::new(bed.work, tw, bed.chan_bc),
            CHAN_A,
            CHAN_B,
            cfg.work,
        )),
    );
    C::attach(
        ex,
        tl,
        "sg-pipeline.step",
        Box::new(SinkLogger::new(
            ClientEnd::new(bed.log, tl, bed.chan_bc),
            CHAN_B,
            Some(cfg.expected_delivered()),
            bed.output.clone(),
        )),
    );
}
