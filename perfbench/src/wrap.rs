//! Span-recording wrappers around each layer's public extension points.
//!
//! The program itself is not instrumented: the traced run assembles
//! the system from public parts and hands these wrappers to the same
//! APIs the library uses (`Kernel::add_component`,
//! `FtRuntime::install_stub`, `Executor::attach`, and the executor's
//! context type), so every span boundary is a call the benchmark's own
//! code makes into a layer.

use composite::{
    CallError, ComponentId, Executor, InterfaceCall, Kernel, KernelAccess, Service, ServiceCtx,
    ServiceError, StepResult, ThreadId, Value, Workload,
};
use sg_c3::env::StubEnv;
use sg_c3::{FtRuntime, InterfaceStub};

use crate::span::{relabel_last, span};

/// An executor context that reaches a fault-tolerant runtime: the plain
/// [`FtRuntime`] on the untraced path, [`Traced`] on the traced one.
pub trait RuntimeCtx: InterfaceCall + KernelAccess + 'static {
    fn runtime(&self) -> &FtRuntime;
    fn runtime_mut(&mut self) -> &mut FtRuntime;
    /// Attach `w` to `thread`, wrapped in a step span named `name` when
    /// this context is traced.
    fn attach(
        ex: &mut Executor<Self>,
        thread: ThreadId,
        name: &'static str,
        w: Box<dyn Workload<Self>>,
    ) where
        Self: Sized;
}

impl RuntimeCtx for FtRuntime {
    fn runtime(&self) -> &FtRuntime {
        self
    }
    fn runtime_mut(&mut self) -> &mut FtRuntime {
        self
    }
    fn attach(
        ex: &mut Executor<Self>,
        thread: ThreadId,
        _name: &'static str,
        w: Box<dyn Workload<Self>>,
    ) {
        ex.attach(thread, w);
    }
}

/// The traced executor context: every `interface_call` a workload makes
/// is a `composite.interface_call` span.
#[derive(Debug)]
pub struct Traced(pub FtRuntime);

impl KernelAccess for Traced {
    fn kernel(&self) -> &Kernel {
        self.0.kernel()
    }
    fn kernel_mut(&mut self) -> &mut Kernel {
        self.0.kernel_mut()
    }
}

impl InterfaceCall for Traced {
    fn interface_call(
        &mut self,
        client: ComponentId,
        thread: ThreadId,
        server: ComponentId,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        span("composite.interface_call", || {
            self.0.interface_call(client, thread, server, fname, args)
        })
    }
}

impl RuntimeCtx for Traced {
    fn runtime(&self) -> &FtRuntime {
        &self.0
    }
    fn runtime_mut(&mut self) -> &mut FtRuntime {
        &mut self.0
    }
    fn attach(
        ex: &mut Executor<Self>,
        thread: ThreadId,
        name: &'static str,
        w: Box<dyn Workload<Self>>,
    ) {
        ex.attach(thread, Box::new(TracedWorkload { name, inner: w }));
    }
}

/// `Workload::step` as a span.
struct TracedWorkload<Ctx> {
    name: &'static str,
    inner: Box<dyn Workload<Ctx>>,
}

impl<Ctx> Workload<Ctx> for TracedWorkload<Ctx> {
    fn step(&mut self, ctx: &mut Ctx, thread: ThreadId) -> StepResult {
        span(self.name, || self.inner.step(ctx, thread))
    }
}

/// `Service::call`, `reset` and `post_reboot` as spans. Calls are named
/// per service so busy shares can be told apart.
#[derive(Debug)]
pub struct TracedService {
    call_span: &'static str,
    inner: Box<dyn Service>,
}

impl TracedService {
    #[must_use]
    pub fn boxed(inner: Box<dyn Service>) -> Box<dyn Service> {
        let call_span = service_span(inner.interface());
        Box::new(Self { call_span, inner })
    }
}

/// The span name of one service's calls.
#[must_use]
pub fn service_span(iface: &str) -> &'static str {
    match iface {
        "sched" => "sg-services.call.sched",
        "mm" => "sg-services.call.mm",
        "fs" => "sg-services.call.fs",
        "lock" => "sg-services.call.lock",
        "evt" => "sg-services.call.evt",
        "tmr" => "sg-services.call.tmr",
        "storage" => "sg-services.call.storage",
        "cbuf" => "sg-services.call.cbuf",
        "chan" => "sg-services.call.chan",
        _ => "sg-services.call.other",
    }
}

impl Service for TracedService {
    fn interface(&self) -> &'static str {
        self.inner.interface()
    }

    fn call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, ServiceError> {
        span(self.call_span, || self.inner.call(ctx, fname, args))
    }

    fn reset(&mut self) {
        span("sg-services.reset", || self.inner.reset());
    }

    fn post_reboot(&mut self, ctx: &mut ServiceCtx<'_>) {
        span("sg-services.post_reboot", || self.inner.post_reboot(ctx));
    }
}

/// `InterfaceStub::call`, `recover_descriptor` and `recover_all` as
/// spans.
#[derive(Debug)]
pub struct TracedStub(pub Box<dyn InterfaceStub>);

impl InterfaceStub for TracedStub {
    fn interface(&self) -> &'static str {
        self.0.interface()
    }

    fn call(
        &mut self,
        env: &mut StubEnv<'_>,
        fname: &str,
        args: &[Value],
    ) -> Result<Value, CallError> {
        let before = (env.stats.faults_handled, env.stats.descriptors_recovered);
        let out = span("superglue.stub_call", || self.0.call(env, fname, args));
        if (env.stats.faults_handled, env.stats.descriptors_recovered) != before {
            // The call handled a fault or rebuilt descriptors on its
            // way: on-demand recovery runs inside `call`, so this is
            // where its cost shows.
            relabel_last("superglue.stub_call_recovering");
        }
        out
    }

    fn recover_descriptor(&mut self, env: &mut StubEnv<'_>, desc: i64) -> Result<(), CallError> {
        span("superglue.stub_recover_descriptor", || {
            self.0.recover_descriptor(env, desc)
        })
    }

    fn mark_faulty(&mut self) {
        self.0.mark_faulty();
    }

    fn recover_all(&mut self, env: &mut StubEnv<'_>) -> Result<(), CallError> {
        span("superglue.stub_recover_all", || self.0.recover_all(env))
    }

    fn tracked_count(&self) -> usize {
        self.0.tracked_count()
    }

    fn faulty_count(&self) -> usize {
        self.0.faulty_count()
    }
}
