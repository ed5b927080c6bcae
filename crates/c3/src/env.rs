//! The environment handed to interface stubs, and recovery statistics.

use std::collections::BTreeMap;

use composite::{
    CallError, ComponentId, EdgeMap, Kernel, Mechanism, SimTime, ThreadId, TraceEventKind, Value,
};

use crate::stub::InterfaceStub;

/// Counters describing recovery activity, consumed by tests and by the
/// benchmark harnesses (Fig 6(b), Table II).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Faults handled (micro-reboot sequences initiated).
    pub faults_handled: u64,
    /// Descriptors individually recovered (R0 walks completed).
    pub descriptors_recovered: u64,
    /// Interface functions replayed during recovery walks.
    pub walk_steps_replayed: u64,
    /// Recoveries deferred because the descriptor's state was
    /// thread-affine and another thread must complete it.
    pub deferred_completions: u64,
    /// Storage-component round trips (G0 lookups + G1 fetches).
    pub storage_roundtrips: u64,
    /// Upcalls into creator components (U0).
    pub upcalls: u64,
    /// Eagerly woken threads at fault time (T0).
    pub eager_wakeups: u64,
    /// Calls that exhausted their retry budget and surfaced a fault.
    pub unrecovered: u64,
    /// Invalid state-machine branches attempted (fault *detection*,
    /// §III-B).
    pub invalid_transitions: u64,
    /// Child recovery episodes opened because a fault landed while a
    /// replay walk or eager recovery was already in flight.
    pub nested_recoveries: u64,
    /// Total virtual time spent in recovery, per server component.
    pub recovery_time: BTreeMap<u32, SimTime>,
}

impl RecoveryStats {
    /// Fresh, all-zero statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total virtual time spent recovering `server`.
    #[must_use]
    pub fn recovery_time_of(&self, server: ComponentId) -> SimTime {
        self.recovery_time
            .get(&server.0)
            .copied()
            .unwrap_or(SimTime::ZERO)
    }

    pub(crate) fn add_recovery_time(&mut self, server: ComponentId, t: SimTime) {
        let e = self.recovery_time.entry(server.0).or_insert(SimTime::ZERO);
        *e += t;
    }
}

/// Everything a stub may touch while handling a call or recovering a
/// descriptor: the kernel, the other edges' stubs (for **U0** upcalls),
/// the storage component (for **G0**/**G1**), and the stats sink.
///
/// The currently executing stub is checked out of `stubs`, so the map
/// only contains *other* edges.
pub struct StubEnv<'a> {
    /// The kernel.
    pub kernel: &'a mut Kernel,
    /// All other edges' stubs, keyed by (client, server).
    pub stubs: &'a mut EdgeMap<Box<dyn InterfaceStub>>,
    /// Recovery counters.
    pub stats: &'a mut RecoveryStats,
    /// The client component of the executing edge.
    pub client: ComponentId,
    /// The thread driving the call.
    pub thread: ThreadId,
    /// The server component of the executing edge.
    pub server: ComponentId,
    /// The storage component, when configured.
    pub storage: Option<ComponentId>,
    /// Remaining fault-handling budget for this call (bounds reboot
    /// loops when a component faults repeatedly mid-recovery).
    pub retries_left: u32,
}

impl std::fmt::Debug for StubEnv<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StubEnv")
            .field("client", &self.client)
            .field("thread", &self.thread)
            .field("server", &self.server)
            .field("storage", &self.storage)
            .field("retries_left", &self.retries_left)
            .finish()
    }
}

impl StubEnv<'_> {
    /// Raw kernel invocation of the edge's server on behalf of the edge's
    /// client (used for both normal calls and replayed walk steps).
    ///
    /// # Errors
    ///
    /// As for [`Kernel::invoke`].
    pub fn invoke(&mut self, fname: &str, args: &[Value]) -> Result<Value, CallError> {
        self.kernel
            .invoke(self.client, self.thread, self.server, fname, args)
    }

    /// Replay one walk step: a raw invocation charged as recovery work.
    ///
    /// # Errors
    ///
    /// As for [`Kernel::invoke`].
    pub fn replay(&mut self, fname: &str, args: &[Value]) -> Result<Value, CallError> {
        self.replay_for(fname, args, None, Mechanism::R0)
    }

    /// Replay one walk step rebuilding descriptor `desc` (when known)
    /// as part of mechanism `mech` (R0 normal walk, T1 deferred-
    /// completion substitution). Emits a timed `walk_step` trace span
    /// covering the recovery-step charge plus the replayed invocation.
    ///
    /// # Errors
    ///
    /// As for [`Kernel::invoke`].
    pub fn replay_for(
        &mut self,
        fname: &str,
        args: &[Value],
        desc: Option<i64>,
        mech: Mechanism,
    ) -> Result<Value, CallError> {
        let scope = self.kernel.trace_open(self.server);
        let cost = self.kernel.costs().recovery_step;
        // Bracket the step as in-flight recovery so a fault injected
        // here (correlated fault) opens a *child* episode instead of
        // clobbering the parent's accounting.
        self.kernel.begin_recovery(self.server);
        self.kernel.charge(cost);
        self.stats.add_recovery_time(self.server, cost);
        self.stats.walk_steps_replayed += 1;
        let r = self.invoke(fname, args);
        self.kernel.end_recovery(self.server);
        self.kernel.trace_close(
            scope,
            self.server,
            self.thread,
            TraceEventKind::WalkStep {
                function: fname,
                desc,
                mech,
            },
        );
        r
    }

    /// Count one firing of mechanism `m` on the executing edge's server
    /// through the kernel's `record_mechanism` choke point (counter +
    /// trace event in lockstep).
    pub fn note_mechanism(&mut self, m: Mechanism) {
        self.kernel
            .record_mechanism(self.server, m, 1, self.thread, SimTime::ZERO);
    }

    /// One descriptor fully rebuilt through its recovery walk (**R0**).
    pub fn note_descriptor_recovered(&mut self) {
        self.stats.descriptors_recovered += 1;
        self.note_mechanism(Mechanism::R0);
    }

    /// A recovery walk deferred at a thread-affine step (**T1**,
    /// on-demand completion by the owning thread).
    pub fn note_deferred_completion(&mut self) {
        self.stats.deferred_completions += 1;
        self.note_mechanism(Mechanism::T1);
    }

    /// A parent descriptor recovered before its dependent child (**D1**).
    pub fn note_parent_first(&mut self) {
        self.note_mechanism(Mechanism::D1);
    }

    /// `n` descriptors dropped from tracking by close semantics (**D0**,
    /// the descriptor itself plus any recursively revoked subtree).
    pub fn note_teardown(&mut self, n: u64) {
        self.kernel
            .record_mechanism(self.server, Mechanism::D0, n, self.thread, SimTime::ZERO);
    }

    /// If the server is (still) faulty, micro-reboot it and mark every
    /// edge of that server faulty — steps (2)–(4) of §III-D. Returns
    /// whether a reboot happened.
    ///
    /// # Errors
    ///
    /// [`CallError::Fault`] when the retry budget is exhausted.
    pub fn ensure_rebooted(&mut self) -> Result<bool, CallError> {
        if !self.kernel.is_faulty(self.server) {
            return Ok(false);
        }
        if self.kernel.is_degraded(self.server) {
            // Reboot-storm escalation marked the server degraded: fail
            // fast instead of burning the retry budget on reboots the
            // booter will supersede with a cold restart.
            return Err(CallError::Degraded {
                component: self.server,
            });
        }
        if self.retries_left == 0 {
            self.stats.unrecovered += 1;
            return Err(CallError::Fault {
                component: self.server,
            });
        }
        self.retries_left -= 1;

        // T0 wakeups happened when the fault was raised: the kernel
        // releases threads blocked in the failed server, counts them, and
        // [`crate::FtRuntime::inject_fault`] accumulates the stat.

        let before = self.kernel.now();
        self.kernel.begin_recovery(self.server);
        let rebooted = self.kernel.micro_reboot(self.server);
        self.kernel.end_recovery(self.server);
        rebooted.map_err(|_| CallError::Fault {
            component: self.server,
        })?;
        self.stats.faults_handled += 1;
        let took = self.kernel.now().saturating_sub(before);
        self.stats.add_recovery_time(self.server, took);
        self.kernel.record_recovery_latency(self.server, took);

        // Propagate the inter-component exception to every client edge of
        // this server (including edges currently checked out — the
        // runtime marks the active one itself).
        self.stubs
            .for_server_mut(self.server, |stub| stub.mark_faulty());
        Ok(true)
    }

    /// **G0** helper: look up the creator component of a global
    /// descriptor in the storage component.
    ///
    /// # Errors
    ///
    /// [`CallError`] when storage is unconfigured or has no record.
    pub fn storage_lookup_creator(
        &mut self,
        iface: &str,
        desc: i64,
    ) -> Result<ComponentId, CallError> {
        let storage = self
            .storage
            .ok_or(CallError::Service(composite::ServiceError::NotFound))?;
        let cost = self.kernel.costs().storage_round_trip;
        self.kernel.charge(cost);
        self.stats.add_recovery_time(self.server, cost);
        self.stats.storage_roundtrips += 1;
        self.kernel
            .record_mechanism(self.server, Mechanism::G0, 1, self.thread, cost);
        let v = self.kernel.invoke(
            self.client,
            self.thread,
            storage,
            "st_lookup_creator",
            &[Value::from(iface), Value::Int(desc)],
        )?;
        Ok(ComponentId(v.int().unwrap_or(-1) as u32))
    }

    /// **G0** helper: record a freshly created global descriptor in the
    /// storage component (performed by the server-side stub logic on
    /// every create of a global interface).
    ///
    /// # Errors
    ///
    /// [`CallError`] when storage is unconfigured.
    pub fn storage_record(
        &mut self,
        iface: &str,
        desc: i64,
        creator: ComponentId,
        parent: i64,
        aux: i64,
    ) -> Result<(), CallError> {
        let storage = self
            .storage
            .ok_or(CallError::Service(composite::ServiceError::NotFound))?;
        let cost = self.kernel.costs().storage_round_trip;
        self.kernel.charge(cost);
        self.stats.storage_roundtrips += 1;
        self.kernel
            .record_mechanism(self.server, Mechanism::G0, 1, self.thread, cost);
        self.kernel.invoke(
            self.client,
            self.thread,
            storage,
            "st_record",
            &[
                Value::from(iface),
                Value::Int(desc),
                Value::from(creator.0),
                Value::Int(parent),
                Value::Int(aux),
            ],
        )?;
        Ok(())
    }

    /// **U0** helper: upcall into the creator component's edge stub to
    /// rebuild a global descriptor under its original id.
    ///
    /// # Errors
    ///
    /// [`CallError`] when the creator has no stub for this server or its
    /// recovery fails.
    pub fn upcall_recover(&mut self, creator: ComponentId, desc: i64) -> Result<(), CallError> {
        let Some(mut stub) = self.stubs.take(creator, self.server) else {
            return Err(CallError::Service(composite::ServiceError::NotFound));
        };
        // U0 is counted (and traced) inside the kernel choke point; the
        // returned span scopes the creator-side recovery under it.
        let u0_span = self.kernel.count_upcall(self.server, self.thread);
        self.stats.upcalls += 1;
        self.kernel.trace_push_scope(u0_span);
        self.kernel.begin_recovery(self.server);
        let mut inner = StubEnv {
            kernel: self.kernel,
            stubs: self.stubs,
            stats: self.stats,
            client: creator,
            thread: self.thread,
            server: self.server,
            storage: self.storage,
            retries_left: self.retries_left,
        };
        let r = stub.recover_descriptor(&mut inner, desc);
        self.stubs.insert(creator, self.server, stub);
        self.kernel.end_recovery(self.server);
        self.kernel.trace_pop_scope(u0_span);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate_recovery_time() {
        let mut s = RecoveryStats::new();
        s.add_recovery_time(ComponentId(3), SimTime(100));
        s.add_recovery_time(ComponentId(3), SimTime(50));
        assert_eq!(s.recovery_time_of(ComponentId(3)), SimTime(150));
        assert_eq!(s.recovery_time_of(ComponentId(9)), SimTime::ZERO);
    }
}
