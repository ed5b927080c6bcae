//! Flight-recorder integration tests.
//!
//! Three properties the kernel flight recorder must keep:
//!
//! 1. **Counters == trace.** Every mechanism firing goes through the
//!    single `Kernel::record_mechanism` choke point, which increments
//!    the `MetricsRegistry` *and* emits the matching trace event — so
//!    for every mechanism, the counter total and the sum of traced `n`
//!    values must agree exactly.
//! 2. **Latency conservation.** For every recovery episode, the timed
//!    spans recorded on the faulted component must re-sum to exactly
//!    the episode's kernel-attributed latency.
//! 3. **Golden episode.** The JSON-lines dump of one fixed-seed
//!    recovery episode is pinned as a snapshot
//!    (`tests/golden/flight_recorder_episode.jsonl`, and its Chrome
//!    rendering `flight_recorder_episode.chrome.json`); regenerate an
//!    intentional change with
//!    `UPDATE_GOLDEN=1 cargo test -p sg-bench --test flight_recorder`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use composite::{
    shards_to_chrome, shards_to_jsonl, ComponentId, CostModel, Epoch, InterfaceCall as _, Kernel,
    KernelAccess as _, Mechanism, MetricsSnapshot, Priority, Service, ServiceCtx, ServiceError,
    SimTime, ThreadId, TraceEvent, TraceEventKind, TraceShard, Value, MECHANISMS,
};
use sg_bench::{rig, Rig, SERVICES};
use sg_webserver::{run_fig7_rep, Fig7Config, WebVariant};
use superglue::testbed::Variant;

const TEST_CAPACITY: usize = 1 << 20;

/// Fault and recover a few services with tracing on; return the final
/// counter snapshot and the drained trace.
fn traced_scenario(variant: Variant) -> (MetricsSnapshot, TraceShard) {
    let mut r: Rig = rig(variant);
    r.tb.runtime.kernel_mut().enable_tracing(TEST_CAPACITY);
    for iface in SERVICES {
        r.run_iteration(iface, 0);
    }
    for iface in ["mm", "evt", "fs", "lock"] {
        let (c, t, svc, f, a) = r.setup_recovery_victim(iface);
        r.tb.runtime.inject_fault(svc);
        r.tb.runtime
            .interface_call(c, t, svc, f, &a)
            .expect("victim recovers");
        r.tb.runtime.recover_now(svc, t).expect("quiesce sweep");
    }
    let snap = MetricsSnapshot::from_kernel(r.tb.runtime.kernel());
    let shard = r.tb.runtime.kernel_mut().take_trace("test/scenario");
    (snap, shard)
}

/// Sum of `MechanismFired` increments per mechanism in a shard.
fn traced_mechanism_totals(shard: &TraceShard) -> BTreeMap<Mechanism, u64> {
    let mut totals = BTreeMap::new();
    for ev in &shard.events {
        if let TraceEventKind::MechanismFired { mech, n } = &ev.kind {
            *totals.entry(*mech).or_insert(0) += n;
        }
    }
    totals
}

#[test]
fn mechanism_counters_equal_trace_event_sums() {
    for variant in [Variant::C3, Variant::SuperGlue] {
        let (snap, shard) = traced_scenario(variant);
        assert_eq!(shard.dropped, 0, "{variant:?}: test ring must not drop");
        assert_eq!(shard.dropped_recovery, 0, "{variant:?}");
        let traced = traced_mechanism_totals(&shard);
        for m in MECHANISMS {
            assert_eq!(
                snap.mechanism_total(m),
                traced.get(&m).copied().unwrap_or(0),
                "{variant:?}: {} counter disagrees with the trace",
                m.name()
            );
        }
        // The scenario is chosen to actually fire the core mechanisms —
        // agreement over all-zeros would prove nothing.
        for m in [Mechanism::R0, Mechanism::D0, Mechanism::G0, Mechanism::U0] {
            assert!(
                snap.mechanism_total(m) > 0,
                "{variant:?}: scenario never fired {}",
                m.name()
            );
        }
    }
}

/// Re-derive every episode's attributed latency from its timed events
/// and compare against the kernel's `episode_end` record.
fn check_conservation(shard: &TraceShard) -> usize {
    assert_eq!(
        shard.dropped_recovery, 0,
        "recovery events dropped; conservation unverifiable"
    );
    let mut open: BTreeMap<u32, SimTime> = BTreeMap::new();
    let mut episodes = 0;
    for ev in &shard.events {
        match &ev.kind {
            TraceEventKind::FaultInjected { .. } => {
                open.insert(ev.component.0, SimTime::ZERO);
            }
            TraceEventKind::EpisodeEnd { attributed } => {
                let resummed = open
                    .remove(&ev.component.0)
                    .expect("episode_end without fault");
                assert_eq!(
                    resummed, *attributed,
                    "episode on comp {} violates latency conservation",
                    ev.component.0
                );
                episodes += 1;
            }
            _ => {
                if ev.dur > SimTime::ZERO {
                    if let Some(acc) = open.get_mut(&ev.component.0) {
                        *acc += ev.dur;
                    }
                }
            }
        }
    }
    assert!(open.is_empty(), "take_trace must close every open episode");
    episodes
}

#[test]
fn episode_latency_attribution_is_conserved() {
    for variant in [Variant::C3, Variant::SuperGlue] {
        let (_, shard) = traced_scenario(variant);
        let episodes = check_conservation(&shard);
        assert!(episodes >= 4, "{variant:?}: one episode per injected fault");
    }
}

#[test]
fn fig7_trace_conserves_attribution_and_survives_ambient_flood() {
    let cfg = Fig7Config {
        duration: SimTime::from_secs(3),
        fault_period: SimTime::from_secs(1),
        seed: 0xF11_6487,
        trace: true,
        ..Fig7Config::default()
    };
    let res = run_fig7_rep(WebVariant::SuperGlue { faults: true }, &cfg, 0);
    let shard = res.trace.expect("tracing was enabled");
    assert!(res.faults_injected > 0, "faults must occur in the window");
    // The throughput workload floods the ambient ring; the recovery
    // record must survive regardless.
    let episodes = check_conservation(&shard);
    assert_eq!(episodes as u64, res.faults_injected);
}

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(file)
}

/// One fixed recovery episode — the evt service recovered under
/// SuperGlue, the richest mechanism mix (R0+G0+U0 via the foreign
/// creator path).
fn golden_episode_shard() -> TraceShard {
    let mut r: Rig = rig(Variant::SuperGlue);
    r.tb.runtime.kernel_mut().enable_tracing(TEST_CAPACITY);
    let (c, t, svc, f, a) = r.setup_recovery_victim("evt");
    r.tb.runtime.inject_fault(svc);
    r.tb.runtime
        .interface_call(c, t, svc, f, &a)
        .expect("recovery succeeds");
    let mut shard = TraceShard::labeled("golden/evt/superglue");
    shard.absorb(r.tb.runtime.kernel_mut().take_trace(&shard.label.clone()));
    shard
}

/// Compare `actual` with the golden file `file`, or rewrite the file
/// when `UPDATE_GOLDEN` is set.
fn check_golden(file: &str, actual: &str) {
    let path = golden_path(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "fixed-seed recovery episode drifted from the golden snapshot {file}; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// The golden episode's JSON-lines dump, pinned byte-for-byte.
#[test]
fn golden_episode_snapshot() {
    let shard = golden_episode_shard();
    check_golden(
        "flight_recorder_episode.jsonl",
        &shards_to_jsonl(std::slice::from_ref(&shard)),
    );
}

/// The same episode's Chrome `trace_event` dump, pinned byte-for-byte.
#[test]
fn golden_episode_chrome_snapshot() {
    let shard = golden_episode_shard();
    check_golden(
        "flight_recorder_episode.chrome.json",
        &shards_to_chrome(std::slice::from_ref(&shard)),
    );
}

// ---------------------------------------------------------------------
// Ring edge cases: tier overflow accounting and shard absorption
// ---------------------------------------------------------------------

/// Trivial service for bare-kernel ring tests; the calls that matter
/// never reach it (faulty admission rejects before dispatch).
#[derive(Debug, Default)]
struct Echo;

impl Service for Echo {
    fn interface(&self) -> &'static str {
        "echo"
    }
    fn call(
        &mut self,
        _ctx: &mut ServiceCtx<'_>,
        fname: &str,
        _args: &[Value],
    ) -> Result<Value, ServiceError> {
        match fname {
            "ping" => Ok(Value::Unit),
            other => Err(ServiceError::NoSuchFunction(other.to_owned())),
        }
    }
    fn reset(&mut self) {}
}

fn tiny_traced_kernel(capacity: usize) -> (Kernel, ComponentId, ComponentId, ThreadId) {
    let mut k = Kernel::with_costs(CostModel::free());
    k.enable_tracing(capacity);
    let client = k.add_client_component("app");
    let svc = k.add_component("echo", Box::new(Echo));
    k.grant(client, svc);
    let t = k.create_thread(client, Priority(10));
    (k, client, svc, t)
}

/// Ambient traffic flooding a tiny ring while a recovery episode is
/// open must evict only ambient events: the episode's fault, reboot,
/// and episode-end records all survive, `dropped` counts the evictions
/// exactly, and `dropped_recovery` stays zero — so latency conservation
/// is still verifiable from the shard.
#[test]
fn ambient_overflow_during_open_episode_preserves_recovery_record() {
    let (mut k, client, svc, t) = tiny_traced_kernel(8);
    k.fault(svc);
    // Each rejected invocation of the faulty service emits an ambient
    // InvokeEnter/InvokeExit pair: 50 calls -> 100 ambient events into
    // a ring that retains 8 per tier.
    for _ in 0..50 {
        let err = k.invoke(client, t, svc, "ping", &[]);
        assert!(matches!(err, Err(composite::CallError::Fault { .. })));
    }
    k.micro_reboot(svc).expect("echo reboots");
    let shard = k.take_trace("edge/ambient-flood");

    assert_eq!(shard.dropped, 92, "100 ambient events, 8 retained");
    assert_eq!(
        shard.dropped_recovery, 0,
        "ambient flood must never evict recovery events"
    );
    let ambient_retained = shard
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceEventKind::InvokeEnter { .. } | TraceEventKind::InvokeExit { .. }
            )
        })
        .count();
    assert_eq!(ambient_retained, 8);
    for kind in ["fault", "reboot", "episode_end"] {
        assert_eq!(
            shard
                .events
                .iter()
                .filter(|e| e.kind.name() == kind)
                .count(),
            1,
            "exactly one {kind} must survive the flood"
        );
    }
    assert_eq!(check_conservation(&shard), 1);
}

/// Recovery-tier overflow is accounted separately from ambient drops:
/// a reboot storm against a tiny ring evicts old recovery events into
/// `dropped_recovery`, leaves `dropped` untouched, and retains the most
/// recent recovery events in emission order.
#[test]
fn recovery_tier_overflow_counts_into_dropped_recovery() {
    let (mut k, _client, svc, _t) = tiny_traced_kernel(4);
    // Ten fault+reboot cycles. Per cycle: FaultInjected + Reboot; each
    // next top-level fault closes the previous episode (EpisodeEnd),
    // and take_trace closes the last -> 10 + 10 + 10 = 30 recovery
    // events through a tier retaining 4.
    for _ in 0..10 {
        k.fault(svc);
        k.micro_reboot(svc).expect("echo reboots");
    }
    let shard = k.take_trace("edge/reboot-storm");

    assert_eq!(shard.dropped_recovery, 26, "30 recovery events, 4 retained");
    assert_eq!(shard.dropped, 0, "no ambient traffic occurred");
    assert_eq!(shard.events.len(), 4);
    let kinds: Vec<&str> = shard.events.iter().map(|e| e.kind.name()).collect();
    assert_eq!(
        kinds,
        ["episode_end", "fault", "reboot", "episode_end"],
        "the newest recovery events survive, in emission order"
    );
}

fn instant(span: u64, parent: Option<u64>, component: u32, kind: TraceEventKind) -> TraceEvent {
    TraceEvent {
        span,
        parent,
        time: SimTime::ZERO,
        dur: SimTime::ZERO,
        thread: ThreadId(1),
        component: ComponentId(component),
        epoch: Epoch::default(),
        kind,
    }
}

/// `TraceShard::absorb` with empty shards on either side: absorbing an
/// empty shard is a no-op (except for additive drop counters), an empty
/// shard absorbing a populated one takes its events at offset zero and
/// adopts its name table, and an existing name table is never replaced.
#[test]
fn absorb_handles_empty_shards() {
    let populated = || {
        let mut s = TraceShard::labeled("donor");
        s.names = vec!["booter".to_owned(), "echo".to_owned()];
        s.events = vec![
            instant(0, None, 1, TraceEventKind::FaultInjected { depth: 0 }),
            instant(1, Some(0), 1, TraceEventKind::Reboot),
        ];
        s.span_count = 2;
        s.dropped = 3;
        s.dropped_recovery = 1;
        s
    };

    // Empty absorbs empty: still empty.
    let mut a = TraceShard::labeled("empty");
    a.absorb(TraceShard::default());
    assert!(a.events.is_empty() && a.names.is_empty());
    assert_eq!((a.dropped, a.dropped_recovery, a.span_count), (0, 0, 0));

    // Populated absorbs empty: events and names untouched, label kept.
    let mut b = populated();
    b.absorb(TraceShard::labeled("empty"));
    assert_eq!(b.label, "donor");
    assert_eq!(b.events, populated().events);
    assert_eq!(b.names, populated().names);
    assert_eq!((b.dropped, b.dropped_recovery, b.span_count), (3, 1, 2));

    // Empty absorbs populated: events arrive at offset zero (span ids
    // unchanged), names adopted, counters copied.
    let mut c = TraceShard::labeled("merged");
    c.absorb(populated());
    assert_eq!(c.label, "merged");
    assert_eq!(c.events, populated().events);
    assert_eq!(c.names, populated().names);
    assert_eq!((c.dropped, c.dropped_recovery, c.span_count), (3, 1, 2));

    // Empty-but-named absorbs populated: the existing name table wins.
    let mut d = TraceShard::labeled("named");
    d.names = vec!["other".to_owned()];
    d.absorb(populated());
    assert_eq!(d.names, vec!["other".to_owned()]);

    // Populated absorbs populated: spans renumber past span_count and
    // parents follow; drop counters add.
    let mut e = populated();
    e.absorb(populated());
    assert_eq!(e.span_count, 4);
    assert_eq!(e.events.len(), 4);
    assert_eq!(e.events[2].span, 2);
    assert_eq!(e.events[3].span, 3);
    assert_eq!(e.events[3].parent, Some(2));
    assert_eq!((e.dropped, e.dropped_recovery), (6, 2));
}
