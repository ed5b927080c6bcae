//! Correlated-fault hardening tests: nested recovery episodes, watchdog
//! hang detection, reboot-storm escalation with graceful degradation,
//! and the Table II-B campaign modes built on them.
//!
//! The golden nested-episode fixture
//! (`tests/golden/nested_episode.jsonl`) pins one fixed-seed correlated
//! recovery byte-for-byte; regenerate an intentional change with
//! `UPDATE_GOLDEN=1 cargo test -p sg-bench --test correlated`, which
//! also rewrites the correlated campaign's `--metrics` golden
//! (`tests/golden/table2_correlated_metrics.jsonl`).

use std::collections::BTreeMap;
use std::path::PathBuf;

use composite::{
    shards_to_jsonl, CallError, CostModel, EscalationPolicy, InterfaceCall as _, Kernel,
    KernelAccess as _, Priority, Service, ServiceCtx, ServiceError, SimTime, TraceEventKind,
    TraceShard, Value, MAX_EPISODE_DEPTH,
};
use sg_bench::{rig, SERVICES};
use sg_swifi::{
    run_shard, try_run_campaign_parallel, CampaignConfig, CampaignMode, CampaignResult, ConfigError,
};
use superglue::testbed::Variant;

const TEST_CAPACITY: usize = 1 << 20;

// ---------------------------------------------------------------------
// Config validation (the silent-zero bugfix)
// ---------------------------------------------------------------------

#[test]
fn config_validation_rejects_empty_campaigns() {
    let ok = CampaignConfig::default();
    assert_eq!(ok.validate(), Ok(()));

    let zero_inj = CampaignConfig {
        injections: 0,
        ..CampaignConfig::default()
    };
    assert_eq!(zero_inj.validate(), Err(ConfigError::ZeroInjections));

    let zero_mask = CampaignConfig {
        fault_mask: 0,
        ..CampaignConfig::default()
    };
    assert_eq!(zero_mask.validate(), Err(ConfigError::ZeroFaultMask));

    let zero_burst = CampaignConfig {
        mode: CampaignMode::Burst { flips: 0 },
        ..CampaignConfig::default()
    };
    assert_eq!(zero_burst.validate(), Err(ConfigError::ZeroBurst));

    // The campaign entry point refuses to run a do-nothing config
    // instead of silently reporting an empty row.
    let err = try_run_campaign_parallel("lock", &zero_mask, 1).unwrap_err();
    assert_eq!(err, ConfigError::ZeroFaultMask);
    assert!(!err.to_string().is_empty());
}

// ---------------------------------------------------------------------
// Watchdog hang detection
// ---------------------------------------------------------------------

/// A service whose `spin` call livelocks: it only stops when the
/// watchdog refuses further progress ticks (or after a bounded number of
/// iterations when the watchdog is disabled).
#[derive(Debug, Default)]
struct Spinny;

impl Service for Spinny {
    fn interface(&self) -> &'static str {
        "spin"
    }
    fn call(
        &mut self,
        ctx: &mut ServiceCtx<'_>,
        fname: &str,
        _args: &[Value],
    ) -> Result<Value, ServiceError> {
        match fname {
            "spin" => {
                for _ in 0..10_000 {
                    ctx.progress()?;
                }
                Ok(Value::Unit)
            }
            "ping" => Ok(Value::Int(1)),
            other => Err(ServiceError::NoSuchFunction(other.to_owned())),
        }
    }
    fn reset(&mut self) {}
}

fn spinny_kernel() -> (
    Kernel,
    composite::ComponentId,
    composite::ComponentId,
    composite::ThreadId,
) {
    let mut k = Kernel::with_costs(CostModel::free());
    let client = k.add_client_component("app");
    let svc = k.add_component("spin", Box::new(Spinny));
    k.grant(client, svc);
    let t = k.create_thread(client, Priority(10));
    (k, client, svc, t)
}

#[test]
fn watchdog_disabled_lets_long_calls_finish() {
    let (mut k, client, svc, t) = spinny_kernel();
    assert_eq!(k.watchdog_budget(), 0);
    assert_eq!(k.invoke(client, t, svc, "spin", &[]).unwrap(), Value::Unit);
    assert_eq!(k.stats().total_watchdog_fires(), 0);
}

#[test]
fn watchdog_detects_hung_call_and_service_recovers() {
    let (mut k, client, svc, t) = spinny_kernel();
    k.set_watchdog_budget(64);

    // The hung call is converted into a detected fail-stop fault.
    let err = k.invoke(client, t, svc, "spin", &[]).unwrap_err();
    assert_eq!(err, CallError::Fault { component: svc });
    assert_eq!(k.stats().total_watchdog_fires(), 1);
    assert!(k.is_faulty(svc));

    // ... after which the ordinary micro-reboot recovery applies.
    k.micro_reboot(svc).unwrap();
    assert!(!k.is_faulty(svc));
    assert_eq!(
        k.invoke(client, t, svc, "ping", &[]).unwrap(),
        Value::Int(1)
    );
}

// ---------------------------------------------------------------------
// Reboot-storm escalation and graceful degradation
// ---------------------------------------------------------------------

#[test]
fn reboot_storm_degrades_and_booter_cold_restart_clears() {
    let (mut k, client, svc, t) = spinny_kernel();
    k.set_escalation(EscalationPolicy::storm_defaults());

    // A storm: four back-to-back fault/reboot cycles inside the window.
    for _ in 0..4 {
        k.fault(svc);
        k.micro_reboot(svc).unwrap();
    }
    assert!(k.is_degraded(svc));
    assert!(k.degraded_until(svc).is_some());

    // Clients fail fast while the mark holds.
    let err = k.invoke(client, t, svc, "ping", &[]).unwrap_err();
    assert!(matches!(err, CallError::Degraded { .. }));
    assert!(k.stats().total_degraded_rejections() >= 1);

    // The booter's explicit cold restart clears the mark and history.
    k.cold_restart(svc).unwrap();
    assert!(!k.is_degraded(svc));
    assert_eq!(k.stats().total_cold_restarts(), 1);
    assert_eq!(
        k.invoke(client, t, svc, "ping", &[]).unwrap(),
        Value::Int(1)
    );
}

#[test]
fn expired_degraded_mark_cold_restarts_on_next_invoke() {
    let (mut k, client, svc, t) = spinny_kernel();
    k.set_escalation(EscalationPolicy {
        degraded_cooldown: SimTime(1),
        ..EscalationPolicy::storm_defaults()
    });
    for _ in 0..4 {
        k.fault(svc);
        k.micro_reboot(svc).unwrap();
    }
    assert!(k.degraded_until(svc).is_some());

    // Virtual time passes the (tiny) cooldown; the next invocation
    // triggers the cold restart itself and then goes through.
    k.charge(SimTime(1_000_000));
    assert_eq!(
        k.invoke(client, t, svc, "ping", &[]).unwrap(),
        Value::Int(1)
    );
    assert_eq!(k.stats().total_cold_restarts(), 1);
    assert!(!k.is_degraded(svc));
}

// ---------------------------------------------------------------------
// Nested recovery episodes
// ---------------------------------------------------------------------

/// Re-sum every episode's attributed latency with per-component episode
/// *stacks* — the episode-tree generalization of the flat conservation
/// check — and return (closed episodes, max nested fault depth).
fn check_tree_conservation(shard: &TraceShard) -> (usize, u32) {
    let mut open: BTreeMap<u32, Vec<SimTime>> = BTreeMap::new();
    let mut episodes = 0usize;
    let mut max_depth = 0u32;
    for ev in &shard.events {
        match &ev.kind {
            TraceEventKind::FaultInjected { depth } => {
                max_depth = max_depth.max(*depth);
                open.entry(ev.component.0).or_default().push(SimTime::ZERO);
            }
            TraceEventKind::EpisodeEnd { attributed } => {
                let resummed = open
                    .get_mut(&ev.component.0)
                    .and_then(Vec::pop)
                    .expect("episode_end without matching fault");
                assert_eq!(
                    resummed, *attributed,
                    "episode on comp {} violates latency conservation",
                    ev.component.0
                );
                episodes += 1;
            }
            _ => {
                if ev.dur > SimTime::ZERO {
                    if let Some(acc) = open.get_mut(&ev.component.0).and_then(|s| s.last_mut()) {
                        *acc += ev.dur;
                    }
                }
            }
        }
    }
    assert!(
        open.values().all(Vec::is_empty),
        "take_trace must close every open episode"
    );
    (episodes, max_depth)
}

/// One deterministic correlated recovery: fault the event manager, arm a
/// second fault on it that fires the moment its recovery begins (the
/// SWIFI during-recovery hook), and drive recovery through one client
/// call. The stub's bounded nested retry must absorb the mid-walk fault.
fn nested_scenario() -> (sg_bench::Rig, TraceShard) {
    let mut r = rig(Variant::SuperGlue);
    r.tb.runtime.kernel_mut().enable_tracing(TEST_CAPACITY);
    let (c, t, svc, f, a) = r.setup_recovery_victim("evt");
    r.tb.runtime.inject_fault(svc);
    r.tb.runtime.kernel_mut().arm_fault_during_recovery(svc);
    r.tb.runtime
        .interface_call(c, t, svc, f, &a)
        .expect("nested recovery succeeds");
    let mut shard = TraceShard::labeled("golden/evt/superglue/nested");
    shard.absorb(r.tb.runtime.kernel_mut().take_trace(&shard.label.clone()));
    (r, shard)
}

#[test]
fn fault_during_recovery_opens_child_episode_and_recovers() {
    let (r, shard) = nested_scenario();
    let kernel = r.tb.runtime.kernel();
    assert!(
        kernel.stats().total_nested_faults() >= 1,
        "the armed fault must land while recovery is in flight"
    );
    assert!(
        r.tb.runtime.stats().nested_recoveries >= 1,
        "the stub must retry through a child recovery episode"
    );
    assert_eq!(kernel.recovery_depth(), 0, "recovery brackets must close");

    let (episodes, max_depth) = check_tree_conservation(&shard);
    assert!(episodes >= 2, "parent and child episodes both close");
    assert!(max_depth >= 1, "the trace records a nested fault");
    assert!(max_depth < MAX_EPISODE_DEPTH);
}

#[test]
fn episode_depth_is_clamped_under_repeated_nested_faults() {
    let (mut k, _client, svc, _t) = spinny_kernel();
    k.enable_tracing(TEST_CAPACITY);
    // An adversarial storm of faults all raised inside one recovery
    // action: every one is nested, and the episode stack must stay
    // clamped at the hard bound.
    k.begin_recovery(svc);
    let rounds = MAX_EPISODE_DEPTH + 4;
    for _ in 0..rounds {
        k.fault(svc);
        k.micro_reboot(svc).unwrap();
    }
    k.end_recovery(svc);
    assert_eq!(k.stats().total_nested_faults(), u64::from(rounds));

    let shard = k.take_trace("clamp");
    let (_, max_depth) = check_tree_conservation(&shard);
    assert!(
        max_depth < MAX_EPISODE_DEPTH,
        "episode depth {max_depth} must stay under the bound {MAX_EPISODE_DEPTH}"
    );
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// Compare `actual` with the committed golden `name`, or rewrite the
/// golden under `UPDATE_GOLDEN=1`.
fn check_golden(name: &str, actual: &str, what: &str) {
    let path = golden_path(name);
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
        "fixed-seed {what} drifted from the golden snapshot; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_nested_episode_snapshot() {
    let (_r, shard) = nested_scenario();
    let actual = shards_to_jsonl(std::slice::from_ref(&shard));
    check_golden("nested_episode.jsonl", &actual, "nested recovery episode");
}

/// The `--metrics` bytes of `table2 --correlated --injections 40 --seed
/// 7`, rebuilt in-process: every regime, every service, in the
/// harness's order and under its context labels. The run exercises the
/// watchdog, degraded and nested counters, and its cascade rows count
/// faults on components that were never invoked. The CI correlated
/// smoke `cmp`s the binary's output against the same file.
#[test]
fn golden_correlated_metrics_snapshot() {
    let modes = [
        ("burst", CampaignMode::Burst { flips: 3 }),
        ("during-recovery", CampaignMode::DuringRecovery),
        ("cascade", CampaignMode::Cascade),
    ];
    let mut actual = String::new();
    for (name, mode) in modes {
        for iface in SERVICES {
            let cfg = correlated_cfg(mode, 40, 7);
            let r = try_run_campaign_parallel(iface, &cfg, 2).unwrap();
            actual.push_str(
                &r.metrics
                    .to_json_lines(&format!("table2b/{name}/{iface}/superglue")),
            );
        }
    }
    check_golden(
        "table2_correlated_metrics.jsonl",
        &actual,
        "correlated campaign metrics",
    );
}

// ---------------------------------------------------------------------
// Correlated campaign modes
// ---------------------------------------------------------------------

fn correlated_cfg(mode: CampaignMode, injections: u64, seed: u64) -> CampaignConfig {
    CampaignConfig {
        injections,
        seed,
        mode,
        ..CampaignConfig::default()
    }
}

/// Property: every burst / during-recovery / cascade schedule reaches a
/// terminal outcome for every injection — no hangs, tallies conserved,
/// and nested-episode depth inside the hard bound — across seeds.
#[test]
fn correlated_schedules_always_terminate() {
    let modes = [
        CampaignMode::Burst { flips: 3 },
        CampaignMode::DuringRecovery,
        CampaignMode::Cascade,
    ];
    for seed in [1, 2, 3] {
        for mode in modes {
            let mut cfg = correlated_cfg(mode, 8, seed);
            cfg.trace = true;
            let res = run_shard("lock", &cfg, 0);
            let row = &res.row;
            assert_eq!(
                row.injected, 8,
                "{mode:?}/seed{seed}: all injections judged"
            );
            assert_eq!(
                row.recovered
                    + row.segfault
                    + row.propagated
                    + row.other
                    + row.undetected
                    + row.degraded,
                row.injected,
                "{mode:?}/seed{seed}: every injection has exactly one terminal outcome"
            );
            for shard in &res.trace {
                let (_, max_depth) = check_tree_conservation(shard);
                assert!(
                    max_depth < MAX_EPISODE_DEPTH,
                    "{mode:?}/seed{seed}: nested depth {max_depth} exceeds bound"
                );
            }
        }
    }
}

#[test]
fn correlated_campaigns_are_jobs_invariant() {
    let cfg = correlated_cfg(CampaignMode::DuringRecovery, 50, 7);
    let a = try_run_campaign_parallel("lock", &cfg, 1).unwrap();
    let b = try_run_campaign_parallel("lock", &cfg, 4).unwrap();
    assert_eq!(a, b, "merged result must not depend on worker count");
}

/// The acceptance check for the Table II-B harness: across the three
/// correlated regimes, nested recovery, watchdog detection, and graceful
/// degradation are each exercised at least once — asserted over both the
/// campaign rows and the kernel metrics snapshot.
#[test]
fn correlated_campaign_exercises_watchdog_degradation_and_nesting() {
    let modes = [
        CampaignMode::Burst { flips: 3 },
        CampaignMode::DuringRecovery,
        CampaignMode::Cascade,
    ];
    let mut results: Vec<CampaignResult> = Vec::new();
    for mode in modes {
        for iface in ["sched", "mm"] {
            let cfg = correlated_cfg(mode, 50, 7);
            results.push(try_run_campaign_parallel(iface, &cfg, 4).unwrap());
        }
    }

    let degraded: u64 = results.iter().map(|r| r.row.degraded).sum();
    let watchdog: u64 = results.iter().map(|r| r.row.watchdog_detected).sum();
    let nested: u64 = results.iter().map(|r| r.row.nested_recovered).sum();
    assert!(degraded > 0, "no injection ended in graceful degradation");
    assert!(watchdog > 0, "no hang was watchdog-detected");
    assert!(nested > 0, "no injection recovered through a child episode");

    // The same three behaviors must be visible in the merged
    // recovery-observability metrics.
    let row_sum = |f: fn(&composite::MetricsRow) -> u64| -> u64 {
        results
            .iter()
            .flat_map(|r| r.metrics.rows.values())
            .map(f)
            .sum()
    };
    assert!(row_sum(|m| m.watchdog_fires) > 0);
    assert!(row_sum(|m| m.degraded_rejections) > 0);
    assert!(row_sum(|m| m.nested_faults) > 0);
}
