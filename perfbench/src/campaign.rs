//! `campaign`: the Table II single-fault SWIFI campaign over all six
//! services, SuperGlue variant, sinks off. Every segfault, propagated
//! fault or failed recovery reboots the machine, and every reboot
//! rebuilds the testbed and recompiles the IDL, so set-up and recovery
//! work dominate. A unit is one 25-injection shard; shards rotate over
//! the six targets so every run sees the same mix.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use composite::{Executor, Priority};
use sg_c3::FtRuntime;
use sg_services::api::ClientEnd;
use sg_services::workloads::{
    shared_desc, EventTrigger, EventWaiter, FsOpenWriteRead, LockContender, LockOwner,
    MmGrantAliasRevoke, SchedPingPong, TimerPeriodic,
};
use sg_swifi::{merge_shards, run_shard, CampaignConfig, CampaignResult, SHARD_INJECTIONS};
use superglue::{Testbed, Variant};

use crate::report::{self, Layers, Measured};
use crate::span::{self, span, Profile, UNIT};
use crate::{alloc, stats};

/// The six targets, in Table II row order.
const IFACES: [&str; 6] = ["sched", "mm", "fs", "lock", "evt", "tmr"];

/// Shards planned per target; a run stops long before using them all.
const SHARDS_PER_IFACE: u64 = 1024;

#[must_use]
pub fn config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        variant: Variant::SuperGlue,
        injections: SHARD_INJECTIONS * SHARDS_PER_IFACE,
        seed,
        ..CampaignConfig::default()
    }
}

/// Unit `k` of a run: (target, shard index).
fn unit(k: u64) -> (&'static str, usize) {
    (IFACES[(k % 6) as usize], (k / 6) as usize)
}

/// A shard passes when its Table II tallies sum to its `quota`.
#[must_use]
pub fn shard_ok(r: &CampaignResult, quota: u64) -> bool {
    let row = &r.row;
    row.injected == quota
        && row.recovered + row.segfault + row.propagated + row.other + row.undetected + row.degraded
            == row.injected
}

/// Machine boots a shard performed: the first, plus one per outcome
/// that reboots the machine. The reboot after a shard's final
/// injection is counted although no boot follows it.
fn boots(r: &CampaignResult) -> u64 {
    let row = &r.row;
    1 + row.segfault + row.propagated + row.other + row.degraded
}

/// One machine boot per target, as `run_shard` performs it: build the
/// testbed (compiling the IDL), attach the target's workload, warm up.
fn boot_all_targets() {
    for iface in IFACES {
        let mut tb = Testbed::build_elided(Variant::SuperGlue, false).expect("testbed builds");
        let mut ex: Executor<FtRuntime> = Executor::new();
        attach_target(&mut tb, &mut ex, iface);
        ex.run(&mut tb.runtime, 40);
    }
}

/// The §V-B workload `run_shard` attaches for `iface`.
fn attach_target(tb: &mut Testbed, ex: &mut Executor<FtRuntime>, iface: &str) {
    const ROUNDS: u32 = u32::MAX / 2;
    let ids = tb.ids;
    let t1 = tb.spawn_thread(ids.app1, Priority(5));
    let end = |server| ClientEnd::new(ids.app1, t1, server);
    match iface {
        "sched" => {
            let t2 = tb.spawn_thread(ids.app1, Priority(5));
            ex.attach(
                t1,
                Box::new(SchedPingPong::new(end(ids.sched), t2, ROUNDS, true)),
            );
            let e2 = ClientEnd::new(ids.app1, t2, ids.sched);
            ex.attach(t2, Box::new(SchedPingPong::new(e2, t1, ROUNDS, false)));
        }
        "lock" => {
            let t2 = tb.spawn_thread(ids.app1, Priority(5));
            let shared = shared_desc();
            ex.attach(
                t1,
                Box::new(LockOwner::new(end(ids.lock), shared.clone(), ROUNDS, 1)),
            );
            let e2 = ClientEnd::new(ids.app1, t2, ids.lock);
            ex.attach(t2, Box::new(LockContender::new(e2, shared, ROUNDS)));
        }
        "evt" => {
            let t2 = tb.spawn_thread(ids.app2, Priority(5));
            let shared = shared_desc();
            ex.attach(
                t1,
                Box::new(EventWaiter::new(end(ids.evt), shared.clone(), ROUNDS)),
            );
            let e2 = ClientEnd::new(ids.app2, t2, ids.evt);
            ex.attach(t2, Box::new(EventTrigger::new(e2, shared, ROUNDS)));
        }
        "tmr" => ex.attach(
            t1,
            Box::new(TimerPeriodic::new(end(ids.tmr), 50_000, ROUNDS)),
        ),
        "mm" => ex.attach(
            t1,
            Box::new(MmGrantAliasRevoke::new(end(ids.mm), ids.app2, ROUNDS)),
        ),
        "fs" => ex.attach(t1, Box::new(FsOpenWriteRead::new(end(ids.fs), ROUNDS))),
        other => panic!("unknown campaign target {other:?}"),
    }
}

/// The untraced, time-bounded run.
#[must_use]
pub fn measure(seed: u64, seconds: f64) -> Measured {
    measure_against(seed, seconds, SHARD_INJECTIONS)
}

/// [`measure`] with each shard checked against `quota`.
#[must_use]
pub fn measure_against(seed: u64, seconds: f64, quota: u64) -> Measured {
    let cfg = config(seed);
    let t = Instant::now();
    boot_all_targets();
    let mut m = Measured::new(vec![t.elapsed().as_secs_f64()]);
    let mut merged = CampaignResult::default();
    let mut work = 0;
    let start = Instant::now();
    let mut k = 0;
    // Stop only at the end of a round over the six targets, so every
    // run measures the same mix.
    while k % 6 != 0 || start.elapsed().as_secs_f64() < seconds {
        let (iface, shard) = unit(k);
        let t = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| run_shard(iface, &cfg, shard)));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let ok = matches!(&r, Ok(r) if shard_ok(r, quota));
        m.unit(ms, SHARD_INJECTIONS, ok);
        if let (true, Ok(r)) = (ok, r) {
            work += r.row.injected;
            merged = merge_shards("all", [&merged, &r].into_iter());
        }
        k += 1;
        if k % 6 == 0 {
            m.maybe_setup(start.elapsed().as_secs_f64(), seconds, boot_all_targets);
        }
    }
    // The merged campaign must account for every injection.
    if merged.row.injected != work {
        m.failed = m.attempted;
    }
    m
}

/// The span name of one target's shards.
fn shard_span(iface: &str) -> &'static str {
    match iface {
        "sched" => "sg-swifi.run_shard.sched",
        "mm" => "sg-swifi.run_shard.mm",
        "fs" => "sg-swifi.run_shard.fs",
        "lock" => "sg-swifi.run_shard.lock",
        "evt" => "sg-swifi.run_shard.evt",
        _ => "sg-swifi.run_shard.tmr",
    }
}

/// The traced pass: `rounds` shards per target, run untraced and then
/// traced; the two must produce identical results.
pub fn traced(seed: u64, rounds: u64, out: &mut Layers) {
    let cfg = config(seed);
    let n = rounds * 6;

    let mut plain_ms = Vec::new();
    let (a0, b0) = alloc::totals();
    let plain: Vec<CampaignResult> = (0..n)
        .map(|k| {
            let (iface, shard) = unit(k);
            let t = Instant::now();
            let r = run_shard(iface, &cfg, shard);
            plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
            r
        })
        .collect();
    let (a1, b1) = alloc::totals();

    let mut prof = Profile::default();
    let mut results = Vec::new();
    span::enable();
    for k in 0..n {
        let (iface, shard) = unit(k);
        let r = span(UNIT, || {
            span(shard_span(iface), || run_shard(iface, &cfg, shard))
        });
        prof.absorb(&span::take());
        results.push(r);
    }
    let merged = span("sg-bench.merge_shards", || {
        merge_shards("all", results.iter())
    });
    prof.absorb(&span::take());
    span::disable();

    out.check(
        results == plain,
        "campaign: traced shard results differ from untraced",
    );
    out.check(
        results.iter().all(|r| shard_ok(r, SHARD_INJECTIONS)),
        "campaign: shard tallies do not sum to quota",
    );
    let inj = merged.row.injected as f64;
    for iface in IFACES {
        if let Some(a) = prof.get(shard_span(iface)) {
            out.put_pct(&format!("sg-swifi.shard_ms.{iface}"), a, 50, 1e6, "ms");
        }
    }
    let boots: u64 = results.iter().map(boots).sum();
    out.put(
        "sg-swifi.machine_boots_per_100_inj",
        100.0 * boots as f64 / inj,
        "count",
    );
    if let Some(a) = prof.get("sg-bench.merge_shards") {
        out.put("sg-bench.merge_ms", a.incl_ns as f64 / 1e6, "ms");
    }
    report::put_work_counts(out, &merged.metrics, inj, a1 - a0, b1 - b0);
    report::put_profile(out, &prof, inj, stats::median(&mut plain_ms));
}
