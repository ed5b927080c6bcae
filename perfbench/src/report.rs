//! What a run measured, and how per-layer metrics are derived from a
//! traced pass.

use std::collections::BTreeMap;
use std::time::Instant;

use composite::{MetricsSnapshot, MECHANISMS};

use crate::span::{Agg, Profile};
use crate::stats;

/// Set-up samples per untraced run. They are spread evenly over the
/// timed phase, so their median sees the same host conditions as the
/// units do.
pub const SETUPS: usize = 15;

/// The untraced run of one workload.
#[derive(Debug, Default)]
pub struct Measured {
    /// Host seconds of each set-up sample.
    pub setup_s: Vec<f64>,
    /// Each timed unit: host milliseconds and the units of work it
    /// completed (0 when its check failed).
    pub units: Vec<(f64, u64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Measured {
    #[must_use]
    pub fn new(setup_s: Vec<f64>) -> Self {
        Self {
            setup_s,
            ..Self::default()
        }
    }

    /// Time one more set-up sample if the next is due `elapsed` seconds
    /// into a timed phase of `seconds`.
    pub fn maybe_setup(&mut self, elapsed: f64, seconds: f64, setup: impl FnOnce()) {
        let due = seconds * self.setup_s.len() as f64 / SETUPS as f64;
        if self.setup_s.len() < SETUPS && elapsed >= due {
            let t = Instant::now();
            setup();
            self.setup_s.push(t.elapsed().as_secs_f64());
        }
    }

    /// Record one timed unit, the work it did, and whether it passed its
    /// check.
    pub fn unit(&mut self, ms: f64, work: u64, ok: bool) {
        self.units.push((ms, if ok { work } else { 0 }));
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Units of work per host second of timed units.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let ms: f64 = self.units.iter().map(|u| u.0).sum();
        self.units.iter().map(|u| u.1).sum::<u64>() as f64 / (ms / 1e3)
    }

    /// Units whose check failed, that panicked or hit the run cap, over
    /// units attempted; 1.0 when nothing was attempted.
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One per-layer metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Val {
    pub value: f64,
    pub unit: &'static str,
    /// The pass it came from.
    pub pass: &'static str,
    /// Samples behind the value (1 for a single count or total).
    pub samples: u64,
    /// The percentile taken, if the value is one.
    pub percentile: Option<u32>,
}

/// Per-layer metrics of a traced run. The first value put under a name
/// wins: the selected workload's pass runs first, and the probe passes
/// only fill metrics it cannot reach.
#[derive(Debug, Default)]
pub struct Layers {
    pub vals: BTreeMap<String, Val>,
    /// The pass now being recorded.
    pub pass: &'static str,
    /// Failed correctness checks.
    pub errors: Vec<String>,
}

impl Layers {
    /// A single count or total.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put_stat(name, value, unit, 1, None);
    }

    pub fn put_stat(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: u64,
        percentile: Option<u32>,
    ) {
        let pass = self.pass;
        self.vals.entry(name.to_owned()).or_insert(Val {
            value,
            unit,
            pass,
            samples,
            percentile,
        });
    }

    /// The `p`th percentile of a span's self times, divided by `scale`.
    pub fn put_pct(&mut self, name: &str, a: &Agg, p: u32, scale: f64, unit: &'static str) {
        let v = a.self_samples.percentile(f64::from(p)) as f64 / scale;
        self.put_stat(name, v, unit, a.count, Some(p));
    }

    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.errors.push(what.to_owned());
        }
    }
}

/// The per-unit work counts of a pass: kernel counters from the run's
/// `MetricsSnapshot` and the allocations of its untraced twin, divided
/// by the units of work done.
pub fn put_work_counts(out: &mut Layers, m: &MetricsSnapshot, units: f64, allocs: u64, bytes: u64) {
    let sum =
        |f: fn(&composite::MetricsRow) -> u64| m.rows.values().map(f).sum::<u64>() as f64 / units;
    out.put(
        "composite.invocations_per_unit",
        sum(|r| r.invocations),
        "count",
    );
    out.put("composite.faults_per_unit", sum(|r| r.faults), "count");
    out.put("composite.reboots_per_unit", sum(|r| r.reboots), "count");
    out.put(
        "composite.watchdog_fires_per_unit",
        sum(|r| r.watchdog_fires),
        "count",
    );
    for mech in MECHANISMS {
        let n = m.mechanism_total(mech) as f64 / units;
        out.put(
            &format!("composite.mech.{}_per_unit", mech.name()),
            n,
            "count",
        );
    }
    out.put("alloc.count_per_unit", allocs as f64 / units, "count");
    out.put("alloc.bytes_per_unit", bytes as f64 / units, "bytes");
}

/// Services whose busy share is reported (the two channel components
/// share the `chan` interface). The timer and cbuf services are left
/// out: no timed unit of any workload calls them (the webserver's
/// housekeeper starves behind the connections, and cbuf is used only
/// while the site is set up), so their share would always read 0.
const SERVICES: [&str; 7] = ["sched", "mm", "fs", "lock", "evt", "storage", "chan"];

/// Layers whose spans' self allocations are reported.
const LAYERS: [&str; 7] = [
    "composite",
    "superglue",
    "sg-services",
    "sg-swifi",
    "sg-webserver",
    "sg-pipeline",
    "sg-bench",
];

/// Per-layer metrics derived from a traced pass's spans. `units` is the
/// units of work the pass did; `plain_unit_ms` the median unit time of
/// its untraced twin.
pub fn put_profile(out: &mut Layers, p: &Profile, units: f64, plain_unit_ms: f64) {
    let timed_ns: u64 = p.unit_ns.iter().sum();
    let n_units = p.unit_ns.len() as f64;
    out.check(
        p.self_time_gap_ns == 0,
        "trace: span self times do not add up to the unit times",
    );
    if let Some(a) = p.get("superglue.stub_call") {
        out.put_pct("superglue.stub_call_self_ns_p50", a, 50, 1.0, "ns");
        out.put_pct("superglue.stub_call_self_ns_p90", a, 90, 1.0, "ns");
    }
    let recov: Vec<_> = [
        "superglue.stub_call_recovering",
        "superglue.stub_recover_descriptor",
        "superglue.stub_recover_all",
    ]
    .iter()
    .filter_map(|n| p.get(n))
    .collect();
    let recov_n: u64 = recov.iter().map(|a| a.count).sum();
    if recov_n > 0 {
        let ns: u64 = recov.iter().map(|a| a.incl_ns).sum();
        let mean_us = ns as f64 / recov_n as f64 / 1e3;
        out.put_stat("superglue.stub_recover_us", mean_us, "us", recov_n, None);
    }
    if let Some(a) = p.get("composite.executor_run") {
        let per_unit = a.self_ns as f64 / n_units / 1e6;
        out.put_stat(
            "composite.executor_self_ms",
            per_unit,
            "ms",
            p.unit_ns.len() as u64,
            None,
        );
    }
    let mut svc_self: Vec<u64> = p
        .by_name
        .iter()
        .filter(|(name, _)| name.starts_with("sg-services.call."))
        .flat_map(|(_, a)| a.self_samples.values().iter().copied())
        .collect();
    if !svc_self.is_empty() {
        let n = svc_self.len() as u64;
        let p50 = stats::percentile_u64(&mut svc_self, 50.0) as f64;
        out.put_stat("sg-services.call_self_ns_p50", p50, "ns", n, Some(50));
    }
    for svc in SERVICES {
        if let Some(a) = p.get(crate::wrap::service_span(svc)) {
            out.put(
                &format!("sg-services.busy_share.{svc}"),
                a.self_ns as f64 / timed_ns as f64,
                "fraction",
            );
        }
    }
    if let Some(a) = p.get("sg-services.reset") {
        let mean_us = a.incl_ns as f64 / a.count as f64 / 1e3;
        out.put_stat("sg-services.reset_us", mean_us, "us", a.count, None);
    }
    if let Some(a) = p.get("sg-webserver.step") {
        out.put_pct("sg-webserver.step_self_ns", a, 50, 1.0, "ns");
    }
    for layer in LAYERS {
        let prefix = format!("{layer}.");
        let (n, bytes) = p
            .by_name
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .fold((0, 0), |(n, b), (_, a)| {
                (n + a.self_allocs, b + a.self_alloc_bytes)
            });
        if n > 0 {
            let count = format!("alloc.self_count_per_unit.{layer}");
            out.put(&count, n as f64 / units, "count");
            let bytes_name = format!("alloc.self_bytes_per_unit.{layer}");
            out.put(&bytes_name, bytes as f64 / units, "bytes");
        }
    }
    let mut traced: Vec<f64> = p.unit_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let traced_p50 = stats::median(&mut traced);
    let n = p.unit_ns.len() as u64;
    let overhead = traced_p50 - plain_unit_ms;
    out.put_stat("trace.overhead_unit_ms_p50", overhead, "ms", n, Some(50));
    let pct = 100.0 * (traced_p50 / plain_unit_ms - 1.0);
    out.put_stat("trace.overhead_pct", pct, "%", n, Some(50));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_counts_only_units_that_passed() {
        let mut m = Measured::default();
        m.unit(500.0, 10, true);
        m.unit(500.0, 10, false);
        assert_eq!(m.throughput(), 10.0);
        assert_eq!(m.failed_frac(), 0.5);
    }
}
