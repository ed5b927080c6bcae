//! Windowed recovery telemetry: per-component, per-simulated-time-window
//! activity series.
//!
//! [`MetricsSnapshot`](crate::metrics::MetricsSnapshot) answers "what
//! happened over the whole run"; this module answers "*when* did it
//! happen". With windows enabled (the harnesses' `--series` flag, via
//! [`Kernel::enable_telemetry`]) the kernel's
//! [`Counters`](crate::stats::Counters) accumulator writes every count
//! into a per-window [`MetricsRow`] as well as into the run totals, in
//! the same call — so the series and the totals can never disagree.
//!
//! Harnesses snapshot the window cells per run into a [`SeriesSnapshot`]
//! (name-keyed plain data, `Send`) and merge snapshots shard-by-shard in
//! shard order, exactly like metrics: every campaign shard simulates its
//! own machine from virtual time zero, so window `w` of shard `a` and
//! window `w` of shard `b` describe the same post-boot interval and sum
//! meaningfully. The merged dump is byte-identical for any `--jobs`
//! value. Quantiles are estimated from the existing
//! [`LatencyStat::quantile_ns`](crate::metrics::LatencyStat::quantile_ns)
//! log₂ histogram — no extra hot-path state.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::kernel::Kernel;
use crate::metrics::{by_name, MetricsRow, MECHANISMS};
use crate::time::SimTime;

/// Schema version of the `--series` JSON-lines emitter (the `"v"` field
/// on the header and every row). Bump when a field changes meaning.
///
/// * **v2** — the per-window `mechanisms` object gained the `DL0` and
///   `CR0` channel-recovery counters, appended after `U0` (same change
///   as metrics schema v2).
/// * **v1** — initial schema: the paper's eight mechanisms (R0–U0).
pub const SERIES_SCHEMA_VERSION: u64 = 2;

/// Default window width for the harnesses' `--series` flag: 1 ms of
/// simulated time, fine enough to resolve individual recovery episodes
/// in the micro-campaigns.
pub const DEFAULT_SERIES_WINDOW: SimTime = SimTime(1_000_000);

/// Whether a window cell holds anything the series renders. Window
/// cells also count what only the totals show (reboots, watchdog
/// fires, …); a cell holding nothing else stays out of the dump.
fn renders(cell: &MetricsRow) -> bool {
    cell.invocations > 0
        || cell.faults > 0
        || cell.mechanisms.iter().any(|&m| m > 0)
        || cell.recovery_latency.count > 0
}

/// A point-in-time, name-resolved copy of the series — plain data,
/// `Send`, mergeable across campaign shards in shard order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Window width in simulated nanoseconds (0 for an empty default
    /// snapshot; set on first merge or capture).
    pub window_ns: u64,
    /// Cells keyed `(component name, window index)` — BTreeMap, so dump
    /// order is deterministic. The series renders a cell's invocations,
    /// faults, mechanisms and recovery latency.
    pub rows: BTreeMap<(String, u64), MetricsRow>,
}

impl SeriesSnapshot {
    /// Snapshot the kernel's window cells, resolving component ids to
    /// names (empty when windows are off).
    #[must_use]
    pub fn from_kernel(kernel: &Kernel) -> Self {
        let counters = kernel.stats();
        if counters.window_ns() == 0 {
            return Self::default();
        }
        let rows = by_name(kernel, |c, name| {
            counters
                .windows(c)
                .into_iter()
                .flatten()
                .filter(|(_, cell)| renders(cell))
                .map(move |(&w, cell)| ((name.to_owned(), w), cell))
        });
        Self {
            window_ns: counters.window_ns(),
            rows,
        }
    }

    /// Merge another snapshot into this one (order-insensitive sums over
    /// aligned windows, so merging shard snapshots in shard order is
    /// bit-identical for any thread count).
    ///
    /// # Panics
    ///
    /// Panics when the two snapshots were captured with different window
    /// widths — their windows would not describe the same intervals.
    pub fn merge(&mut self, other: &SeriesSnapshot) {
        if other.window_ns == 0 {
            return;
        }
        if self.window_ns == 0 {
            self.window_ns = other.window_ns;
        }
        assert_eq!(
            self.window_ns, other.window_ns,
            "cannot merge series with different window widths"
        );
        for (key, cell) in &other.rows {
            self.rows.entry(key.clone()).or_default().merge(cell);
        }
    }

    /// Render as JSON-lines: one object per `(component, window)` cell in
    /// key order, each carrying the harness-supplied `context` label and
    /// p50/p90/p99 recovery-latency quantiles estimated from the log₂
    /// histogram. The caller prepends one [`series_header`] line per
    /// file.
    #[must_use]
    pub fn to_json_lines(&self, context: &str) -> String {
        let mut out = String::new();
        for ((name, window), cell) in &self.rows {
            let mut j = Json::object();
            j.push("v", SERIES_SCHEMA_VERSION)
                .push("context", context)
                .push("component", name.as_str())
                .push("window", *window)
                .push("t_start_ns", *window * self.window_ns)
                .push("invocations", cell.invocations)
                .push("faults", cell.faults);
            let mut mech = Json::object();
            for m in MECHANISMS {
                mech.push(m.name(), cell.mechanisms[m.index()]);
            }
            j.push("mechanisms", mech);
            let lat = &cell.recovery_latency;
            let mut l = Json::object();
            l.push("count", lat.count)
                .push("total_ns", lat.total_ns)
                .push("min_ns", lat.min_ns)
                .push("max_ns", lat.max_ns)
                .push("p50_ns", lat.quantile_ns(0.50))
                .push("p90_ns", lat.quantile_ns(0.90))
                .push("p99_ns", lat.quantile_ns(0.99));
            j.push("recovery_latency", l);
            out.push_str(&j.to_line());
            out.push('\n');
        }
        out
    }

    /// Total invocations across every cell (diagnostics / tests).
    #[must_use]
    pub fn total_invocations(&self) -> u64 {
        self.rows.values().map(|c| c.invocations).sum()
    }

    /// Total faults across every cell (diagnostics / tests).
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        self.rows.values().map(|c| c.faults).sum()
    }
}

/// The one header line a `--series` file starts with: schema version and
/// the window width every row's `window` index is in units of.
#[must_use]
pub fn series_header(window_ns: u64) -> String {
    let mut j = Json::object();
    j.push("v", SERIES_SCHEMA_VERSION)
        .push("kind", "series")
        .push("window_ns", window_ns);
    let mut line = j.to_line();
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ComponentId;
    use crate::metrics::Mechanism;
    use crate::stats::Counters;

    #[test]
    fn disabled_telemetry_records_nothing() {
        let mut k = Counters::default();
        let c = ComponentId(1);
        k.count(c, SimTime(5), |r| r.invocations += 1);
        k.count(c, SimTime(5), |r| r.mechanisms[Mechanism::R0.index()] += 2);
        assert_eq!(k.window_ns(), 0);
        assert!(k.windows(c).is_some_and(BTreeMap::is_empty));
        assert_eq!(k.total_invocations(), 1);
    }

    #[test]
    fn events_bucket_by_window() {
        let mut k = Counters::default();
        k.enable_windows(SimTime(100));
        let c = ComponentId(2);
        k.count(c, SimTime(0), |r| r.invocations += 1);
        k.count(c, SimTime(99), |r| r.invocations += 1);
        k.count(c, SimTime(100), |r| r.invocations += 1);
        k.count(c, SimTime(250), |r| r.faults += 1);
        k.count(c, SimTime(250), |r| {
            r.mechanisms[Mechanism::T0.index()] += 3
        });
        k.count(c, SimTime(250), |r| r.recovery_latency.record(SimTime(40)));
        let w = k.windows(c).expect("slots exist");
        assert_eq!(w[&0].invocations, 2);
        assert_eq!(w[&1].invocations, 1);
        assert_eq!(w[&2].faults, 1);
        assert_eq!(w[&2].mechanisms[Mechanism::T0.index()], 3);
        assert_eq!(w[&2].recovery_latency.count, 1);
        // The total row holds the same writes.
        assert_eq!(k.row(c).map(|r| r.invocations), Some(3));
        assert_eq!(k.row(c).map(|r| r.recovery_latency.count), Some(1));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        Counters::default().enable_windows(SimTime::ZERO);
    }

    #[test]
    fn cells_with_only_unrendered_counts_stay_out() {
        let mut cell = MetricsRow {
            reboots: 1,
            faulted_invocations: 2,
            watchdog_fires: 1,
            ..MetricsRow::default()
        };
        assert!(!renders(&cell));
        cell.recovery_latency.record(SimTime(0));
        assert!(renders(&cell), "a zero-length episode still renders");
    }

    #[test]
    fn snapshot_merge_is_commutative_and_window_checked() {
        let mut a = SeriesSnapshot {
            window_ns: 100,
            rows: BTreeMap::new(),
        };
        a.rows.entry(("fs".into(), 0)).or_default().invocations = 2;
        let mut b = SeriesSnapshot {
            window_ns: 100,
            rows: BTreeMap::new(),
        };
        b.rows.entry(("fs".into(), 0)).or_default().invocations = 3;
        b.rows.entry(("mm".into(), 4)).or_default().faults = 1;

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.rows[&("fs".into(), 0)].invocations, 5);

        // Merging an empty default in either direction is the identity.
        let mut with_empty = ab.clone();
        with_empty.merge(&SeriesSnapshot::default());
        assert_eq!(with_empty, ab);
        let mut empty = SeriesSnapshot::default();
        empty.merge(&ab);
        assert_eq!(empty, ab);
    }

    #[test]
    #[should_panic(expected = "different window widths")]
    fn mismatched_windows_refuse_to_merge() {
        let mut a = SeriesSnapshot {
            window_ns: 100,
            rows: BTreeMap::new(),
        };
        let b = SeriesSnapshot {
            window_ns: 200,
            rows: BTreeMap::new(),
        };
        a.merge(&b);
    }

    #[test]
    fn json_lines_shape() {
        let mut s = SeriesSnapshot {
            window_ns: 1_000_000,
            rows: BTreeMap::new(),
        };
        let cell = s.rows.entry(("lock".into(), 3)).or_default();
        cell.invocations = 7;
        cell.mechanisms[Mechanism::U0.index()] = 2;
        cell.recovery_latency.record(SimTime(900));
        let dump = s.to_json_lines("test/ctx");
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with(r#"{"v":2,"#));
        assert!(lines[0].contains(r#""component":"lock""#));
        assert!(lines[0].contains(r#""window":3"#));
        assert!(lines[0].contains(r#""t_start_ns":3000000"#));
        assert!(lines[0].contains(r#""U0":2"#));
        assert!(lines[0].contains(r#""p99_ns":900"#));
        let header = series_header(s.window_ns);
        assert!(header.contains(r#""window_ns":1000000"#));
    }
}
