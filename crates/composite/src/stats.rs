//! The kernel's counters: one [`MetricsRow`] per component for the run
//! totals and, with `--series` telemetry on, one per component and
//! simulated-time window. The kernel writes them as it folds the core's
//! effect stream; [`MetricsSnapshot`](crate::metrics::MetricsSnapshot)
//! and [`SeriesSnapshot`](crate::telemetry::SeriesSnapshot) copy them
//! out under component names.

use std::collections::BTreeMap;

use crate::ids::ComponentId;
use crate::metrics::MetricsRow;
use crate::time::SimTime;

/// The kernel's one counter accumulator. It holds a dense row of run
/// totals per [`ComponentId`] and, once
/// [`Kernel::enable_telemetry`](crate::kernel::Kernel::enable_telemetry)
/// sets a window width, a sparse map of per-window cells for each
/// component. Every count goes through
/// [`Counters::count`], which writes the total row and, with windows
/// on, the cell of window `t / window_ns`: the `--metrics` totals and
/// the `--series` windows are sums of the same writes.
#[derive(Debug, Default)]
pub struct Counters {
    totals: Vec<MetricsRow>,
    /// Window width in simulated nanoseconds; 0 = windows off.
    window_ns: u64,
    windows: Vec<BTreeMap<u64, MetricsRow>>,
    /// Thread wakeups.
    pub wakeups: u64,
    /// Upcalls dispatched.
    pub upcalls: u64,
}

impl Counters {
    /// Keep per-window cells of the given width from now on.
    ///
    /// # Panics
    ///
    /// Panics on a zero window (it would put everything in window 0 of
    /// an infinitely wide bucket — always a configuration bug).
    pub(crate) fn enable_windows(&mut self, window: SimTime) {
        assert!(window.0 > 0, "telemetry window must be positive");
        self.window_ns = window.0;
    }

    /// Apply `bump` to `c`'s total row and, with windows on, to its
    /// cell for the window holding simulated time `t`.
    #[inline]
    pub(crate) fn count(&mut self, c: ComponentId, t: SimTime, bump: impl Fn(&mut MetricsRow)) {
        let i = c.0 as usize;
        if i >= self.totals.len() {
            self.grow(i);
        }
        bump(&mut self.totals[i]);
        // A zero width (windows off) has no window to divide into.
        if let Some(w) = t.0.checked_div(self.window_ns) {
            bump(self.windows[i].entry(w).or_default());
        }
    }

    #[cold]
    fn grow(&mut self, i: usize) {
        self.totals.resize_with(i + 1, MetricsRow::default);
        self.windows.resize_with(i + 1, BTreeMap::new);
    }

    /// The run totals of `c` (`None` while nothing was counted on `c` or
    /// on any component with a higher id).
    #[must_use]
    pub(crate) fn row(&self, c: ComponentId) -> Option<&MetricsRow> {
        self.totals.get(c.0 as usize)
    }

    /// The window width in simulated nanoseconds (0 while windows are
    /// off).
    pub(crate) fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// `c`'s window cells, keyed by window index.
    pub(crate) fn windows(&self, c: ComponentId) -> Option<&BTreeMap<u64, MetricsRow>> {
        self.windows.get(c.0 as usize)
    }

    fn total(&self, field: impl Fn(&MetricsRow) -> u64) -> u64 {
        self.totals.iter().map(field).sum()
    }

    /// Total successful invocations across all components.
    #[must_use]
    pub fn total_invocations(&self) -> u64 {
        self.total(|r| r.invocations)
    }

    /// Total faults across all components.
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        self.total(|r| r.faults)
    }

    /// Total micro-reboots across all components.
    #[must_use]
    pub fn total_reboots(&self) -> u64 {
        self.total(|r| r.reboots)
    }

    /// Total watchdog fires across all components.
    #[must_use]
    pub fn total_watchdog_fires(&self) -> u64 {
        self.total(|r| r.watchdog_fires)
    }

    /// Total degraded-mode fast rejections across all components.
    #[must_use]
    pub fn total_degraded_rejections(&self) -> u64 {
        self.total(|r| r.degraded_rejections)
    }

    /// Total nested (correlated) faults across all components.
    #[must_use]
    pub fn total_nested_faults(&self) -> u64 {
        self.total(|r| r.nested_faults)
    }

    /// Total cold restarts across all components.
    #[must_use]
    pub fn total_cold_restarts(&self) -> u64 {
        self.total(|r| r.cold_restarts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut k = Counters::default();
        let c = ComponentId(3);
        k.count(c, SimTime(5), |r| r.invocations += 1);
        k.count(c, SimTime(5), |r| r.invocations += 1);
        k.count(c, SimTime(5), |r| r.faults += 1);
        k.count(c, SimTime(5), |r| r.reboots += 1);
        k.count(c, SimTime(5), |r| r.faulted_invocations += 1);
        let row = k.row(c).expect("counted");
        assert_eq!((row.invocations, row.faulted_invocations), (2, 1));
        assert_eq!(k.total_invocations(), 2);
        assert_eq!(k.total_faults(), 1);
        assert_eq!(k.total_reboots(), 1);
        // A component never counted reads as absent.
        assert!(k.row(ComponentId(9)).is_none());
    }

    #[test]
    fn totals_span_components() {
        let mut k = Counters::default();
        k.count(ComponentId(1), SimTime::ZERO, |r| r.invocations += 1);
        k.count(ComponentId(2), SimTime::ZERO, |r| r.invocations += 1);
        assert_eq!(k.total_invocations(), 2);
    }
}
