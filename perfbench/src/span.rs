//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own wrappers around calls
//! into each layer: a name, a start, an end, the causing (enclosing)
//! span, and the allocations made while the span was open. They are
//! kept in memory and folded into a [`Profile`] after each timed unit,
//! so memory stays bounded by one unit's spans.
//!
//! A span's *self* time is its duration minus the part of that interval
//! its child spans cover; summed over a unit's span tree, self times add
//! up to the unit's traced host time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc;

/// Name of the root span around each timed unit.
pub const UNIT: &str = "bench.unit";

/// One recorded span. `parent` indexes an earlier span of the same
/// buffer (recording is pre-order, so a parent always precedes its
/// children).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Allocations made while the span was open, children included.
    pub allocs: u64,
    /// Bytes allocated while the span was open, children included.
    pub alloc_bytes: u64,
}

impl Span {
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    last_closed: Option<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        last_closed: None,
    });
}

/// Start recording spans on this thread.
pub fn enable() {
    alloc::uncounted(|| {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            r.on = true;
            r.spans.reserve(1 << 16);
        });
    });
}

/// Stop recording spans on this thread (recorded spans are kept).
pub fn disable() {
    REC.with(|r| r.borrow_mut().on = false);
}

/// Run `f` inside a span named `name` (a plain call when recording is
/// off). The recorder's own bookkeeping allocations are not counted.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = alloc::uncounted(|| {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            if !r.on {
                return None;
            }
            let parent = r.stack.last().copied();
            let i = r.spans.len();
            r.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                allocs: 0,
                alloc_bytes: 0,
            });
            r.stack.push(i);
            Some(i)
        })
    });
    let Some(i) = idx else {
        return f();
    };
    let (a0, b0) = alloc::totals();
    let t0 = REC.with(|r| r.borrow().epoch.elapsed().as_nanos() as u64);
    let out = f();
    let t1 = REC.with(|r| r.borrow().epoch.elapsed().as_nanos() as u64);
    let (a1, b1) = alloc::totals();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.stack.pop();
        r.last_closed = Some(i);
        let s = &mut r.spans[i];
        s.start_ns = t0;
        s.end_ns = t1;
        s.allocs = a1 - a0;
        s.alloc_bytes = b1 - b0;
    });
    out
}

/// Rename the span that closed most recently (a no-op when recording
/// is off), for wrappers that learn what a call did only after it
/// returned.
pub fn relabel_last(name: &'static str) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if let Some(i) = r.last_closed {
            r.spans[i].name = name;
        }
    });
}

/// Drain every span recorded so far on this thread.
///
/// # Panics
///
/// If a span is still open (a bug in the caller's nesting).
#[must_use]
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "take() with open spans");
        r.last_closed = None;
        alloc::uncounted(|| {
            let cap = r.spans.capacity();
            std::mem::replace(&mut r.spans, Vec::with_capacity(cap))
        })
    })
}

/// A span's cost net of its children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelfCost {
    pub ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Self cost of every span: duration minus the union of its children's
/// intervals (clipped to the span), and allocations minus the
/// children's allocations.
///
/// # Panics
///
/// If a parent index does not precede its child.
#[must_use]
pub fn self_costs(spans: &[Span]) -> Vec<SelfCost> {
    // Children grouped by parent, in start order.
    let mut kids: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent.is_some())
        .collect();
    kids.sort_unstable_by_key(|&i| (spans[i].parent, spans[i].start_ns));
    let mut out: Vec<SelfCost> = spans
        .iter()
        .map(|s| SelfCost {
            ns: s.dur_ns(),
            allocs: s.allocs,
            alloc_bytes: s.alloc_bytes,
        })
        .collect();
    let mut g = 0;
    while g < kids.len() {
        let p = spans[kids[g]].parent.expect("filtered to children");
        let ps = &spans[p];
        let mut covered = 0;
        let mut cur: Option<(u64, u64)> = None;
        while g < kids.len() && spans[kids[g]].parent == Some(p) {
            let c = &spans[kids[g]];
            assert!(p < kids[g], "parent must precede child");
            out[p].allocs = out[p].allocs.saturating_sub(c.allocs);
            out[p].alloc_bytes = out[p].alloc_bytes.saturating_sub(c.alloc_bytes);
            let (a, b) = (c.start_ns.max(ps.start_ns), c.end_ns.min(ps.end_ns));
            if a < b {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            g += 1;
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        out[p].ns -= covered;
    }
    out
}

/// Most samples kept per span name; past this the sampler keeps every
/// second sample and doubles its stride, so percentiles stay
/// deterministic and memory stays bounded.
const SAMPLE_CAP: usize = 1 << 18;

/// A deterministic, stride-doubling subsample of a value stream.
#[derive(Debug, Clone)]
pub struct Sampler {
    stride: u64,
    seen: u64,
    vals: Vec<u64>,
}

impl Default for Sampler {
    fn default() -> Self {
        Self {
            stride: 1,
            seen: 0,
            vals: Vec::new(),
        }
    }
}

impl Sampler {
    pub fn push(&mut self, v: u64) {
        if self.seen.is_multiple_of(self.stride) {
            self.vals.push(v);
            if self.vals.len() >= SAMPLE_CAP {
                self.vals = self.vals.iter().step_by(2).copied().collect();
                self.stride *= 2;
            }
        }
        self.seen += 1;
    }

    /// Nearest-rank percentile of the kept samples (0 when empty).
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        let mut v = self.vals.clone();
        crate::stats::percentile_u64(&mut v, p)
    }

    /// The kept samples, in arrival order.
    #[must_use]
    pub fn values(&self) -> &[u64] {
        &self.vals
    }
}

/// Everything recorded for one span name.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    pub count: u64,
    pub self_ns: u64,
    pub incl_ns: u64,
    pub self_allocs: u64,
    pub self_alloc_bytes: u64,
    pub self_samples: Sampler,
}

/// Per-name aggregates over every absorbed unit, plus each unit's
/// traced host time.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    pub by_name: BTreeMap<&'static str, Agg>,
    /// Duration of every [`UNIT`] root span, in ns.
    pub unit_ns: Vec<u64>,
    /// Sum over units of |Σ self times − root duration|; zero when the
    /// span tree accounts for every nanosecond of each unit.
    pub self_time_gap_ns: u64,
}

impl Profile {
    /// Fold a drained span buffer in. Each root span named [`UNIT`] is
    /// one timed unit; the self-time check covers every root.
    pub fn absorb(&mut self, spans: &[Span]) {
        let costs = self_costs(spans);
        let mut root_of = vec![0usize; spans.len()];
        let mut self_sum: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, (s, c)) in spans.iter().zip(&costs).enumerate() {
            root_of[i] = s.parent.map_or(i, |p| root_of[p]);
            *self_sum.entry(root_of[i]).or_default() += c.ns;
            let a = self.by_name.entry(s.name).or_default();
            a.count += 1;
            a.self_ns += c.ns;
            a.incl_ns += s.dur_ns();
            a.self_allocs += c.allocs;
            a.self_alloc_bytes += c.alloc_bytes;
            a.self_samples.push(c.ns);
        }
        for (root, sum) in self_sum {
            let d = spans[root].dur_ns();
            if spans[root].name == UNIT {
                self.unit_ns.push(d);
            }
            self.self_time_gap_ns += sum.abs_diff(d);
        }
    }

    /// The aggregate for `name`, if any span of that name was recorded.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Agg> {
        self.by_name.get(name).filter(|a| a.count > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, parent: Option<usize>, allocs: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            allocs,
            alloc_bytes: allocs * 10,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        // root [0,100) ─┬─ a [10,40) ── a1 [15,25)
        //               └─ b [50,90)
        let spans = [
            s(UNIT, 0, 100, None, 10),
            s("a", 10, 40, Some(0), 4),
            s("a1", 15, 25, Some(1), 1),
            s("b", 50, 90, Some(0), 3),
        ];
        let c = self_costs(&spans);
        assert_eq!(c.iter().map(|c| c.ns).collect::<Vec<_>>(), [30, 20, 10, 40]);
        assert_eq!(c.iter().map(|c| c.allocs).collect::<Vec<_>>(), [3, 3, 1, 3]);
        assert_eq!(c[0].alloc_bytes, 30);
        let mut p = Profile::default();
        p.absorb(&spans);
        assert_eq!(p.unit_ns, [100]);
        assert_eq!(p.self_time_gap_ns, 0, "self times add up to the unit");
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        // Children overlap each other and overhang the parent's end:
        // covered = [10, 60) ∪ [70, 80) clipped to [0, 80) = 60.
        let spans = [
            s("p", 0, 80, None, 0),
            s("x", 10, 50, Some(0), 0),
            s("y", 30, 60, Some(0), 0),
            s("z", 70, 95, Some(0), 0),
        ];
        assert_eq!(self_costs(&spans)[0].ns, 20);
    }

    #[test]
    fn recorder_nests_spans_and_sums_to_the_root() {
        enable();
        let v = span(UNIT, || {
            let a = span("child", || vec![1u8; 64]);
            span("child", || a.len())
        });
        disable();
        assert_eq!(v, 64);
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[1].allocs >= 1, "the vec! allocation is counted");
        let mut p = Profile::default();
        p.absorb(&spans);
        assert_eq!(p.get("child").map(|a| a.count), Some(2));
        assert_eq!(p.self_time_gap_ns, 0);
    }

    #[test]
    fn sampler_is_deterministic_and_bounded() {
        let mut a = Sampler::default();
        for v in 0..(SAMPLE_CAP as u64 * 3) {
            a.push(v);
        }
        assert!(a.values().len() < SAMPLE_CAP);
        let m = a.percentile(50.0);
        let total = SAMPLE_CAP as u64 * 3;
        assert!(m.abs_diff(total / 2) < total / 100, "median {m}");
    }
}
