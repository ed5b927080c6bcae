//! The kernel flight recorder: a bounded ring buffer of structured,
//! causally linked trace events.
//!
//! PR 1's `MetricsRegistry` answers *how often* each of the paper's
//! eight recovery mechanisms fired; this module answers *what happened*:
//! which fault triggered which micro-reboot, which σ-walk replays it
//! caused, in what order D1/T0/U0 fired, and where the simulated
//! nanoseconds went. Every [`TraceEvent`] is stamped with the virtual
//! [`SimTime`], the driving thread, the component it concerns, that
//! component's micro-reboot [`Epoch`], a monotonically assigned span id
//! and a *causal parent* span id — so a whole recovery episode forms a
//! tree rooted at the fault event.
//!
//! Design constraints (mirrored by the determinism test suite):
//!
//! * **Off by default, near-zero cost when disabled.** Every emission
//!   site is guarded by one branch on [`FlightRecorder::is_enabled`].
//! * **Bounded.** Events are retained in two rings of at most `capacity`
//!   each, dropping the *oldest* on overflow (flight-recorder semantics:
//!   the most recent window survives). *Ambient* events — invocations,
//!   block/wake/sleep, descriptor create/close — share one ring;
//!   *recovery-class* events — faults, reboots, σ-walk steps, upcalls,
//!   episode ends, and mechanism firings on a component inside an open
//!   episode — live in their own ring, so a flood of steady-state
//!   request traffic (a Fig 7 throughput run emits millions of ambient
//!   events) can never evict the recovery record. Every timed event that
//!   attributes to an episode is recovery-class, so latency attribution
//!   survives ambient overflow intact. Drops are counted per tier, never
//!   silent.
//! * **Deterministic.** Events depend only on simulated execution, never
//!   on wall clock or host scheduling; per-shard buffers are renumbered
//!   and merged in shard order ([`TraceShard::absorb`]), so `--jobs 1`
//!   and `--jobs 8` produce byte-identical dumps.
//!
//! ## Episodes and latency attribution
//!
//! A **recovery episode** for component `c` opens at a
//! [`TraceEventKind::FaultInjected`] on `c` and closes at the next fault
//! of `c` or when the trace is drained, emitting a
//! [`TraceEventKind::EpisodeEnd`] carrying the total simulated time
//! attributed to the episode. A fault raised *while a recovery is in
//! flight* (correlated faults) instead pushes a **child episode** on the
//! component's episode stack — bounded by [`MAX_EPISODE_DEPTH`] — and
//! the `EpisodeEnd` pops innermost-first, so the dump forms a proper
//! episode tree. Timed events (`dur > 0`: reboots, σ-walk steps, storage
//! round trips, upcalls) accumulate into the *innermost* open episode of
//! their component (no double counting across the tree); the `sgtrace
//! timeline` analyzer independently re-sums them and checks
//! conservation: the per-mechanism spans of an episode must account for
//! 100% of its attributed latency.
//!
//! ## Compact ring, lazy rendering
//!
//! Millions of events can pass through the rings while only the newest
//! `capacity` per tier survive, so recording must be cheap and rendering
//! is paid only for survivors. The rings hold fixed-size `Copy` records,
//! [`TraceEvent<NameId>`](TraceEvent): emission sites pass function
//! names as `&str`, and the recorder interns them into a name table it
//! owns. [`FlightRecorder::drain`] materialises the public owned
//! [`TraceEvent`] for retained events only. The renderers
//! ([`write_jsonl`], [`write_chrome`]) stream each event straight into
//! one output buffer with the escape and layout helpers of
//! [`Json`](crate::json::Json)'s writer, never building a value tree.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io;

use crate::ids::{ComponentId, Epoch, ThreadId};
use crate::intern::{Interner, NameId};
use crate::json::{SeqWriter, WriteJson};
use crate::metrics::Mechanism;
use crate::time::SimTime;

/// Default ring capacity used by the harness `--trace` flags.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// Schema version of the `--trace` JSON-lines emitter (the `"v"` field
/// on every shard header). Bump when an event field changes meaning.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Hard bound on nested recovery-episode depth: a fault raised while a
/// recovery is in flight opens a *child* episode, but the tree can never
/// grow deeper than this (the kernel clamps, keeping pathological
/// correlated-fault storms bounded and the analyzers' recursion finite).
pub const MAX_EPISODE_DEPTH: u32 = 8;

/// What one trace event records. `F` is the type of the function names
/// carried by invocations, σ-walk steps and upcalls: owned `String`s in
/// drained shards (the default), borrowed `&str` at emission sites, and
/// interned [`NameId`]s inside the recorder's rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind<F = String> {
    /// A component invocation began (`function`, on behalf of `client`).
    InvokeEnter { function: F, client: ComponentId },
    /// The invocation identified by `parent` returned; `outcome` is one
    /// of `"ok"`, `"fault"`, `"would-block"`, `"err"`.
    InvokeExit { outcome: &'static str },
    /// The event's thread blocked inside the event's component.
    Block,
    /// The event's thread went to sleep until `until`.
    Sleep { until: SimTime },
    /// The event's thread was made runnable again.
    Wake,
    /// A fail-stop fault was injected into the event's component. Roots
    /// a new recovery episode; `depth > 0` marks a *nested* fault raised
    /// while another recovery episode was already in flight (the new
    /// episode becomes a child in the episode tree).
    FaultInjected { depth: u32 },
    /// The kernel watchdog converted an expired per-invocation step
    /// budget into a detected fault on the event's component.
    WatchdogFired,
    /// The component was marked degraded after a reboot storm; clients
    /// fail fast until `until`, when the booter cold-restarts it.
    DegradedMarked { until: SimTime },
    /// The booter cold-restarted the event's component, clearing its
    /// degraded mark.
    ColdRestart,
    /// The booter micro-rebooted the event's component; `dur` spans the
    /// reboot cost plus the post-reboot initialization upcall.
    Reboot,
    /// `n` firings of recovery mechanism `mech` (the same increment the
    /// [`MetricsRegistry`](crate::metrics::MetricsRegistry) counted —
    /// both are written by the single `Kernel::record_mechanism` choke
    /// point, so counters and trace can never disagree).
    MechanismFired { mech: Mechanism, n: u64 },
    /// One σ-walk function replay (`function`) rebuilding descriptor
    /// `desc` (`None` for the hand-written C³ stubs, which do not expose
    /// descriptor ids); `mech` is the walk flavor (R0 normal, T1
    /// deferred-completion substitution). `dur` spans the recovery-step
    /// charge plus the replayed invocation.
    WalkStep {
        function: F,
        desc: Option<i64>,
        mech: Mechanism,
    },
    /// A stub began tracking descriptor `desc`.
    DescriptorCreated { desc: i64 },
    /// Close semantics dropped descriptor `desc` and `dropped` tracked
    /// descriptors in total (itself plus any revoked subtree).
    DescriptorClosed { desc: i64, dropped: u64 },
    /// A kernel/booter-initiated upcall dispatched `function`.
    Upcall { function: F },
    /// A showstopper message was routed to the dead-letter queue:
    /// message `msg` on channel descriptor `desc` faulted its consumer
    /// `deliveries` times and is escalated past further re-delivery (the
    /// DL0 mechanism, sitting between watchdog detection and the
    /// reboot-storm backoff in the escalation ladder).
    DeadLetter {
        desc: i64,
        msg: i64,
        deliveries: u64,
    },
    /// The recovery episode rooted at `parent` closed; `attributed` is
    /// the total simulated time its timed events accumulated.
    EpisodeEnd { attributed: SimTime },
}

impl<F> TraceEventKind<F> {
    /// Stable snake_case name used in JSON output.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::InvokeEnter { .. } => "invoke_enter",
            TraceEventKind::InvokeExit { .. } => "invoke_exit",
            TraceEventKind::Block => "block",
            TraceEventKind::Sleep { .. } => "sleep",
            TraceEventKind::Wake => "wake",
            TraceEventKind::FaultInjected { .. } => "fault",
            TraceEventKind::WatchdogFired => "watchdog",
            TraceEventKind::DegradedMarked { .. } => "degraded",
            TraceEventKind::ColdRestart => "cold_restart",
            TraceEventKind::Reboot => "reboot",
            TraceEventKind::MechanismFired { .. } => "mechanism",
            TraceEventKind::WalkStep { .. } => "walk_step",
            TraceEventKind::DescriptorCreated { .. } => "desc_created",
            TraceEventKind::DescriptorClosed { .. } => "desc_closed",
            TraceEventKind::Upcall { .. } => "upcall",
            TraceEventKind::DeadLetter { .. } => "dead_letter",
            TraceEventKind::EpisodeEnd { .. } => "episode_end",
        }
    }

    /// Whether the event kind occurs only during recovery (faults,
    /// reboots, σ-walk steps, upcalls, episode ends) and is therefore
    /// always retained in the recovery ring tier. Mechanism firings are
    /// *not* listed: D0/G0/G1 also fire on every steady-state descriptor
    /// operation, so the recorder routes them by whether their component
    /// has an open recovery episode.
    #[must_use]
    pub fn is_recovery_class(&self) -> bool {
        matches!(
            self,
            TraceEventKind::FaultInjected { .. }
                | TraceEventKind::WatchdogFired
                | TraceEventKind::DegradedMarked { .. }
                | TraceEventKind::ColdRestart
                | TraceEventKind::Reboot
                | TraceEventKind::WalkStep { .. }
                | TraceEventKind::Upcall { .. }
                | TraceEventKind::DeadLetter { .. }
                | TraceEventKind::EpisodeEnd { .. }
        )
    }

    /// The same kind with its function name (if it carries one) mapped
    /// through `f`.
    fn map_function<G>(self, f: impl FnOnce(F) -> G) -> TraceEventKind<G> {
        use TraceEventKind as K;
        match self {
            K::InvokeEnter { function, client } => K::InvokeEnter {
                function: f(function),
                client,
            },
            K::WalkStep {
                function,
                desc,
                mech,
            } => K::WalkStep {
                function: f(function),
                desc,
                mech,
            },
            K::Upcall { function } => K::Upcall {
                function: f(function),
            },
            K::InvokeExit { outcome } => K::InvokeExit { outcome },
            K::Block => K::Block,
            K::Sleep { until } => K::Sleep { until },
            K::Wake => K::Wake,
            K::FaultInjected { depth } => K::FaultInjected { depth },
            K::WatchdogFired => K::WatchdogFired,
            K::DegradedMarked { until } => K::DegradedMarked { until },
            K::ColdRestart => K::ColdRestart,
            K::Reboot => K::Reboot,
            K::MechanismFired { mech, n } => K::MechanismFired { mech, n },
            K::DescriptorCreated { desc } => K::DescriptorCreated { desc },
            K::DescriptorClosed { desc, dropped } => K::DescriptorClosed { desc, dropped },
            K::DeadLetter {
                desc,
                msg,
                deliveries,
            } => K::DeadLetter {
                desc,
                msg,
                deliveries,
            },
            K::EpisodeEnd { attributed } => K::EpisodeEnd { attributed },
        }
    }
}

/// One flight-recorder event (`F` as for [`TraceEventKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent<F = String> {
    /// Monotonically assigned span id, unique within a [`TraceShard`].
    pub span: u64,
    /// Causal parent span (`None` for roots: fault injections and
    /// top-level invocations outside any recovery).
    pub parent: Option<u64>,
    /// Simulated start time of the event.
    pub time: SimTime,
    /// Simulated duration (zero for instant events).
    pub dur: SimTime,
    /// The thread driving the event.
    pub thread: ThreadId,
    /// The component the event concerns (the failed/recovering server
    /// for recovery events).
    pub component: ComponentId,
    /// That component's micro-reboot epoch when the event fired.
    pub epoch: Epoch,
    pub kind: TraceEventKind<F>,
}

impl<F> TraceEvent<F> {
    /// The same event with its function name (if any) mapped through
    /// `f`.
    fn map_function<G>(self, f: impl FnOnce(F) -> G) -> TraceEvent<G> {
        TraceEvent {
            span: self.span,
            parent: self.parent,
            time: self.time,
            dur: self.dur,
            thread: self.thread,
            component: self.component,
            epoch: self.epoch,
            kind: self.kind.map_function(f),
        }
    }
}

/// An in-flight timed span opened by `Kernel::trace_open` and closed —
/// with its measured duration — by `Kernel::trace_close`.
#[derive(Debug, Clone, Copy)]
pub struct TraceScope {
    pub(crate) span: u64,
    pub(crate) parent: Option<u64>,
    pub(crate) start: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct Episode {
    root: u64,
    attributed: SimTime,
}

/// Per-component stack of open episodes: the last entry is the innermost
/// (nested) episode; timed events attribute to it alone, so the episode
/// tree conserves latency without double counting.
type EpisodeStack = Vec<Episode>;

/// Slots of the recorder's address-keyed name cache; a prime, so aligned
/// addresses spread over all of them.
const RECENT_SLOTS: usize = 31;

/// One ring entry: the push sequence number (so `drain` can interleave
/// the tiers back into emission order) and the event in its compact,
/// fixed-size form.
type Record = (u64, TraceEvent<NameId>);

/// The bounded event ring the kernel carries. All methods are cheap
/// no-ops while disabled.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    enabled: bool,
    capacity: usize,
    /// Ambient tier: invocations, block/wake/sleep, descriptor events.
    ambient: VecDeque<Record>,
    /// Recovery tier: never evicted by ambient traffic.
    recovery: VecDeque<Record>,
    /// The function names ring records refer to. Kept across drains: the
    /// set is small and fixed by the interfaces loaded.
    functions: Interner,
    /// Recently interned names by address (see [`Self::function_id`]).
    recent: [(usize, NameId); RECENT_SLOTS],
    next_seq: u64,
    dropped: u64,
    dropped_recovery: u64,
    next_span: u64,
    /// Spans of in-flight kernel invocations (innermost last); the
    /// simulation is single-threaded, so one stack suffices.
    invoke_stack: Vec<u64>,
    /// Spans of in-flight recovery scopes (reboots, σ-walk steps, U0
    /// upcalls) — consulted before the invoke stack so that events
    /// emitted during recovery hang off the recovery tree.
    recovery_stack: Vec<u64>,
    /// Open recovery episodes per component (innermost last).
    episodes: BTreeMap<ComponentId, EpisodeStack>,
}

impl FlightRecorder {
    /// Turn recording on with the given ring capacity (minimum 1).
    pub fn enable(&mut self, capacity: usize) {
        self.enabled = true;
        self.capacity = capacity.max(1);
    }

    /// Whether events are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Events currently retained (both tiers).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ambient.len() + self.recovery.len()
    }

    /// Whether both tiers are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ambient.is_empty() && self.recovery.is_empty()
    }

    /// Allocate the next span id.
    pub(crate) fn alloc_span(&mut self) -> u64 {
        let s = self.next_span;
        self.next_span += 1;
        s
    }

    pub(crate) fn push_invoke(&mut self, span: u64) {
        self.invoke_stack.push(span);
    }

    pub(crate) fn pop_invoke(&mut self) {
        self.invoke_stack.pop();
    }

    pub(crate) fn push_scope(&mut self, span: u64) {
        self.recovery_stack.push(span);
    }

    pub(crate) fn pop_scope(&mut self) {
        self.recovery_stack.pop();
    }

    /// The causal parent for a new event concerning `c`: the innermost
    /// open recovery scope, else the innermost in-flight invocation,
    /// else the root of `c`'s open recovery episode.
    pub(crate) fn causal_parent(&self, c: ComponentId) -> Option<u64> {
        self.recovery_stack
            .last()
            .or_else(|| self.invoke_stack.last())
            .copied()
            .or_else(|| self.episodes.get(&c).and_then(|s| s.last()).map(|e| e.root))
    }

    /// Number of currently open episodes on `c` (nesting depth).
    pub(crate) fn episode_depth(&self, c: ComponentId) -> u32 {
        self.episodes.get(&c).map_or(0, |s| s.len() as u32)
    }

    /// Append an event, interning its function name, attributing its
    /// duration to the open episode of its component and dropping the
    /// oldest event of its tier on overflow.
    pub(crate) fn record(&mut self, ev: TraceEvent<&str>) {
        if ev.dur > SimTime::ZERO {
            // Attribute to the innermost open episode only — the episode
            // tree conserves latency without double counting.
            if let Some(ep) = self
                .episodes
                .get_mut(&ev.component)
                .and_then(|s| s.last_mut())
            {
                ep.attributed += ev.dur;
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        // Mechanism firings belong to the recovery record exactly when
        // their component is inside an episode (those are the firings
        // whose durations attribute); steady-state firings are ambient.
        let recovery_class = ev.kind.is_recovery_class()
            || (matches!(ev.kind, TraceEventKind::MechanismFired { .. })
                && self.episodes.contains_key(&ev.component));
        let ev = ev.map_function(|f| self.function_id(f));
        let tier = if recovery_class {
            &mut self.recovery
        } else {
            &mut self.ambient
        };
        if tier.len() >= self.capacity {
            tier.pop_front();
            if recovery_class {
                self.dropped_recovery += 1;
            } else {
                self.dropped += 1;
            }
        }
        tier.push_back((seq, ev));
    }

    /// The id of function name `f` in the recorder's table. Emission
    /// sites pass the same few long-lived strings (interface-function
    /// names owned by compiled stubs and services) millions of times, so
    /// a small cache keyed by address answers nearly every lookup and
    /// the interner's scan runs only on a miss. A hit is confirmed by
    /// content, so a reused address can only miss.
    fn function_id(&mut self, f: &str) -> NameId {
        let addr = f.as_ptr() as usize;
        let slot = &mut self.recent[addr % RECENT_SLOTS];
        if slot.0 == addr && self.functions.resolve(slot.1) == f {
            return slot.1;
        }
        let id = self.functions.intern(f);
        *slot = (addr, id);
        id
    }

    /// Open a recovery episode for `c` rooted at `root`, pushed on top of
    /// any episode already in flight (nested faults).
    pub(crate) fn begin_episode(&mut self, c: ComponentId, root: u64) {
        self.episodes.entry(c).or_default().push(Episode {
            root,
            attributed: SimTime::ZERO,
        });
    }

    /// Close `c`'s *innermost* open episode (if any), emitting its
    /// [`TraceEventKind::EpisodeEnd`].
    pub(crate) fn end_episode(
        &mut self,
        c: ComponentId,
        epoch: Epoch,
        time: SimTime,
        thread: ThreadId,
    ) {
        let Some(stack) = self.episodes.get_mut(&c) else {
            return;
        };
        let Some(ep) = stack.pop() else { return };
        if stack.is_empty() {
            self.episodes.remove(&c);
        }
        let span = self.alloc_span();
        self.record(TraceEvent {
            span,
            parent: Some(ep.root),
            time,
            dur: SimTime::ZERO,
            thread,
            component: c,
            epoch,
            kind: TraceEventKind::EpisodeEnd {
                attributed: ep.attributed,
            },
        });
    }

    /// Components with an open episode — one entry per open episode, in
    /// id order — drained by `Kernel::take_trace`, which must close them
    /// all (each `end_episode` call pops one nesting level).
    pub(crate) fn open_episode_components(&self) -> Vec<ComponentId> {
        self.episodes
            .iter()
            .flat_map(|(c, s)| std::iter::repeat_n(*c, s.len()))
            .collect()
    }

    /// Drain all recorded events and counters, resetting the recorder
    /// for continued use. The two tiers are interleaved back into
    /// emission order, and only these retained events are materialised
    /// with owned function names. Returns
    /// `(events, dropped_ambient, dropped_recovery, span_count)`.
    pub(crate) fn drain(&mut self) -> (Vec<TraceEvent>, u64, u64, u64) {
        let mut ambient = std::mem::take(&mut self.ambient);
        let mut recovery = std::mem::take(&mut self.recovery);
        let mut events = Vec::with_capacity(ambient.len() + recovery.len());
        loop {
            let take_ambient = match (ambient.front(), recovery.front()) {
                (Some((sa, _)), Some((sr, _))) => sa < sr,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let src = if take_ambient {
                &mut ambient
            } else {
                &mut recovery
            };
            let (_, ev) = src.pop_front().expect("front checked");
            events.push(ev.map_function(|id| self.functions.resolve(id).to_owned()));
        }
        let dropped = std::mem::take(&mut self.dropped);
        let dropped_recovery = std::mem::take(&mut self.dropped_recovery);
        let span_count = std::mem::take(&mut self.next_span);
        self.next_seq = 0;
        self.invoke_stack.clear();
        self.recovery_stack.clear();
        self.episodes.clear();
        (events, dropped, dropped_recovery, span_count)
    }
}

/// One drained, self-contained slice of trace: the events of one kernel
/// (or several absorbed in deterministic order), plus the component-name
/// table resolving ids. Plain data, `Send`, mergeable across campaign
/// shards in shard order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceShard {
    /// Harness-assigned context label, e.g. `"table2/lock/superglue/shard0"`.
    pub label: String,
    /// Component names indexed by component id.
    pub names: Vec<String>,
    pub events: Vec<TraceEvent>,
    /// Ambient events lost to ring overflow.
    pub dropped: u64,
    /// Recovery-class events lost to ring overflow. When zero, every
    /// fault/reboot/walk/mechanism/upcall event — and thus the full
    /// latency attribution of every episode — is present even if
    /// `dropped > 0`.
    pub dropped_recovery: u64,
    /// Span ids `0..span_count` are in use (absorbing renumbers by this
    /// offset, keeping spans unique within the merged shard).
    pub span_count: u64,
}

impl TraceShard {
    /// An empty shard carrying only a label.
    #[must_use]
    pub fn labeled(label: &str) -> Self {
        Self {
            label: label.to_owned(),
            ..Self::default()
        }
    }

    /// Append another shard's events, renumbering its spans past this
    /// shard's. Used when one logical shard spans several kernel
    /// lifetimes (machine reboots rebuild the testbed) and when harness
    /// tasks are merged in deterministic order.
    pub fn absorb(&mut self, other: TraceShard) {
        let offset = self.span_count;
        self.events.reserve(other.events.len());
        for mut ev in other.events {
            ev.span += offset;
            if let Some(p) = ev.parent.as_mut() {
                *p += offset;
            }
            self.events.push(ev);
        }
        self.span_count += other.span_count;
        self.dropped += other.dropped;
        self.dropped_recovery += other.dropped_recovery;
        if self.names.is_empty() {
            self.names = other.names;
        }
    }
}

/// Bytes the streaming writers buffer before handing them to their
/// `io::Write` sink.
const CHUNK: usize = 1 << 16;

/// Typical rendered bytes per event (JSON-lines, Chrome; the pipeline
/// workload averages about 150 and 260). The in-memory renderers reserve
/// this much up front so a large dump is not copied as its buffer grows;
/// it is only a hint, and untouched capacity is never resident.
const JSONL_BYTES_PER_EVENT: usize = 160;
const CHROME_BYTES_PER_EVENT: usize = 280;

/// Called by a renderer after each line or event with the output buffer,
/// which it may drain to the final destination.
type Spill<'a> = &'a mut dyn FnMut(&mut String) -> io::Result<()>;

/// Render shards as JSON-lines: one header object per shard followed by
/// its events, in shard order (byte-identical for any `--jobs`).
#[must_use]
pub fn shards_to_jsonl(shards: &[TraceShard]) -> String {
    in_memory(shards, JSONL_BYTES_PER_EVENT, render_jsonl)
}

/// Render shards in Chrome `trace_event` JSON (loadable in
/// `chrome://tracing` and Perfetto): one process per shard, one track
/// per thread; timed events become complete (`"X"`) slices, instants
/// become `"i"` markers. Timestamps are microseconds (fractional: the
/// simulation is nanosecond-granular).
#[must_use]
pub fn shards_to_chrome(shards: &[TraceShard]) -> String {
    in_memory(shards, CHROME_BYTES_PER_EVENT, render_chrome)
}

/// Stream the [`shards_to_jsonl`] rendering to `w` in chunks, without
/// holding the whole dump in memory.
///
/// # Errors
///
/// The first error `w` returns.
pub fn write_jsonl(shards: &[TraceShard], w: &mut impl io::Write) -> io::Result<()> {
    streamed(shards, w, render_jsonl)
}

/// Stream the [`shards_to_chrome`] rendering to `w` in chunks, without
/// holding the whole dump in memory.
///
/// # Errors
///
/// The first error `w` returns.
pub fn write_chrome(shards: &[TraceShard], w: &mut impl io::Write) -> io::Result<()> {
    streamed(shards, w, render_chrome)
}

/// A renderer: writes `shards` into the buffer, spilling as it goes.
type Render = fn(&[TraceShard], &mut String, Spill<'_>) -> io::Result<()>;

fn in_memory(shards: &[TraceShard], bytes_per_event: usize, render: Render) -> String {
    let events: usize = shards.iter().map(|s| s.events.len()).sum();
    let mut out = String::with_capacity(events * bytes_per_event);
    // Nothing spills: the whole rendering accumulates in `out`.
    render(shards, &mut out, &mut |_| Ok(())).expect("rendering into a String cannot fail");
    out
}

fn streamed(shards: &[TraceShard], w: &mut impl io::Write, render: Render) -> io::Result<()> {
    let mut buf = String::with_capacity(2 * CHUNK);
    render(shards, &mut buf, &mut |buf| {
        if buf.len() >= CHUNK {
            w.write_all(buf.as_bytes())?;
            buf.clear();
        }
        Ok(())
    })?;
    w.write_all(buf.as_bytes())
}

fn component_name(names: &[String], c: ComponentId) -> &str {
    names.get(c.0 as usize).map_or("?", String::as_str)
}

fn render_jsonl(shards: &[TraceShard], out: &mut String, spill: Spill<'_>) -> io::Result<()> {
    for shard in shards {
        // The header leads with the emitter's schema version so
        // downstream tooling (`sgtrace`, `sgstat`) can detect drift.
        let mut j = SeqWriter::open(out, None, 0, '{');
        j.field("v", TRACE_SCHEMA_VERSION)
            .field("shard", &shard.label);
        let mut names = j.nested(Some("names"), '[');
        for n in &shard.names {
            names.value(n);
        }
        names.close();
        j.field("events", shard.events.len())
            .field("dropped", shard.dropped)
            .field("dropped_recovery", shard.dropped_recovery)
            .field("span_count", shard.span_count);
        j.close();
        out.push('\n');
        spill(out)?;
        for ev in &shard.events {
            jsonl_event(out, ev, &shard.names);
            out.push('\n');
            spill(out)?;
        }
    }
    Ok(())
}

/// One event as a JSON-lines object; `names` resolves component ids.
fn jsonl_event(out: &mut String, ev: &TraceEvent, names: &[String]) {
    let mut j = SeqWriter::open(out, None, 0, '{');
    j.field("span", ev.span)
        .field("parent", ev.parent)
        .field("ts", ev.time.0)
        .field("dur", ev.dur.0)
        .field("tid", ev.thread.0)
        .field("comp", ev.component.0)
        .field("name", component_name(names, ev.component))
        .field("epoch", ev.epoch.0)
        .field("kind", ev.kind.name());
    match &ev.kind {
        TraceEventKind::InvokeEnter { function, client } => {
            j.field("function", function).field("client", client.0);
        }
        TraceEventKind::InvokeExit { outcome } => {
            j.field("outcome", *outcome);
        }
        TraceEventKind::Sleep { until } | TraceEventKind::DegradedMarked { until } => {
            j.field("until", until.0);
        }
        TraceEventKind::MechanismFired { mech, n } => {
            j.field("mech", mech.name()).field("n", *n);
        }
        TraceEventKind::WalkStep {
            function,
            desc,
            mech,
        } => {
            j.field("function", function)
                .field("desc", *desc)
                .field("mech", mech.name());
        }
        TraceEventKind::DescriptorCreated { desc } => {
            j.field("desc", *desc);
        }
        TraceEventKind::DescriptorClosed { desc, dropped } => {
            j.field("desc", *desc).field("dropped", *dropped);
        }
        TraceEventKind::Upcall { function } => {
            j.field("function", function);
        }
        TraceEventKind::DeadLetter {
            desc,
            msg,
            deliveries,
        } => {
            j.field("desc", *desc)
                .field("msg", *msg)
                .field("deliveries", *deliveries);
        }
        TraceEventKind::EpisodeEnd { attributed } => {
            j.field("attributed", attributed.0);
        }
        // Emitted only for nested faults so that the established
        // single-fault dumps stay byte-identical.
        TraceEventKind::FaultInjected { depth } if *depth > 0 => {
            j.field("depth", *depth);
        }
        TraceEventKind::FaultInjected { .. }
        | TraceEventKind::Block
        | TraceEventKind::Wake
        | TraceEventKind::WatchdogFired
        | TraceEventKind::ColdRestart
        | TraceEventKind::Reboot => {}
    }
    j.close();
}

/// Write the human label for one event in the Chrome viewer into `out`
/// (cleared first).
fn chrome_name(out: &mut String, ev: &TraceEvent, names: &[String]) {
    out.clear();
    let comp = component_name(names, ev.component);
    let _ = match &ev.kind {
        TraceEventKind::InvokeEnter { function, .. } => {
            out.extend(["call ", comp, ".", function]);
            Ok(())
        }
        TraceEventKind::InvokeExit { outcome } => {
            out.extend(["ret ", outcome]);
            Ok(())
        }
        TraceEventKind::Block => write!(out, "block in {comp}"),
        TraceEventKind::Sleep { .. } => write!(out, "sleep"),
        TraceEventKind::Wake => write!(out, "wake ({comp})"),
        TraceEventKind::FaultInjected { depth: 0 } => write!(out, "FAULT {comp}"),
        TraceEventKind::FaultInjected { depth } => write!(out, "FAULT {comp} (nested x{depth})"),
        TraceEventKind::WatchdogFired => write!(out, "WATCHDOG {comp}"),
        TraceEventKind::DegradedMarked { .. } => write!(out, "degraded {comp}"),
        TraceEventKind::ColdRestart => write!(out, "cold restart {comp}"),
        TraceEventKind::Reboot => write!(out, "reboot {comp}"),
        TraceEventKind::MechanismFired { mech, n } => write!(out, "{} x{n} ({comp})", mech.name()),
        TraceEventKind::WalkStep { function, mech, .. } => {
            write!(out, "{} replay {comp}.{function}", mech.name())
        }
        TraceEventKind::DescriptorCreated { desc } => write!(out, "{comp} desc+{desc}"),
        TraceEventKind::DescriptorClosed { desc, .. } => write!(out, "{comp} desc-{desc}"),
        TraceEventKind::Upcall { function } => write!(out, "upcall {comp}.{function}"),
        TraceEventKind::DeadLetter {
            msg, deliveries, ..
        } => write!(out, "DEAD-LETTER {comp} msg {msg} (x{deliveries})"),
        TraceEventKind::EpisodeEnd { .. } => write!(out, "episode end {comp}"),
    };
}

/// A simulated duration in nanoseconds, written as the fractional
/// microseconds `(ns as f64 / 1000.0)` the Chrome format uses, with the
/// same bytes as that `f64`'s shortest round-trip (`{:?}`) rendering.
struct Micros(SimTime);

impl WriteJson for Micros {
    fn write_json(&self, out: &mut String) {
        let ns = self.0 .0;
        // Below 10^15 ns the quotient has at most 15 significant digits,
        // so no other decimal that short maps to the same f64: the
        // shortest round-trip form is the exact quotient itself, which
        // also stays clear of `{:?}`'s exponent forms (below 1e-4 and
        // from 1e16 on).
        if ns >= 1_000_000_000_000_000 {
            return (ns as f64 / 1000.0).write_json(out);
        }
        (ns / 1000).write_json(out);
        out.push('.');
        let frac = ns % 1000;
        if frac == 0 {
            out.push('0');
        } else {
            let digits = [frac / 100, frac / 10 % 10, frac % 10];
            let len = 3 - digits.iter().rev().take_while(|&&d| d == 0).count();
            out.extend(digits[..len].iter().map(|&d| char::from(b'0' + d as u8)));
        }
    }
}

fn render_chrome(shards: &[TraceShard], out: &mut String, spill: Spill<'_>) -> io::Result<()> {
    let mut top = SeqWriter::open(out, Some(2), 0, '{');
    let mut events = top.nested(Some("traceEvents"), '[');
    let mut name = String::new();
    for (pid, shard) in shards.iter().enumerate() {
        let mut meta = events.nested(None, '{');
        meta.field("ph", "M")
            .field("pid", pid)
            .field("name", "process_name");
        let mut args = meta.nested(Some("args"), '{');
        args.field("name", &shard.label);
        args.close();
        meta.close();
        spill(events.buf())?;
        for ev in &shard.events {
            chrome_name(&mut name, ev, &shard.names);
            let mut j = events.nested(None, '{');
            j.field("name", &name)
                .field("cat", ev.kind.name())
                .field("pid", pid)
                .field("tid", ev.thread.0)
                .field("ts", Micros(ev.time));
            if ev.dur > SimTime::ZERO {
                j.field("ph", "X").field("dur", Micros(ev.dur));
            } else {
                j.field("ph", "i").field("s", "t");
            }
            let mut args = j.nested(Some("args"), '{');
            args.field("span", ev.span);
            if let Some(p) = ev.parent {
                args.field("parent", p);
            }
            args.field("epoch", ev.epoch.0);
            args.close();
            j.close();
            spill(events.buf())?;
        }
    }
    events.close();
    top.field("displayTimeUnit", "ns");
    top.close();
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::metrics::MECHANISMS;
    use crate::rng::SplitMix64;

    fn ev<F>(
        span: u64,
        parent: Option<u64>,
        c: u32,
        dur: u64,
        kind: TraceEventKind<F>,
    ) -> TraceEvent<F> {
        TraceEvent {
            span,
            parent,
            time: SimTime(10),
            dur: SimTime(dur),
            thread: ThreadId(1),
            component: ComponentId(c),
            epoch: Epoch::default(),
            kind,
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = FlightRecorder::default();
        assert!(!r.is_enabled());
        assert!(r.is_empty());
    }

    #[test]
    fn ring_drops_oldest_on_overflow() {
        let mut r = FlightRecorder::default();
        r.enable(2);
        for i in 0..4 {
            let s = r.alloc_span();
            r.record(ev(s, None, 1, 0, TraceEventKind::Wake));
            let _ = i;
        }
        let (events, dropped, dropped_recovery, span_count) = r.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(dropped, 2);
        assert_eq!(dropped_recovery, 0);
        assert_eq!(span_count, 4);
        assert_eq!(events[0].span, 2, "oldest events dropped first");
    }

    #[test]
    fn ambient_flood_cannot_evict_recovery_events() {
        let mut r = FlightRecorder::default();
        r.enable(2);
        let root = r.alloc_span();
        r.record(ev(
            root,
            None,
            1,
            0,
            TraceEventKind::FaultInjected { depth: 0 },
        ));
        let s = r.alloc_span();
        r.record(ev(s, Some(root), 1, 40, TraceEventKind::Reboot));
        // A flood of steady-state traffic overflows the ambient tier...
        for _ in 0..10 {
            let s = r.alloc_span();
            r.record(ev(s, None, 1, 0, TraceEventKind::Wake));
        }
        let (events, dropped, dropped_recovery, _) = r.drain();
        assert_eq!(dropped, 8);
        assert_eq!(dropped_recovery, 0);
        // ...but the fault and the timed reboot survive, in emission
        // order ahead of the retained ambient tail.
        assert_eq!(events[0].kind, TraceEventKind::FaultInjected { depth: 0 });
        assert_eq!(events[1].kind, TraceEventKind::Reboot);
        assert_eq!(events.len(), 4);
    }

    #[test]
    fn episode_accumulates_timed_events_only_for_its_component() {
        let mut r = FlightRecorder::default();
        r.enable(64);
        let root = r.alloc_span();
        r.record(ev(
            root,
            None,
            3,
            0,
            TraceEventKind::FaultInjected { depth: 0 },
        ));
        r.begin_episode(ComponentId(3), root);
        let s = r.alloc_span();
        r.record(ev(s, Some(root), 3, 500, TraceEventKind::Reboot));
        let s = r.alloc_span();
        // A timed event on another component must not leak in.
        r.record(ev(s, None, 4, 999, TraceEventKind::Reboot));
        r.end_episode(ComponentId(3), Epoch::default(), SimTime(20), ThreadId(0));
        let (events, _, _, _) = r.drain();
        let end = events.last().unwrap();
        assert_eq!(end.parent, Some(root));
        assert_eq!(
            end.kind,
            TraceEventKind::EpisodeEnd {
                attributed: SimTime(500)
            }
        );
    }

    #[test]
    fn nested_episodes_pop_innermost_first_and_attribute_to_the_top() {
        let mut r = FlightRecorder::default();
        r.enable(64);
        let outer = r.alloc_span();
        r.record(ev(
            outer,
            None,
            3,
            0,
            TraceEventKind::FaultInjected { depth: 0 },
        ));
        r.begin_episode(ComponentId(3), outer);
        let s = r.alloc_span();
        r.record(ev(s, Some(outer), 3, 100, TraceEventKind::Reboot));
        // A correlated fault on the same component opens a child episode.
        let inner = r.alloc_span();
        r.record(ev(
            inner,
            Some(s),
            3,
            0,
            TraceEventKind::FaultInjected { depth: 1 },
        ));
        r.begin_episode(ComponentId(3), inner);
        assert_eq!(r.episode_depth(ComponentId(3)), 2);
        let s = r.alloc_span();
        r.record(ev(s, Some(inner), 3, 40, TraceEventKind::Reboot));
        r.end_episode(ComponentId(3), Epoch::default(), SimTime(20), ThreadId(0));
        let s = r.alloc_span();
        r.record(ev(s, Some(outer), 3, 7, TraceEventKind::Reboot));
        r.end_episode(ComponentId(3), Epoch::default(), SimTime(30), ThreadId(0));
        let (events, _, _, _) = r.drain();
        let ends: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::EpisodeEnd { .. }))
            .collect();
        assert_eq!(ends.len(), 2);
        // Innermost closes first, owning only its own timed events; the
        // outer episode resumes accumulating after the child closes.
        assert_eq!(ends[0].parent, Some(inner));
        assert_eq!(
            ends[0].kind,
            TraceEventKind::EpisodeEnd {
                attributed: SimTime(40)
            }
        );
        assert_eq!(ends[1].parent, Some(outer));
        assert_eq!(
            ends[1].kind,
            TraceEventKind::EpisodeEnd {
                attributed: SimTime(107)
            }
        );
    }

    #[test]
    fn absorb_renumbers_spans_and_parents() {
        let mut a = TraceShard::labeled("a");
        a.events.push(ev(
            0,
            None,
            1,
            0,
            TraceEventKind::FaultInjected { depth: 0 },
        ));
        a.span_count = 1;
        let mut b = TraceShard::labeled("b");
        b.events.push(ev(
            0,
            None,
            1,
            0,
            TraceEventKind::FaultInjected { depth: 0 },
        ));
        b.events.push(ev(1, Some(0), 1, 7, TraceEventKind::Reboot));
        b.span_count = 2;
        b.dropped = 3;
        a.absorb(b);
        assert_eq!(a.span_count, 3);
        assert_eq!(a.dropped, 3);
        assert_eq!(a.events[1].span, 1);
        assert_eq!(a.events[2].span, 2);
        assert_eq!(a.events[2].parent, Some(1));
    }

    #[test]
    fn causal_parent_prefers_recovery_scope() {
        let mut r = FlightRecorder::default();
        r.enable(16);
        assert_eq!(r.causal_parent(ComponentId(1)), None);
        r.begin_episode(ComponentId(1), 9);
        assert_eq!(r.causal_parent(ComponentId(1)), Some(9));
        r.push_invoke(11);
        assert_eq!(r.causal_parent(ComponentId(1)), Some(11));
        r.push_scope(12);
        assert_eq!(r.causal_parent(ComponentId(1)), Some(12));
        r.pop_scope();
        r.pop_invoke();
        assert_eq!(r.causal_parent(ComponentId(1)), Some(9));
    }

    #[test]
    fn jsonl_lines_carry_kind_fields() {
        let mut shard = TraceShard::labeled("t");
        shard.names = vec!["booter".into(), "lock".into()];
        shard.events.push(ev(
            0,
            None,
            1,
            0,
            TraceEventKind::WalkStep {
                function: "lock_take".into(),
                desc: Some(4),
                mech: Mechanism::R0,
            },
        ));
        shard.span_count = 1;
        let dump = shards_to_jsonl(std::slice::from_ref(&shard));
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""shard":"t""#));
        assert!(lines[1].contains(r#""kind":"walk_step""#));
        assert!(lines[1].contains(r#""function":"lock_take""#));
        assert!(lines[1].contains(r#""name":"lock""#));
        assert!(lines[1].contains(r#""desc":4"#));
    }

    #[test]
    fn chrome_dump_is_loadable_shape() {
        let mut shard = TraceShard::labeled("t");
        shard.names = vec!["booter".into(), "lock".into()];
        shard.events.push(ev(
            0,
            None,
            1,
            0,
            TraceEventKind::FaultInjected { depth: 0 },
        ));
        shard
            .events
            .push(ev(1, Some(0), 1, 250, TraceEventKind::Reboot));
        shard.span_count = 2;
        let dump = shards_to_chrome(&[shard]);
        assert!(dump.contains(r#""traceEvents""#));
        assert!(dump.contains(r#""ph": "M""#));
        assert!(dump.contains(r#""ph": "i""#));
        assert!(dump.contains(r#""ph": "X""#));
        assert!(dump.contains(r#""dur": 0.25"#));
    }

    /// A random string over an alphabet that exercises every escaping
    /// path: quotes, backslashes, control characters, non-ASCII.
    fn random_text(rng: &mut SplitMix64) -> String {
        const ALPHABET: [&str; 15] = [
            "a", "z", "_", ".", " ", "\"", "\\", "\n", "\t", "\r", "\u{1}", "\u{1f}", "é", "✓",
            "😀",
        ];
        (0..rng.gen_range(8))
            .map(|_| ALPHABET[rng.gen_index(ALPHABET.len())])
            .collect()
    }

    /// Number of [`TraceEventKind`] variants.
    const KINDS: u64 = 17;

    fn random_kind(rng: &mut SplitMix64, pick: u64) -> TraceEventKind {
        let mech = MECHANISMS[rng.gen_index(MECHANISMS.len())];
        let time = SimTime(rng.next_u64() >> rng.gen_range(64));
        let desc = rng.next_u64() as i64 >> rng.gen_range(64);
        match pick {
            0 => TraceEventKind::InvokeEnter {
                function: random_text(rng),
                client: ComponentId(rng.next_u32() % 6),
            },
            1 => TraceEventKind::InvokeExit {
                outcome: ["ok", "fault", "would-block", "err"][rng.gen_index(4)],
            },
            2 => TraceEventKind::Block,
            3 => TraceEventKind::Sleep { until: time },
            4 => TraceEventKind::Wake,
            5 => TraceEventKind::FaultInjected {
                depth: rng.gen_range(3) as u32,
            },
            6 => TraceEventKind::WatchdogFired,
            7 => TraceEventKind::DegradedMarked { until: time },
            8 => TraceEventKind::ColdRestart,
            9 => TraceEventKind::Reboot,
            10 => TraceEventKind::MechanismFired {
                mech,
                n: rng.gen_range(5),
            },
            11 => TraceEventKind::WalkStep {
                function: random_text(rng),
                desc: rng.gen_bool(1, 2).then_some(desc),
                mech,
            },
            12 => TraceEventKind::DescriptorCreated { desc },
            13 => TraceEventKind::DescriptorClosed {
                desc,
                dropped: rng.gen_range(4),
            },
            14 => TraceEventKind::Upcall {
                function: random_text(rng),
            },
            15 => TraceEventKind::DeadLetter {
                desc,
                msg: rng.next_u64() as i64,
                deliveries: rng.gen_range(5),
            },
            _ => TraceEventKind::EpisodeEnd { attributed: time },
        }
    }

    /// A shard of `len` random events; component ids run past the name
    /// table so some names resolve to `"?"`.
    fn random_shard(rng: &mut SplitMix64, len: u64) -> TraceShard {
        let mut shard = TraceShard::labeled(&random_text(rng));
        shard.names = (0..rng.gen_range(4)).map(|_| random_text(rng)).collect();
        for span in 0..len {
            let pick = rng.gen_range(KINDS);
            shard.events.push(TraceEvent {
                span,
                parent: rng.gen_bool(1, 2).then(|| rng.gen_range(span + 1)),
                time: SimTime(rng.next_u64() >> rng.gen_range(64)),
                dur: SimTime(if rng.gen_bool(1, 2) {
                    0
                } else {
                    rng.next_u64() >> rng.gen_range(64)
                }),
                thread: ThreadId(rng.next_u32() % 4),
                component: ComponentId(rng.next_u32() % 6),
                epoch: Epoch(rng.next_u32() % 3),
                kind: random_kind(rng, pick),
            });
        }
        shard.span_count = len;
        shard.dropped = rng.gen_range(3);
        shard.dropped_recovery = rng.gen_range(3);
        shard
    }

    /// Which escaping paths `text` exercises: quote, backslash, control
    /// character, non-ASCII.
    fn note_escapes(seen: &mut [bool; 4], text: &str) {
        seen[0] |= text.contains('"');
        seen[1] |= text.contains('\\');
        seen[2] |= text.chars().any(char::is_control);
        seen[3] |= !text.is_ascii();
    }

    #[test]
    fn streaming_renderers_match_the_json_tree_oracle() {
        let mut rng = SplitMix64::new(0x7ACE_5EED);
        // Zero shards, empty shards, then random ones; the last case is
        // large enough for the streamed writers to spill many chunks.
        let mut cases = vec![
            vec![],
            vec![TraceShard::default()],
            vec![TraceShard::labeled("empty \"one\""), TraceShard::default()],
        ];
        for _ in 0..300 {
            let n = rng.gen_range(4);
            cases.push(
                (0..n)
                    .map(|_| {
                        let len = rng.gen_range(30);
                        random_shard(&mut rng, len)
                    })
                    .collect(),
            );
        }
        cases.push(vec![random_shard(&mut rng, 3000)]);

        let mut kinds = BTreeSet::new();
        let mut seen = [false; 6];
        let mut escapes = [false; 4];
        for shards in &cases {
            for shard in shards {
                note_escapes(&mut escapes, &shard.label);
                shard
                    .names
                    .iter()
                    .for_each(|n| note_escapes(&mut escapes, n));
                for ev in &shard.events {
                    kinds.insert(ev.kind.name());
                    seen[usize::from(ev.parent.is_some())] = true;
                    seen[2 + usize::from(ev.dur > SimTime::ZERO)] = true;
                    if let TraceEventKind::FaultInjected { depth } = ev.kind {
                        seen[4 + usize::from(depth > 0)] = true;
                    }
                    if let TraceEventKind::InvokeEnter { function, .. }
                    | TraceEventKind::WalkStep { function, .. }
                    | TraceEventKind::Upcall { function } = &ev.kind
                    {
                        note_escapes(&mut escapes, function);
                    }
                }
            }
            let jsonl = oracle::shards_to_jsonl(shards);
            let chrome = oracle::shards_to_chrome(shards);
            assert_eq!(shards_to_jsonl(shards), jsonl);
            assert_eq!(shards_to_chrome(shards), chrome);
            let mut streamed = Vec::new();
            write_jsonl(shards, &mut streamed).unwrap();
            assert!(streamed == jsonl.as_bytes(), "streamed JSON-lines differ");
            streamed.clear();
            write_chrome(shards, &mut streamed).unwrap();
            assert!(
                streamed == chrome.as_bytes(),
                "streamed Chrome JSON differs"
            );
        }
        assert_eq!(kinds.len() as u64, KINDS, "every event kind rendered");
        assert_eq!(seen, [true; 6], "parent, dur and fault depth: both cases");
        assert_eq!(escapes, [true; 4], "every escaping path exercised");
    }

    #[test]
    fn micros_match_f64_debug_rendering() {
        for ns in [
            0,
            1,
            10,
            100,
            999,
            1000,
            1001,
            1010,
            1100,
            123_456_789,
            999_999_999_999_999,
            1_000_000_000_000_000,
            10_000_000_000_000_001,
            u64::MAX,
        ] {
            let mut out = String::new();
            Micros(SimTime(ns)).write_json(&mut out);
            assert_eq!(out, format!("{:?}", ns as f64 / 1000.0), "{ns} ns");
        }
    }

    #[test]
    fn recorder_interns_function_names_and_materialises_them_at_drain() {
        let mut r = FlightRecorder::default();
        r.enable(8);
        let enter = |r: &mut FlightRecorder, function: &str| {
            let s = r.alloc_span();
            let kind = TraceEventKind::InvokeEnter {
                function,
                client: ComponentId(0),
            };
            r.record(ev(s, None, 1, 0, kind));
        };
        // The same name from two addresses, and one address rewritten in
        // place with another name: the address cache must never confuse
        // them.
        let mut buf = String::from("take");
        enter(&mut r, &buf);
        enter(&mut r, "take");
        buf.replace_range(.., "give");
        enter(&mut r, &buf);
        enter(&mut r, &buf);
        assert_eq!(r.functions.len(), 2, "one table entry per distinct name");
        let (events, ..) = r.drain();
        let names: Vec<String> = events
            .into_iter()
            .map(|e| match e.kind {
                TraceEventKind::InvokeEnter { function, .. } => function,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(names, ["take", "take", "give", "give"]);
    }

    /// The `Json`-tree renderer the streaming writers replaced, kept as
    /// their differential oracle: every object is built as a [`Json`] value
    /// (the whole Chrome dump as one tree) and then serialised.
    mod oracle {
        use super::super::*;
        use crate::json::Json;

        fn event_json(ev: &TraceEvent, names: &[String]) -> Json {
            let mut j = Json::object();
            j.push("span", ev.span);
            match ev.parent {
                Some(p) => j.push("parent", p),
                None => j.push("parent", Json::Null),
            };
            j.push("ts", ev.time.0)
                .push("dur", ev.dur.0)
                .push("tid", ev.thread.0)
                .push("comp", ev.component.0)
                .push(
                    "name",
                    names
                        .get(ev.component.0 as usize)
                        .map_or("?", String::as_str),
                )
                .push("epoch", ev.epoch.0)
                .push("kind", ev.kind.name());
            match &ev.kind {
                TraceEventKind::InvokeEnter { function, client } => {
                    j.push("function", function.as_str())
                        .push("client", client.0);
                }
                TraceEventKind::InvokeExit { outcome } => {
                    j.push("outcome", *outcome);
                }
                TraceEventKind::Sleep { until } => {
                    j.push("until", until.0);
                }
                TraceEventKind::MechanismFired { mech, n } => {
                    j.push("mech", mech.name()).push("n", *n);
                }
                TraceEventKind::WalkStep {
                    function,
                    desc,
                    mech,
                } => {
                    j.push("function", function.as_str());
                    match desc {
                        Some(d) => j.push("desc", *d),
                        None => j.push("desc", Json::Null),
                    };
                    j.push("mech", mech.name());
                }
                TraceEventKind::DescriptorCreated { desc } => {
                    j.push("desc", *desc);
                }
                TraceEventKind::DescriptorClosed { desc, dropped } => {
                    j.push("desc", *desc).push("dropped", *dropped);
                }
                TraceEventKind::Upcall { function } => {
                    j.push("function", function.as_str());
                }
                TraceEventKind::DeadLetter {
                    desc,
                    msg,
                    deliveries,
                } => {
                    j.push("desc", *desc)
                        .push("msg", *msg)
                        .push("deliveries", *deliveries);
                }
                TraceEventKind::EpisodeEnd { attributed } => {
                    j.push("attributed", attributed.0);
                }
                TraceEventKind::FaultInjected { depth } => {
                    // Emitted only for nested faults so that the established
                    // single-fault dumps stay byte-identical.
                    if *depth > 0 {
                        j.push("depth", *depth);
                    }
                }
                TraceEventKind::DegradedMarked { until } => {
                    j.push("until", until.0);
                }
                TraceEventKind::Block
                | TraceEventKind::Wake
                | TraceEventKind::WatchdogFired
                | TraceEventKind::ColdRestart
                | TraceEventKind::Reboot => {}
            }
            j
        }

        fn header_json(shard: &TraceShard) -> Json {
            let mut j = Json::object();
            j.push("v", TRACE_SCHEMA_VERSION)
                .push("shard", shard.label.as_str())
                .push(
                    "names",
                    Json::Array(shard.names.iter().map(|n| Json::from(n.as_str())).collect()),
                )
                .push("events", shard.events.len())
                .push("dropped", shard.dropped)
                .push("dropped_recovery", shard.dropped_recovery)
                .push("span_count", shard.span_count);
            j
        }

        pub(super) fn shards_to_jsonl(shards: &[TraceShard]) -> String {
            let mut out = String::new();
            for shard in shards {
                out.push_str(&header_json(shard).to_line());
                out.push('\n');
                for ev in &shard.events {
                    out.push_str(&event_json(ev, &shard.names).to_line());
                    out.push('\n');
                }
            }
            out
        }

        fn chrome_name(ev: &TraceEvent, names: &[String]) -> String {
            let comp = names
                .get(ev.component.0 as usize)
                .map_or("?", String::as_str);
            match &ev.kind {
                TraceEventKind::InvokeEnter { function, .. } => format!("call {comp}.{function}"),
                TraceEventKind::InvokeExit { outcome } => format!("ret {outcome}"),
                TraceEventKind::Block => format!("block in {comp}"),
                TraceEventKind::Sleep { .. } => "sleep".to_owned(),
                TraceEventKind::Wake => format!("wake ({comp})"),
                TraceEventKind::FaultInjected { depth: 0 } => format!("FAULT {comp}"),
                TraceEventKind::FaultInjected { depth } => {
                    format!("FAULT {comp} (nested x{depth})")
                }
                TraceEventKind::WatchdogFired => format!("WATCHDOG {comp}"),
                TraceEventKind::DegradedMarked { .. } => format!("degraded {comp}"),
                TraceEventKind::ColdRestart => format!("cold restart {comp}"),
                TraceEventKind::Reboot => format!("reboot {comp}"),
                TraceEventKind::MechanismFired { mech, n } => {
                    format!("{} x{n} ({comp})", mech.name())
                }
                TraceEventKind::WalkStep { function, mech, .. } => {
                    format!("{} replay {comp}.{function}", mech.name())
                }
                TraceEventKind::DescriptorCreated { desc } => format!("{comp} desc+{desc}"),
                TraceEventKind::DescriptorClosed { desc, .. } => format!("{comp} desc-{desc}"),
                TraceEventKind::Upcall { function } => format!("upcall {comp}.{function}"),
                TraceEventKind::DeadLetter {
                    msg, deliveries, ..
                } => format!("DEAD-LETTER {comp} msg {msg} (x{deliveries})"),
                TraceEventKind::EpisodeEnd { .. } => format!("episode end {comp}"),
            }
        }

        pub(super) fn shards_to_chrome(shards: &[TraceShard]) -> String {
            let mut events: Vec<Json> = Vec::new();
            for (pid, shard) in shards.iter().enumerate() {
                let mut meta = Json::object();
                meta.push("ph", "M")
                    .push("pid", pid)
                    .push("name", "process_name");
                let mut args = Json::object();
                args.push("name", shard.label.as_str());
                meta.push("args", args);
                events.push(meta);
                for ev in &shard.events {
                    let mut j = Json::object();
                    j.push("name", chrome_name(ev, &shard.names))
                        .push("cat", ev.kind.name())
                        .push("pid", pid)
                        .push("tid", ev.thread.0)
                        .push("ts", ev.time.0 as f64 / 1000.0);
                    if ev.dur > SimTime::ZERO {
                        j.push("ph", "X").push("dur", ev.dur.0 as f64 / 1000.0);
                    } else {
                        j.push("ph", "i").push("s", "t");
                    }
                    let mut args = Json::object();
                    args.push("span", ev.span);
                    if let Some(p) = ev.parent {
                        args.push("parent", p);
                    }
                    args.push("epoch", ev.epoch.0);
                    j.push("args", args);
                    events.push(j);
                }
            }
            let mut top = Json::object();
            top.push("traceEvents", Json::Array(events))
                .push("displayTimeUnit", "ns");
            top.to_pretty()
        }
    }
}
