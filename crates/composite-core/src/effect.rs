//! What the runtime shell must do after a step.
//!
//! The pure core cannot write the trace ring or bump metrics counters,
//! so it *describes* those writes as [`Effect`] values, in the exact
//! order the imperative kernel used to perform them. The shell folds
//! the list; the trace stays byte-identical because the order is part
//! of the contract.
//!
//! [`Effects`] stores the first few effects inline (most transitions
//! emit zero or one) so the invocation hot path stays allocation-free.

use crate::event::Reply;
use crate::ids::{ComponentId, Epoch, ThreadId};
use crate::mechanism::Mechanism;
use crate::time::SimTime;

/// One deferred runtime action. Each per-component counter effect maps
/// 1:1 onto one field of the shell's per-component counter row
/// (`composite::MetricsRow`, kept by `composite::stats::Counters`); the
/// remaining variants carry everything the flight recorder needs to
/// emit its events in the established order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Count a successful invocation of the component.
    CountInvocation(ComponentId),
    /// Count an invocation rejected because the target was faulty.
    CountFaultedInvocation(ComponentId),
    /// Count a fault raised on the component.
    CountFault(ComponentId),
    /// Count a fault raised while recovery was already in flight.
    CountNestedFault(ComponentId),
    /// Count a micro-reboot of the component.
    CountReboot(ComponentId),
    /// Count a cold restart of the component.
    CountColdRestart(ComponentId),
    /// Count a watchdog expiry on the component.
    CountWatchdogFire(ComponentId),
    /// Count an invocation rejected because the target was degraded.
    CountDegradedRejection(ComponentId),
    /// Count an upcall dispatch.
    CountUpcall,
    /// A thread blocked inside a server (emit the `block` trace event).
    ThreadBlocked {
        /// The blocked thread.
        thread: ThreadId,
        /// Where it blocked.
        in_component: ComponentId,
    },
    /// A thread went to sleep (emit the `sleep` trace event at its home).
    ThreadSlept {
        /// The sleeping thread.
        thread: ThreadId,
        /// Its home component (trace site).
        home: ComponentId,
        /// Wake deadline.
        until: SimTime,
    },
    /// A thread became runnable (emit the `wake` trace event at `site`).
    ThreadWoken {
        /// The woken thread.
        thread: ThreadId,
        /// Where it was blocked (or its home, for sleepers).
        site: ComponentId,
    },
    /// A fault was raised: the shell manages the recovery episode
    /// (clamp/close/open) and emits `fault_injected`. Emitted before the
    /// [`Effect::FaultWoke`] wakeups it parents.
    FaultRaised {
        /// The faulted component.
        component: ComponentId,
        /// Its epoch at fault time.
        epoch: Epoch,
        /// Whether recovery was already in flight (child episode).
        nested: bool,
    },
    /// A thread was eagerly woken by the preceding [`Effect::FaultRaised`]
    /// (emit `wake` parented to the fault span).
    FaultWoke {
        /// The faulted component.
        component: ComponentId,
        /// The woken thread.
        thread: ThreadId,
    },
    /// The watchdog fired (emit the `watchdog_fired` marker).
    WatchdogFired {
        /// The hung component.
        component: ComponentId,
        /// The thread whose invocation hung.
        thread: ThreadId,
    },
    /// A component was marked degraded (emit `degraded_marked`).
    DegradedMarked {
        /// The degraded component.
        component: ComponentId,
        /// When the mark clears.
        until: SimTime,
    },
    /// A recovery mechanism fired `n` times: the shell routes this
    /// through its metrics/trace choke point (no-op when `n == 0`).
    MechanismFired {
        /// The component the mechanism acted on.
        component: ComponentId,
        /// Which mechanism.
        mech: Mechanism,
        /// Firing count.
        n: u64,
        /// The recording thread.
        thread: ThreadId,
        /// Simulated time the firing consumed (already charged).
        dur: SimTime,
    },
}

const INLINE: usize = 6;
const FILLER: Effect = Effect::CountUpcall;

/// A step's [`Reply`] plus its ordered effect list. Up to [`INLINE`]
/// effects live inline; longer lists (mass wakeups) spill to the heap.
#[derive(Debug, Clone)]
pub struct Effects {
    /// The typed immediate answer.
    pub reply: Reply,
    len: usize,
    inline: [Effect; INLINE],
    spill: Vec<Effect>,
}

impl Effects {
    /// No effects, reply [`Reply::None`].
    #[must_use]
    pub fn none() -> Self {
        Self::with_reply(Reply::None)
    }

    /// No effects, explicit reply.
    #[must_use]
    pub fn with_reply(reply: Reply) -> Self {
        Self {
            reply,
            len: 0,
            inline: [FILLER; INLINE],
            spill: Vec::new(),
        }
    }

    /// Append one effect (order is the replay contract).
    pub fn push(&mut self, e: Effect) {
        if self.len < INLINE {
            self.inline[self.len] = e;
        } else {
            self.spill.push(e);
        }
        self.len += 1;
    }

    /// Number of effects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The effects, in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Effect> {
        self.inline[..self.len.min(INLINE)]
            .iter()
            .chain(self.spill.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_then_spill_preserves_order() {
        let mut fx = Effects::none();
        for i in 0..10 {
            fx.push(Effect::CountFault(ComponentId(i)));
        }
        assert_eq!(fx.len(), 10);
        let ids: Vec<u32> = fx
            .iter()
            .map(|e| match e {
                Effect::CountFault(c) => c.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_effects() {
        let fx = Effects::none();
        assert!(fx.is_empty());
        assert_eq!(fx.iter().count(), 0);
        assert_eq!(fx.reply, Reply::None);
    }
}
