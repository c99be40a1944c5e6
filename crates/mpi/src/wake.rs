//! Demand-driven progress wakes for sliced compute.
//!
//! The paper's §4.4 helper thread guarantees a passive rank runs its
//! progress engine at a bounded interval. The straightforward simulation
//! of that guarantee *polls*: every `progress_interval` the rank parks and
//! wakes, paying a timer event plus two coroutine switches even when there is
//! nothing to progress. Real helper threads are event-driven — they react
//! to arrivals — so each rank keeps a [`DemandWake`]: a registration its
//! data-plane listener (`World::attach`) pokes for every message it
//! queues, armed only while the rank is parked in passive `compute`. The
//! poke schedules a wake at the **next slice boundary**
//! (`anchor + k·interval`, strictly after the delivery), which is exactly
//! the timestamp the polled design would have run progress at; boundaries
//! with no traffic are simply never scheduled ("elided"). Same observable
//! timing, far fewer events.
//!
//! Rules that make the emulation exact (see DESIGN.md §3.1):
//!
//! * **Boundary rounding** — a delivery at `t` wakes at the smallest
//!   `anchor + k·interval > t`. The polled engine would have parked
//!   through every earlier boundary, found nothing, and re-parked without
//!   consuming virtual time, so running progress only at the rounded-up
//!   boundary observes the identical queue state at the identical time.
//! * **Coalescing** — several deliveries before one boundary produce one
//!   scheduled wake (`scheduled` dedupes), i.e. one handoff.
//! * **Cancel on resume** — [`DemandWake::disarm`] cancels the pending
//!   wake, so a rank resumed early (an out-of-band arrival) can never be
//!   woken later at a boundary computed from a superseded anchor.
//! * **Armed only while parked** — the owning rank arms immediately
//!   before parking and disarms immediately after resuming; deliveries
//!   while the rank is running are drained by its own progress calls.
//! * **Re-anchor in place** — when progress work is done for a parked
//!   rank without resuming it (an out-of-band message answered at
//!   arrival), [`DemandWake::reanchor`] moves the lattice to that instant
//!   and settles the elision count, as resuming, disarming and re-arming
//!   would have; the rank adopts the moved anchor from
//!   [`DemandWake::disarm`]'s return value when it does resume.

use gbcr_des::{ProcId, SimHandle, Time, TimerHandle};
use std::cell::RefCell;
use std::rc::Rc;

struct Armed {
    pid: ProcId,
    /// Origin of the slice lattice: the last instant progress did work.
    anchor: Time,
    interval: Time,
    /// The compute deadline; a wake there already exists, so boundaries at
    /// or beyond it are never scheduled (the polled engine clamps its
    /// slice to the deadline the same way).
    limit: Time,
    /// When the current park segment began (for elision accounting).
    seg_start: Time,
    /// The one outstanding boundary wake, if any (coalescing).
    scheduled: Option<(Time, TimerHandle)>,
}

/// A wake-on-delivery registration shared between a rank's `compute()`
/// and its data-plane listener. Clone freely; all clones are the same
/// registration. See the module docs for the protocol.
#[derive(Clone)]
pub struct DemandWake {
    handle: SimHandle,
    st: Rc<RefCell<Option<Armed>>>,
}

impl DemandWake {
    /// Create a registration bound to a simulation.
    pub fn new(handle: SimHandle) -> Self {
        DemandWake { handle, st: Rc::default() }
    }

    /// Arm for one park segment: deliveries from now on schedule a wake
    /// for `pid` at the next boundary of the lattice `anchor + k·interval`
    /// (boundaries at or past `limit` are covered by the caller's deadline
    /// wake). Call immediately before parking.
    pub fn arm(&self, pid: ProcId, anchor: Time, interval: Time, limit: Time) {
        let now = self.handle.now();
        debug_assert!(anchor <= now, "anchor in the future");
        let mut st = self.st.borrow_mut();
        debug_assert!(st.is_none(), "arm without intervening disarm");
        *st = Some(Armed { pid, anchor, interval, limit, seg_start: now, scheduled: None });
    }

    /// Disarm after resuming: cancels the outstanding boundary wake (if it
    /// has not fired) and credits every boundary the park segment crossed
    /// without a scheduled wake to the simulation's elided-wake counter.
    /// Returns the anchor in force — the one armed with, unless
    /// [`reanchor`](DemandWake::reanchor) moved it — or `None` when not
    /// armed (a no-op).
    pub fn disarm(&self) -> Option<Time> {
        let a = self.st.borrow_mut().take()?;
        self.settle(&a);
        Some(a.anchor)
    }

    /// Progress did work at this instant on the parked owner's behalf (an
    /// out-of-band message answered at arrival, without resuming it): end
    /// the park segment exactly as [`disarm`](DemandWake::disarm) would and
    /// start the next one on the lattice anchored at `now` — what the owner
    /// would have done by resuming, running progress and re-arming, minus
    /// the resume. No-op when not armed.
    pub fn reanchor(&self) {
        let mut st = self.st.borrow_mut();
        let Some(a) = st.as_mut() else { return };
        self.settle(a);
        let now = self.handle.now();
        (a.anchor, a.seg_start, a.scheduled) = (now, now, None);
    }

    /// Close the park segment that began at `a.seg_start`: cancel its
    /// boundary wake and credit the boundaries it crossed unwoken.
    fn settle(&self, a: &Armed) {
        let now = self.handle.now();
        // Boundaries the polled engine would have woken at during this
        // segment: lattice points in (seg_start, min(now, limit - 1)].
        let f = |x: Time| -> u64 {
            if x <= a.anchor || a.interval == 0 {
                0
            } else {
                (x - a.anchor) / a.interval
            }
        };
        let upper = now.min(a.limit.saturating_sub(1));
        let crossed = f(upper).saturating_sub(f(a.seg_start));
        let fired = match &a.scheduled {
            Some((t, h)) => {
                h.cancel();
                u64::from(*t <= now && *t < a.limit)
            }
            None => 0,
        };
        let elided = crossed.saturating_sub(fired);
        if elided > 0 {
            self.handle.note_elided_wakes(elided);
        }
    }

    /// Listener-side notification: a message was just queued on the
    /// owner's data-plane mailbox. Schedules (or keeps) a wake at the next boundary
    /// strictly after the current time. No-op when disarmed. Runs on the
    /// scheduler thread; never blocks.
    pub fn poke(&self) {
        let mut st = self.st.borrow_mut();
        let Some(a) = st.as_mut() else { return };
        if a.interval == 0 {
            return;
        }
        let now = self.handle.now();
        debug_assert!(now >= a.anchor);
        let boundary = a.anchor + a.interval * ((now - a.anchor) / a.interval + 1);
        if boundary >= a.limit {
            return; // the deadline wake covers it
        }
        match &a.scheduled {
            // An earlier delivery in this segment already scheduled this
            // (or an earlier) boundary; one wake serves every delivery
            // before it.
            Some((t, _)) if *t <= boundary => {}
            other => {
                if let Some((_, h)) = other {
                    h.cancel();
                }
                let h = self.handle.schedule_wake_cancellable(boundary, a.pid);
                a.scheduled = Some((boundary, h));
            }
        }
    }

    /// Whether currently armed.
    pub fn is_armed(&self) -> bool {
        self.st.borrow().is_some()
    }
}

impl std::fmt::Debug for DemandWake {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DemandWake").field("armed", &self.is_armed()).finish()
    }
}
