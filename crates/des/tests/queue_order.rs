//! Differential test of the scheduler's run-length queue against the
//! textbook one: a `BinaryHeap` holding one `(time, seq)` entry per event.
//! The reference lives here, test-only; the engine has no per-event heap
//! to fall back on.
//!
//! A random *plan* is a forest of events. A root is scheduled from outside
//! the loop, between `run_until` calls; every other event is scheduled by
//! the callback of its parent while that callback's run drains. Events are
//! `post_at`/`call_at` callbacks and plain or cancellable wakes, some
//! cancelled on the spot, at the current time, at a handful of repeated
//! absolute times (so same-time runs form, and split, in every way) and at
//! fresh times. The plan is interpreted twice, by a `Sim` and by the
//! reference, and both must fire the same things at the same times in the
//! same order, stop at the same horizons and count the same pops.

use gbcr_des::{ProcId, Sim, SimError, SimHandle, Time};
use proptest::prelude::*;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

const PROCS: usize = 3;
const REPEATED: [Time; 3] = [10, 40, 70];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Post,
    Call,
    Wake,
    CancellableWake,
}

#[derive(Debug)]
struct Node {
    kind: Kind,
    /// Cancelled right after scheduling (`Call` and `CancellableWake`): the
    /// event still pops, and fires nothing.
    cancel: bool,
    /// `0..2` now, `2..5` an entry of `REPEATED`, else `now + fresh`.
    when: u8,
    fresh: Time,
    proc: usize,
    children: Vec<usize>,
}

impl Node {
    fn at(&self, now: Time) -> Time {
        match self.when {
            0..2 => now,
            w @ 2..5 => REPEATED[usize::from(w) - 2],
            _ => now + self.fresh,
        }
    }

    fn fires_callback(&self) -> bool {
        matches!(self.kind, Kind::Post | Kind::Call) && !self.cancel
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fired {
    Callback(usize),
    Resumed(usize),
}

type Log = Rc<RefCell<Vec<(Time, Fired)>>>;

/// `roots[s]` are scheduled from outside before the `s`-th `run*` call.
struct Plan {
    nodes: Vec<Node>,
    roots: Vec<Vec<usize>>,
}

type RawNode = (u8, u8, u32, bool);

fn build_plan(raw: &[RawNode], segments: usize) -> Plan {
    let mut nodes: Vec<Node> = Vec::with_capacity(raw.len());
    let mut roots = vec![Vec::new(); segments];
    for (i, &(kind, when, sel, cancel)) in raw.iter().enumerate() {
        let sel = sel as usize;
        let kind = [Kind::Post, Kind::Call, Kind::Wake, Kind::CancellableWake][usize::from(kind)];
        // Two in three events hang off an earlier callback, if the one
        // drawn is a callback that fires.
        let parent = sel % (i + i / 2 + 1);
        if parent < i && nodes[parent].fires_callback() {
            nodes[parent].children.push(i);
        } else {
            roots[sel % segments].push(i);
        }
        nodes.push(Node {
            kind,
            cancel: cancel && matches!(kind, Kind::Call | Kind::CancellableWake),
            when,
            fresh: 1 + (sel >> 8) as Time % 50,
            proc: sel % PROCS,
            children: Vec::new(),
        });
    }
    Plan { nodes, roots }
}

/// The plan as the engine sees it.
struct Driven {
    plan: Plan,
    pids: Vec<ProcId>,
    log: Log,
}

impl Driven {
    fn schedule(self: &Rc<Self>, h: &SimHandle, i: usize) {
        let node = &self.plan.nodes[i];
        let at = node.at(h.now());
        let me = self.clone();
        let fire = move |h: &SimHandle| {
            me.log.borrow_mut().push((h.now(), Fired::Callback(i)));
            for &child in &me.plan.nodes[i].children {
                me.schedule(h, child);
            }
        };
        let timer = match node.kind {
            Kind::Post => return h.post_at(at, fire),
            Kind::Call => h.call_at(at, fire),
            Kind::Wake => return h.schedule_wake(at, self.pids[node.proc]),
            Kind::CancellableWake => h.schedule_wake_cancellable(at, self.pids[node.proc]),
        };
        if node.cancel {
            timer.cancel();
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Entry {
    /// The wake `spawn` queues for a new process.
    Spawned(usize),
    Node(usize),
}

/// The plan on one heap entry per event.
struct Reference<'a> {
    plan: &'a Plan,
    now: Time,
    seq: u64,
    heap: BinaryHeap<Reverse<(Time, u64, Entry)>>,
    pops: u64,
    log: Vec<(Time, Fired)>,
}

impl Reference<'_> {
    fn push(&mut self, at: Time, entry: Entry) {
        self.heap.push(Reverse((at.max(self.now), self.seq, entry)));
        self.seq += 1;
    }

    fn schedule(&mut self, i: usize) {
        self.push(self.plan.nodes[i].at(self.now), Entry::Node(i));
    }

    /// Pop everything up to `horizon`; whether something is left beyond it.
    fn run_until(&mut self, horizon: Time) -> bool {
        let plan = self.plan;
        while let Some(&Reverse((time, _, entry))) = self.heap.peek() {
            if time > horizon {
                return true;
            }
            self.heap.pop();
            self.now = time;
            self.pops += 1;
            match entry {
                Entry::Spawned(k) => self.log.push((time, Fired::Resumed(k))),
                Entry::Node(i) if plan.nodes[i].fires_callback() => {
                    self.log.push((time, Fired::Callback(i)));
                    for &child in &plan.nodes[i].children {
                        self.schedule(child);
                    }
                }
                Entry::Node(i) if plan.nodes[i].cancel => {}
                Entry::Node(i) => self.log.push((time, Fired::Resumed(plan.nodes[i].proc))),
            }
        }
        false
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dispatch_order_matches_a_per_event_heap(
        raw in prop::collection::vec((0u8..4, 0u8..8, any::<u32>(), any::<bool>()), 1..120),
        // Not sorted: a horizon behind the clock must stop the loop too.
        horizons in prop::collection::vec(0u64..120, 0..6),
    ) {
        let plan = build_plan(&raw, horizons.len() + 1);

        let mut sim = Sim::new(0);
        let h = sim.handle();
        let log: Log = Rc::default();
        let pids = (0..PROCS)
            .map(|k| {
                let log = log.clone();
                // Never finishes: the drained queue reports a deadlock,
                // and dropping the `Sim` unwinds the park.
                sim.spawn(format!("p{k}"), move |p| loop {
                    log.borrow_mut().push((p.now(), Fired::Resumed(k)));
                    p.park();
                })
            })
            .collect();
        let driven = Rc::new(Driven { plan, pids, log: log.clone() });

        let mut reference = Reference {
            plan: &driven.plan,
            now: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            pops: 0,
            log: Vec::new(),
        };
        for k in 0..PROCS {
            reference.push(0, Entry::Spawned(k));
        }

        for (segment, roots) in driven.plan.roots.iter().enumerate() {
            for &root in roots {
                driven.schedule(&h, root);
                reference.schedule(root);
            }
            let horizon = horizons.get(segment).copied().unwrap_or(Time::MAX);
            let result = sim.run_until(horizon);
            if reference.run_until(horizon) {
                prop_assert!(
                    matches!(result, Err(SimError::HorizonReached { at }) if at == horizon),
                    "segment {}: events remain beyond {}, got {:?}", segment, horizon, result
                );
            } else {
                prop_assert!(
                    matches!(result, Err(SimError::Deadlock { .. })),
                    "segment {}: queue drained, got {:?}", segment, result
                );
            }
            let fired = log.borrow().clone();
            prop_assert_eq!(&fired, &reference.log, "segment {}", segment);
            prop_assert_eq!(h.now(), reference.now);
            prop_assert_eq!(sim.events_processed(), reference.pops);
        }
        prop_assert!(reference.heap.is_empty());
    }
}
