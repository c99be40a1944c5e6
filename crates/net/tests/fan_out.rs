//! `Endpoint::send_each` against the loop of `send`s it replaces, on twin
//! fabrics: same arrival times, same delivery order at the receivers, same
//! drain and teardown behaviour while the batch is in the air, same
//! counters — and fewer events.

use gbcr_des::{time, Sim, Time};
use gbcr_net::{Fabric, NetConfig, NetStats, NodeId};
use parking_lot::Mutex;
use std::sync::Arc;

const HUB: NodeId = NodeId(0);
const PEERS: u32 = 6;

fn cfg() -> NetConfig {
    NetConfig {
        latency: time::us(2),
        bandwidth: 1.0e9,
        per_message_overhead: 100,
        conn_setup_time: time::us(50),
        conn_teardown_time: time::us(10),
    }
}

/// Everything an observer can tell the two ways of sending apart by.
#[derive(Debug, PartialEq)]
struct Observed {
    /// `(time, what)` in the order things happened, fabric-wide.
    log: Vec<(Time, String)>,
    stats: NetStats,
    end: Time,
}

/// The hub connects to six peers and pre-loads three of its links with
/// unequal backlogs, then — backlogs still serializing — fans seven
/// messages out (peer 3 gets two), inspects `in_flight`, and tears the
/// busiest link down while the batch is in the air; peer 5 sits in
/// `wait_drained` meanwhile.
fn run(batched: bool) -> (Observed, u64) {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), cfg());
    let log = Arc::new(Mutex::new(Vec::new()));

    let (f, l) = (fabric.clone(), log.clone());
    sim.spawn("hub", move |p| {
        let ep = f.endpoint(HUB);
        for r in 1..=PEERS {
            ep.connect(p, NodeId(r));
        }
        // Unequal `busy_until`: 40 µs, 15 µs and 5 µs of serialization.
        ep.send(NodeId(2), 1000, 40_000);
        ep.send(NodeId(5), 1001, 15_000);
        ep.send(NodeId(6), 1002, 5_000);
        p.sleep(time::us(10)); // peer 6's backlog is gone, 2's and 5's are not
        let items = [1, 2, 3, 3, 4, 5, 6].map(|r| (NodeId(r), 100 + r, 64));
        if batched {
            ep.send_each(items);
        } else {
            for (peer, msg, size) in items {
                ep.send(peer, msg, size);
            }
        }
        for r in 1..=PEERS {
            l.lock().push((p.now(), format!("in_flight {r}: {:?}", ep.in_flight(NodeId(r)))));
        }
        ep.teardown(p, NodeId(2));
        l.lock().push((p.now(), "teardown 2 done".into()));
    });
    for r in 1..=PEERS {
        let (f, l) = (fabric.clone(), log.clone());
        sim.spawn(format!("peer{r}"), move |p| {
            let ep = f.endpoint(NodeId(r));
            let expect = 1 + usize::from(matches!(r, 2 | 5 | 6)) + usize::from(r == 3);
            for _ in 0..expect {
                let (_, m) = ep.recv_wait(p);
                l.lock().push((p.now(), format!("peer {r} got {m}")));
                if r == 5 && m == 1001 {
                    // The backlog landed; its batch message is in the air.
                    ep.wait_drained(p, HUB);
                    l.lock().push((p.now(), "peer 5 drained".into()));
                }
            }
        });
    }
    let end = sim.run().unwrap();
    let log = std::mem::take(&mut *log.lock());
    (Observed { log, stats: fabric.stats(), end }, sim.events_processed())
}

#[test]
fn send_each_is_the_loop_of_sends_with_fewer_events() {
    let (looped, looped_events) = run(false);
    let (batched, batched_events) = run(true);
    assert_eq!(batched, looped);

    // The scenario is the one intended: the idle links deliver first and
    // together, in argument order; the pre-loaded ones later, each at its
    // own instant; the teardown waited for the straggler.
    let got = |what: &str| {
        let at = looped.log.iter().position(|(_, w)| w == what);
        at.unwrap_or_else(|| panic!("{what:?} not in {:#?}", looped.log))
    };
    let together = ["peer 1 got 101", "peer 3 got 103", "peer 4 got 104", "peer 6 got 106"];
    let at: Vec<usize> = together.iter().map(|w| got(w)).collect();
    assert!(at.windows(2).all(|w| w[0] < w[1]), "{:#?}", looped.log);
    let when = |what: &str| looped.log[got(what)].0;
    assert!(together.iter().all(|w| when(w) == when(together[0])), "{:#?}", looped.log);
    assert!(when("peer 4 got 104") < when("peer 5 got 105"));
    assert!(when("peer 5 got 105") < when("peer 2 got 102"));
    assert_eq!(when("peer 5 drained"), when("peer 5 got 105"));
    assert!(when("teardown 2 done") > when("peer 2 got 102"));
    assert!(looped.log.contains(&(when("in_flight 3: (2, 0)"), "in_flight 2: (2, 0)".into())));

    // Seven delivery events became one per distinct arrival time: the four
    // idle links share one, peer 3's second message queues behind its
    // first, links 2 and 5 land when their backlogs allow.
    assert_eq!(looped_events - batched_events, 7 - 4);
}

#[test]
#[should_panic(expected = "send n0 -> n2 on non-active connection")]
fn send_each_on_a_torn_down_link_panics_like_send() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), cfg());
    sim.spawn("hub", move |p| {
        let ep = fabric.endpoint(HUB);
        ep.connect(p, NodeId(1));
        ep.send_each([(NodeId(1), 1, 64), (NodeId(2), 2, 64)]);
    });
    if let Err(e) = sim.run() {
        panic!("{e}");
    }
}
