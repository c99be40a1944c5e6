//! The consistency gate (DESIGN §3.2) against the status per group it
//! replaced: every rank's controller hears an epoch's gate broadcasts in
//! plan order, and after each one the gate between every pair of ranks
//! must be what a status per group gives — equal statuses, neither in
//! progress. Broadcasts out of turn are protocol errors.

use gbcr_blcr::{LocalCheckpointer, LocalCrConfig};
use gbcr_core::{proto, CkptClient, CkptMode, Controller, GroupPlan};
use gbcr_des::{Sim, SimError, SimResult, Time};
use gbcr_mpi::{CrHook, MpiConfig, OobMsg, Rank, World, COORDINATOR_NODE};
use gbcr_storage::{CheckpointStore, Storage, StorageConfig};
use std::rc::Rc;

/// Open epoch 0 under `plan` at a controller per rank, then hand every
/// rank each `(kind, group)` of `steps` in turn, calling `check` with the
/// controllers and the number of steps taken before the first and after
/// each.
fn run(
    plan: &GroupPlan,
    steps: Vec<(u32, usize)>,
    check: impl Fn(&[Rc<Controller>], usize) + 'static,
) -> SimResult<Time> {
    let n = plan.map().ranks();
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(n));
    let store: Rc<dyn CheckpointStore> =
        Rc::new(Storage::new(sim.handle(), StorageConfig::paper_testbed()));
    let (mut mpis, mut ctls) = (Vec::new(), Vec::new());
    for r in 0..n {
        let mpi = world.attach(r);
        let client = CkptClient::new(&mpi);
        let blcr = LocalCheckpointer::with_store(store.clone(), LocalCrConfig::default());
        let ctl = Controller::new(r, "gate-test", CkptMode::Buffering, false, blcr, client);
        mpi.set_hook(ctl.clone());
        mpis.push(mpi);
        ctls.push(ctl);
    }
    let (b, data) = (plan.group_count() as u64, plan.map().payload());
    sim.spawn("coordinator", move |p| {
        let begin = OobMsg { kind: proto::EPOCH_BEGIN, a: 0, b, data };
        let gates = steps.iter().map(|&(kind, g)| OobMsg::new(kind, 0, g as u64));
        let msgs = std::iter::once(begin).chain(gates);
        for (taken, msg) in msgs.enumerate() {
            for (ctl, mpi) in ctls.iter().zip(&mpis) {
                ctl.on_oob(p, mpi, COORDINATOR_NODE, msg.clone());
            }
            check(&ctls, taken);
        }
    });
    sim.run()
}

/// A group's status in the model the turn replaced.
#[derive(PartialEq)]
enum Status {
    NotDone,
    InProgress,
    Done,
}

#[test]
fn the_turn_gates_like_a_status_per_group() {
    let scattered = vec![vec![3, 7, 11], vec![0, 5], vec![1, 2, 9, 10], vec![4, 6, 8]];
    let plans = [
        GroupPlan::by_size(12, 4),
        GroupPlan::new(12, scattered),
        // Dead ranks become trailing singleton groups, which still get a turn.
        GroupPlan::by_size(12, 4).reform(&[9, 2]),
    ];
    for plan in plans {
        let gates = plan.group_count();
        let mut steps: Vec<(u32, usize)> = (0..gates)
            .flat_map(|g| [(proto::GROUP_START, g), (proto::GROUP_DONE, g)])
            .collect();
        steps.push((proto::EPOCH_END, 0));
        let model = plan.clone();
        run(&plan, steps, move |ctls, taken| {
            // Group g starts at step 2g + 1 and is done at step 2g + 2.
            let status = |r: Rank| match model.group_of(r) {
                g if taken >= 2 * g + 2 => Status::Done,
                g if taken == 2 * g + 1 => Status::InProgress,
                _ => Status::NotDone,
            };
            let ranks = 0..ctls.len() as Rank;
            for (p, q) in ranks.clone().flat_map(|p| ranks.clone().map(move |q| (p, q))) {
                let want = status(p) == status(q) && status(p) != Status::InProgress;
                let want = want || taken > 2 * gates; // the epoch is over
                let got = ctls[p as usize].user_send_allowed(q);
                assert_eq!(got, want, "{p} -> {q} after {taken} steps");
            }
        })
        .expect("gate broadcasts in turn");
    }
}

/// The panic message of a run whose `steps` break the protocol.
fn broken(plan: &GroupPlan, steps: Vec<(u32, usize)>) -> String {
    match run(plan, steps, |_, _| {}) {
        Err(SimError::ProcessPanicked { message, .. }) => message,
        other => panic!("out-of-turn broadcasts accepted: {other:?}"),
    }
}

#[test]
fn gate_broadcasts_out_of_turn_panic() {
    use proto::{EPOCH_END, GROUP_DONE, GROUP_GO, GROUP_START};
    let cases = [
        (vec![(GROUP_START, 0), (GROUP_START, 1)], "gate broadcast out of turn"),
        (vec![(GROUP_DONE, 0)], "gate broadcast out of turn"),
        (vec![(GROUP_START, 0), (GROUP_DONE, 0), (EPOCH_END, 0)], "EPOCH_END with unfinished"),
        // A group freezes only in its own turn, and only once its gate closed.
        (vec![(GROUP_START, 0), (GROUP_GO, 1)], "GROUP_GO out of turn"),
        (vec![(GROUP_GO, 0)], "GROUP_GO out of turn"),
    ];
    for (steps, want) in cases {
        let message = broken(&GroupPlan::by_size(8, 4), steps);
        assert!(message.contains(want), "{message}");
    }
}

#[test]
fn group_go_to_a_non_member_panics() {
    use proto::{GROUP_GO, GROUP_START};
    // In turn, but rank 0, the first to hear it, is not in group 0.
    let plan = GroupPlan::new(8, vec![vec![4, 5, 6, 7], vec![0, 1, 2, 3]]);
    let message = broken(&plan, vec![(GROUP_START, 0), (GROUP_GO, 0)]);
    assert!(message.contains("GROUP_GO sent to non-member"), "{message}");
}
