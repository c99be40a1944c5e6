//! 64-way processor sharing on one storage array, pinned to the completion
//! times coroutines and OS threads both gave until PR 26 removed the
//! thread-per-process executor. The same writers driven through the array
//! as a `CheckpointStore` must give the same times: the central backend is
//! the bare device.

use gbcr_des::{time, Sim, Time};
use gbcr_storage::{CheckpointStore, Storage, StorageConfig, StoredObject, MB};
use std::cell::RefCell;
use std::rc::Rc;

/// When writer `i` finished, in ns.
const DONE_AT: [Time; 64] = [
    8498033156,
    8905202156,
    9148190180,
    9306968401,
    9423658261,
    9515108261,
    9589742585,
    9652374996,
    9706014049,
    9752665405,
    9793732989,
    9830237802,
    9862945564,
    9892445264,
    9919199650,
    9943578897,
    9965883752,
    9986361864,
    10005219590,
    10022630686,
    10038742824,
    10053682568,
    10067559204,
    10080467749,
    10092491331,
    10103703087,
    10114167703,
    10123942664,
    10133079286,
    10141623565,
    10149616886,
    10157096618,
    10164096618,
    10170647655,
    10176777773,
    10182512604,
    10187875637,
    10192888444,
    10197570891,
    10201941303,
    10206016628,
    10209812563,
    10213343678,
    10216623520,
    10219664706,
    10222479003,
    10225077408,
    10227470206,
    10229667038,
    10231676944,
    10233508419,
    10235169453,
    10236667568,
    10238009857,
    10239203012,
    10240253357,
    10241166871,
    10241949213,
    10242605748,
    10243141560,
    10243561476,
    10243870083,
    10244071739,
    10244192082,
];

/// 64 clients write 20 MB each to one processor-sharing array, starting
/// 7 ms apart so every arrival and departure re-shares the rate (the
/// benchmark's `storage.probe.ps64_us` shape). Sharing, not queueing: the
/// last writer starts at 441 ms, the array needs more than
/// 64 x 20 MB / 140 MB/s = 9.1 s for the lot, and the writers finish in
/// start order, the first after 8.5 s.
#[test]
fn sixty_four_way_sharing_finishes_each_writer_at_its_pinned_time() {
    for via_store in [false, true] {
        let mut sim = Sim::new(0);
        let storage = Storage::new(sim.handle(), StorageConfig::paper_testbed());
        let store: Rc<dyn CheckpointStore> = Rc::new(storage.clone());
        let done = Rc::new(RefCell::new(Vec::new()));
        for i in 0..64u32 {
            let (s, store, done) = (storage.clone(), store.clone(), done.clone());
            sim.spawn(format!("w{i}"), move |p| {
                p.sleep(time::ms(u64::from(i) * 7));
                let (name, object) = (format!("o{i}"), StoredObject::bulk(20 * MB));
                if via_store {
                    store.write_image(p, i, &name, object);
                } else {
                    s.write(p, i, &name, object);
                }
                done.borrow_mut().push((i, p.now()));
            });
        }
        assert_eq!(sim.run().expect("writers complete"), 10244192082);
        assert_eq!(sim.events_processed(), 383);
        assert_eq!(storage.stats().records.len(), 64);
        assert_eq!(storage.active_streams(), 0);
        assert_eq!(done.take(), (0..64).zip(DONE_AT).collect::<Vec<_>>());
    }
}
