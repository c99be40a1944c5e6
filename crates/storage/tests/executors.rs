//! The storage model on the threaded executor: 64 OS threads take turns on
//! one `Rc<RefCell<State>>`, ordered by nothing but the engine's baton.

use gbcr_des::{time, DesConfig, Sim, Time};
use gbcr_storage::{Storage, StorageConfig, StoredObject, MB};
use std::cell::RefCell;
use std::rc::Rc;

/// 64 clients write 20 MB each to one processor-sharing array, starting
/// 7 ms apart so every arrival and departure re-shares the rate (the
/// benchmark's `storage.probe.ps64_us` shape). Returns each client's
/// completion time, the end time and the event count.
fn interleaved_writers(cfg: DesConfig) -> (Vec<(u32, Time)>, Time, u64) {
    let mut sim = Sim::with_config(0, cfg);
    let storage = Storage::new(sim.handle(), StorageConfig::paper_testbed());
    let done = Rc::new(RefCell::new(Vec::new()));
    for i in 0..64u32 {
        let (s, done) = (storage.clone(), done.clone());
        sim.spawn(format!("w{i}"), move |p| {
            p.sleep(time::ms(u64::from(i) * 7));
            s.write(p, i, &format!("o{i}"), StoredObject::bulk(20 * MB));
            done.borrow_mut().push((i, p.now()));
        });
    }
    let end = sim.run().expect("writers complete");
    assert_eq!(storage.stats().records.len(), 64);
    assert_eq!(storage.active_streams(), 0);
    let done = done.take();
    (done, end, sim.events_processed())
}

#[test]
fn processor_sharing_is_identical_on_threads_and_coroutines() {
    let pooled = interleaved_writers(DesConfig::pooled());
    assert_eq!(pooled.0.len(), 64);
    // Sharing, not queueing: the last writer starts at 441 ms and the
    // array needs 64 x 20 MB / 140 MB/s > 9 s for the lot.
    assert!(pooled.1 > time::secs(9), "{}", pooled.1);
    assert_eq!(pooled, interleaved_writers(DesConfig::threaded()));
}
