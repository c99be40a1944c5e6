//! The local checkpoint/restart service (the BLCR stand-in).

use crate::image::ProcessImage;
use gbcr_des::{time, ArgValue, Proc, Time, Track};
use gbcr_storage::{CheckpointStore, StoredObject};
use std::rc::Rc;

/// Timing parameters of the local checkpointer.
#[derive(Debug, Clone)]
pub struct LocalCrConfig {
    /// Fixed cost to freeze the process and gather its state before any
    /// byte reaches storage (BLCR quiesce + VM walk). The paper reports
    /// storage access dominating (>95 %), so this is small but nonzero.
    pub freeze_overhead: Time,
    /// Fixed cost to thaw the process after the image is durable.
    pub thaw_overhead: Time,
}

impl Default for LocalCrConfig {
    fn default() -> Self {
        LocalCrConfig { freeze_overhead: time::ms(200), thaw_overhead: time::ms(50) }
    }
}

/// Performs BLCR-style single-process snapshots through a pluggable
/// [`CheckpointStore`] backend. One instance per MPI process (cheap,
/// clonable).
#[derive(Clone)]
pub struct LocalCheckpointer {
    store: Rc<dyn CheckpointStore>,
    cfg: LocalCrConfig,
}

impl LocalCheckpointer {
    /// Create a checkpointer over any checkpoint-store backend.
    pub fn with_store(store: Rc<dyn CheckpointStore>, cfg: LocalCrConfig) -> Self {
        LocalCheckpointer { store, cfg }
    }

    /// The checkpoint-store backend.
    pub fn store(&self) -> &Rc<dyn CheckpointStore> {
        &self.store
    }

    /// Take a snapshot of the calling process: freeze, write `image` (the
    /// transfer is charged for `image.footprint` bytes, processor-shared
    /// with every other concurrent writer), thaw. Blocks for the whole
    /// duration — this is the paper's *Individual Checkpoint Time* minus
    /// coordination.
    ///
    /// Returns the storage object name the image was saved under.
    pub fn checkpoint(&self, p: &Proc, job: &str, image: ProcessImage) -> String {
        let name = ProcessImage::object_name(job, image.epoch, image.rank);
        let t0 = p.now();
        p.sleep(self.cfg.freeze_overhead);
        let rank = image.rank;
        let epoch = image.epoch;
        let footprint = image.footprint;
        let payload = image.encode();
        self.store.write_image(p, rank, &name, StoredObject::new(payload, footprint));
        p.sleep(self.cfg.thaw_overhead);
        p.handle().trace_span(Track::Rank(rank), "blcr.checkpoint", t0, || {
            vec![("epoch", ArgValue::U64(epoch)), ("bytes", ArgValue::U64(footprint))]
        });
        name
    }

    /// Load and verify the image for `(job, epoch, rank)`, charging the
    /// read through the storage model. Panics if the image is missing or
    /// corrupt — a restart from a bad checkpoint cannot proceed.
    pub fn restart(&self, p: &Proc, job: &str, epoch: u64, rank: u32) -> ProcessImage {
        let name = ProcessImage::object_name(job, epoch, rank);
        let t0 = p.now();
        let obj = self.store.read_image(p, rank, &name);
        let img = ProcessImage::decode(obj.payload)
            .unwrap_or_else(|e| panic!("corrupt checkpoint image '{name}': {e}"));
        // Incremental images need the preceding chain read back too (last
        // full image plus intermediate increments), charged as one bulk
        // read of the recorded chain size against the copy that held the
        // image.
        if img.restore_extra > 0 {
            self.store.read_chain(p, rank, &name, img.restore_extra);
        }
        assert_eq!(img.rank, rank, "image rank mismatch in '{name}'");
        assert_eq!(img.epoch, epoch, "image epoch mismatch in '{name}'");
        p.handle().trace_span(Track::Rank(rank), "blcr.restart", t0, || {
            vec![("epoch", ArgValue::U64(epoch))]
        });
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use gbcr_des::Sim;
    use gbcr_storage::{Storage, StorageConfig, MB};

    /// A checkpointer over `storage`, the central backend.
    fn checkpointer(storage: Storage) -> LocalCheckpointer {
        LocalCheckpointer::with_store(Rc::new(storage), LocalCrConfig::default())
    }

    fn img(rank: u32, epoch: u64, footprint: u64) -> ProcessImage {
        ProcessImage {
            rank,
            epoch,
            taken_at: 0,
            footprint,
            restore_extra: 0,
            app_state: Bytes::from(format!("state-of-{rank}")),
        }
    }

    #[test]
    fn checkpoint_then_restart_round_trips() {
        let mut sim = Sim::new(0);
        let storage = Storage::new(sim.handle(), StorageConfig::default());
        let cr = checkpointer(storage);
        sim.spawn("rank0", move |p| {
            let image = img(0, 1, 100 * MB);
            cr.checkpoint(p, "job", image.clone());
            let mut back = cr.restart(p, "job", 1, 0);
            back.taken_at = image.taken_at;
            assert_eq!(back, image);
        });
        sim.run().unwrap();
    }

    #[test]
    fn checkpoint_time_is_dominated_by_storage() {
        let mut sim = Sim::new(0);
        let storage = Storage::new(sim.handle(), StorageConfig::default());
        let cr = checkpointer(storage);
        sim.spawn("rank0", move |p| {
            let t0 = p.now();
            cr.checkpoint(p, "job", img(0, 1, 1150 * MB));
            let elapsed = time::as_secs_f64(p.now() - t0);
            // 1150 MB at 115 MB/s = 10s storage; overheads = 0.25s.
            assert!(elapsed > 10.0 && elapsed < 10.5, "got {elapsed}");
            let storage_frac = 10.0 / elapsed;
            assert!(storage_frac > 0.95, "storage should dominate (papers' >95%)");
        });
        sim.run().unwrap();
    }

    #[test]
    #[should_panic(expected = "corrupt checkpoint image")]
    fn corrupt_image_panics_on_restart() {
        let mut sim = Sim::new(0);
        let storage = Storage::new(sim.handle(), StorageConfig::default());
        let cr = checkpointer(storage.clone());
        sim.spawn("rank0", move |p| {
            cr.checkpoint(p, "job", img(0, 1, MB));
            // Corrupt the stored object in place.
            let name = ProcessImage::object_name("job", 1, 0);
            let obj = storage.remove(&name).unwrap();
            let mut v = obj.payload.to_vec();
            v[10] ^= 0xff;
            storage.write(
                p,
                0,
                &name,
                StoredObject::new(Bytes::from(v), obj.virtual_size),
            );
            cr.restart(p, "job", 1, 0);
        });
        let err = sim.run().unwrap_err();
        panic!("{err}");
    }
}
