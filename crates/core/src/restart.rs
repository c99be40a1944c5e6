//! Restart a job from a committed global checkpoint epoch.
//!
//! There is one restart rule: an epoch is a restart point iff its
//! **manifest** — the commit record the coordinator publishes after every
//! rank ACKed its image durable (paper §3.2 step 3) — survives and every
//! image it lists checks out. [`RunReport::restart_spec`] applies that
//! rule to one epoch and [`RunReport::latest_restart_spec`] picks the
//! newest epoch that passes it; nothing else in the workspace decides
//! which epoch is trustworthy. Chandy-Lamport and uncoordinated epochs
//! never commit a manifest (their image sets are not consistent cuts
//! without the channel logs), so they are never restart points.

use crate::job::RunReport;
use crate::proto;
use gbcr_blcr::codec::fnv1a;
use gbcr_blcr::ProcessImage;
use gbcr_des::{SimError, SimResult};
use gbcr_storage::{CheckpointStore, StoredObject};
use std::collections::HashMap;

/// Which epoch to restart from, and the images to restart with — built by
/// [`RunReport::restart_spec`] / [`RunReport::latest_restart_spec`] from a
/// previous run's report and handed to [`crate::JobRunner::restart`].
#[derive(Debug, Clone)]
pub struct RestartSpec {
    /// Job name the images were saved under (may differ from the new run's
    /// checkpoint job name for generation-2 checkpoints).
    pub job: String,
    /// The epoch to restore.
    pub epoch: u64,
    /// `(object name, image)` pairs preloaded onto the fresh storage.
    pub images: Vec<(String, StoredObject)>,
    /// Nodes that died in the crashed attempt (its
    /// [`RunReport::killed_ranks`]). Backends with per-node
    /// state (the replicated store) bring those nodes' replacements up
    /// *empty*, so the restart storm reads the dead ranks' images from
    /// surviving replicas. Irrelevant to the central backend.
    pub lost_nodes: Vec<u32>,
}

impl RestartSpec {
    /// Install this restart point onto a fresh checkpoint store:
    /// **first** wipe the crashed attempt's lost nodes, **then** preload
    /// the surviving images. The order is load-bearing on per-node
    /// backends — a preload before the wipe would hand a dead node's
    /// replacement its old in-memory copies, silently skipping the remote
    /// replica reads the recovery model exists to charge. Keeping both
    /// steps inside one method makes the ordering an invariant of the
    /// type instead of a convention every caller must remember.
    pub fn install(&self, store: &dyn CheckpointStore) {
        for &node in &self.lost_nodes {
            store.node_failed(node);
        }
        for (name, obj) in &self.images {
            store.preload(name, obj.clone());
        }
    }
}

/// `report.images` by object name, built once per selection so validating
/// an epoch is one lookup per rank.
type ImageIndex<'a> = HashMap<&'a str, &'a StoredObject>;

impl RunReport {
    fn image_index(&self) -> ImageIndex<'_> {
        self.images.iter().map(|(k, v)| (k.as_str(), v)).collect()
    }

    /// The restart point `(job, epoch)` of an `n`-rank job, validated
    /// against the epoch's committed manifest. Fails with
    /// [`SimError::NoRestartPoint`] when the epoch has no manifest (its
    /// commit was torn, an image was lost so the commit was skipped, the
    /// epoch never finished, or the mode never commits one) or an image it
    /// lists has since been lost with every node that held a copy, and with
    /// [`SimError::CorruptRestartState`] when the manifest or an image it
    /// lists fails validation — a restart must never proceed on state it
    /// cannot trust, but callers can degrade to an older epoch or a cold
    /// restart instead of dying.
    pub fn restart_spec(&self, job: &str, epoch: u64, n: u32) -> SimResult<RestartSpec> {
        self.checked_spec(&self.image_index(), job, epoch, n)
    }

    /// The newest epoch of `job` that [`RunReport::restart_spec`] accepts —
    /// the restart point a supervisor picks — or `None` when no committed
    /// epoch survives intact. An epoch whose manifest is present but no
    /// longer matches storage (a stale or foreign object under a
    /// manifest-shaped name, an image lost with every node that held a
    /// copy) is demoted in favour of the previous one.
    pub fn latest_restart_spec(&self, job: &str, n: u32) -> Option<RestartSpec> {
        let index = self.image_index();
        let mut epochs: Vec<u64> =
            self.images.iter().filter_map(|(name, _)| proto::manifest_epoch(job, name)).collect();
        epochs.sort_unstable_by(|a, b| b.cmp(a));
        epochs.into_iter().find_map(|e| self.checked_spec(&index, job, e, n).ok())
    }

    /// The one place an epoch is decided trustworthy: decode its manifest,
    /// then check every listed image once (presence, size, checksum,
    /// decoded rank/epoch).
    fn checked_spec(
        &self,
        index: &ImageIndex<'_>,
        job: &str,
        epoch: u64,
        n: u32,
    ) -> SimResult<RestartSpec> {
        let manifest = proto::manifest_name(job, epoch);
        let corrupt =
            |detail: String| SimError::CorruptRestartState { job: job.to_owned(), detail };
        let obj = index.get(manifest.as_str()).ok_or_else(|| SimError::NoRestartPoint {
            job: job.to_owned(),
            detail: format!("epoch {epoch} has no committed manifest '{manifest}'"),
        })?;
        let (m_epoch, entries) = proto::decode_manifest(obj.payload.clone())
            .map_err(|e| corrupt(format!("manifest '{manifest}' undecodable: {e}")))?;
        if m_epoch != epoch {
            return Err(corrupt(format!(
                "manifest '{manifest}' claims epoch {m_epoch}, expected {epoch}"
            )));
        }
        if entries.len() != n as usize {
            return Err(corrupt(format!(
                "manifest '{manifest}' lists {} ranks, expected {n}",
                entries.len()
            )));
        }
        // Indexed by rank, so the preload below runs in rank order.
        let mut images: Vec<Option<(String, StoredObject)>> = vec![None; n as usize];
        for &(r, size, checksum) in &entries {
            if r >= n || images[r as usize].is_some() {
                return Err(corrupt(format!(
                    "manifest '{manifest}' lists bogus or duplicate rank {r}"
                )));
            }
            let name = ProcessImage::object_name(job, epoch, r);
            // A listed image that is gone was lost after the commit (every
            // node holding a copy died): absent, not corrupt.
            let img = *index.get(name.as_str()).ok_or_else(|| SimError::NoRestartPoint {
                job: job.to_owned(),
                detail: format!("epoch {epoch} incomplete: manifested image '{name}' is lost"),
            })?;
            if img.virtual_size != size || fnv1a(&img.payload) != checksum {
                return Err(corrupt(format!(
                    "image '{name}' does not match its manifest entry (size {} vs {size})",
                    img.virtual_size
                )));
            }
            // Decode up front so a corrupt image surfaces as a typed error
            // here, not a panic inside the restarted simulation.
            let decoded = ProcessImage::decode(img.payload.clone())
                .map_err(|e| corrupt(format!("manifested image '{name}' undecodable: {e}")))?;
            if decoded.rank != r || decoded.epoch != epoch {
                return Err(corrupt(format!(
                    "image '{name}' decodes to rank {} epoch {} (expected rank {r} epoch {epoch})",
                    decoded.rank, decoded.epoch
                )));
            }
            images[r as usize] = Some((name, img.clone()));
        }
        Ok(RestartSpec {
            job: job.to_owned(),
            epoch,
            // `entries.len() == n` distinct ranks below `n`: every slot is filled.
            images: images.into_iter().flatten().collect(),
            lost_nodes: self.killed_ranks.clone(),
        })
    }
}
