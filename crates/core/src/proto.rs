//! Protocol message kinds and serialization helpers.
//!
//! Out-of-band messages drive the global protocol; their `kind` field takes
//! one of the constants below. Serialization of structured payloads (group
//! plans, traffic vectors, MPI library state) uses the `gbcr-blcr` codec.

use bytes::{Buf, BufMut, Bytes};
use gbcr_blcr::codec::{CodecError, Decoder, Encoder};
use gbcr_mpi::{Msg, MpiCrState, Rank, Tag};

/// Coordinator → all ranks: an epoch begins; payload: the [`PlanMap`]; `b`: its group count.
pub const EPOCH_BEGIN: u32 = 1;
/// Rank → coordinator: epoch state installed.
pub const EPOCH_BEGIN_ACK: u32 = 2;
/// Coordinator → all ranks: group `b` is about to checkpoint (close gates).
pub const GROUP_START: u32 = 3;
/// Rank → coordinator: gate toward the starting group is closed.
pub const GROUP_START_ACK: u32 = 4;
/// Coordinator → members of group `b`: take your local checkpoints now.
pub const GROUP_GO: u32 = 5;
/// Member → coordinator: local checkpoint durable; `b` = individual time.
pub const RANK_DONE: u32 = 6;
/// Coordinator → all ranks: group `b` has completed its checkpoints.
pub const GROUP_DONE: u32 = 7;
/// Coordinator → all ranks: the global checkpoint is complete.
pub const EPOCH_END: u32 = 8;
/// Rank → coordinator: epoch state cleared.
pub const EPOCH_END_ACK: u32 = 9;
/// Coordinator → all ranks: report your communication statistics.
pub const TRAFFIC_QUERY: u32 = 10;
/// Rank → coordinator: serialized traffic vector.
pub const TRAFFIC_REPLY: u32 = 11;
/// Rank → coordinator: application body finished.
pub const FINISHED: u32 = 12;
/// Coordinator → all ranks: job over, leave the service loop.
pub const SHUTDOWN: u32 = 13;

/// In-band (data fabric) control kinds, carried in [`gbcr_mpi::CtrlWire`].
/// Checkpointing member → peer: "stop sending to me and acknowledge so I
/// can flush and tear down our connection" (§4.2's active side).
pub const FLUSH_REQ: u32 = 100;
/// Peer → member: flush acknowledged (§4.2's passive side). The latency of
/// this reply is what the §4.4 helper thread bounds for computing peers.
pub const FLUSH_ACK: u32 = 101;
/// Chandy-Lamport marker on a channel: "my snapshot precedes this point"
/// (§2.1's non-blocking alternative, idealized comparator).
pub const CL_MARKER: u32 = 102;

/// Coordinator → all ranks (Chandy-Lamport mode): take your snapshot now,
/// non-blocking, with markers and channel-state logging.
pub const CL_SNAPSHOT: u32 = 14;
/// Coordinator → one rank (uncoordinated mode): take an independent local
/// snapshot now (the coordinator only emulates each rank's local timer).
pub const UNCOORD_GO: u32 = 15;
/// Coordinator → all ranks: a phase deadline tripped; discard the epoch
/// attempt carried in `a` (an epoch word, see [`epoch_word`]) and roll back
/// to running state. The previous manifest stays authoritative.
pub const ABORT_EPOCH: u32 = 16;
/// Rank → coordinator: abort processed, rank is back to running state.
pub const ABORT_ACK: u32 = 17;

// ---------------------------------------------------------------------
// Control-plane liveness and failover (lease-based leader election)
// ---------------------------------------------------------------------

/// Leader → standbys: lease renewal. `a` = current term, `b` = heartbeat
/// sequence number within the term.
pub const HEARTBEAT: u32 = 18;
/// Candidate standby → all standbys: request a vote for term `a`; `b` is
/// the candidate's rank.
pub const ELECT_REQ: u32 = 19;
/// Standby → candidate standby: vote granted for term `a`; `b` is the
/// voter's rank. At most one vote per term per standby.
pub const ELECT_VOTE: u32 = 20;
/// New leader → standbys: term `a` won by rank `b`; adopt the term and
/// refresh your lease.
pub const LEADER_ANNOUNCE: u32 = 21;
/// New leader → all ranks: report your control-plane state for term `a`
/// so the takeover can rebuild the dead coordinator's bookkeeping.
pub const RECONCILE: u32 = 22;
/// Rank → coordinator: reconciliation report for term `a`. `b` is 1 if
/// this rank's application body already finished (its `FINISHED` message
/// may have died with the old coordinator); the payload carries the
/// rank's open epoch word, if any (see [`encode_reconcile_ack`]).
pub const RECONCILE_ACK: u32 = 23;
/// Leader → standbys: the job is complete, leave the standby loop.
pub const STANDBY_STOP: u32 = 24;

/// Render a protocol kind for diagnostics.
pub fn kind_name(kind: u32) -> &'static str {
    match kind {
        EPOCH_BEGIN => "EPOCH_BEGIN",
        EPOCH_BEGIN_ACK => "EPOCH_BEGIN_ACK",
        GROUP_START => "GROUP_START",
        GROUP_START_ACK => "GROUP_START_ACK",
        GROUP_GO => "GROUP_GO",
        RANK_DONE => "RANK_DONE",
        GROUP_DONE => "GROUP_DONE",
        EPOCH_END => "EPOCH_END",
        EPOCH_END_ACK => "EPOCH_END_ACK",
        TRAFFIC_QUERY => "TRAFFIC_QUERY",
        TRAFFIC_REPLY => "TRAFFIC_REPLY",
        FINISHED => "FINISHED",
        SHUTDOWN => "SHUTDOWN",
        FLUSH_REQ => "FLUSH_REQ",
        FLUSH_ACK => "FLUSH_ACK",
        CL_MARKER => "CL_MARKER",
        CL_SNAPSHOT => "CL_SNAPSHOT",
        UNCOORD_GO => "UNCOORD_GO",
        ABORT_EPOCH => "ABORT_EPOCH",
        ABORT_ACK => "ABORT_ACK",
        HEARTBEAT => "HEARTBEAT",
        ELECT_REQ => "ELECT_REQ",
        ELECT_VOTE => "ELECT_VOTE",
        LEADER_ANNOUNCE => "LEADER_ANNOUNCE",
        RECONCILE => "RECONCILE",
        RECONCILE_ACK => "RECONCILE_ACK",
        STANDBY_STOP => "STANDBY_STOP",
        _ => "UNKNOWN",
    }
}

// ---------------------------------------------------------------------
// Epoch words: epoch number + retry counter in one OOB `a` field
// ---------------------------------------------------------------------

/// Bits of an epoch word holding the epoch number; the retry counter lives
/// above them.
const EPOCH_BITS: u32 = 48;

/// Pack an epoch number and a retry counter into one OOB `a` word. Try 0
/// encodes to the bare epoch number, so fault-free runs put exactly the
/// same bytes on the wire as before retries existed. Ranks treat the word
/// as opaque (install it, echo it back); only the coordinator and the
/// image-naming path split it.
pub fn epoch_word(epoch: u64, tries: u64) -> u64 {
    debug_assert!(epoch < 1 << EPOCH_BITS, "epoch {epoch} overflows the epoch word");
    debug_assert!(tries < 1 << (64 - EPOCH_BITS), "try counter {tries} overflows");
    epoch | (tries << EPOCH_BITS)
}

/// Split an epoch word into `(epoch, tries)`. A bare epoch number (as used
/// by the Chandy-Lamport and uncoordinated paths) splits to `(epoch, 0)`.
pub fn split_epoch(word: u64) -> (u64, u64) {
    (word & ((1 << EPOCH_BITS) - 1), word >> EPOCH_BITS)
}

// ---------------------------------------------------------------------
// Reconciliation payloads (failover takeover)
// ---------------------------------------------------------------------

/// Encode a [`RECONCILE_ACK`] payload: the rank's currently installed
/// (half-open) epoch word, if any.
pub fn encode_reconcile_ack(open: Option<u64>) -> Bytes {
    let mut e = Encoder::new();
    match open {
        Some(word) => {
            e.put_u64(1);
            e.put_u64(word);
        }
        None => e.put_u64(0),
    }
    e.finish()
}

/// Decode a [`RECONCILE_ACK`] payload into the open epoch word, if any.
pub fn decode_reconcile_ack(buf: Bytes) -> Result<Option<u64>, CodecError> {
    let mut d = Decoder::new(buf);
    let out = match d.get_u64()? {
        0 => None,
        1 => Some(d.get_u64()?),
        _ => return Err(CodecError::Corrupt("bad reconcile-ack discriminant")),
    };
    if d.remaining() != 0 {
        return Err(CodecError::Corrupt("trailing bytes in reconcile ack"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Epoch manifests: the atomic commit record of the two-phase epoch commit
// ---------------------------------------------------------------------

/// Storage name of the manifest object for `(job, epoch)`.
pub fn manifest_name(job: &str, epoch: u64) -> String {
    format!("manifest/{job}/e{epoch}")
}

/// The epoch a manifest object name encodes for `job` — the inverse of
/// [`manifest_name`]; `None` for any other object name.
pub fn manifest_epoch(job: &str, name: &str) -> Option<u64> {
    name.strip_prefix("manifest/")?.strip_prefix(job)?.strip_prefix("/e")?.parse().ok()
}

/// One manifest row: `(rank, image virtual size, image payload checksum)`.
pub type ManifestEntry = (u32, u64, u64);

/// Read an element count, refusing one larger than the bytes left (every
/// element takes at least one), so a corrupt count cannot size an
/// allocation.
fn get_count(d: &mut Decoder, too_long: &'static str) -> Result<usize, CodecError> {
    let n = d.get_u64()? as usize;
    if n > d.remaining() {
        return Err(CodecError::Corrupt(too_long));
    }
    Ok(n)
}

/// Field widths of a `(u32, u64, u64)` row of a manifest or a traffic
/// vector.
const ROW: [usize; 3] = [4, 8, 8];

/// Write a count, then the `(u32, u64, u64)` rows in one bulk write.
fn put_rows(e: &mut Encoder, rows: &[(u32, u64, u64)]) {
    e.put_u64(rows.len() as u64);
    e.put_records(rows, &ROW, |w, &(a, b, c)| {
        w.put_u32_le(a);
        w.put_u64_le(b);
        w.put_u64_le(c);
    });
}

/// Read one row as [`put_rows`] writes it (for [`Decoder::get_records`]).
fn get_row(r: &mut &[u8]) -> (u32, u64, u64) {
    (r.get_u32_le(), r.get_u64_le(), r.get_u64_le())
}

/// Encode an epoch manifest: the commit record listing every rank's image.
pub fn encode_manifest(epoch: u64, entries: &[ManifestEntry]) -> Bytes {
    let mut e = Encoder::new();
    e.put_u64(epoch);
    put_rows(&mut e, entries);
    e.finish()
}

/// Decode an epoch manifest into `(epoch, entries)`.
pub fn decode_manifest(buf: Bytes) -> Result<(u64, Vec<ManifestEntry>), CodecError> {
    let mut d = Decoder::new(buf);
    let epoch = d.get_u64()?;
    let n = get_count(&mut d, "manifest length exceeds payload")?;
    let v = d.get_records(n, &ROW, get_row)?;
    if d.remaining() != 0 {
        return Err(CodecError::Corrupt("trailing bytes in manifest"));
    }
    Ok((epoch, v))
}

// ---------------------------------------------------------------------
// Payload codecs (free functions: `Msg` and `MpiCrState` live in
// `gbcr-mpi`, the codec trait in `gbcr-blcr`, so blanket impls would be
// orphaned).
// ---------------------------------------------------------------------

/// A plan's `rank → group` map as `EPOCH_BEGIN` carries it: a u64 rank
/// count, then a u32 little-endian group index per rank (the group count
/// rides in `b`). [`GroupPlan::new`](crate::GroupPlan::new) builds it once,
/// and the coordinator and every rank read the one shared buffer in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanMap {
    bytes: Bytes,
    groups: usize,
}

impl PlanMap {
    /// Encode a checked `rank → group` map of `groups` groups.
    pub(crate) fn encode(group_of: &[u32], groups: usize) -> Self {
        let mut e = Encoder::new();
        e.put_u64(group_of.len() as u64);
        e.put_records(group_of, &[4], |w, &g| w.put_u32_le(g));
        PlanMap { bytes: e.finish(), groups }
    }

    /// A rank's read of a received plan of `groups` groups. The plan was
    /// checked where it was built, so all this checks is that the payload
    /// holds exactly the entries its count announces.
    pub(crate) fn read(bytes: Bytes, groups: u64) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes.clone());
        if d.get_u64()?.checked_mul(4) != Some(d.remaining() as u64) {
            return Err(CodecError::Corrupt("plan length does not match payload"));
        }
        Ok(PlanMap { bytes, groups: groups as usize })
    }

    /// The payload `EPOCH_BEGIN` carries (a shared handle, not a copy).
    pub fn payload(&self) -> Bytes {
        self.bytes.clone()
    }

    /// Number of ranks mapped.
    pub fn ranks(&self) -> u32 {
        ((self.bytes.len() - 8) / 4) as u32
    }

    /// Which group `rank` belongs to.
    pub fn group_of(&self, rank: Rank) -> usize {
        let mut entry = &self.bytes[8 + rank as usize * 4..][..4];
        entry.get_u32_le() as usize
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups
    }
}

/// Encode a traffic vector `(peer, messages, bytes)*`.
pub fn encode_traffic(rows: &[(Rank, u64, u64)]) -> Bytes {
    let mut e = Encoder::new();
    put_rows(&mut e, rows);
    e.finish()
}

/// Decode a traffic vector.
pub fn decode_traffic(buf: Bytes) -> Result<Vec<(Rank, u64, u64)>, CodecError> {
    let mut d = Decoder::new(buf);
    let n = get_count(&mut d, "traffic length exceeds payload")?;
    d.get_records(n, &ROW, get_row)
}

fn put_msg(e: &mut Encoder, m: &Msg) {
    e.put_bytes(&m.data);
    e.put_u64(m.size);
}

fn get_msg(d: &mut Decoder) -> Result<Msg, CodecError> {
    let data = d.get_bytes()?;
    let size = d.get_u64()?;
    Ok(Msg { data, size })
}

fn put_triples(e: &mut Encoder, rows: &[(Rank, Tag, Msg)]) {
    e.put_u64(rows.len() as u64);
    for (r, t, m) in rows {
        e.put_u32(*r);
        e.put_u32(*t);
        put_msg(e, m);
    }
}

fn get_triples(d: &mut Decoder) -> Result<Vec<(Rank, Tag, Msg)>, CodecError> {
    let n = get_count(d, "triple count exceeds payload")?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push((d.get_u32()?, d.get_u32()?, get_msg(d)?));
    }
    Ok(v)
}

fn put_seq_pairs(e: &mut Encoder, rows: &[(Rank, u64)]) {
    e.put_u64(rows.len() as u64);
    e.put_records(rows, &[4, 8], |w, &(r, s)| {
        w.put_u32_le(r);
        w.put_u64_le(s);
    });
}

fn get_seq_pairs(d: &mut Decoder) -> Result<Vec<(Rank, u64)>, CodecError> {
    let n = get_count(d, "pair count exceeds payload")?;
    d.get_records(n, &[4, 8], |r| (r.get_u32_le(), r.get_u64_le()))
}

fn put_deferred(e: &mut Encoder, rows: &[(Rank, Tag, Msg, u64)]) {
    e.put_u64(rows.len() as u64);
    for (r, t, m, u) in rows {
        e.put_u32(*r);
        e.put_u32(*t);
        put_msg(e, m);
        e.put_u64(*u);
    }
}

fn get_deferred(d: &mut Decoder) -> Result<Vec<(Rank, Tag, Msg, u64)>, CodecError> {
    let n = get_count(d, "deferred count exceeds payload")?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push((d.get_u32()?, d.get_u32()?, get_msg(d)?, d.get_u64()?));
    }
    Ok(v)
}

/// Image payload: the application's registered state plus the
/// checkpointable MPI library state.
pub fn encode_image_payload(app_state: &Bytes, mpi_state: &MpiCrState) -> Bytes {
    let mut e = Encoder::new();
    e.put_bytes(app_state);
    put_triples(&mut e, &mpi_state.inbound);
    put_deferred(&mut e, &mpi_state.deferred_eager);
    put_seq_pairs(&mut e, &mpi_state.send_seqs);
    put_seq_pairs(&mut e, &mpi_state.recv_watermarks);
    e.put_u64(mpi_state.coll_seqs.len() as u64);
    e.put_records(&mpi_state.coll_seqs, &[4, 4], |w, &(c, q)| {
        w.put_u32_le(c);
        w.put_u32_le(q);
    });
    e.finish()
}

/// Inverse of [`encode_image_payload`].
pub fn decode_image_payload(buf: Bytes) -> Result<(Bytes, MpiCrState), CodecError> {
    let mut d = Decoder::new(buf);
    let app_state = d.get_bytes()?;
    let inbound = get_triples(&mut d)?;
    let deferred_eager = get_deferred(&mut d)?;
    let send_seqs = get_seq_pairs(&mut d)?;
    let recv_watermarks = get_seq_pairs(&mut d)?;
    let nc = get_count(&mut d, "coll-seq count exceeds payload")?;
    let coll_seqs = d.get_records(nc, &[4, 4], |r| (r.get_u32_le(), r.get_u32_le()))?;
    if d.remaining() != 0 {
        return Err(CodecError::Corrupt("trailing bytes in image payload"));
    }
    Ok((
        app_state,
        MpiCrState { inbound, deferred_eager, send_seqs, recv_watermarks, coll_seqs },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_round_trip() {
        let sent = PlanMap::encode(&[0, 0, 1, 1, 2, 2, 3, 3], 4);
        let map = PlanMap::read(sent.payload(), 4).unwrap();
        assert_eq!((map.ranks(), map.group_count(), map.group_of(5)), (8, 4, 2));
        assert_eq!(map, sent);
    }

    /// The bulk table writes put the bytes on the wire that one `put_*` per
    /// field does.
    #[test]
    fn bulk_tables_keep_the_field_by_field_layout() {
        let rows = [(1u32, 5u64, 500u64), (7, 1, 16)];
        let mut e = Encoder::new();
        e.put_u64(9);
        e.put_u64(2);
        for &(a, b, c) in &rows {
            e.put_u32(a);
            e.put_u64(b);
            e.put_u64(c);
        }
        let manifest = e.finish();
        assert_eq!(encode_manifest(9, &rows), manifest);
        assert_eq!(encode_traffic(&rows), manifest.slice(8..));

        let mut e = Encoder::new();
        e.put_u64(3);
        [0, 1, 1].iter().for_each(|&g| e.put_u32(g));
        assert_eq!(PlanMap::encode(&[0, 1, 1], 2).payload(), e.finish());

        let mpi = MpiCrState {
            send_seqs: vec![(1, 6), (3, 2)],
            recv_watermarks: vec![(3, 9)],
            coll_seqs: vec![(0, 12), (4, 1)],
            ..MpiCrState::default()
        };
        let mut e = Encoder::new();
        e.put_bytes(b"app");
        e.put_u64(0);
        e.put_u64(0);
        for seqs in [&mpi.send_seqs, &mpi.recv_watermarks] {
            e.put_u64(seqs.len() as u64);
            seqs.iter().for_each(|&(r, s)| {
                e.put_u32(r);
                e.put_u64(s);
            });
        }
        e.put_u64(2);
        mpi.coll_seqs.iter().for_each(|&(c, q)| {
            e.put_u32(c);
            e.put_u32(q);
        });
        assert_eq!(encode_image_payload(&Bytes::from_static(b"app"), &mpi), e.finish());
    }

    #[test]
    fn traffic_round_trip() {
        let t = vec![(1u32, 5u64, 500u64), (7, 1, 16)];
        assert_eq!(decode_traffic(encode_traffic(&t)).unwrap(), t);
    }

    #[test]
    fn image_payload_round_trip() {
        let app = Bytes::from_static(b"app-state");
        let mpi = MpiCrState {
            inbound: vec![(3, 7, Msg::with_size(&b"x"[..], 1024))],
            deferred_eager: vec![(1, 2, Msg::u64(9), 4), (1, 2, Msg::u64(10), 5)],
            send_seqs: vec![(1, 6), (3, 2)],
            recv_watermarks: vec![(3, 9)],
            coll_seqs: vec![(0, 12)],
        };
        let (a2, m2) = decode_image_payload(encode_image_payload(&app, &mpi)).unwrap();
        assert_eq!(a2, app);
        assert_eq!(m2, mpi);
    }

    #[test]
    fn corrupt_plan_is_rejected() {
        let mut e = Encoder::new();
        e.put_u64(u64::MAX);
        assert!(PlanMap::read(e.finish(), 1).is_err());
        let plan = PlanMap::encode(&[0, 0, 1], 2).payload();
        let short = plan.slice(..8 + 11);
        assert!(PlanMap::read(short, 2).is_err(), "three entries announced, not three present");
        let long = [&plan[..], &[0; 4]].concat();
        assert!(PlanMap::read(long.into(), 2).is_err(), "three entries announced, four present");
        assert!(PlanMap::read(Bytes::new(), 0).is_err(), "no count");
    }

    #[test]
    fn kind_names_cover_protocol() {
        for k in 1..=24 {
            assert_ne!(kind_name(k), "UNKNOWN", "kind {k}");
        }
        assert_eq!(kind_name(99), "UNKNOWN");
    }

    #[test]
    fn epoch_word_try_zero_is_the_bare_epoch() {
        assert_eq!(epoch_word(5, 0), 5, "fault-free wire bytes must not change");
        assert_eq!(split_epoch(5), (5, 0));
        assert_eq!(split_epoch(epoch_word(5, 3)), (5, 3));
        assert_ne!(epoch_word(5, 1), epoch_word(5, 2));
    }

    #[test]
    fn reconcile_ack_round_trip() {
        assert_eq!(decode_reconcile_ack(encode_reconcile_ack(None)).unwrap(), None);
        let word = epoch_word(7, 2);
        assert_eq!(
            decode_reconcile_ack(encode_reconcile_ack(Some(word))).unwrap(),
            Some(word)
        );
        let mut e = Encoder::new();
        e.put_u64(9);
        assert!(decode_reconcile_ack(e.finish()).is_err());
    }

    #[test]
    fn manifest_round_trip_and_corruption() {
        let entries = vec![(0u32, 1_000_000u64, 0xDEAD_BEEFu64), (1, 2_000_000, 7)];
        let (e, back) = decode_manifest(encode_manifest(3, &entries)).unwrap();
        assert_eq!(e, 3);
        assert_eq!(back, entries);
        assert_eq!(manifest_epoch("job", &manifest_name("job", 12)), Some(12));
        assert_eq!(manifest_epoch("job", &manifest_name("job2", 12)), None);
        assert_eq!(manifest_epoch("job", "ckpt/job/e12/r0"), None);

        let mut enc = Encoder::new();
        enc.put_u64(3);
        enc.put_u64(u64::MAX); // absurd entry count
        assert!(decode_manifest(enc.finish()).is_err());

        let truncated = encode_manifest(3, &entries).slice(0..20);
        assert!(decode_manifest(truncated).is_err());
    }
}
