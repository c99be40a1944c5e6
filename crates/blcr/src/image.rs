//! Framed checkpoint images.

use crate::codec::{fnv1a, CodecError, Decoder};
use bytes::{BufMut, Bytes, BytesMut};

const MAGIC: u32 = 0x4743_4B50; // "GCKP"
const VERSION: u8 = 1;
/// Body bytes before the application state: magic, version, rank, four
/// `u64` fields and the state's length.
const BODY_FIXED: usize = 4 + 1 + 4 + 4 * 8 + 8;

/// A single process's checkpoint image: framed metadata plus the
/// application's registered state. The `footprint` is the simulated image
/// size (the process memory footprint); only `app_state` occupies real
/// memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessImage {
    /// MPI rank of the checkpointed process.
    pub rank: u32,
    /// Global checkpoint epoch this image belongs to.
    pub epoch: u64,
    /// Virtual time (ns) at which the snapshot was taken.
    pub taken_at: u64,
    /// Simulated image size in bytes: the full memory footprint, or just
    /// the dirty bytes for an incremental image.
    pub footprint: u64,
    /// Extra bytes a restore must read besides this image: the preceding
    /// chain (last full image plus later increments). Zero for full images.
    pub restore_extra: u64,
    /// Serialized application state (see [`crate::Checkpointable`]).
    pub app_state: Bytes,
}

impl ProcessImage {
    /// Frame the image: magic, version, fields, then an FNV-1a checksum of
    /// everything before it.
    ///
    /// The frame (the body's length, the body, its checksum) is written
    /// once, into a buffer sized in advance, and the checksum reads the
    /// body where it lies.
    pub fn encode(&self) -> Bytes {
        let body_len = BODY_FIXED + self.app_state.len();
        let mut framed = BytesMut::with_capacity(8 + body_len + 8);
        framed.put_u64_le(body_len as u64);
        framed.put_u32_le(MAGIC);
        framed.put_u8(VERSION);
        framed.put_u32_le(self.rank);
        framed.put_u64_le(self.epoch);
        framed.put_u64_le(self.taken_at);
        framed.put_u64_le(self.footprint);
        framed.put_u64_le(self.restore_extra);
        framed.put_u64_le(self.app_state.len() as u64);
        framed.put_slice(&self.app_state);
        debug_assert_eq!(framed.len(), 8 + body_len);
        let sum = fnv1a(&framed[8..]);
        framed.put_u64_le(sum);
        framed.freeze()
    }

    /// The checksum a framed image carries in its last eight bytes — what
    /// [`decode`](ProcessImage::decode) checks the body against — read
    /// without hashing anything: a manifest records it, and restart
    /// compares it before the one full check, `decode`. `None` for a
    /// buffer too short to end in one.
    pub fn frame_checksum(frame: &[u8]) -> Option<u64> {
        let tail = frame.len().checked_sub(8).map(|at| &frame[at..])?;
        Some(u64::from_le_bytes(tail.try_into().expect("eight bytes")))
    }

    /// Parse and verify a framed image.
    pub fn decode(buf: Bytes) -> Result<Self, CodecError> {
        let mut d = Decoder::new(buf);
        let body = d.get_bytes()?;
        let sum = d.get_u64()?;
        if d.remaining() != 0 {
            return Err(CodecError::Corrupt("trailing bytes after image frame"));
        }
        if fnv1a(&body) != sum {
            return Err(CodecError::Corrupt("image checksum mismatch"));
        }
        let mut d = Decoder::new(body);
        if d.get_u32()? != MAGIC {
            return Err(CodecError::Corrupt("bad image magic"));
        }
        if d.get_u8()? != VERSION {
            return Err(CodecError::Corrupt("unsupported image version"));
        }
        let img = ProcessImage {
            rank: d.get_u32()?,
            epoch: d.get_u64()?,
            taken_at: d.get_u64()?,
            footprint: d.get_u64()?,
            restore_extra: d.get_u64()?,
            app_state: d.get_bytes()?,
        };
        if d.remaining() != 0 {
            return Err(CodecError::Corrupt("trailing bytes inside image body"));
        }
        Ok(img)
    }

    /// Canonical storage object name for a given job, epoch, and rank.
    pub fn object_name(job: &str, epoch: u64, rank: u32) -> String {
        format!("ckpt/{job}/e{epoch}/r{rank}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Encoder;

    fn sample() -> ProcessImage {
        ProcessImage {
            rank: 3,
            epoch: 2,
            taken_at: 123_456_789,
            footprint: 180_000_000,
            restore_extra: 0,
            app_state: Bytes::from_static(b"iteration=17"),
        }
    }

    /// The two-step framing `encode` replaced: the body into one encoder,
    /// then copied into a second behind its length and before its checksum.
    fn two_step_encode(img: &ProcessImage) -> Bytes {
        let mut e = Encoder::new();
        e.put_u32(MAGIC);
        e.put_u8(VERSION);
        e.put_u32(img.rank);
        e.put_u64(img.epoch);
        e.put_u64(img.taken_at);
        e.put_u64(img.footprint);
        e.put_u64(img.restore_extra);
        e.put_bytes(&img.app_state);
        let body = e.finish();
        let mut framed = Encoder::new();
        framed.put_bytes(&body);
        framed.put_u64(fnv1a(&body));
        framed.finish()
    }

    #[test]
    fn the_frame_checksum_is_the_bodys_hash_read_off_the_tail() {
        let framed = sample().encode();
        let body = &framed[8..framed.len() - 8];
        assert_eq!(ProcessImage::frame_checksum(&framed), Some(fnv1a(body)));
        assert_eq!(ProcessImage::frame_checksum(&framed[..7]), None);
    }

    #[test]
    fn one_buffer_frame_equals_the_two_step_frame() {
        let big: Vec<u8> =
            (0..1 << 20).map(|i: u32| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        for app_state in [sample().app_state, Bytes::new(), Bytes::from(big)] {
            let img = ProcessImage { app_state, ..sample() };
            let framed = img.encode();
            assert_eq!(framed, two_step_encode(&img), "{} state bytes", img.app_state.len());
            assert_eq!(framed.len(), 8 + BODY_FIXED + img.app_state.len() + 8);
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let img = sample();
        assert_eq!(ProcessImage::decode(img.encode()).unwrap(), img);
    }

    #[test]
    fn bit_flip_is_detected() {
        let buf = sample().encode();
        for i in 0..buf.len() {
            let mut v = buf.to_vec();
            v[i] ^= 0x40;
            assert!(
                ProcessImage::decode(Bytes::from(v)).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn object_names_are_unique_per_rank_and_epoch() {
        let a = ProcessImage::object_name("job", 1, 0);
        let b = ProcessImage::object_name("job", 1, 1);
        let c = ProcessImage::object_name("job", 2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, "ckpt/job/e1/r0");
    }
}
