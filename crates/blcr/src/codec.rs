//! A compact, dependency-free binary codec for checkpoint payloads.
//!
//! Little-endian fixed-width integers, length-prefixed byte strings, and a
//! [`Checkpointable`] trait that application state implements to ride inside
//! a [`crate::ProcessImage`]. Deliberately minimal: the simulation never
//! needs schema evolution, only a faithful round-trip with corruption
//! detection (done at the image layer via FNV-1a).

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes remained than the read required.
    Truncated {
        /// Bytes needed by the read.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A tag or magic value did not match expectations.
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(f, "truncated input: needed {needed} bytes, had {remaining}")
            }
            CodecError::Corrupt(what) => write!(f, "corrupt input: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only encoder.
#[derive(Default)]
pub struct Encoder {
    buf: BytesMut,
}

impl Encoder {
    /// Fresh, empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish, yielding the encoded buffer.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }
    /// Write a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }
    /// Write a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }
    /// Write an `f64` by bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_u64_le(v.to_bits());
    }
    /// Write a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.put_slice(v);
    }
    /// Write a length-prefixed sequence of [`Checkpointable`] items.
    pub fn put_seq<T: Checkpointable>(&mut self, items: &[T]) {
        self.put_u64(items.len() as u64);
        for it in items {
            it.save(self);
        }
    }
    /// Write one fixed-width record per item, the mirror of
    /// [`Decoder::get_records`]. `widths` lists the byte width of each field
    /// of a record in wire order, and `write` fills one record's slot of
    /// exactly those bytes through [`BufMut`], so the bytes are the ones a
    /// field-by-field `put_*` loop would write.
    ///
    /// The buffer grows once for the whole table instead of once per field.
    /// No count is written: callers that need one put it first.
    pub fn put_records<T>(
        &mut self,
        items: &[T],
        widths: &[usize],
        mut write: impl FnMut(&mut &mut [u8], &T),
    ) {
        let width: usize = widths.iter().sum();
        let at = self.buf.len();
        self.buf.resize(at + items.len() * width, 0);
        for (mut slot, item) in self.buf[at..].chunks_exact_mut(width).zip(items) {
            write(&mut slot, item);
            debug_assert!(slot.is_empty(), "`write` left {} of {width} bytes", slot.len());
        }
    }
}

/// Sequential decoder over an encoded buffer.
///
/// Fixed-width reads are cursor moves over the one shared buffer; only
/// [`Decoder::get_bytes`] hands out a sub-buffer (and so touches the
/// buffer's refcount).
pub struct Decoder {
    buf: Bytes,
}

impl Decoder {
    /// Decode from the given buffer.
    pub fn new(buf: Bytes) -> Self {
        Decoder { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn need(&self, n: usize) -> Result<(), CodecError> {
        if self.buf.len() < n {
            Err(CodecError::Truncated { needed: n, remaining: self.buf.len() })
        } else {
            Ok(())
        }
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }
    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }
    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }
    /// Read an `f64` by bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }
    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Bytes, CodecError> {
        let len = self.get_u64()? as usize;
        self.need(len)?;
        Ok(self.buf.split_to(len))
    }
    /// Read `n` fixed-width records in one pass. `widths` lists the byte
    /// width of each field of a record in wire order, and `read` decodes one
    /// record from a cursor over exactly those bytes, so its [`Buf`] reads
    /// cannot run short.
    ///
    /// The length check a field-by-field loop repeats per field is made
    /// once, before anything is allocated. Input too short for `n` records
    /// fails the way that loop would: whole fields are consumed while they
    /// fit and the first that does not is reported as `Truncated`.
    pub fn get_records<T>(
        &mut self,
        n: usize,
        widths: &[usize],
        mut read: impl FnMut(&mut &[u8]) -> T,
    ) -> Result<Vec<T>, CodecError> {
        let width: usize = widths.iter().sum();
        let Some(body) = n.checked_mul(width).and_then(|total| self.buf.chunk().get(..total))
        else {
            return Err(self.short_records(widths, width));
        };
        let out = body
            .chunks_exact(width)
            .map(|mut rec| {
                let v = read(&mut rec);
                debug_assert!(rec.is_empty(), "`read` left {} of {width} bytes", rec.len());
                v
            })
            .collect();
        let total = body.len();
        self.buf.advance(total);
        Ok(out)
    }

    /// The bytes of `n` fixed-width records, as a view into the input
    /// rather than decoded values: for a reader that visits only some of
    /// them, in place. The length check, and the error on short input, are
    /// [`Decoder::get_records`]'s.
    pub fn get_record_bytes(&mut self, n: usize, widths: &[usize]) -> Result<Bytes, CodecError> {
        let width: usize = widths.iter().sum();
        match n.checked_mul(width).filter(|&total| total <= self.remaining()) {
            Some(total) => Ok(self.buf.split_to(total)),
            None => Err(self.short_records(widths, width)),
        }
    }

    #[cold]
    fn short_records(&mut self, widths: &[usize], width: usize) -> CodecError {
        let mut left = self.remaining() % width;
        let mut needed = 0;
        for &w in widths {
            needed = w;
            if left < w {
                break;
            }
            left -= w;
        }
        self.buf.advance(self.remaining() - left);
        CodecError::Truncated { needed, remaining: left }
    }

    /// Read a length-prefixed sequence of [`Checkpointable`] items.
    pub fn get_seq<T: Checkpointable>(&mut self) -> Result<Vec<T>, CodecError> {
        let n = self.get_u64()? as usize;
        // Guard absurd lengths so corrupt input cannot OOM the decoder.
        if n > self.remaining() {
            return Err(CodecError::Corrupt("sequence length exceeds input"));
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::restore(self)?);
        }
        Ok(v)
    }
}

/// Application state that can ride inside a checkpoint image.
///
/// Workloads implement this for their iteration state; the checkpoint
/// framework serializes it into the image payload and hands it back on
/// restart.
pub trait Checkpointable: Sized {
    /// Serialize `self` into the encoder.
    fn save(&self, enc: &mut Encoder);
    /// Rebuild from the decoder.
    fn restore(dec: &mut Decoder) -> Result<Self, CodecError>;

    /// Convenience: encode to a standalone buffer.
    fn to_bytes(&self) -> Bytes {
        let mut e = Encoder::new();
        self.save(&mut e);
        e.finish()
    }

    /// Convenience: decode from a standalone buffer, requiring full
    /// consumption.
    fn from_bytes(buf: Bytes) -> Result<Self, CodecError> {
        let mut d = Decoder::new(buf);
        let v = Self::restore(&mut d)?;
        if d.remaining() != 0 {
            return Err(CodecError::Corrupt("trailing bytes after value"));
        }
        Ok(v)
    }
}

impl Checkpointable for u64 {
    fn save(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }
    fn restore(dec: &mut Decoder) -> Result<Self, CodecError> {
        dec.get_u64()
    }
}

impl Checkpointable for u32 {
    fn save(&self, enc: &mut Encoder) {
        enc.put_u32(*self);
    }
    fn restore(dec: &mut Decoder) -> Result<Self, CodecError> {
        dec.get_u32()
    }
}

impl Checkpointable for f64 {
    fn save(&self, enc: &mut Encoder) {
        enc.put_f64(*self);
    }
    fn restore(dec: &mut Decoder) -> Result<Self, CodecError> {
        dec.get_f64()
    }
}

impl<T: Checkpointable> Checkpointable for Vec<T> {
    fn save(&self, enc: &mut Encoder) {
        enc.put_seq(self);
    }
    fn restore(dec: &mut Decoder) -> Result<Self, CodecError> {
        dec.get_seq()
    }
}

impl<A: Checkpointable, B: Checkpointable> Checkpointable for (A, B) {
    fn save(&self, enc: &mut Encoder) {
        self.0.save(enc);
        self.1.save(enc);
    }
    fn restore(dec: &mut Decoder) -> Result<Self, CodecError> {
        Ok((A::restore(dec)?, B::restore(dec)?))
    }
}

/// FNV-1a 64-bit hash, used as the image checksum.
pub fn fnv1a(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalar_round_trips() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(0xdead_beef);
        e.put_u64(u64::MAX);
        e.put_f64(std::f64::consts::PI);
        e.put_bytes("héllo".as_bytes());
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_f64().unwrap(), std::f64::consts::PI);
        assert_eq!(&d.get_bytes().unwrap()[..], "héllo".as_bytes());
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn truncation_is_detected() {
        let mut e = Encoder::new();
        e.put_u64(1);
        let buf = e.finish();
        let mut d = Decoder::new(buf.slice(0..4));
        assert!(matches!(d.get_u64(), Err(CodecError::Truncated { needed: 8, remaining: 4 })));
    }

    #[test]
    fn records_decode_in_bulk_and_fail_like_the_field_loop() {
        let mut e = Encoder::new();
        for i in 0..3u32 {
            e.put_u32(i);
            e.put_u64(u64::from(i) * 10);
        }
        e.put_u8(0xEE);
        let buf = e.finish();
        let row = |r: &mut &[u8]| (r.get_u32_le(), r.get_u64_le());

        let mut d = Decoder::new(buf.clone());
        assert_eq!(d.get_records(3, &[4, 8], row).unwrap(), [(0, 0), (1, 10), (2, 20)]);
        assert_eq!(d.get_u8().unwrap(), 0xEE);

        // Cut inside the third record: two whole records and a `u32` fit,
        // the `u64` after it has 2 bytes.
        let mut d = Decoder::new(buf.slice(..30));
        let err = d.get_records(3, &[4, 8], row).unwrap_err();
        assert_eq!(err, CodecError::Truncated { needed: 8, remaining: 2 });
        assert_eq!(d.remaining(), 2);

        // A count whose byte length overflows is just a longer short read.
        let mut d = Decoder::new(buf.clone());
        let err = d.get_records(usize::MAX, &[4, 8], row).unwrap_err();
        assert_eq!(err, CodecError::Truncated { needed: 4, remaining: 1 });

        assert_eq!(Decoder::new(buf).get_records(0, &[4, 8], row).unwrap(), []);
    }

    #[test]
    fn record_bytes_are_a_view_and_fail_like_get_records() {
        let mut e = Encoder::new();
        e.put_records(&[(1u32, 10u64), (2, 20)], &[4, 8], |w, &(a, b)| {
            w.put_u32_le(a);
            w.put_u64_le(b);
        });
        e.put_u8(0xEE);
        let buf = e.finish();

        let mut d = Decoder::new(buf.clone());
        let view = d.get_record_bytes(2, &[4, 8]).unwrap();
        assert_eq!(view, buf.slice(..24));
        assert_eq!(d.get_u8().unwrap(), 0xEE);

        // One record more than the input holds, cut at every length: the
        // view reports what `get_records` reports and stops where it stops.
        let row = |r: &mut &[u8]| (r.get_u32_le(), r.get_u64_le());
        for cut in 0..=buf.len() {
            for n in [3, usize::MAX] {
                let mut a = Decoder::new(buf.slice(..cut));
                let mut b = Decoder::new(buf.slice(..cut));
                let want = a.get_records(n, &[4, 8], row).unwrap_err();
                assert_eq!(b.get_record_bytes(n, &[4, 8]).unwrap_err(), want, "cut {cut}, n {n}");
                assert_eq!(b.remaining(), a.remaining());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `put_records` writes what the per-field `put_*` loop writes, after
        /// any prefix, for the record shapes the workspace's tables use.
        #[test]
        fn put_records_equals_the_field_loop(
            prefix in prop::collection::vec(any::<u8>(), 0..9),
            pairs in prop::collection::vec((any::<u64>(), any::<u64>()), 0..40),
            rows in prop::collection::vec(
                (any::<u32>(), any::<u64>(), any::<u64>()),
                0..40,
            ),
            floats in prop::collection::vec(any::<f64>(), 0..40),
        ) {
            let (mut bulk, mut fields) = (Encoder::new(), Encoder::new());
            for &b in &prefix {
                bulk.put_u8(b);
                fields.put_u8(b);
            }
            bulk.put_records(&pairs, &[8, 8], |w, &(a, b)| {
                w.put_u64_le(a);
                w.put_u64_le(b);
            });
            for &(a, b) in &pairs {
                fields.put_u64(a);
                fields.put_u64(b);
            }
            bulk.put_records(&rows, &[4, 8, 8], |w, &(a, b, c)| {
                w.put_u32_le(a);
                w.put_u64_le(b);
                w.put_u64_le(c);
            });
            for &(a, b, c) in &rows {
                fields.put_u32(a);
                fields.put_u64(b);
                fields.put_u64(c);
            }
            bulk.put_records(&floats, &[8], |w, v| w.put_u64_le(v.to_bits()));
            for &v in &floats {
                fields.put_f64(v);
            }
            prop_assert_eq!(bulk.finish(), fields.finish());
        }
    }

    #[test]
    fn seq_round_trips_and_guards_length() {
        let v: Vec<u64> = (0..100).collect();
        let b = v.to_bytes();
        assert_eq!(Vec::<u64>::from_bytes(b).unwrap(), v);

        // Claimed length far beyond input.
        let mut e = Encoder::new();
        e.put_u64(u64::MAX);
        let mut d = Decoder::new(e.finish());
        assert!(matches!(d.get_seq::<u64>(), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_rejected_by_from_bytes() {
        let mut e = Encoder::new();
        e.put_u64(5);
        e.put_u8(9); // extra
        assert!(matches!(u64::from_bytes(e.finish()), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn tuple_and_nested_vec() {
        let v: Vec<(u64, Vec<u32>)> = vec![(1, vec![7]), (2, vec![8, 9])];
        let b = v.to_bytes();
        assert_eq!(Vec::<(u64, Vec<u32>)>::from_bytes(b).unwrap(), v);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_ne!(fnv1a(b"abc"), fnv1a(b"acb"));
    }
}
