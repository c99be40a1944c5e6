//! The cursor-based [`Decoder`] against the decoder it replaced.
//!
//! Until PR 16 every fixed-width read was `Bytes::split_to(n)` — an `Arc`
//! clone and drop per field. `SplitDecoder` below is that decoder, kept as
//! the reference: on any script of fields, any truncation and any flipped
//! byte, the cursor decoder must return the same values or the same
//! [`CodecError`], and stop at the same offset.

use bytes::{Buf, Bytes};
use gbcr_blcr::codec::{CodecError, Decoder, Encoder};
use proptest::prelude::*;

/// The pre-cursor decoder: every read splits a sub-buffer off the front.
struct SplitDecoder {
    buf: Bytes,
}

impl SplitDecoder {
    fn take(&mut self, n: usize) -> Result<Bytes, CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated { needed: n, remaining: self.buf.len() });
        }
        Ok(self.buf.split_to(n))
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.as_ref().try_into().expect("took N bytes"))
    }
}

/// What a script needs from a decoder; implemented by both.
trait Reader {
    fn left(&self) -> usize;
    fn u8(&mut self) -> Result<u8, CodecError>;
    fn u32(&mut self) -> Result<u32, CodecError>;
    fn u64(&mut self) -> Result<u64, CodecError>;
    fn i64(&mut self) -> Result<i64, CodecError>;
    fn f64(&mut self) -> Result<f64, CodecError>;
    fn bool(&mut self) -> Result<bool, CodecError>;
    fn bytes(&mut self) -> Result<Bytes, CodecError>;
    fn str(&mut self) -> Result<String, CodecError>;
    /// `n` records of `(u32, u64, u8)`.
    fn rows(&mut self, n: usize) -> Result<Vec<(u32, u64, u8)>, CodecError>;
    /// `n` bare `f64`s.
    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, CodecError>;
}

impl Reader for Decoder {
    fn left(&self) -> usize {
        self.remaining()
    }
    fn u8(&mut self) -> Result<u8, CodecError> {
        self.get_u8()
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        self.get_u32()
    }
    fn u64(&mut self) -> Result<u64, CodecError> {
        self.get_u64()
    }
    fn i64(&mut self) -> Result<i64, CodecError> {
        self.get_i64()
    }
    fn f64(&mut self) -> Result<f64, CodecError> {
        self.get_f64()
    }
    fn bool(&mut self) -> Result<bool, CodecError> {
        self.get_bool()
    }
    fn bytes(&mut self) -> Result<Bytes, CodecError> {
        self.get_bytes()
    }
    fn str(&mut self) -> Result<String, CodecError> {
        self.get_str()
    }
    fn rows(&mut self, n: usize) -> Result<Vec<(u32, u64, u8)>, CodecError> {
        self.get_records(n, &[4, 8, 1], |r| (r.get_u32_le(), r.get_u64_le(), r.get_u8()))
    }
    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, CodecError> {
        self.get_records(n, &[8], |r| f64::from_bits(r.get_u64_le()))
    }
}

impl Reader for SplitDecoder {
    fn left(&self) -> usize {
        self.buf.len()
    }
    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(u8::from_le_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.array()?))
    }
    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt("bool out of range")),
        }
    }
    fn bytes(&mut self) -> Result<Bytes, CodecError> {
        let len = self.u64()? as usize;
        self.take(len)
    }
    fn str(&mut self) -> Result<String, CodecError> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| CodecError::Corrupt("invalid utf-8"))
    }
    // The field-by-field loops `get_records` replaced. They do not reserve
    // `n` up front: a flipped count byte makes `n` astronomically large.
    fn rows(&mut self, n: usize) -> Result<Vec<(u32, u64, u8)>, CodecError> {
        let mut v = Vec::new();
        for _ in 0..n {
            v.push((self.u32()?, self.u64()?, self.u8()?));
        }
        Ok(v)
    }
    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, CodecError> {
        let mut v = Vec::new();
        for _ in 0..n {
            v.push(self.f64()?);
        }
        Ok(v)
    }
}

/// One field of a script. Floats are held as bit patterns so that NaNs
/// compare equal to themselves.
#[derive(Debug, Clone, PartialEq)]
enum Field {
    U8(u8),
    U32(u32),
    U64(u64),
    I64(i64),
    F64(u64),
    Bool(bool),
    Bytes(Vec<u8>),
    Str(String),
    Rows(Vec<(u32, u64, u8)>),
    F64s(Vec<u64>),
}

/// Raw material for one field: a kind selector and enough randomness for
/// whichever kind it selects.
type Raw = (u8, u64, String, Vec<u8>, Vec<(u32, u64, u8)>);

fn field((kind, x, s, bytes, rows): Raw) -> Field {
    match kind % 10 {
        0 => Field::U8(x as u8),
        1 => Field::U32(x as u32),
        2 => Field::U64(x),
        3 => Field::I64(x as i64),
        4 => Field::F64(x),
        5 => Field::Bool(x & 1 == 1),
        6 => Field::Bytes(bytes),
        7 => Field::Str(s),
        8 => Field::Rows(rows),
        _ => Field::F64s(rows.iter().map(|r| r.1).collect()),
    }
}

fn encode(script: &[Field]) -> Bytes {
    let mut e = Encoder::new();
    for f in script {
        match f {
            Field::U8(v) => e.put_u8(*v),
            Field::U32(v) => e.put_u32(*v),
            Field::U64(v) => e.put_u64(*v),
            Field::I64(v) => e.put_i64(*v),
            Field::F64(bits) => e.put_f64(f64::from_bits(*bits)),
            Field::Bool(v) => e.put_bool(*v),
            Field::Bytes(v) => e.put_bytes(v),
            Field::Str(v) => e.put_str(v),
            Field::Rows(rows) => {
                e.put_u64(rows.len() as u64);
                for &(a, b, c) in rows {
                    e.put_u32(a);
                    e.put_u64(b);
                    e.put_u8(c);
                }
            }
            Field::F64s(vals) => {
                e.put_u64(vals.len() as u64);
                for &bits in vals {
                    e.put_f64(f64::from_bits(bits));
                }
            }
        }
    }
    e.finish()
}

/// Decode `script`'s field kinds from `r`; also report where `r` stopped.
fn decode(script: &[Field], r: &mut impl Reader) -> (Result<Vec<Field>, CodecError>, usize) {
    let fields = script
        .iter()
        .map(|f| {
            Ok(match f {
                Field::U8(_) => Field::U8(r.u8()?),
                Field::U32(_) => Field::U32(r.u32()?),
                Field::U64(_) => Field::U64(r.u64()?),
                Field::I64(_) => Field::I64(r.i64()?),
                Field::F64(_) => Field::F64(r.f64()?.to_bits()),
                Field::Bool(_) => Field::Bool(r.bool()?),
                Field::Bytes(_) => Field::Bytes(r.bytes()?.to_vec()),
                Field::Str(_) => Field::Str(r.str()?),
                Field::Rows(_) => {
                    let n = r.u64()? as usize;
                    Field::Rows(r.rows(n)?)
                }
                Field::F64s(_) => {
                    let n = r.u64()? as usize;
                    Field::F64s(r.f64s(n)?.into_iter().map(f64::to_bits).collect())
                }
            })
        })
        .collect();
    (fields, r.left())
}

fn both(script: &[Field], buf: &Bytes) -> [(Result<Vec<Field>, CodecError>, usize); 2] {
    [
        decode(script, &mut Decoder::new(buf.clone())),
        decode(script, &mut SplitDecoder { buf: buf.clone() }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cursor_decoder_equals_split_decoder(
        raw in prop::collection::vec(
            (
                any::<u8>(),
                any::<u64>(),
                ".{0,12}",
                prop::collection::vec(any::<u8>(), 0..24),
                prop::collection::vec((any::<u32>(), any::<u64>(), any::<u8>()), 0..6),
            ),
            1..12,
        ),
        flip_at in any::<usize>(),
        flip_mask in 1u8..255,
    ) {
        let script: Vec<Field> = raw.into_iter().map(field).collect();
        let buf = encode(&script);

        let [cursor, split] = both(&script, &buf);
        prop_assert_eq!(&cursor, &(Ok(script.clone()), 0));
        prop_assert_eq!(&cursor, &split);

        // Every proper prefix fails, identically: same `needed`, same
        // `remaining`, same offset.
        for cut in 0..buf.len() {
            let [cursor, split] = both(&script, &buf.slice(..cut));
            prop_assert!(
                matches!(cursor.0, Err(CodecError::Truncated { .. })),
                "cut {} of {}: {:?}", cut, buf.len(), cursor
            );
            prop_assert_eq!(&cursor, &split, "cut {} of {}", cut, buf.len());
        }

        // One flipped byte: a wild length, an out-of-range bool, broken
        // UTF-8 or just another value — whichever, both agree.
        let mut bad = buf.to_vec();
        bad[flip_at % buf.len()] ^= flip_mask;
        let [cursor, split] = both(&script, &Bytes::from(bad));
        prop_assert_eq!(&cursor, &split, "flip at {}", flip_at % buf.len());
    }
}
