//! Core message-passing types.

use bytes::Bytes;

/// An MPI rank within the world (0-based, dense).
pub type Rank = u32;

/// A message tag. User tags must be `<= MAX_USER_TAG`; higher values are
/// reserved for collectives.
pub type Tag = u32;

/// Largest tag available to applications.
pub const MAX_USER_TAG: Tag = 0x3FFF_FFFF;

/// A user message: real content plus a simulated size.
///
/// Workloads usually move buffers whose *timing* matters (an HPL panel, an
/// Allgather block) but whose *content* is a few checksummable bytes;
/// `size` is the number of bytes charged on the wire while `data` is what
/// the receiver actually observes. `size >= data.len()` always holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    /// Real payload delivered to the receiver.
    pub data: Bytes,
    /// Simulated message size in bytes.
    pub size: u64,
}

impl Msg {
    /// A message whose simulated size equals its real content length.
    pub fn bytes(data: impl Into<Bytes>) -> Self {
        let data = data.into();
        let size = data.len() as u64;
        Msg { data, size }
    }

    /// A content-free message of the given simulated size.
    pub fn bulk(size: u64) -> Self {
        Msg { data: Bytes::new(), size }
    }

    /// Real content plus simulated padding up to `size` bytes.
    pub fn with_size(data: impl Into<Bytes>, size: u64) -> Self {
        let data = data.into();
        let size = size.max(data.len() as u64);
        Msg { data, size }
    }

    /// An 8-byte message carrying one `f64`.
    pub fn f64(x: f64) -> Self {
        Msg::bytes(Bytes::copy_from_slice(&x.to_le_bytes()))
    }

    /// Reinterpret an 8-byte payload as `f64`. Panics on wrong length.
    pub fn as_f64(&self) -> f64 {
        let arr: [u8; 8] = self.data.as_ref().try_into().expect("message is not an f64");
        f64::from_le_bytes(arr)
    }

    /// An 8-byte message carrying one `u64`.
    pub fn u64(x: u64) -> Self {
        Msg::bytes(Bytes::copy_from_slice(&x.to_le_bytes()))
    }

    /// Reinterpret an 8-byte payload as `u64`. Panics on wrong length.
    pub fn as_u64(&self) -> u64 {
        let arr: [u8; 8] = self.data.as_ref().try_into().expect("message is not a u64");
        u64::from_le_bytes(arr)
    }

    /// Zero-length, zero-size message (barrier token).
    pub fn empty() -> Self {
        Msg { data: Bytes::new(), size: 0 }
    }
}

/// A restartable boundary snapshot: per-destination send-sequence counters
/// plus per-communicator collective counters.
pub type BoundarySnapshot = (Vec<(Rank, u64)>, Vec<(u32, u32)>);

/// Handle to a pending nonblocking operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request(pub(crate) u64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_constructors() {
        let m = Msg::bytes(&b"abc"[..]);
        assert_eq!(m.size, 3);
        let m = Msg::bulk(1 << 20);
        assert_eq!(m.size, 1 << 20);
        assert!(m.data.is_empty());
        let m = Msg::with_size(&b"abc"[..], 2);
        assert_eq!(m.size, 3, "size clamps up to content length");
    }

    #[test]
    fn f64_and_u64_round_trip() {
        assert_eq!(Msg::f64(2.5).as_f64(), 2.5);
        assert_eq!(Msg::u64(77).as_u64(), 77);
    }

    #[test]
    #[should_panic(expected = "not an f64")]
    fn as_f64_rejects_wrong_length() {
        Msg::bytes(&b"abc"[..]).as_f64();
    }
}
