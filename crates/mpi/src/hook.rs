//! The interposition surface used by the checkpoint layer.

use crate::api::Mpi;
use crate::types::Rank;
use bytes::Bytes;
use gbcr_des::Proc;
use gbcr_net::{Link, NodeId};

/// A small fixed-shape control message carried **in-band** on the data
/// fabric (like MVAPICH2's internal packet types). Used for peer-to-peer
/// checkpoint coordination that must travel the same channel as user data
/// (flush markers, connection-manager requests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrlWire {
    /// Protocol-defined discriminator.
    pub kind: u32,
    /// First operand.
    pub a: u64,
    /// Second operand.
    pub b: u64,
}

/// An **out-of-band** control message (PMI/mpirun socket mesh). The OOB
/// plane stays up while data-plane connections are torn down, which is what
/// makes global coordination possible in the middle of a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OobMsg {
    /// Protocol-defined discriminator.
    pub kind: u32,
    /// First operand.
    pub a: u64,
    /// Second operand.
    pub b: u64,
    /// Optional bulk payload (e.g. a serialized group schedule).
    pub data: Bytes,
}

impl OobMsg {
    /// Shorthand for a payload-free message.
    pub fn new(kind: u32, a: u64, b: u64) -> Self {
        OobMsg { kind, a, b, data: Bytes::new() }
    }

    /// Wire size charged on the OOB fabric.
    pub fn wire_size(&self) -> u64 {
        64 + self.data.len() as u64
    }
}

/// Hook implemented by the checkpoint/restart controller and registered on
/// each rank's runtime with [`Mpi::set_hook`].
///
/// [`on_oob`](CrHook::on_oob) and [`on_ctrl`](CrHook::on_ctrl) run **on the
/// owning rank's simulated thread**, inside the progress engine — exactly
/// like MVAPICH2's C/R controller code. They may block (coordinate, write
/// images); user execution on that rank is paused meanwhile, which is the
/// blocking coordinated-checkpointing semantics. While one of them is
/// being dispatched, further unsolicited dispatch is suppressed; protocol
/// code consumes subsequent in-band control messages explicitly via
/// [`Mpi::ctrl_recv_match`], and out-of-band ones wait in the runtime's
/// queue until the dispatch returns.
///
/// [`on_oob_arrival`](CrHook::on_oob_arrival) is the rank's C/R *listener
/// thread*: it runs inside the fabric's delivery event while the rank's
/// own thread stays parked, gets no [`Proc`] and therefore cannot block.
/// [`user_send_allowed`](CrHook::user_send_allowed) is a pure query.
pub trait CrHook {
    /// Gate for user-plane traffic (eager data, RTS, CTS, RDMA data) from
    /// this rank to `peer`. Returning `false` defers the message via
    /// message/request buffering until [`Mpi::release_deferred`] is called
    /// after a later gate change. Must be fast and non-blocking.
    fn user_send_allowed(&self, peer: Rank) -> bool {
        let _ = peer;
        true
    }

    /// An unsolicited out-of-band message arrived (e.g. a checkpoint
    /// request from the global coordinator).
    fn on_oob(&self, p: &Proc, mpi: &Mpi, from: NodeId, msg: OobMsg) {
        let _ = (p, mpi, from, msg);
    }

    /// An out-of-band message is arriving while the rank is parked with
    /// nothing else to do: its progress engine, woken for this message,
    /// would dispatch it to [`on_oob`](CrHook::on_oob) and park again.
    /// Answer it here — leaving precisely the state `on_oob` would, taking
    /// no virtual time — and return `None`, or hand it back and the rank is
    /// woken to run `on_oob` as usual. Decline whenever `on_oob` could
    /// block or would look at anything beyond the message; the default
    /// declines everything. An answer goes back on `link`, where it landed.
    fn on_oob_arrival(&self, mpi: &Mpi, link: &Link<OobMsg>, msg: OobMsg) -> Option<OobMsg> {
        let _ = (mpi, link);
        Some(msg)
    }

    /// An unsolicited in-band control message arrived (e.g. a flush request
    /// from a checkpointing peer).
    fn on_ctrl(&self, p: &Proc, mpi: &Mpi, from: Rank, msg: CtrlWire) {
        let _ = (p, mpi, from, msg);
    }
}
