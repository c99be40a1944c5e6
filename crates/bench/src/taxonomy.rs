//! The full §2.1 protocol taxonomy in one table: uncoordinated (with
//! always-on message logging), idealized non-blocking Chandy-Lamport,
//! regular blocking coordinated, and the paper's group-based coordinated
//! checkpointing — all on the same 32-rank micro-benchmark with one
//! checkpoint at t = 30 s.

use crate::{cells, static_cfg, sweep_one};
use gbcr_core::{CkptMode, CoordinatorCfg};
use gbcr_des::{time, SimResult};
use gbcr_metrics::Table;
use gbcr_storage::MB;
use gbcr_workloads::MicroBench;

/// The table's title.
pub const TITLE: &str =
    "§2.1 taxonomy — one checkpoint at 30 s, 32 ranks, 180 MB/process, 2 MB messages";

/// The reading of the table `gbcr taxonomy` prints under it.
pub const FOOTER: &str = "uncoordinated logs every byte for the whole run; idealized CL needs \
    NIC-state cloning InfiniBand does not offer (§2.2) and leaves all ranks \
    writing at once; group-based gets the low delay with no logs at all.";

/// `(row label, mode, checkpoint group size, "consistent global ckpt" cell)`.
const PROTOCOLS: [(&str, CkptMode, u32, &str); 4] = [
    ("uncoordinated + msg logging", CkptMode::Uncoordinated, 32, "no (needs log replay)"),
    ("Chandy-Lamport (idealized)", CkptMode::ChandyLamport, 32, "yes (with channel logs)"),
    ("regular blocking All(32)", CkptMode::Buffering, 32, "yes"),
    ("group-based g=8 (paper)", CkptMode::Buffering, 8, "yes"),
];

/// Run the four protocols against one shared baseline and render the table.
pub fn render(threads: Option<usize>) -> SimResult<String> {
    // Rendezvous-sized messages so logging costs are visible.
    let mb = MicroBench { msg_size: 2 * MB, step_compute: time::ms(150), ..Default::default() };
    let cfgs = PROTOCOLS
        .iter()
        .map(|&(_, mode, g, _)| CoordinatorCfg { mode, ..static_cfg("micro", g, time::secs(30)) })
        .collect();
    let gr = sweep_one(&mb.job(), cfgs, threads)?;

    let mut t = Table::new(
        TITLE,
        &["protocol", "effective (s)", "total (s)", "bytes logged", "consistent global ckpt"],
    );
    for ((&(label, _, _, consistent), ck), cell) in PROTOCOLS.iter().zip(&gr.runs).zip(cells(&gr)) {
        let logged = ck.logged_bytes + ck.channel_logged_bytes;
        t.row(&[
            label.into(),
            format!("{:.1}", cell.effective),
            format!("{:.1}", cell.total),
            if logged == 0 { "0".into() } else { format!("{:.0} MB", logged as f64 / MB as f64) },
            consistent.into(),
        ]);
    }
    Ok(t.render())
}
