//! The benchmark's fixed vocabulary: workload names, end-to-end metrics
//! and per-layer metrics, each with its unit. `BENCHMARK.json` repeats
//! these lists; a unit test fails if the two ever disagree.

/// Workloads, in run order.
pub const WORKLOADS: [&str; 5] = [
    "p2p_sweep",
    "collective_loop",
    "scale_1024",
    "tenant_storm",
    "fault_recovery",
];

/// End-to-end metrics `(name, unit)`, measured with tracing off. Lower is
/// better for all of them.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// The share of the baseline median by which an end-to-end metric may
/// worsen before `--compare` calls it a regression. Host times on the
/// shared two-vCPU VMs this runs on slow down by 25-35 % for tens of
/// seconds at a time, pinned or not, so a tighter bound on the two timings
/// would mostly report the neighbours. Memory repeats to within 1 %.
pub fn bound(name: &str) -> f64 {
    match name {
        "peak_rss_mb" => 0.10,
        _ => 0.25,
    }
}

/// Per-layer metrics `(name, unit)`, from the traced run. Units: `count`
/// values repeat exactly for one seed; `sim_ms` is simulated time (also
/// exact); everything else is host time or derived from it. A metric that
/// does not apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 63] = [
    // One untraced timed pass: engine counters and host accounting.
    ("des.events", "count"),
    ("des.elided_wakes", "count"),
    ("des.procs_spawned", "count"),
    ("des.peak_live_procs", "count"),
    ("des.spawn_ms", "ms"),
    ("des.teardown_ms", "ms"),
    ("des.ns_per_event", "ns"),
    ("des.vctx_per_event", "1/event"),
    ("des.ictx_per_event", "1/event"),
    ("host.user_s", "s"),
    ("host.sys_s", "s"),
    ("net.messages", "count"),
    ("net.bytes", "count"),
    ("net.connects", "count"),
    ("net.teardowns", "count"),
    ("mpi.msg_buffered", "count"),
    ("mpi.req_buffered", "count"),
    ("mpi.logged_bytes", "count"),
    ("storage.transfers", "count"),
    ("storage.bytes", "count"),
    ("storage.peak_streams", "count"),
    ("storage.manifest_commits", "count"),
    ("storage.replicas_written", "count"),
    ("storage.local_recoveries", "count"),
    ("storage.remote_recoveries", "count"),
    ("storage.write_retries", "count"),
    ("blcr.images", "count"),
    ("blcr.image_bytes", "count"),
    ("core.epochs", "count"),
    ("core.attempts", "count"),
    ("core.protocol_aborts", "count"),
    ("core.epoch_retries", "count"),
    ("faults.kills", "count"),
    // scale_1024 only: the super-linear event-growth term.
    ("des.events_per_rank_256", "count"),
    ("des.events_per_rank_1024", "count"),
    ("des.event_growth_exp", "exp"),
    // p2p_sweep only: what users who do not pin pay for the handoff.
    ("des.unpinned_wall_ratio", "ratio"),
    // The traced pass.
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("sim.phase.begin_ms", "sim_ms"),
    ("sim.phase.group_start_ms", "sim_ms"),
    ("sim.phase.checkpoint_ms", "sim_ms"),
    ("sim.phase.group_done_ms", "sim_ms"),
    ("sim.phase.end_ms", "sim_ms"),
    // Layer probes: isolated timed loops on one layer's public API.
    ("des.probe.park_resume_ns", "ns"),
    ("des.probe.timer_ns", "ns"),
    ("des.probe.spawn_us", "us"),
    ("net.probe.deliver_ns", "ns"),
    ("mpi.probe.pingpong_ns", "ns"),
    ("mpi.probe.rendezvous_ns", "ns"),
    ("mpi.probe.allgather32_us", "us"),
    ("storage.probe.ps64_us", "us"),
    ("storage.probe.ps1024_us", "us"),
    ("blcr.probe.encode_mb_s", "MB/s"),
    ("blcr.probe.decode_mb_s", "MB/s"),
    ("core.probe.groupplan1024_us", "us"),
    ("core.probe.manifest1024_us", "us"),
    ("faults.probe.plan1024_us", "us"),
    ("trace.probe.span_ns", "ns"),
    // Computed, not measured: counts × probe unit costs ÷ pass wall.
    ("budget.des_share", "share"),
    ("budget.mpi_net_share", "share"),
    ("budget.storage_share", "share"),
    ("budget.unexplained_share", "share"),
];
