//! Layer probes: small timed loops that exercise one layer through its
//! public functions, so a per-layer unit cost exists beside the workload
//! totals. Each probe is one untimed warm-up plus the median of five
//! timed repetitions.

use crate::workloads::Ledger;
use bytes::Bytes;
use gbcr_blcr::ProcessImage;
use gbcr_core::{proto, GroupPlan};
use gbcr_des::{time, Sim, Span, TraceLevel, Tracer, Track};
use gbcr_faults::StochasticFaults;
use gbcr_mpi::{MpiConfig, Msg, World};
use gbcr_net::{Fabric, NetConfig, NodeId};
use gbcr_storage::{Storage, StorageConfig, StoredObject, MB};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

/// What one operation of a layer costs in a probe: host nanoseconds, and
/// how many engine events it contains.
#[derive(Debug, Clone, Copy)]
pub struct OpCost {
    pub ns: f64,
    pub events: f64,
}

/// Per-operation costs the computed budget needs beside the ledger
/// entries. Messages are fabric (wire) messages, the unit `net.messages`
/// counts: a rendezvous send is three of them.
pub struct ProbeCosts {
    pub eager_message: OpCost,
    pub rendezvous_message: OpCost,
    pub transfer_of_64: OpCost,
    pub transfer_of_1024: OpCost,
}

/// Median seconds of one call to `f` (after a warm-up call), and the value
/// the last call returned (simulations return their event count).
fn median_secs<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut last = f();
    let mut secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            last = black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    (secs[REPS / 2], last)
}

/// Run a simulation to completion and return its event count.
fn drain(mut sim: Sim) -> u64 {
    sim.run().expect("probe simulation runs");
    let events = sim.events_processed();
    sim.shutdown();
    events
}

/// Two ranks exchange `rounds` ping-pongs of `size`-byte messages. Returns
/// the simulation's events and the fabric messages it delivered.
fn pingpong(rounds: u64, size: u64) -> (u64, u64) {
    let mut sim = Sim::new(0);
    let world = World::new(sim.handle(), MpiConfig::new(2));
    let stats = world.clone();
    for (me, peer) in [(0u32, 1u32), (1, 0)] {
        let mpi = world.attach(me);
        sim.spawn(format!("r{me}"), move |p| {
            for _ in 0..rounds {
                if me == 0 {
                    mpi.send(p, peer, 1, Msg::bulk(size));
                    mpi.recv(p, Some(peer), 2);
                } else {
                    mpi.recv(p, Some(peer), 1);
                    mpi.send(p, peer, 2, Msg::bulk(size));
                }
            }
        });
    }
    (drain(sim), stats.net_stats().messages)
}

/// `streams` clients write 20 MB each to one processor-sharing array,
/// starting 7 ms apart so every arrival and departure re-shares the rate.
fn interleaved_streams(streams: u32) -> u64 {
    let mut sim = Sim::new(0);
    let storage = Storage::new(sim.handle(), StorageConfig::paper_testbed());
    for i in 0..streams {
        let s = storage.clone();
        sim.spawn(format!("w{i}"), move |p| {
            p.sleep(time::ms(u64::from(i) * 7));
            s.write(p, i, &format!("o{i}"), StoredObject::bulk(20 * MB));
        });
    }
    drain(sim)
}

/// Run every probe, writing the `*.probe.*` ledger entries.
pub fn run(l: &mut Ledger) -> ProbeCosts {
    // --- des ---------------------------------------------------------
    let (s, events) = median_secs(|| {
        let mut sim = Sim::new(0);
        for i in 0..10u64 {
            sim.spawn(format!("p{i}"), move |p| {
                for _ in 0..10_000 {
                    p.sleep(time::us(i + 1));
                }
            });
        }
        drain(sim)
    });
    l.set("des.probe.park_resume_ns", s * 1e9 / events as f64);

    let (s, _) = median_secs(|| {
        let sim = Sim::new(0);
        let h = sim.handle();
        for i in 0..100_000u64 {
            h.call_at(time::us(i), |_| {});
        }
        drain(sim)
    });
    l.set("des.probe.timer_ns", s * 1e9 / 100_000.0);

    let (s, _) = median_secs(|| {
        let mut sim = Sim::new(0);
        for i in 0..10_000 {
            sim.spawn(format!("e{i}"), |_| {});
        }
        drain(sim)
    });
    l.set("des.probe.spawn_us", s * 1e6 / 10_000.0);

    // --- net ---------------------------------------------------------
    const DELIVERIES: u64 = 20_000;
    let (s, _) = median_secs(|| {
        let mut sim = Sim::new(0);
        let fabric: Fabric<u64> = Fabric::new(sim.handle(), NetConfig::infiniband_ddr());
        let (a, b) = (fabric.endpoint(NodeId(0)), fabric.endpoint(NodeId(1)));
        sim.spawn("sender", move |p| {
            a.connect(p, NodeId(1));
            for i in 0..DELIVERIES {
                a.send(NodeId(1), i, 1024);
            }
        });
        sim.spawn("receiver", move |p| {
            for _ in 0..DELIVERIES {
                black_box(b.recv_wait(p));
            }
        });
        drain(sim)
    });
    l.set("net.probe.deliver_ns", s * 1e9 / DELIVERIES as f64);

    // --- mpi ---------------------------------------------------------
    const ROUNDS: u64 = 5_000;
    let messages = (2 * ROUNDS) as f64;
    let per_wire_message = |secs: f64, (events, wire): (u64, u64)| OpCost {
        ns: secs * 1e9 / wire as f64,
        events: events as f64 / wire as f64,
    };
    let (s, counts) = median_secs(|| pingpong(ROUNDS, 8));
    l.set("mpi.probe.pingpong_ns", s * 1e9 / messages);
    let eager_message = per_wire_message(s, counts);
    // 1 MB is far above the 16 KB eager threshold: RTS/CTS/data.
    let (s, counts) = median_secs(|| pingpong(ROUNDS, MB));
    l.set("mpi.probe.rendezvous_ns", s * 1e9 / messages);
    let rendezvous_message = per_wire_message(s, counts);

    const GATHERS: u32 = 8;
    let (s, _) = median_secs(|| {
        let mut sim = Sim::new(0);
        let world = World::new(sim.handle(), MpiConfig::new(32));
        for r in 0..32 {
            let (mpi, world) = (world.attach(r), world.clone());
            sim.spawn(format!("r{r}"), move |p| {
                let all = world.world_comm();
                for _ in 0..GATHERS {
                    // A small real payload charged as MotifMiner's 4 MB.
                    let mine = Msg::with_size(vec![r as u8; 256], 4 * MB);
                    black_box(mpi.allgather(p, &all, mine));
                }
            });
        }
        drain(sim)
    });
    l.set("mpi.probe.allgather32_us", s * 1e6 / f64::from(GATHERS));

    // --- storage -----------------------------------------------------
    let (s, events) = median_secs(|| interleaved_streams(64));
    l.set("storage.probe.ps64_us", s * 1e6 / 64.0);
    let transfer_of_64 = OpCost {
        ns: s * 1e9 / 64.0,
        events: events as f64 / 64.0,
    };
    let (s, events) = median_secs(|| interleaved_streams(1024));
    l.set("storage.probe.ps1024_us", s * 1e6 / 1024.0);
    let transfer_of_1024 = OpCost {
        ns: s * 1e9 / 1024.0,
        events: events as f64 / 1024.0,
    };

    // --- blcr --------------------------------------------------------
    let image = ProcessImage {
        rank: 7,
        epoch: 3,
        taken_at: 123,
        footprint: 512 * MB,
        restore_extra: 0,
        app_state: Bytes::from(vec![0xAB; MB as usize]),
    };
    let encoded = image.encode();
    const CODEC_ITERS: u64 = 64;
    let mb_per_call = encoded.len() as f64 / 1e6;
    let (s, _) = median_secs(|| {
        (0..CODEC_ITERS)
            .map(|_| black_box(&image).encode().len() as u64)
            .sum::<u64>()
    });
    l.set(
        "blcr.probe.encode_mb_s",
        mb_per_call * CODEC_ITERS as f64 / s,
    );
    let (s, _) = median_secs(|| {
        (0..CODEC_ITERS)
            .map(|_| {
                ProcessImage::decode(black_box(&encoded).clone())
                    .expect("valid image")
                    .epoch
            })
            .sum::<u64>()
    });
    l.set(
        "blcr.probe.decode_mb_s",
        mb_per_call * CODEC_ITERS as f64 / s,
    );

    // --- core --------------------------------------------------------
    // Ring traffic inside comm groups of eight, the micro-benchmark's shape.
    let traffic: Vec<Vec<(u32, u64, u64)>> = (0..1024u32)
        .map(|r| vec![(r / 8 * 8 + (r + 1) % 8, 100, 6_400_000)])
        .collect();
    const PLAN_ITERS: u64 = 4;
    let (s, _) = median_secs(|| {
        (0..PLAN_ITERS)
            .map(|_| {
                let fixed = GroupPlan::by_size(1024, 8);
                let dynamic = GroupPlan::dynamic(1024, black_box(&traffic), 0.5, 8, 64);
                (fixed.group_count() + dynamic.group_count()) as u64
            })
            .sum::<u64>()
    });
    l.set("core.probe.groupplan1024_us", s * 1e6 / PLAN_ITERS as f64);

    let entries: Vec<proto::ManifestEntry> = (0..1024)
        .map(|r| (r, 180 * MB, u64::from(r) * 0x9E37_79B9))
        .collect();
    const MANIFEST_ITERS: u64 = 256;
    let (s, _) = median_secs(|| {
        (0..MANIFEST_ITERS)
            .map(|e| {
                let buf = proto::encode_manifest(e, black_box(&entries));
                proto::decode_manifest(buf).expect("valid manifest").1.len() as u64
            })
            .sum::<u64>()
    });
    l.set(
        "core.probe.manifest1024_us",
        s * 1e6 / MANIFEST_ITERS as f64,
    );

    // --- faults ------------------------------------------------------
    let faults = StochasticFaults {
        link_flap_mtbf: Some(time::secs(2)),
        ..StochasticFaults::kills(1, time::secs(3600))
    };
    const PLAN_ATTEMPTS: u64 = 64;
    let (s, _) = median_secs(|| {
        (0..PLAN_ATTEMPTS)
            .map(|a| black_box(&faults).attempt_plan(a, 1024).0.events.len() as u64)
            .sum::<u64>()
    });
    l.set("faults.probe.plan1024_us", s * 1e6 / PLAN_ATTEMPTS as f64);

    // --- trace -------------------------------------------------------
    const SPANS: u64 = 100_000;
    let (s, _) = median_secs(|| {
        let tracer = Tracer::new(TraceLevel::Full);
        for i in 0..SPANS {
            tracer.record_span(Span {
                track: Track::Rank(i as u32 % 32),
                name: "probe",
                t_start: i,
                t_end: i + 1,
                args: Vec::new(),
            });
        }
        tracer.take().spans.len() as u64
    });
    l.set("trace.probe.span_ns", s * 1e9 / SPANS as f64);

    ProbeCosts {
        eager_message,
        rendezvous_message,
        transfer_of_64,
        transfer_of_1024,
    }
}
