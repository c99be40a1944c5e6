//! Criterion benches of the substrate layers themselves: event-engine
//! throughput, fabric message rate, storage processor-sharing engine,
//! image codec. These guard the simulator's own performance.

use bytes::{Buf, Bytes};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gbcr_blcr::{Checkpointable, Decoder, ProcessImage};
use gbcr_des::{time, Sim};
use gbcr_mpi::{MpiConfig, Msg, World};
use gbcr_storage::{Storage, StorageConfig, StoredObject, MB};
use gbcr_workloads::motifminer::merge_and_prune;
use std::hint::black_box;

fn des_event_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("des");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("100k_sleep_events", |b| {
        b.iter(|| {
            let mut sim = Sim::new(0);
            for i in 0..10u64 {
                sim.spawn(format!("p{i}"), move |p| {
                    for _ in 0..10_000 {
                        p.sleep(time::us(i + 1));
                    }
                });
            }
            black_box(sim.run().unwrap())
        });
    });
    g.finish();
}

fn mpi_message_rate(c: &mut Criterion) {
    let mut g = c.benchmark_group("mpi");
    g.throughput(Throughput::Elements(20_000));
    g.bench_function("20k_eager_pingpong", |b| {
        b.iter(|| {
            let mut sim = Sim::new(0);
            let world = World::new(sim.handle(), MpiConfig::new(2));
            let m0 = world.attach(0);
            let m1 = world.attach(1);
            sim.spawn("r0", move |p| {
                for i in 0..10_000u64 {
                    m0.send(p, 1, 1, Msg::u64(i));
                    m0.recv(p, Some(1), 2);
                }
            });
            sim.spawn("r1", move |p| {
                for i in 0..10_000u64 {
                    m1.recv(p, Some(0), 1);
                    m1.send(p, 0, 2, Msg::u64(i));
                }
            });
            black_box(sim.run().unwrap())
        });
    });
    g.finish();
}

fn storage_processor_sharing(c: &mut Criterion) {
    c.bench_function("storage/64_interleaved_streams", |b| {
        b.iter(|| {
            let mut sim = Sim::new(0);
            let storage = Storage::new(sim.handle(), StorageConfig::paper_testbed());
            for i in 0..64u32 {
                let s = storage.clone();
                sim.spawn(format!("w{i}"), move |p| {
                    p.sleep(time::ms(u64::from(i) * 7));
                    s.write(p, i, &format!("o{i}"), StoredObject::bulk(20 * MB));
                });
            }
            black_box(sim.run().unwrap())
        });
    });
}

fn image_codec(c: &mut Criterion) {
    let img = ProcessImage {
        rank: 7,
        epoch: 3,
        taken_at: 123,
        footprint: 512 * MB,
        restore_extra: 0,
        app_state: Bytes::from(vec![0xAB; 64 * 1024]),
    };
    let encoded = img.encode();
    let mut g = c.benchmark_group("blcr_codec");
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode_64k_image", |b| {
        b.iter(|| black_box(img.encode()));
    });
    g.bench_function("decode_64k_image", |b| {
        b.iter(|| black_box(ProcessImage::decode(encoded.clone()).unwrap()));
    });

    // The shape of a MotifMiner shard, a manifest or a traffic vector: a
    // count, then that many fixed-width records.
    let pairs: Vec<(u64, u64)> =
        (0..4096u64).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i)).collect();
    let pairs = pairs.to_bytes();
    g.throughput(Throughput::Bytes(pairs.len() as u64));
    g.bench_function("decode_4k_u64_pairs", |b| {
        b.iter(|| {
            let mut d = Decoder::new(pairs.clone());
            let n = d.get_u64().unwrap() as usize;
            black_box(d.get_records(n, &[8, 8], |r| (r.get_u64_le(), r.get_u64_le())).unwrap())
        });
    });
    g.finish();
}

/// One MotifMiner iteration's merge at the paper's scale: 32 sorted shards
/// of 256 candidates each, every signature held by four shards.
fn motif_merge(c: &mut Criterion) {
    let shards: Vec<Vec<(u64, u64)>> = (0..32u64)
        .map(|r| {
            let mut shard: Vec<(u64, u64)> = (0..256u64)
                .map(|i| ((r % 8 * 256 + i).wrapping_mul(0x9E37_79B9_7F4A_7C15), 1 + i % 3))
                .collect();
            shard.sort_unstable();
            shard
        })
        .collect();
    let mut g = c.benchmark_group("workloads");
    g.throughput(Throughput::Elements(32 * 256));
    g.bench_function("motif_merge_32x256", |b| {
        b.iter(|| black_box(merge_and_prune(black_box(&shards))));
    });
    g.finish();
}

criterion_group!(
    substrates,
    des_event_throughput,
    mpi_message_rate,
    storage_processor_sharing,
    image_codec,
    motif_merge
);
criterion_main!(substrates);
