//! §VIII partitioning costs: the fleet's per-bin round-robin split (with
//! halo bookkeeping, replication off) must stay a cheap pass even at
//! large row counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graphgen::{generate_power_law, PowerLawConfig};
use multi_gpu::{partition_fleet, ReplicationPolicy};

fn bench_partition(c: &mut Criterion) {
    let mut g = c.benchmark_group("multigpu_partition");
    for rows in [50_000usize, 500_000] {
        let m = generate_power_law::<f64>(&PowerLawConfig {
            rows,
            cols: rows,
            mean_degree: 10.0,
            max_degree: rows / 16,
            pinned_max_rows: 2,
            col_skew: 0.4,
            seed: 3,
            ..Default::default()
        });
        g.throughput(Throughput::Elements(rows as u64));
        for devices in [2usize, 4] {
            g.bench_with_input(
                BenchmarkId::new(format!("{devices}_devices"), rows),
                &m,
                |b, m| {
                    b.iter(|| partition_fleet(m, devices, &ReplicationPolicy::disabled()));
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_partition);
criterion_main!(benches);
