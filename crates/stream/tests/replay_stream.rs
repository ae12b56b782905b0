//! Replayed stream reads ≡ fully interpreted stream reads.
//!
//! `StreamEngine`'s single-vector SpMV runs in a replay scope keyed by
//! (engine id, epoch, `x`, `y`), and every `apply_batch` bumps the epoch.
//! Two twin engines, one on an untraced device (replaying) and one on a
//! traced device (never replaying), take the same sequence: two reads,
//! then after each of an empty, an in-place, a migrating and a
//! buffer-growth batch two more reads, each read on a new `x` salted with
//! zeros, NaN and ±Inf. Read reports, batch totals and device clocks must
//! agree at widths 1 and 2, and `y` bits at width 1 (f64 atomics only fix
//! their summation order there), where `y` must also match the host
//! reference within rounding. The untraced device must record afresh
//! on the first read of every epoch and replay only the second.

use acsr::AcsrConfig;
use acsr_stream::{BatchReport, StreamEngine};
use gpu_sim::{presets, set_sim_threads, Device, DeviceBuffer, RunReport};
use graphgen::{generate_rmat, RmatConfig};
use sparse_formats::{CsrMatrix, UpdateBatch};
use spmv_kernels::GpuSpmv;

fn rmat() -> CsrMatrix<f64> {
    generate_rmat(&RmatConfig {
        scale: 9,
        edge_factor: 8,
        seed: 1509,
        ..Default::default()
    })
}

/// Read `call`'s `x`: ordinary values salted with zeros, NaN and ±Inf.
fn x_values(n: usize, call: u64) -> Vec<f64> {
    (0..n as u64)
        .map(|i| match (i * 7 + call * 13) % 41 {
            0..=2 => 0.0,
            3 => f64::NAN,
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            k => (k as f64 - 20.0) * 0.125,
        })
        .collect()
}

/// A batch from per-row `(row, deleted columns, inserted columns)`.
fn batch(ops: &[(u32, Vec<u32>, Vec<u32>)]) -> UpdateBatch<f64> {
    let mut b = UpdateBatch::empty();
    for (row, del, ins) in ops {
        b.rows.push(*row);
        b.delete_cols.extend(del);
        b.delete_offsets.push(b.delete_cols.len() as u32);
        b.insert_cols.extend(ins);
        b.insert_vals
            .extend(ins.iter().map(|&c| 0.5 + c as f64 * 1e-3));
        b.insert_offsets.push(b.insert_cols.len() as u32);
    }
    b
}

/// The first `n` columns absent from row `r`.
fn absent(m: &CsrMatrix<f64>, r: usize, n: usize) -> Vec<u32> {
    let cols = m.row(r).0;
    (0..m.cols() as u32)
        .filter(|c| cols.binary_search(c).is_err())
        .take(n)
        .collect()
}

/// The batches, in order, each checked against what it must exercise.
fn batches(m: &CsrMatrix<f64>) -> Vec<(&'static str, UpdateBatch<f64>)> {
    let rows: Vec<usize> = (0..m.rows()).collect();
    let len = |r: usize| m.row_nnz(r);
    // Swap one column for another: same length, same slot.
    let in_place: Vec<_> = rows
        .iter()
        .filter(|&&r| (4..=30).contains(&len(r)))
        .take(20)
        .map(|&r| (r as u32, vec![m.row(r).0[0]], absent(m, r, 1)))
        .collect();
    // Empty the three longest rows: they leave their bins for bin 0,
    // which stores nothing, so no arena grows.
    let mut longest = rows.clone();
    longest.sort_by_key(|&r| std::cmp::Reverse(len(r)));
    let mut emptied: Vec<_> = longest[..3]
        .iter()
        .map(|&r| (r as u32, m.row(r).0.to_vec(), Vec::new()))
        .collect();
    emptied.sort_by_key(|op| op.0);
    // Lengthen forty short rows past 100 entries.
    let flood: Vec<_> = rows
        .iter()
        .filter(|&&r| (1..=3).contains(&len(r)))
        .take(40)
        .map(|&r| (r as u32, Vec::new(), absent(m, r, 120)))
        .collect();
    vec![
        ("empty", UpdateBatch::empty()),
        ("in-place", batch(&in_place)),
        ("migrating", batch(&emptied)),
        ("growth", batch(&flood)),
    ]
}

fn assert_batch_kind(what: &str, r: &BatchReport) {
    match what {
        "empty" => assert_eq!(r.touched_rows, 0, "{what}"),
        "in-place" => assert!(
            r.in_place_rows > 0 && r.migrated_rows == 0 && !r.buffer_grown,
            "{what}: {r:?}"
        ),
        "migrating" => assert!(r.migrated_rows > 0 && !r.buffer_grown, "{what}: {r:?}"),
        "growth" => assert!(r.buffer_grown, "{what}: {r:?}"),
        _ => unreachable!(),
    }
}

fn assert_same_report(full: &RunReport, replayed: &RunReport, what: &str) {
    assert_eq!(full.name, replayed.name, "{what}: name");
    assert_eq!(
        full.time_s.to_bits(),
        replayed.time_s.to_bits(),
        "{what}: time_s bits"
    );
    assert_eq!(full.counters, replayed.counters, "{what}: counters");
    assert_eq!(full.breakdown, replayed.breakdown, "{what}: breakdown");
    assert_eq!(full.launches, replayed.launches, "{what}: launches");
}

/// `y` against the host reference `want`: NaN where it is NaN, equal
/// infinities, and finite values within rounding (summation order may
/// differ from the host's).
fn assert_close(y: &[f64], want: &[f64], what: &str) {
    assert_eq!(y.len(), want.len(), "{what}: length");
    for (r, (&a, &b)) in y.iter().zip(want).enumerate() {
        let ok = if b.is_nan() || b.is_infinite() {
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
        } else {
            (a - b).abs() <= 1e-9 * b.abs().max(1.0)
        };
        assert!(ok, "{what}: y[{r}] = {a}, host reference {b}");
    }
}

fn bits(b: &DeviceBuffer<f64>) -> Vec<u64> {
    b.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// One engine on its own device, with the buffers its reads use.
struct Twin {
    dev: Device,
    engine: StreamEngine<f64>,
    x: DeviceBuffer<f64>,
    y: DeviceBuffer<f64>,
}

impl Twin {
    fn new(m: &CsrMatrix<f64>, cfg: AcsrConfig, traced: bool) -> Twin {
        let mut dev = Device::new(presets::gtx_titan());
        if traced {
            dev.enable_tracing();
        }
        let engine = StreamEngine::build(&dev, m, cfg);
        let x = dev.alloc_zeroed(m.cols());
        let y = dev.alloc_zeroed(m.rows());
        Twin { dev, engine, x, y }
    }

    fn read(&mut self, x: &[f64]) -> RunReport {
        self.x.as_mut_slice().copy_from_slice(x);
        self.y.as_mut_slice().fill(-1.0);
        self.engine.spmv(&self.dev, &self.x, &self.y)
    }
}

/// Launches `(recorded, replayed)` on `dev` since it counted `before`.
fn since(dev: &Device, before: (u64, u64)) -> (u64, u64) {
    let now = dev.replay_counts();
    (now.0 - before.0, now.1 - before.1)
}

#[test]
fn replayed_reads_match_full_interpretation_across_batches() {
    let m = rmat();
    let device = presets::gtx_titan();
    for cfg in [
        AcsrConfig::static_long_tail(),
        AcsrConfig::for_device(&device),
    ] {
        for width in [1, 2] {
            set_sim_threads(width);
            let mut replay = Twin::new(&m, cfg, false);
            let mut full = Twin::new(&m, cfg, true);
            let mut call = 0u64;
            let mut epochs: Vec<(&str, Option<UpdateBatch<f64>>)> = vec![("build", None)];
            epochs.extend(batches(&m).into_iter().map(|(k, b)| (k, Some(b))));
            for (kind, batch) in epochs {
                if let Some(batch) = batch {
                    let what = format!("width {width} {cfg:?} {kind} batch");
                    let before = replay.dev.replay_counts();
                    let r = replay.engine.apply_batch(&replay.dev, &batch);
                    let delta = since(&replay.dev, before);
                    assert_eq!(delta, (0, 0), "{what}: maintenance never replays");
                    let f = full.engine.apply_batch(&full.dev, &batch);
                    assert_batch_kind(kind, &r);
                    assert_eq!(
                        r.total_seconds.to_bits(),
                        f.total_seconds.to_bits(),
                        "{what}: total_seconds bits"
                    );
                }
                let mut first_recorded = 0;
                for read in 0..2 {
                    let what = format!("width {width} {cfg:?} after {kind}, read {read}");
                    let x = x_values(m.cols(), call);
                    call += 1;
                    let before = replay.dev.replay_counts();
                    let got = replay.read(&x);
                    let delta = since(&replay.dev, before);
                    let want = full.read(&x);
                    assert_same_report(&want, &got, &what);
                    assert_eq!(
                        replay.dev.clock_cycles(),
                        full.dev.clock_cycles(),
                        "{what}: clock"
                    );
                    if width == 1 {
                        assert_eq!(bits(&replay.y), bits(&full.y), "{what}: y bits");
                        let want = replay.engine.to_csr().spmv(&x);
                        assert_close(replay.y.as_slice(), &want, &what);
                    }
                    if read == 0 {
                        assert!(
                            delta.0 > 0 && delta.1 == 0,
                            "{what}: must record, {delta:?}"
                        );
                        first_recorded = delta.0;
                    } else {
                        assert_eq!(delta, (0, first_recorded), "{what}: must replay");
                    }
                }
            }
            assert_eq!(
                full.dev.replay_counts(),
                (0, 0),
                "a traced device never replays"
            );
        }
    }
    set_sim_threads(0);
}
