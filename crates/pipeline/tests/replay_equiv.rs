//! Launch replay ≡ full interpretation.
//!
//! `SpmvPlan::spmv` replays the recorded accounting of an earlier SpMV on
//! the same plan and buffers, running the kernels values-only. That is
//! only sound if modeled cost never depends on values, so this pins it
//! for every registered format (plus ACSR's dynamic-parallelism and
//! static-tail long-tail paths with a lowered `BinMax`, so small matrices
//! reach them): a ping-pong of SpMVs over `x` vectors salted with zeros,
//! NaN and ±Inf runs once through the plan (replaying from the third
//! call on) on one fresh device and once through the raw engine (always
//! interpreted) on another. Reports — name, `time_s` bits, counters,
//! breakdown, launches — and device clocks must agree after every call
//! at widths 1 and 2; `y` bits must agree at width 1 (f64 atomics only
//! fix their summation order there).
//!
//! `spmv_multi` opens no scope of its own; a caller that batches waves
//! (serving) wraps it in one keyed by the plan id, the width `k` and the
//! buffers. The second property pins that pattern for the same plans —
//! fused ACSR and every format's sequential fallback: widths 1..=5
//! interleave on prefixes of one buffer pool, so each width records once
//! and replays once, against the raw engine interpreting every call.

use gpu_sim::{presets, set_sim_threads, Device, DeviceBuffer, RunReport};
use graphgen::{generate_power_law, PowerLawConfig};
use proptest::prelude::*;
use sparse_formats::CsrMatrix;
use spmv_kernels::{GpuSpmv, GpuSpmvMulti};
use spmv_pipeline::{AcsrPlanner, FormatRegistry, PlanBudget, SpmvPlan, SpmvPlanner};

/// SpMVs per ping-pong run: two record, the rest replay.
const CALLS: usize = 6;

/// Widths of the batched run: every `k` in 1..=5 twice, interleaved.
const WIDTHS: [usize; 10] = [3, 1, 3, 2, 1, 5, 2, 4, 5, 4];

fn arb_matrix() -> impl Strategy<Value = CsrMatrix<f64>> {
    (64usize..400, 0u64..1_000_000, 2u32..8, 0u32..3).prop_map(|(rows, seed, mean, skew)| {
        generate_power_law(&PowerLawConfig {
            rows,
            cols: rows,
            mean_degree: f64::from(mean),
            max_degree: rows / 2,
            pinned_max_rows: 2,
            col_skew: f64::from(skew) * 0.4,
            seed,
            ..Default::default()
        })
    })
}

/// `count` vectors `x`: ordinary values salted with zeros, NaN and ±Inf.
fn x_values(n: usize, salt: u64, count: usize) -> Vec<Vec<f64>> {
    (0..count as u64)
        .map(|call| {
            (0..n as u64)
                .map(|i| {
                    let h = (i + 1)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(salt.wrapping_mul(31).wrapping_add(call) << 17)
                        .rotate_left(23);
                    match h % 23 {
                        0..=2 => 0.0,
                        3 => f64::NAN,
                        4 => f64::INFINITY,
                        5 => f64::NEG_INFINITY,
                        k => (k as f64 - 11.0) * 0.375,
                    }
                })
                .collect()
        })
        .collect()
}

/// The plans under test: every registered format, plus ACSR with a
/// long tail from 32-nnz rows in dynamic-parallelism (with a `RowMax`
/// small enough to overflow) and static-tail modes.
fn plans(dev: &Device, m: &CsrMatrix<f64>) -> Vec<SpmvPlan<f64>> {
    let reg = FormatRegistry::<f64>::with_all();
    let budget = PlanBudget::default();
    let mut out: Vec<_> = reg
        .names()
        .into_iter()
        .map(|name| reg.plan(name, dev, m, &budget).unwrap())
        .collect();
    let mut dp = acsr::AcsrConfig::for_device(dev.config());
    dp.bin_max = 5;
    dp.row_max = 2;
    let mut tail = acsr::AcsrConfig::static_long_tail();
    tail.bin_max = 5;
    for cfg in [dp, tail] {
        out.push(AcsrPlanner::with_config(cfg).plan(dev, m, &budget).unwrap());
    }
    out
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

fn bits(b: &DeviceBuffer<f64>) -> Vec<u64> {
    b.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A caller's wave key: plan id, width, and every buffer's placement.
fn wave_key(
    plan: &SpmvPlan<f64>,
    xs: &[&DeviceBuffer<f64>],
    ys: &[&DeviceBuffer<f64>],
) -> Vec<u64> {
    [plan.id(), xs.len() as u64]
        .into_iter()
        .chain(
            xs.iter()
                .chain(ys)
                .flat_map(|b| [b.base_addr(), b.len() as u64]),
        )
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn replayed_spmv_matches_full_interpretation(m in arb_matrix(), salt in 0u64..1000) {
        let cfg = presets::gtx_titan();
        let xs = x_values(m.cols(), salt, CALLS);
        for plan in plans(&Device::new(cfg.clone()), &m) {
            for width in [1, 2] {
                set_sim_threads(width);
                let full_dev = Device::new(cfg.clone());
                let replay_dev = Device::new(cfg.clone());
                let mut a = full_dev.alloc(vec![0.0f64; m.rows()]);
                let mut b = full_dev.alloc(vec![0.0f64; m.rows()]);
                for (call, x) in xs.iter().enumerate() {
                    // Ping-pong: x and y swap buffers every call.
                    let (xb, yb) = if call % 2 == 0 { (&mut a, &mut b) } else { (&mut b, &mut a) };
                    xb.as_mut_slice().copy_from_slice(x);
                    let what = format!("{} width {width} call {call}", plan.format());
                    let full = plan.engine().spmv(&full_dev, xb, yb);
                    let full_y = bits(yb);
                    yb.as_mut_slice().fill(-1.0);
                    let replayed = plan.spmv(&replay_dev, xb, yb);
                    assert_same_report(&full, &replayed, &what);
                    assert_eq!(full_dev.clock_cycles(), replay_dev.clock_cycles(), "{what}: clock");
                    if width == 1 {
                        assert_eq!(full_y, bits(yb), "{what}: y bits");
                    }
                }
            }
        }
        set_sim_threads(0);
    }

    #[test]
    fn replayed_spmv_multi_matches_full_interpretation(m in arb_matrix(), salt in 0u64..1000) {
        let cfg = presets::gtx_titan();
        let k_max = *WIDTHS.iter().max().unwrap();
        let xs = x_values(m.cols(), salt, WIDTHS.iter().sum());
        for plan in plans(&Device::new(cfg.clone()), &m) {
            for width in [1, 2] {
                set_sim_threads(width);
                let full_dev = Device::new(cfg.clone());
                let replay_dev = Device::new(cfg.clone());
                let mut xp: Vec<_> = (0..k_max).map(|_| full_dev.alloc_zeroed(m.cols())).collect();
                let mut yp: Vec<_> = (0..k_max).map(|_| full_dev.alloc_zeroed(m.rows())).collect();
                let mut next_x = xs.iter();
                // Launches each width recorded on its first call.
                let mut recorded = vec![None; k_max + 1];
                for (call, &k) in WIDTHS.iter().enumerate() {
                    for x in &mut xp[..k] {
                        x.as_mut_slice().copy_from_slice(next_x.next().unwrap());
                    }
                    let what = format!("{} width {width} call {call} k {k}", plan.format());
                    let full = {
                        let xr: Vec<_> = xp[..k].iter().collect();
                        let yr: Vec<_> = yp[..k].iter().collect();
                        plan.engine().spmv_multi(&full_dev, &xr, &yr)
                    };
                    let full_y: Vec<_> = yp[..k].iter().map(bits).collect();
                    for y in &mut yp[..k] {
                        y.as_mut_slice().fill(-1.0);
                    }
                    let xr: Vec<_> = xp[..k].iter().collect();
                    let yr: Vec<_> = yp[..k].iter().collect();
                    let key = wave_key(&plan, &xr, &yr);
                    let before = replay_dev.replay_counts();
                    let got = replay_dev.replay_scope(&key, || plan.spmv_multi(&replay_dev, &xr, &yr));
                    let after = replay_dev.replay_counts();
                    let delta = (after.0 - before.0, after.1 - before.1);
                    assert_same_report(&full, &got, &what);
                    assert_eq!(full_dev.clock_cycles(), replay_dev.clock_cycles(), "{what}: clock");
                    if width == 1 {
                        let got_y: Vec<_> = yr.iter().map(|y| bits(y)).collect();
                        assert_eq!(full_y, got_y, "{what}: y bits");
                    }
                    match recorded[k] {
                        None => {
                            assert!(delta.0 > 0 && delta.1 == 0, "{what}: records {delta:?}");
                            recorded[k] = Some(delta.0);
                        }
                        Some(n) => assert_eq!(delta, (0, n), "{what}: replays"),
                    }
                }
            }
        }
        set_sim_threads(0);
    }
}
