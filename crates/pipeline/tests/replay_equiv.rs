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

use gpu_sim::{presets, set_sim_threads, Device, DeviceBuffer, RunReport};
use graphgen::{generate_power_law, PowerLawConfig};
use proptest::prelude::*;
use sparse_formats::CsrMatrix;
use spmv_kernels::GpuSpmv;
use spmv_pipeline::{AcsrPlanner, FormatRegistry, PlanBudget, SpmvPlan, SpmvPlanner};

/// SpMVs per ping-pong run: two record, the rest replay.
const CALLS: usize = 6;

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

/// One `x` per call: ordinary values salted with zeros, NaN and ±Inf.
fn x_values(n: usize, salt: u64) -> Vec<Vec<f64>> {
    (0..CALLS as u64)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn replayed_spmv_matches_full_interpretation(m in arb_matrix(), salt in 0u64..1000) {
        let cfg = presets::gtx_titan();
        let xs = x_values(m.cols(), salt);
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
}
