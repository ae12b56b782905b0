//! Replayed fleet SpMVs ≡ fully interpreted fleet SpMVs.
//!
//! `Fleet::spmv` holds one `(x, y)` buffer pair per non-empty shard, so
//! every shard plan's replay key matches from the second call on. Five
//! successive calls, each on a new `x` salted with zeros, NaN and ±Inf,
//! run on an untraced fleet (replaying) and on a traced twin (never
//! replaying), over 1, 2, 3 and 5 devices (one fleet with more devices
//! than rows), under the halo and the hand-off exchange, and with ACSR,
//! HYB and adaptive shards. Per-device reports, compute times and the
//! exchange must agree bit for bit at widths 1 and 2, and `y` bits at
//! width 1 (f64 atomics only fix their summation order there), where
//! `y` must also match the host reference within rounding. Every
//! non-empty shard of the untraced fleet records its launches on the
//! first call and replays them on each later one.

use gpu_sim::{presets, set_sim_threads, RunReport};
use graphgen::{generate_power_law, PowerLawConfig};
use multi_gpu::{Fleet, FleetConfig, FleetReport, ShardFormat};
use sparse_formats::CsrMatrix;

/// Fleet SpMVs per fleet: one records, the rest replay.
const CALLS: u64 = 5;

fn matrix(rows: usize, seed: u64) -> CsrMatrix<f64> {
    generate_power_law(&PowerLawConfig {
        rows,
        cols: rows,
        mean_degree: 7.0,
        max_degree: rows / 2,
        pinned_max_rows: 2,
        col_skew: 0.4,
        seed,
        ..Default::default()
    })
}

/// Three rows over three columns.
fn tiny() -> CsrMatrix<f64> {
    let mut t = sparse_formats::TripletMatrix::<f64>::new(3, 3);
    t.push(0, 1, 1.0).unwrap();
    t.push(1, 2, 2.0).unwrap();
    t.push(2, 0, 3.0).unwrap();
    t.to_csr()
}

/// Call `call`'s `x`: ordinary values salted with zeros, NaN and ±Inf.
fn x_values(n: usize, call: u64) -> Vec<f64> {
    (0..n as u64)
        .map(|i| match (i * 11 + call * 17) % 53 {
            0..=2 => 0.0,
            3 => f64::NAN,
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            k => (k as f64 - 26.0) * 0.125,
        })
        .collect()
}

/// The fleets under test: `(what, matrix, config)`.
fn cases() -> Vec<(String, CsrMatrix<f64>, FleetConfig)> {
    let m = matrix(420, 1511);
    let with_format = |cfg: FleetConfig, format: ShardFormat| FleetConfig { format, ..cfg };
    let hyb = ShardFormat::Fixed("HYB");
    let adaptive = ShardFormat::Adaptive { horizon: 100 };
    vec![
        ("halo acsr D=1".into(), m.clone(), FleetConfig::new(1)),
        ("halo acsr D=3".into(), m.clone(), FleetConfig::new(3)),
        ("handoff acsr D=2".into(), m.clone(), FleetConfig::k10(2)),
        (
            "halo hyb D=2".into(),
            m.clone(),
            with_format(FleetConfig::new(2), hyb.clone()),
        ),
        (
            "handoff hyb D=3".into(),
            m.clone(),
            with_format(FleetConfig::k10(3), hyb),
        ),
        (
            "halo adaptive D=5".into(),
            m.clone(),
            with_format(FleetConfig::new(5), adaptive.clone()),
        ),
        (
            "handoff adaptive D=1".into(),
            m,
            with_format(FleetConfig::k10(1), adaptive),
        ),
        ("halo acsr D=5, 3 rows".into(), tiny(), FleetConfig::new(5)),
        (
            "handoff acsr D=5, 3 rows".into(),
            tiny(),
            FleetConfig::k10(5),
        ),
    ]
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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|c| c.to_bits()).collect()
}

fn assert_same_device(full: &RunReport, replayed: &RunReport, what: &str) {
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

fn assert_same_report(full: &FleetReport, replayed: &FleetReport, what: &str) {
    assert_eq!(full.per_device.len(), replayed.per_device.len(), "{what}");
    for (d, (f, r)) in full.per_device.iter().zip(&replayed.per_device).enumerate() {
        assert_same_device(f, r, &format!("{what}, device {d}"));
    }
    assert_eq!(
        bits(&full.compute),
        bits(&replayed.compute),
        "{what}: compute bits"
    );
    assert_eq!(
        format!("{:?}", full.exchange),
        format!("{:?}", replayed.exchange),
        "{what}: exchange"
    );
    assert_eq!(full.formats, replayed.formats, "{what}: formats");
    assert_eq!(full.replicated_rows, replayed.replicated_rows, "{what}");
}

#[test]
fn replayed_fleet_spmv_matches_full_interpretation() {
    let dev_cfg = presets::tesla_k10_single();
    for (name, m, cfg) in cases() {
        for width in [1, 2] {
            set_sim_threads(width);
            let mut replay = Fleet::new(&m, &dev_cfg, &cfg);
            let mut full = Fleet::new(&m, &dev_cfg, &cfg);
            let _ledger = full.enable_tracing();
            // Adaptive planning may already have run SpMVs on a device:
            // count launches from here on.
            let counts = |f: &Fleet<f64>| -> Vec<(u64, u64)> {
                (0..f.n_devices())
                    .map(|d| f.device(d).replay_counts())
                    .collect()
            };
            let (replay_base, full_base) = (counts(&replay), counts(&full));
            // Launches each shard recorded on the first call.
            let mut recorded = vec![0u64; replay.n_devices()];
            for call in 0..CALLS {
                let what = format!("{name}, width {width}, call {call}");
                let x = x_values(m.cols(), call);
                let mut y_replay = vec![-1.0; m.rows()];
                let mut y_full = vec![-2.0; m.rows()];
                let got = replay.spmv(&x, &mut y_replay);
                let want = full.spmv(&x, &mut y_full);
                assert_same_report(&want, &got, &what);
                if width == 1 {
                    assert_eq!(bits(&y_full), bits(&y_replay), "{what}: y bits");
                    assert_close(&y_replay, &m.spmv(&x), &what);
                }
                for (d, (dev, plan, _)) in replay.shards().enumerate() {
                    let (rec, rep) = dev.replay_counts();
                    let (rec, rep) = (rec - replay_base[d].0, rep - replay_base[d].1);
                    if plan.is_none() {
                        assert_eq!((rec, rep), (0, 0), "{what}: empty shard {d}");
                    } else if call == 0 {
                        assert!(rec > 0 && rep == 0, "{what}: shard {d} must record");
                        recorded[d] = rec;
                    } else {
                        assert_eq!(
                            (rec, rep),
                            (recorded[d], call * recorded[d]),
                            "{what}: shard {d} must replay"
                        );
                    }
                }
                assert_eq!(
                    counts(&full),
                    full_base,
                    "{what}: a traced fleet never replays"
                );
            }
        }
    }
    set_sim_threads(0);
}
