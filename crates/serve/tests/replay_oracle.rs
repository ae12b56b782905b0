//! Replayed serving ≡ fully interpreted serving.
//!
//! An untraced engine replays the recorded launch accounting of every
//! wave whose (plan, width) already ran in the same serve call; a traced
//! engine never opens a replay scope, so it interprets every wave. The
//! same open-loop stream served both ways, over 1–3 devices and every
//! dispatch policy, must agree exactly: outcomes (ids, iterations,
//! completion-time bits, score bits), wave widths and modes, and every
//! device's accumulated report. Score bits are compared at host width 1
//! (f64 atomics fix their summation order only there); the modeled
//! numbers at widths 1 and 2.
//!
//! Wave buffers are pooled per serve call, so a second stream on the same
//! engine must see nothing of the first: serving B after A equals serving
//! B on a fresh engine.

use acsr_serve::{
    generate_queries, ArrivalPattern, DispatchPolicy, Query, ServeConfig, ServeEngine, ServeReport,
    SloPolicy,
};
use gpu_sim::set_sim_threads;
use graphgen::{generate_power_law, PowerLawConfig};
use sparse_formats::CsrMatrix;
use std::sync::Mutex;

/// `set_sim_threads` is process-global; hold this across width changes.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

const DISPATCHES: [DispatchPolicy; 3] = [
    DispatchPolicy::RowSplit,
    DispatchPolicy::QuerySplit,
    DispatchPolicy::Auto,
];

fn graph() -> CsrMatrix<f64> {
    generate_power_law(&PowerLawConfig {
        rows: 240,
        cols: 240,
        mean_degree: 6.0,
        max_degree: 100,
        pinned_max_rows: 1,
        col_skew: 0.4,
        seed: 1407,
        ..Default::default()
    })
}

fn engine(g: &CsrMatrix<f64>, n_devices: usize) -> ServeEngine<f64> {
    ServeEngine::new(
        g,
        ServeConfig {
            n_devices,
            keep_scores: true,
            ..ServeConfig::default()
        },
    )
}

/// An open-loop Poisson stream loaded enough that adaptive waves take
/// several different widths, and some widths repeat.
fn stream(rows: usize, seed: u64) -> Vec<Query> {
    generate_queries(
        ArrivalPattern::Poisson { rate_qps: 20_000.0 },
        24,
        rows,
        0.85,
        seed,
    )
}

fn policy(dispatch: DispatchPolicy) -> SloPolicy {
    SloPolicy::open_loop(5e-3, 8, 32).with_dispatch(dispatch)
}

fn assert_same(want: &ServeReport<f64>, got: &ServeReport<f64>, scores: bool, what: &str) {
    assert_eq!(
        want.outcomes.len(),
        got.outcomes.len(),
        "{what}: completions"
    );
    for (w, g) in want.outcomes.iter().zip(&got.outcomes) {
        assert_eq!(w.id, g.id, "{what}: outcome order");
        assert_eq!(
            w.iterations, g.iterations,
            "{what}: query {} iterations",
            w.id
        );
        assert_eq!(
            w.completed_s.to_bits(),
            g.completed_s.to_bits(),
            "{what}: query {} completion",
            w.id
        );
        if scores {
            let bits = |s: &Option<Vec<f64>>| -> Vec<u64> {
                s.as_ref().unwrap().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(
                bits(&w.scores),
                bits(&g.scores),
                "{what}: query {} scores",
                w.id
            );
        }
    }
    assert_eq!(want.rejected, got.rejected, "{what}: capacity sheds");
    assert_eq!(
        want.deadline_shed, got.deadline_shed,
        "{what}: deadline sheds"
    );
    assert_eq!(want.wave_widths, got.wave_widths, "{what}: wave widths");
    assert_eq!(want.wave_modes, got.wave_modes, "{what}: wave modes");
    assert_eq!(want.device_reports.len(), got.device_reports.len());
    for (d, (w, g)) in want
        .device_reports
        .iter()
        .zip(&got.device_reports)
        .enumerate()
    {
        assert_eq!(
            w.time_s.to_bits(),
            g.time_s.to_bits(),
            "{what}: device {d} time"
        );
        assert_eq!(w.counters, g.counters, "{what}: device {d} counters");
        assert_eq!(w.breakdown, g.breakdown, "{what}: device {d} breakdown");
        assert_eq!(w.launches, g.launches, "{what}: device {d} launches");
    }
}

#[test]
fn replayed_waves_match_fully_interpreted_waves() {
    let _w = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let g = graph();
    let queries = stream(g.rows(), 31);
    for width in [1, 2] {
        set_sim_threads(width);
        for n_devices in 1..=3 {
            for dispatch in DISPATCHES {
                let what = format!("width {width}, {n_devices} devices, {dispatch:?}");
                let replaying = engine(&g, n_devices);
                let mut traced = engine(&g, n_devices);
                traced.enable_tracing();
                let got = replaying.serve_slo(&queries, &policy(dispatch));
                let want = traced.serve_slo(&queries, &policy(dispatch));
                let widths = &got.wave_widths;
                assert!(
                    widths.iter().any(|&k| k > 1) && widths.len() > 8,
                    "{what}: the stream must exercise several widths, got {widths:?}"
                );
                assert_same(&want, &got, width == 1, &what);
            }
        }
    }
    set_sim_threads(0);
}

#[test]
fn a_later_stream_sees_nothing_of_an_earlier_one() {
    let _w = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_sim_threads(1);
    let g = graph();
    let (a, b) = (stream(g.rows(), 5), stream(g.rows(), 6));
    for n_devices in [1, 3] {
        for dispatch in DISPATCHES {
            let what = format!("{n_devices} devices, {dispatch:?}");
            let reused = engine(&g, n_devices);
            reused.serve_slo(&a, &policy(dispatch));
            let after_a = reused.serve_slo(&b, &policy(dispatch));
            let fresh = engine(&g, n_devices).serve_slo(&b, &policy(dispatch));
            assert_same(&fresh, &after_a, true, &what);
        }
    }
    set_sim_threads(0);
}
