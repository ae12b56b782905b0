//! Launch replay at the application level: PageRank, HITS and RWR solved
//! on an untraced device (whose plan SpMVs replay after the first two
//! calls) and on a device with a trace ledger attached (which interprets
//! every launch) agree on every score bit, the iteration count and the
//! report's `time_s` bits. Width 1 pins the f64 atomics' summation order,
//! so the values are comparable bit for bit.

use gpu_sim::{presets, set_sim_threads, Device};
use graph_apps::hits::{hits_gpu, hits_operator};
use graph_apps::pagerank::{pagerank_gpu, pagerank_operator};
use graph_apps::rwr::{rwr_gpu, rwr_operator};
use graph_apps::{IterParams, SolveResult};
use graphgen::{generate_power_law, PowerLawConfig};
use spmv_pipeline::{FormatRegistry, PlanBudget, SpmvPlan};

fn assert_same(untraced: &SolveResult<f64>, traced: &SolveResult<f64>, what: &str) {
    assert_eq!(untraced.iterations, traced.iterations, "{what}: iterations");
    assert!(
        untraced.iterations > 2,
        "{what}: too few iterations to replay"
    );
    assert_eq!(
        untraced.report.time_s.to_bits(),
        traced.report.time_s.to_bits(),
        "{what}: time_s bits"
    );
    assert_eq!(
        untraced.report.counters, traced.report.counters,
        "{what}: counters"
    );
    let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&untraced.scores),
        bits(&traced.scores),
        "{what}: score bits"
    );
}

#[test]
fn replaying_and_fully_interpreted_solves_agree_bit_for_bit() {
    set_sim_threads(1);
    let g = generate_power_law::<f64>(&PowerLawConfig {
        rows: 1500,
        cols: 1500,
        mean_degree: 5.0,
        max_degree: 1200,
        pinned_max_rows: 2,
        col_skew: 0.5,
        seed: 2014,
        ..Default::default()
    });
    let cfg = presets::gtx_titan();
    let untraced = Device::new(cfg.clone());
    let mut traced = Device::new(cfg);
    traced.enable_tracing();
    let reg = FormatRegistry::<f64>::with_all();
    let budget = PlanBudget::default();
    let plan =
        |format: &str, m| -> SpmvPlan<f64> { reg.plan(format, &untraced, m, &budget).unwrap() };
    let params = IterParams {
        epsilon: 1e-8,
        max_iters: 200,
    };
    let (pr_op, hits_op, rwr_op) = (pagerank_operator(&g), hits_operator(&g), rwr_operator(&g));
    for format in ["ACSR", "CSR-vector", "BCCOO"] {
        let p = plan(format, &pr_op);
        assert_same(
            &pagerank_gpu(&untraced, &p, 0.85, &params),
            &pagerank_gpu(&traced, &p, 0.85, &params),
            &format!("pagerank {format}"),
        );
        let p = plan(format, &hits_op);
        assert_same(
            &hits_gpu(&untraced, &p, &params),
            &hits_gpu(&traced, &p, &params),
            &format!("hits {format}"),
        );
        let p = plan(format, &rwr_op);
        assert_same(
            &rwr_gpu(&untraced, &p, 7, 0.85, &params),
            &rwr_gpu(&traced, &p, 7, 0.85, &params),
            &format!("rwr {format}"),
        );
    }
    set_sim_threads(0);
}
