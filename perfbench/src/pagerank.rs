//! `pagerank_suite`: PageRank time to solution on ACSR plans over a mix
//! of Table-I power-law analogs, one GTX Titan.
//!
//! The set mixes skew and size: LJ2's rank vector overflows the modeled
//! texture cache, ENR is small enough to be bound by the launch floor of
//! the per-iteration update and norm kernels, and WIK/HOL/IN2/EU2 sit
//! between. Single-vector SpMV, the simulator's warp interpreter and the
//! apps' update/norm launches do most of the work.

use crate::harness::{derive_seed, l2_distance, relabel, Sheet, Tracer, GRAPH_SEED};
use crate::layers::DeviceWork;
use crate::run::{Rep, Workload};
use gpu_sim::trace::TraceLedger;
use gpu_sim::{presets, Device};
use graph_apps::pagerank::{pagerank_cpu, pagerank_gpu, pagerank_operator};
use graph_apps::IterParams;
use graphgen::MatrixSpec;
use sparse_formats::{CsrMatrix, HostModel};
use spmv_kernels::GpuSpmv;
use spmv_pipeline::{FormatRegistry, PlanBudget, SpmvPlan};
use std::sync::Arc;

/// Table-I analogs in the suite.
const MATRICES: [&str; 6] = ["LJ2", "WIK", "HOL", "IN2", "EU2", "ENR"];
/// Suite scale divisor (rows shrink by this factor, min 2048).
const SCALE: usize = 128;
/// Paper's damping factor and convergence threshold.
const DAMPING: f64 = 0.85;
const EPSILON: f64 = 1e-6;
/// Tolerance of the CPU-reference gate: the L2 distance between the
/// simulated and the CPU PageRank vectors may not exceed the
/// convergence threshold itself.
const GATE_L2: f64 = EPSILON;

pub struct PagerankSuite;

struct Solve {
    op: CsrMatrix<f64>,
    plan: SpmvPlan<f64>,
    scores: Vec<f64>,
    iterations: usize,
}

pub struct State {
    dev: Device,
    solves: Vec<Solve>,
}

fn params() -> IterParams {
    IterParams {
        epsilon: EPSILON,
        max_iters: 1000,
    }
}

impl Workload for PagerankSuite {
    type State = State;

    fn setup(&self, seed: u64, t: &Tracer) -> State {
        let dev = Device::new(presets::gtx_titan());
        let reg = FormatRegistry::<f64>::with_all();
        let budget = PlanBudget::for_device(dev.config());
        let solves = MATRICES
            .iter()
            .map(|abbrev| {
                let spec = MatrixSpec::by_abbrev(abbrev).expect("Table-I analog");
                let m = t.span("graphgen.generate", || {
                    let m = spec.generate::<f64>(SCALE, GRAPH_SEED).csr;
                    relabel(&m, derive_seed(seed, 1))
                });
                let op = t.span("apps.pagerank_operator", || pagerank_operator(&m));
                let plan = t.span("pipeline.plan", || {
                    reg.plan("ACSR", &dev, &op, &budget)
                        .expect("ACSR plan fits the device")
                });
                Solve {
                    op,
                    plan,
                    scores: Vec::new(),
                    iterations: 0,
                }
            })
            .collect();
        State { dev, solves }
    }

    fn rep(&self, st: &mut State, t: &Tracer) -> Rep {
        let host = HostModel::default();
        let (mut preprocess_s, mut upload_s, mut solve_s) = (0.0f64, 0.0f64, 0.0f64);
        let mut iterations = 0usize;
        let mut failed_ops = 0u64;
        for s in &mut st.solves {
            preprocess_s += s.plan.preprocess_seconds(&host);
            upload_s += t
                .span("pipeline.upload", || {
                    st.dev.record_htod("plan_upload", s.plan.upload_bytes())
                })
                .time_s;
            let r = t.span("apps.pagerank_gpu", || {
                pagerank_gpu(&st.dev, &s.plan, DAMPING, &params())
            });
            if r.iterations >= params().max_iters {
                failed_ops += 1;
            }
            solve_s += r.seconds();
            iterations += r.iterations;
            s.iterations = r.iterations;
            s.scores = r.scores;
        }
        let mut modeled = Sheet::default();
        modeled.modeled(
            "modeled_ms",
            (preprocess_s + upload_s + solve_s) * 1e3,
            "ms",
        );
        modeled.modeled("pipeline.preprocess_ms", preprocess_s * 1e3, "ms");
        modeled.modeled("pipeline.upload_ms", upload_s * 1e3, "ms");
        modeled.modeled("apps.iterations", iterations as f64, "count");
        Rep {
            ops: st.solves.len() as u64,
            failed_ops,
            modeled,
        }
    }

    fn check(&self, st: &mut State, _last: &Rep) -> Vec<String> {
        let mut failures = Vec::new();
        for (abbrev, s) in MATRICES.iter().zip(&st.solves) {
            let (want, _) =
                pagerank_cpu(s.op.rows(), DAMPING, &params(), |x, y| s.op.spmv_into(x, y));
            let l2 = l2_distance(&want, &s.scores);
            if s.scores.len() != want.len() || l2.is_nan() || l2 > GATE_L2 {
                failures.push(format!(
                    "pagerank {abbrev}: L2 distance to pagerank_cpu {l2:e} exceeds {GATE_L2:e}"
                ));
            }
        }
        failures
    }

    fn enable_tracing(&self, st: &mut State) -> Arc<TraceLedger> {
        st.dev.enable_tracing()
    }

    fn host_layers(&self, st: &mut State, t: &Tracer, _first: &Rep) -> Sheet {
        let mut s = Sheet::default();
        s.host("graphgen.host_s", t.per("graphgen.generate", "setup"), "s");
        s.host("pipeline.plan_host_s", t.per("pipeline.plan", "setup"), "s");
        s.host("apps.solve_host_s", t.per("apps.pagerank_gpu", "rep"), "s");
        // The solves call SpMV internally; its host share is measured by
        // replaying as many direct SpMV calls per plan as the solve made.
        let spmv_s = spmv_probe(st, t);
        s.host("core.spmv_host_s", spmv_s, "s");
        s
    }

    fn device_layers(&self, work: &DeviceWork, first: &Rep) -> Sheet {
        let iterations = first.modeled.get("apps.iterations").unwrap_or(0.0);
        let mut s = Sheet::default();
        s.modeled(
            "apps.launches_per_iter",
            f64::from(work.total.launches) / iterations,
            "count",
        );
        s.modeled("apps.update_norm_ms", work.other_kernels_s() * 1e3, "ms");
        s
    }
}

/// Host seconds of direct SpMV calls, as many per plan as its solve
/// iterated, on an untraced device.
fn spmv_probe(st: &State, t: &Tracer) -> f64 {
    let dev = Device::new(st.dev.config().clone());
    t.span("core.spmv_probe", || {
        crate::harness::wall(|| {
            for s in &st.solves {
                let n = s.plan.rows();
                let x = dev.alloc(vec![1.0 / n as f64; n]);
                let y = dev.alloc_zeroed::<f64>(n);
                for _ in 0..s.iterations {
                    s.plan.spmv(&dev, &x, &y);
                }
            }
        })
        .0
    })
}
