//! `serve_rwr`: open-loop Poisson RWR queries on the virtual clock.
//!
//! A fixed 512-row power-law graph (the ENR analog) served by a
//! one-device ACSR `ServeEngine` with waves of up to 16 queries and a
//! 64-deep submission queue. Three kinds of stream run per repetition:
//!
//! * `light` and `heavy`: Poisson arrivals at two fixed rates, about 0.3×
//!   and 0.9× of the engine's saturation rate on the parent commit. The
//!   loop is open on the virtual clock: arrival times are computed before
//!   the run, so the generator is never late, and each latency runs from
//!   the scheduled arrival.
//! * `saturated`: closed-loop backlogs — one query per queue slot and
//!   wave slot, all due at time 0 — whose drain rate is the saturation
//!   rate.
//!
//! The rates and the latency limit are absolute constants, computed once
//! (see the README) and never recalibrated per run, so a faster engine
//! shows up as lower latency at the same offered load.
//!
//! `serve` and `core`'s batched `spmv_multi` do the work. At the light
//! rate waves are narrow and pay the launch floor; at the heavy rate they
//! are wide and amortize it.

use crate::harness::{derive_seed, l2_distance, Sheet, Tracer, GRAPH_SEED};
use crate::layers::DeviceWork;
use crate::run::{Rep, Workload};
use acsr_serve::{
    generate_queries, ArrivalPattern, Query, ServeConfig, ServeEngine, ServeReport, SloPolicy,
};
use gpu_sim::trace::TraceLedger;
use graph_apps::rwr::{rwr_cpu, rwr_operator};
use graph_apps::IterParams;
use graphgen::{generate_power_law, MatrixSpec, PowerLawConfig};
use sparse_formats::CsrMatrix;
use std::sync::Arc;

const MATRIX: &str = "ENR";
const ROWS: usize = 512;
const MAX_BATCH: usize = 16;
const QUEUE: usize = 64;
/// RWR restart setting of every query (the paper's c = 0.85).
const RESTART_C: f64 = 0.85;
/// Queries per open-loop stream: enough that at least ten samples lie
/// beyond the p99.
const QUERIES: usize = 1000;
/// Per-query convergence threshold of the served RWR iteration.
const EPSILON: f64 = 1e-4;
/// Frozen offered rates, queries per modeled second: 0.3× and 0.9× of
/// the saturation rate measured on the parent commit (9744 q/s, the
/// median of seeds 1–3).
const LIGHT_QPS: f64 = 2_900.0;
const HEAVY_QPS: f64 = 8_800.0;
/// Frozen latency limit, modeled seconds.
const LIMIT_S: f64 = 0.010;
/// Saturated backlogs drained per repetition, each one query per queue
/// slot and wave slot.
const BACKLOGS: usize = 3;
/// Served queries per stream whose scores are compared against `rwr_cpu`.
const SAMPLED: usize = 8;
/// Gate tolerance: L2 distance between served and CPU RWR scores.
const GATE_L2: f64 = EPSILON;

pub struct ServeRwr;

/// The ENR analog at `ROWS` rows: ENR's published mean degree and
/// maximum (clamped to half the rows), with the suite generator's
/// power-law knobs. `MatrixSpec::generate` keeps at least 2048 rows,
/// which would make every wave several times dearer on the host.
fn graph() -> CsrMatrix<f64> {
    let spec = MatrixSpec::by_abbrev(MATRIX).expect("Table-I analog");
    generate_power_law(&PowerLawConfig {
        rows: ROWS,
        cols: ROWS,
        mean_degree: spec.mu,
        max_degree: spec.max.min(ROWS / 2),
        pinned_max_rows: 2,
        col_skew: 0.75,
        seed: GRAPH_SEED,
        ..Default::default()
    })
}

pub struct State {
    graph: CsrMatrix<f64>,
    engine: ServeEngine<f64>,
    light: Vec<Query>,
    heavy: Vec<Query>,
    saturated: Vec<Vec<Query>>,
    last: Option<Vec<ServeReport<f64>>>,
}

fn policy() -> SloPolicy {
    SloPolicy::open_loop(LIMIT_S, MAX_BATCH, QUEUE)
}

fn config() -> ServeConfig {
    ServeConfig {
        max_batch: MAX_BATCH,
        queue_capacity: QUEUE,
        n_devices: 1,
        keep_scores: true,
        iter: IterParams {
            epsilon: EPSILON,
            max_iters: 1000,
        },
        ..ServeConfig::default()
    }
}

/// Samples beyond the nearest-rank `p` quantile of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

impl Workload for ServeRwr {
    type State = State;

    fn setup(&self, seed: u64, t: &Tracer) -> State {
        let graph = t.span("graphgen.generate", graph);
        let n = graph.rows();
        let (light, heavy, saturated) = t.span("serve.generate_queries", || {
            let light = generate_queries(
                ArrivalPattern::Poisson {
                    rate_qps: LIGHT_QPS,
                },
                QUERIES,
                n,
                RESTART_C,
                derive_seed(seed, 2),
            );
            let heavy = generate_queries(
                ArrivalPattern::Poisson {
                    rate_qps: HEAVY_QPS,
                },
                QUERIES,
                n,
                RESTART_C,
                derive_seed(seed, 3),
            );
            let saturated = (0..BACKLOGS as u64)
                .map(|b| {
                    let mut backlog = generate_queries(
                        ArrivalPattern::Poisson { rate_qps: 1.0 },
                        QUEUE + MAX_BATCH,
                        n,
                        RESTART_C,
                        derive_seed(seed, 4 + b),
                    );
                    for q in &mut backlog {
                        q.arrival_s = 0.0;
                    }
                    backlog
                })
                .collect();
            (light, heavy, saturated)
        });
        let engine = t.span("serve.engine_new", || ServeEngine::new(&graph, config()));
        State {
            graph,
            engine,
            light,
            heavy,
            saturated,
            last: None,
        }
    }

    fn rep(&self, st: &mut State, t: &Tracer) -> Rep {
        let light = t.span("serve.light", || st.engine.serve_slo(&st.light, &policy()));
        let heavy = t.span("serve.heavy", || st.engine.serve_slo(&st.heavy, &policy()));
        let sat: Vec<ServeReport<f64>> = st
            .saturated
            .iter()
            .map(|backlog| t.span("serve.saturated", || st.engine.serve(backlog)))
            .collect();
        let drained: usize = sat.iter().map(|r| r.outcomes.len()).sum();
        let drain_s: f64 = sat.iter().map(|r| r.makespan_s).sum();

        let mut failed_ops = 0u64;
        let mut m = Sheet::default();
        for (r, p50, p99) in [
            (&light, "p50_ms_light", "p99_ms_light"),
            (&heavy, "p50_ms_heavy", "p99_ms_heavy"),
        ] {
            let lat = r.latency_stats();
            // Percentiles are only reported with ten samples beyond them;
            // fewer completions than that count as failed operations.
            if beyond(lat.count, 0.99) < 10 {
                failed_ops += 1;
            }
            m.modeled(p50, lat.p50_s * 1e3, "ms");
            m.modeled(p99, lat.p99_s * 1e3, "ms");
        }
        m.modeled("attainment_heavy", heavy.attainment(LIMIT_S), "ratio");
        m.modeled(
            "serve.queue_wait_p99_ms",
            heavy.queue_wait_stats().p99_s * 1e3,
            "ms",
        );
        m.modeled(
            "serve.device_busy_frac",
            heavy.device_reports.iter().map(|d| d.time_s).sum::<f64>() / heavy.makespan_s,
            "ratio",
        );
        m.modeled("saturation_qps", drained as f64 / drain_s, "q/s");
        // The workload's fixed unit of modeled work: draining the backlogs.
        m.modeled("modeled_ms", drain_s * 1e3, "ms");

        let mut reports = vec![light, heavy];
        reports.extend(sat);
        let waves: usize = reports.iter().map(|r| r.waves).sum();
        let widths: usize = reports
            .iter()
            .map(|r| r.wave_widths.iter().sum::<usize>())
            .sum();
        let iterations: usize = reports.iter().map(|r| r.total_iterations()).sum();
        let capacity_shed: usize = reports.iter().map(|r| r.rejected.len()).sum();
        let deadline_shed: usize = reports.iter().map(|r| r.deadline_shed.len()).sum();
        let non_converged = reports
            .iter()
            .flat_map(|r| &r.outcomes)
            .filter(|o| !o.converged)
            .count();
        failed_ops += (capacity_shed + deadline_shed + non_converged) as u64;
        m.modeled("serve.waves", waves as f64, "count");
        m.modeled(
            "serve.mean_wave_width",
            widths as f64 / waves as f64,
            "queries",
        );
        m.modeled("serve.capacity_shed", capacity_shed as f64, "count");
        m.modeled("serve.deadline_shed", deadline_shed as f64, "count");
        m.modeled("apps.iterations", iterations as f64, "count");

        let ops = reports.iter().map(|r| r.offered as u64).sum();
        st.last = Some(reports);
        Rep {
            ops,
            failed_ops,
            modeled: m,
        }
    }

    fn check(&self, st: &mut State, _last: &Rep) -> Vec<String> {
        let mut failures = Vec::new();
        let w = rwr_operator(&st.graph);
        let params = config().iter;
        let reports = st.last.as_ref().expect("a repetition ran");
        for (i, r) in reports.iter().enumerate() {
            let name = ["light", "heavy"].get(i).copied().unwrap_or("saturated");
            let step = (r.outcomes.len() / SAMPLED).max(1);
            for o in r.outcomes.iter().step_by(step).take(SAMPLED) {
                let Some(got) = &o.scores else {
                    failures.push(format!("serve {name}: query {} kept no scores", o.id));
                    continue;
                };
                let (want, _) = rwr_cpu(&w, o.seed, RESTART_C, &params);
                let l2 = l2_distance(&want, got);
                if got.len() != want.len() || l2.is_nan() || l2 > GATE_L2 {
                    failures.push(format!(
                        "serve {name}: query {} L2 distance to rwr_cpu {l2:e} exceeds {GATE_L2:e}",
                        o.id
                    ));
                }
            }
        }
        failures
    }

    fn enable_tracing(&self, st: &mut State) -> Arc<TraceLedger> {
        st.engine.enable_tracing()
    }

    fn host_layers(&self, _st: &mut State, t: &Tracer, first: &Rep) -> Sheet {
        let mut s = Sheet::default();
        s.host("graphgen.host_s", t.per("graphgen.generate", "setup"), "s");
        s.host(
            "pipeline.plan_host_s",
            t.per("serve.engine_new", "setup"),
            "s",
        );
        let serve_s = ["serve.light", "serve.heavy", "serve.saturated"]
            .iter()
            .map(|name| t.per(name, "rep"))
            .sum::<f64>();
        s.host("apps.solve_host_s", serve_s, "s");
        let waves = first.modeled.get("serve.waves").unwrap_or(0.0);
        s.host("serve.host_ms_per_wave", serve_s / waves * 1e3, "ms");
        s
    }

    fn device_layers(&self, work: &DeviceWork, first: &Rep) -> Sheet {
        let waves = first.modeled.get("serve.waves").unwrap_or(0.0);
        let mut s = Sheet::default();
        s.modeled(
            "apps.launches_per_iter",
            f64::from(work.total.launches) / waves,
            "count",
        );
        s.modeled("apps.update_norm_ms", work.other_kernels_s() * 1e3, "ms");
        s
    }
}
