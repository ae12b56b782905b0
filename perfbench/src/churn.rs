//! `churn_rw`: an RMAT graph maintained in place under edge churn, with
//! reads on the maintained layout after every batch.
//!
//! `StreamEngine::apply_batch` absorbs a rate-pinned RMAT edge stream
//! batch by batch; after each batch a fixed number of SpMV reads run on
//! the maintained engine, so writes sit next to reads on the same ACSR
//! layout. The update rate is set high enough that maintenance is a large
//! share of modeled time. `stream` does most of the work; `apps`, `serve`
//! and `multigpu` do none.

use crate::harness::{at_width_one, derive_seed, Sheet, Tracer, GRAPH_SEED};
use crate::layers::DeviceWork;
use crate::run::{Rep, Workload};
use acsr::AcsrConfig;
use acsr_stream::StreamEngine;
use gpu_sim::trace::TraceLedger;
use gpu_sim::{presets, Device, DeviceBuffer};
use graphgen::{generate_edge_stream, generate_rmat, ChurnConfig, RmatConfig, TimedBatch};
use sparse_formats::CsrMatrix;
use spmv_kernels::GpuSpmv;
use std::sync::Arc;

/// RMAT scale (2^16 vertices) and edge factor.
const RMAT_SCALE: u32 = 16;
const EDGE_FACTOR: usize = 16;
/// Churn: edge updates per modeled second, batch window and horizon
/// (12 batches).
const UPDATES_PER_S: f64 = 3_000_000.0;
const BATCH_INTERVAL_S: f64 = 0.005;
const HORIZON_S: f64 = 0.06;
/// SpMV reads on the maintained engine after each batch.
const READS_PER_BATCH: usize = 2;

pub struct ChurnRw;

pub struct State {
    dev: Device,
    cfg: AcsrConfig,
    m0: CsrMatrix<f64>,
    stream: Vec<TimedBatch<f64>>,
    engine: StreamEngine<f64>,
    x: DeviceBuffer<f64>,
    y: DeviceBuffer<f64>,
}

impl Workload for ChurnRw {
    type State = State;

    fn setup(&self, seed: u64, t: &Tracer) -> State {
        let dev = Device::new(presets::gtx_titan());
        let cfg = AcsrConfig::for_device(dev.config());
        let m0: CsrMatrix<f64> = t.span("graphgen.generate", || {
            generate_rmat(&RmatConfig {
                scale: RMAT_SCALE,
                edge_factor: EDGE_FACTOR,
                seed: GRAPH_SEED,
                ..RmatConfig::default()
            })
        });
        let stream = t.span("graphgen.edge_stream", || {
            generate_edge_stream(
                &m0,
                &ChurnConfig {
                    updates_per_sec: UPDATES_PER_S,
                    batch_interval_s: BATCH_INTERVAL_S,
                    horizon_s: HORIZON_S,
                    seed: derive_seed(seed, 2),
                    ..ChurnConfig::default()
                },
            )
        });
        let engine = t.span("stream.build", || StreamEngine::build(&dev, &m0, cfg));
        let x = dev.alloc(
            (0..m0.cols())
                .map(|i| (derive_seed(seed, i as u64 + 3) % 1000) as f64 / 1000.0)
                .collect(),
        );
        let y = dev.alloc_zeroed(m0.rows());
        State {
            dev,
            cfg,
            m0,
            stream,
            engine,
            x,
            y,
        }
    }

    /// Every repetition starts from a freshly built engine.
    fn prepare(&self, st: &mut State) {
        if st.engine.epoch() > 0 {
            st.engine = StreamEngine::build(&st.dev, &st.m0, st.cfg);
        }
    }

    fn rep(&self, st: &mut State, t: &Tracer) -> Rep {
        let (mut maintain_s, mut copy_s, mut batch_s, mut read_s) =
            (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let (mut ops, mut touched, mut in_place, mut migrated) = (0usize, 0usize, 0usize, 0usize);
        for timed in &st.stream {
            let r = t.span("stream.apply_batch", || {
                st.engine.apply_batch(&st.dev, &timed.batch)
            });
            maintain_s += r.plan.time_s + r.maintain.time_s;
            copy_s += r.copy_seconds;
            batch_s += r.total_seconds;
            ops += timed.ops;
            touched += r.touched_rows;
            in_place += r.in_place_rows;
            migrated += r.migrated_rows;
            for _ in 0..READS_PER_BATCH {
                read_s += t
                    .span("stream.read", || st.engine.spmv(&st.dev, &st.x, &st.y))
                    .time_s;
            }
        }
        let mut m = Sheet::default();
        m.modeled("modeled_ms", (batch_s + read_s) * 1e3, "ms");
        m.modeled("updates_per_modeled_s", ops as f64 / batch_s, "updates/s");
        m.modeled("stream.maintain_ms", maintain_s * 1e3, "ms");
        m.modeled("stream.copy_ms", copy_s * 1e3, "ms");
        m.modeled("stream.read_ms", read_s * 1e3, "ms");
        m.modeled(
            "stream.in_place_frac",
            in_place as f64 / touched as f64,
            "ratio",
        );
        m.modeled("stream.migrated_rows", migrated as f64, "count");
        Rep {
            ops: (st.stream.len() * (1 + READS_PER_BATCH)) as u64,
            failed_ops: 0,
            modeled: m,
        }
    }

    /// The maintained engine must equal a fresh build of the same logical
    /// matrix: elements, bin occupancy, and one probe SpMV's value bits,
    /// modeled time bits and launch count.
    fn check(&self, st: &mut State, _last: &Rep) -> Vec<String> {
        let mut mirror = st.m0.clone();
        for timed in &st.stream {
            mirror = timed.batch.apply_to_csr(&mirror);
        }
        let dev = Device::new(st.dev.config().clone());
        let fresh = StreamEngine::build(&dev, &mirror, st.cfg);
        let mut failures = Vec::new();
        if st.engine.to_csr() != fresh.to_csr() {
            failures.push("churn: maintained elements differ from a fresh build".to_string());
        }
        if st.engine.occupancy() != fresh.occupancy() {
            failures.push("churn: maintained bin occupancy differs from a fresh build".to_string());
        }
        let ya = dev.alloc_zeroed::<f64>(mirror.rows());
        let yb = dev.alloc_zeroed::<f64>(mirror.rows());
        let (ra, rb) = at_width_one(|| {
            (
                st.engine.spmv(&dev, &st.x, &ya),
                fresh.spmv(&dev, &st.x, &yb),
            )
        });
        let bits =
            |b: &DeviceBuffer<f64>| b.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        if bits(&ya) != bits(&yb) {
            failures.push("churn: probe SpMV values differ from a fresh build".to_string());
        }
        if ra.time_s.to_bits() != rb.time_s.to_bits() || ra.launches != rb.launches {
            failures.push("churn: probe SpMV timing differs from a fresh build".to_string());
        }
        failures
    }

    fn enable_tracing(&self, st: &mut State) -> Arc<TraceLedger> {
        st.dev.enable_tracing()
    }

    fn host_layers(&self, _st: &mut State, t: &Tracer, _first: &Rep) -> Sheet {
        let mut s = Sheet::default();
        s.host(
            "graphgen.host_s",
            t.per("graphgen.generate", "setup") + t.per("graphgen.edge_stream", "setup"),
            "s",
        );
        s.host("pipeline.plan_host_s", t.per("stream.build", "setup"), "s");
        s.host(
            "stream.apply_host_s",
            t.per("stream.apply_batch", "rep"),
            "s",
        );
        s.host("stream.read_host_s", t.per("stream.read", "rep"), "s");
        s.host("core.spmv_host_s", t.per("stream.read", "rep"), "s");
        s
    }

    fn device_layers(&self, _work: &DeviceWork, _first: &Rep) -> Sheet {
        Sheet::default()
    }
}
