//! `fleet_spmv`: repeated `Fleet::spmv` at four NVLink-connected devices
//! on the LJ2 analog.
//!
//! Row sharding, hot-row replication and the scheduled halo exchange of
//! `multigpu` would go unmeasured otherwise; it is the layer ROADMAP
//! item 1 rewrites.
//!
//! Which rows share a shard, and so the halo pattern and the slowest
//! shard, depends on the vertex labels. One relabeling per run moved the
//! modeled time by ~5 % between seeds, so a run shards `LAYOUTS` seeded
//! relabelings of the graph and reports their sum and means.

use crate::harness::{at_width_one, derive_seed, relabel, Sheet, Tracer, GRAPH_SEED};
use crate::layers::DeviceWork;
use crate::run::{Rep, Workload};
use acsr::AcsrConfig;
use gpu_sim::trace::{self, TraceLedger};
use gpu_sim::{presets, Device};
use graphgen::MatrixSpec;
use multi_gpu::{partition_fleet, Fleet, FleetConfig, ReplicationPolicy};
use sparse_formats::CsrMatrix;
use spmv_kernels::GpuSpmv;
use spmv_pipeline::{AcsrPlanner, PlanBudget, SpmvPlanner};
use std::sync::Arc;

const MATRIX: &str = "LJ2";
const SCALE: usize = 128;
const DEVICES: usize = 4;
/// Seeded relabelings sharded per run.
const LAYOUTS: usize = 4;
/// Fleet SpMVs per layout per repetition.
const SPMVS: usize = 2;

pub struct FleetSpmv;

struct Layout {
    m: CsrMatrix<f64>,
    fleet: Fleet<f64>,
    y: Vec<f64>,
}

pub struct State {
    layouts: Vec<Layout>,
    x: Vec<f64>,
}

fn new_fleet(m: &CsrMatrix<f64>) -> Fleet<f64> {
    Fleet::new(
        m,
        &presets::tesla_k10_single(),
        &FleetConfig::nvlink(DEVICES),
    )
}

impl Workload for FleetSpmv {
    type State = State;

    fn setup(&self, seed: u64, t: &Tracer) -> State {
        let spec = MatrixSpec::by_abbrev(MATRIX).expect("Table-I analog");
        let base = t.span("graphgen.generate", || {
            spec.generate::<f64>(SCALE, GRAPH_SEED).csr
        });
        let layouts = (0..LAYOUTS as u64)
            .map(|l| {
                let m = t.span("graphgen.generate", || {
                    relabel(&base, derive_seed(seed, 1 + l))
                });
                let fleet = t.span("multigpu.fleet_new", || new_fleet(&m));
                let y = vec![0.0; m.rows()];
                Layout { m, fleet, y }
            })
            .collect();
        let x = (0..base.cols())
            .map(|i| 1.0 + (derive_seed(seed, i as u64 + 2 * LAYOUTS as u64) % 8) as f64 * 0.25)
            .collect();
        State { layouts, x }
    }

    fn rep(&self, st: &mut State, t: &Tracer) -> Rep {
        let mut seconds = 0.0f64;
        let (mut halo, mut tail, mut imbalance, mut replicated) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for l in &mut st.layouts {
            for _ in 0..SPMVS {
                let r = t.span("multigpu.spmv", || l.fleet.spmv(&st.x, &mut l.y));
                seconds += r.seconds();
                let busy: Vec<f64> = r.compute.iter().copied().filter(|&c| c > 0.0).collect();
                let mean = busy.iter().sum::<f64>() / busy.len() as f64;
                halo += r.halo_bytes() as f64;
                tail += r.exchange_tail_s();
                imbalance += r.compute_s() / mean;
                replicated += r.replicated_rows as f64;
            }
        }
        let per_spmv = 1.0 / (LAYOUTS * SPMVS) as f64;
        let mut m = Sheet::default();
        m.modeled("modeled_ms", seconds * 1e3, "ms");
        m.modeled("multigpu.halo_bytes", halo * per_spmv, "bytes");
        m.modeled("multigpu.exchange_tail_ms", tail * per_spmv * 1e3, "ms");
        m.modeled("multigpu.shard_imbalance", imbalance * per_spmv, "ratio");
        m.modeled("multigpu.replicated_rows", replicated * per_spmv, "count");
        Rep {
            ops: (LAYOUTS * SPMVS) as u64,
            failed_ops: 0,
            modeled: m,
        }
    }

    /// Every layout's fleet output must be bit-identical to one ACSR plan
    /// of the whole matrix on a single device of the same model.
    fn check(&self, st: &mut State, _last: &Rep) -> Vec<String> {
        let mut failures = Vec::new();
        for (i, l) in st.layouts.iter().enumerate() {
            let dev = Device::new(presets::tesla_k10_single());
            let plan = AcsrPlanner::with_config(AcsrConfig::static_long_tail())
                .plan(&dev, &l.m, &PlanBudget::for_device(dev.config()))
                .expect("single-device reference plan fits");
            let x = dev.alloc(st.x.clone());
            let y = dev.alloc_zeroed::<f64>(l.m.rows());
            at_width_one(|| plan.spmv(&dev, &x, &y));
            let same = y
                .as_slice()
                .iter()
                .zip(&l.y)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                failures.push(format!(
                    "fleet layout {i}: Fleet::spmv output differs from the single-device plan"
                ));
            }
        }
        failures
    }

    /// `Fleet::enable_tracing` gives each fleet a ledger of its own; to
    /// record every layout into one, the fleets are rebuilt (untimed, with
    /// bit-identical plans) while the process-global capture is on.
    fn enable_tracing(&self, st: &mut State) -> Arc<TraceLedger> {
        trace::enable_global_capture();
        for l in &mut st.layouts {
            l.fleet = new_fleet(&l.m);
        }
        trace::disable_global_capture();
        trace::global_ledger()
    }

    fn host_layers(&self, st: &mut State, t: &Tracer, _first: &Rep) -> Sheet {
        let mut s = Sheet::default();
        s.host("graphgen.host_s", t.per("graphgen.generate", "setup"), "s");
        s.host(
            "pipeline.plan_host_s",
            t.per("multigpu.fleet_new", "setup"),
            "s",
        );
        s.host(
            "multigpu.spmv_host_s",
            t.per("multigpu.spmv", "rep") / (LAYOUTS * SPMVS) as f64,
            "s",
        );
        // `Fleet::new` partitions internally; the partitioner's own host
        // time is measured by one direct call after the traced repetitions.
        let part_s = t.span("multigpu.partition_probe", || {
            crate::harness::wall(|| {
                partition_fleet(&st.layouts[0].m, DEVICES, &ReplicationPolicy::default())
            })
            .0
        });
        s.host("multigpu.partition_host_s", part_s, "s");
        s
    }

    fn device_layers(&self, _work: &DeviceWork, _first: &Rep) -> Sheet {
        Sheet::default()
    }
}
