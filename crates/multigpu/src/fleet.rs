//! The N-device sharded fleet executor.
//!
//! A [`Fleet`] deals each bin's rows round-robin across its devices
//! (the paper's §VIII split, generalized to N devices) and gives every
//! device a plan for the rows it computes. One step — a fleet SpMV, or
//! a batched serving wave — ends with one **exchange**, chosen by
//! [`FleetConfig::exchange`] and scheduled on the interconnect
//! ([`crate::halo`]):
//!
//! - [`Exchange::Halo`]: the resident configuration a larger machine
//!   runs. Each device holds only its shard (owned rows plus replicated
//!   hot rows), and each `(owner → shard)` halo edge ships the remote
//!   `x` entries the shard reads next iterate, ready the instant its
//!   producer's compute finishes, FIFO per egress/ingress engine — so
//!   transfers from early-finishing devices hide under the slowest
//!   device's compute.
//! - [`Exchange::Handoff`]: the paper's replicated-`x` setup
//!   ([`FleetConfig::k10`]). Every device holds all of `x`, and each
//!   participating device hands a zero-byte completion signal to the
//!   host sink, whose ingress serializes them.
//!
//! Each shard plans its own format: binned sharding reshapes every
//! shard's row-length distribution, so a dense shard may plan ELL/HYB
//! while a skewed shard keeps ACSR ([`ShardFormat::Adaptive`]).
//!
//! Values stay bit-identical to the single-device reference: a row is
//! computed from the full-precision `x` with its in-row accumulation
//! order unchanged by sharding, and only the *owner's* computation
//! writes the global result (replicas feed local reuse only).

use crate::halo::{ns, schedule_exchange, EdgeSpec, ExchangeReport, LinkModel};
use crate::partition::{partition_fleet, FleetPartition, ReplicationPolicy};
use crate::record_device_gauges;
use acsr::AcsrConfig;
use acsr_telemetry::MetricsRegistry;
use gpu_sim::trace::TraceLedger;
use gpu_sim::{Device, DeviceBuffer, DeviceConfig, RunReport};
use sparse_formats::{CsrMatrix, Scalar};
use spmv_kernels::GpuSpmv;
use spmv_pipeline::{
    AcsrPlanner, AdaptiveSelector, FormatRegistry, PlanBudget, SpmvPlan, SpmvPlanner,
};
use std::sync::Arc;

/// How each shard's executable format is chosen.
#[derive(Clone, Debug)]
pub enum ShardFormat {
    /// Every shard runs ACSR with this configuration (the §VIII
    /// static long-tail setup scaled out).
    Acsr(AcsrConfig),
    /// Every shard runs one fixed registry format ("HYB", "ELL", ...).
    Fixed(&'static str),
    /// Run the [`AdaptiveSelector`] per shard with this amortization
    /// horizon: shards pick the format their own row-length
    /// distribution favors.
    Adaptive {
        /// Expected SpMV applications the plan amortizes over.
        horizon: u64,
    },
}

impl ShardFormat {
    /// Plan `m` on `dev`; returns the plan and the format it runs.
    fn plan<T: Scalar>(&self, dev: &Device, m: &CsrMatrix<T>) -> (SpmvPlan<T>, String) {
        let budget = PlanBudget::for_device(dev.config());
        match self {
            ShardFormat::Acsr(acsr_cfg) => {
                let plan = AcsrPlanner::with_config(*acsr_cfg)
                    .plan(dev, m, &budget)
                    .expect("shard ACSR plan must fit the device");
                (plan, "ACSR".to_string())
            }
            ShardFormat::Fixed(name) => {
                let plan = FormatRegistry::<T>::with_all()
                    .plan(name, dev, m, &budget)
                    .expect("shard plan must fit the device");
                (plan, name.to_string())
            }
            ShardFormat::Adaptive { horizon } => {
                let mut reg = FormatRegistry::<T>::with_all();
                reg.register(Box::new(AcsrPlanner::with_config(
                    AcsrConfig::static_long_tail(),
                )));
                let budget = budget.with_iterations(*horizon);
                let sel = AdaptiveSelector.select(&reg, dev, m, &budget);
                (sel.plan, sel.winner)
            }
        }
    }
}

/// What crosses the interconnect at the end of a fleet step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exchange {
    /// Owner → shard halo transfers of the remote `x` entries each
    /// shard reads next iterate, booked as peer ingress on the
    /// receiving device.
    Halo,
    /// One zero-byte completion hand-off per participating device to
    /// the host sink (none when a single device participates).
    Handoff,
}

/// Fleet construction knobs.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Simulated devices.
    pub n_devices: usize,
    /// Interconnect class the exchange rides.
    pub link: LinkModel,
    /// Hot-row replication policy.
    pub replication: ReplicationPolicy,
    /// Per-shard format choice.
    pub format: ShardFormat,
    /// How each step ends.
    pub exchange: Exchange,
}

impl FleetConfig {
    /// ACSR on every shard, PCIe-class links, default replication, halo
    /// exchange.
    pub fn new(n_devices: usize) -> FleetConfig {
        FleetConfig {
            n_devices,
            link: LinkModel::pcie(),
            replication: ReplicationPolicy::default(),
            format: ShardFormat::Acsr(AcsrConfig::static_long_tail()),
            exchange: Exchange::Halo,
        }
    }

    /// Same, with the NVLink-class interconnect.
    pub fn nvlink(n_devices: usize) -> FleetConfig {
        FleetConfig {
            link: LinkModel::nvlink(),
            ..FleetConfig::new(n_devices)
        }
    }

    /// The paper's §VIII Tesla K10 setup at any device count: every
    /// device holds a full copy of `x` (no replication, no halo), runs
    /// static long-tail ACSR (the K10 lacks dynamic parallelism), and
    /// hands off to the host over a 10 µs signal — two balanced devices
    /// pay 20 µs of serialized sync, while an early finisher's hand-off
    /// overlaps the slower device's compute.
    pub fn k10(n_devices: usize) -> FleetConfig {
        FleetConfig {
            n_devices,
            link: LinkModel::signal(10e-6),
            replication: ReplicationPolicy::disabled(),
            format: ShardFormat::Acsr(AcsrConfig::static_long_tail()),
            exchange: Exchange::Handoff,
        }
    }
}

/// One fleet SpMV's timing: per-device accounting, the compute phase,
/// and the scheduled exchange.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Per-device kernel + halo-ingress accounting (busy time).
    pub per_device: Vec<RunReport>,
    /// Per-device compute seconds (before any exchange transfer).
    pub compute: Vec<f64>,
    /// The scheduled exchange (halo transfers or hand-offs).
    pub exchange: ExchangeReport,
    /// Format each shard executed ("-" for an empty shard).
    pub formats: Vec<String>,
    /// Hot rows computed redundantly somewhere in the fleet.
    pub replicated_rows: usize,
}

impl FleetReport {
    /// Compute-phase makespan: the slowest device's kernel time.
    pub fn compute_s(&self) -> f64 {
        self.compute.iter().fold(0.0, |a, &b| a.max(b))
    }

    /// Modeled wall time: the compute makespan or the last exchange
    /// transfer's completion, whichever lands later. Transfers that
    /// finished while a slower device still computed cost nothing.
    pub fn seconds(&self) -> f64 {
        self.compute_s().max(self.exchange.end_s())
    }

    /// Seconds the exchange extends past compute (0.0 when it hid).
    pub fn exchange_tail_s(&self) -> f64 {
        self.exchange.tail_s(self.compute_s())
    }

    /// Total halo payload bytes this SpMV moved.
    pub fn halo_bytes(&self) -> u64 {
        self.exchange.total_bytes()
    }

    /// GFLOP/s for `flops` useful operations.
    pub fn gflops(&self, flops: u64) -> f64 {
        flops as f64 / self.seconds() / 1e9
    }
}

/// An N-device sharded SpMV executor with an event-scheduled exchange
/// (see the module docs).
pub struct Fleet<T: Scalar> {
    devices: Vec<Device>,
    /// `None` for empty shards (more devices than rows can feed).
    plans: Vec<Option<SpmvPlan<T>>>,
    partition: FleetPartition,
    /// `compute_rows[d][local] = global` for every computed row.
    compute_rows: Vec<Vec<u32>>,
    /// Per-shard `(x, y)` device buffers of [`Self::spmv`] (`None` for
    /// an empty shard), allocated by its first call and reused by every
    /// later one; empty until then.
    io: Vec<Option<(DeviceBuffer<T>, DeviceBuffer<T>)>>,
    formats: Vec<String>,
    format: ShardFormat,
    link: LinkModel,
    exchange: Exchange,
    rows: usize,
    cols: usize,
    nnz: usize,
}

impl<T: Scalar> Fleet<T> {
    /// Shard `m` across `cfg.n_devices` copies of `device_cfg` and plan
    /// every shard per `cfg.format`.
    pub fn new(m: &CsrMatrix<T>, device_cfg: &DeviceConfig, cfg: &FleetConfig) -> Fleet<T> {
        assert!(cfg.n_devices >= 1, "need at least one device");
        let partition = partition_fleet(m, cfg.n_devices, &cfg.replication);
        let mut devices = Vec::with_capacity(cfg.n_devices);
        let mut plans = Vec::with_capacity(cfg.n_devices);
        let mut compute_rows = Vec::with_capacity(cfg.n_devices);
        let mut formats = Vec::with_capacity(cfg.n_devices);
        for shard in &partition.shards {
            let mut dc = device_cfg.clone();
            if cfg.n_devices > 1 {
                dc.name = format!("{} #{}", dc.name, shard.device);
            }
            let dev = Device::new(dc);
            let rows = shard.compute_rows();
            if rows.is_empty() {
                plans.push(None);
                formats.push("-".to_string());
            } else {
                let (plan, format) = cfg.format.plan(&dev, &extract_rows(m, &rows));
                plans.push(Some(plan));
                formats.push(format);
            }
            compute_rows.push(rows);
            devices.push(dev);
        }
        Fleet {
            devices,
            plans,
            partition,
            compute_rows,
            io: Vec::new(),
            formats,
            format: cfg.format.clone(),
            link: cfg.link,
            exchange: cfg.exchange,
            rows: m.rows(),
            cols: m.cols(),
            nnz: m.nnz(),
        }
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// Global rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Global columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored non-zeros (owned, without replication redundancy).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The sharding (owned rows, replicas, halo edges).
    pub fn partition(&self) -> &FleetPartition {
        &self.partition
    }

    /// Format each shard executes ("-" for an empty shard).
    pub fn formats(&self) -> &[String] {
        &self.formats
    }

    /// Per-device computed nnz (owned + replicas; load diagnostics).
    pub fn device_nnz(&self) -> Vec<usize> {
        self.partition.shards.iter().map(|s| s.nnz).collect()
    }

    /// Device `d`.
    pub fn device(&self, d: usize) -> &Device {
        &self.devices[d]
    }

    /// Every shard in device order as `(device, plan, rows)`: `plan` is
    /// `None` for an empty shard, and `rows[local] = global` lists the
    /// rows the plan computes, ascending.
    pub fn shards(&self) -> impl Iterator<Item = (&Device, Option<&SpmvPlan<T>>, &[u32])> {
        self.devices
            .iter()
            .zip(&self.plans)
            .zip(&self.compute_rows)
            .map(|((dev, plan), rows)| (dev, plan.as_ref(), rows.as_slice()))
    }

    /// Plan all of `m` on every device with the fleet's shard format —
    /// the replicated operators whole-query work stealing runs on.
    pub fn plan_replicated(&self, m: &CsrMatrix<T>) -> Vec<SpmvPlan<T>> {
        self.devices
            .iter()
            .map(|dev| self.format.plan(dev, m).0)
            .collect()
    }

    /// Attach one shared trace ledger to every device and return it:
    /// subsequent [`Self::spmv`] calls record per-device kernel spans
    /// *and* per-edge halo transfer spans (on the receiving device's
    /// lane), so the chrome-trace export shows the exchange.
    pub fn enable_tracing(&mut self) -> Arc<TraceLedger> {
        let ledger = Arc::new(TraceLedger::new());
        for dev in &mut self.devices {
            dev.attach_ledger(ledger.clone());
        }
        ledger
    }

    /// Schedule the exchange ending a step in which device `d` finished
    /// computing at `ready[d]` seconds (`None`: it sat the step out)
    /// over `vectors` right-hand sides. Halo edges from a participating
    /// owner carry `vectors` entries per remote row; hand-offs carry no
    /// payload. Every multi-device step end — fleet SpMVs, serving
    /// waves and the serving cost model — is priced here.
    pub fn exchange_after(&self, ready: &[Option<f64>], vectors: usize) -> ExchangeReport {
        let n = self.devices.len();
        assert_eq!(ready.len(), n, "one ready time per device");
        let edges: Vec<EdgeSpec> = match self.exchange {
            Exchange::Halo => {
                let elt = (std::mem::size_of::<T>() * vectors) as u64;
                self.partition
                    .shards
                    .iter()
                    .flat_map(|shard| {
                        shard.halo_in.iter().filter_map(move |(src, rows)| {
                            Some(EdgeSpec {
                                src: *src,
                                dst: shard.device,
                                entries: rows.len() * vectors,
                                bytes: rows.len() as u64 * elt,
                                ready_ns: ns(ready[*src]?),
                            })
                        })
                    })
                    .collect()
            }
            Exchange::Handoff if ready.iter().flatten().count() > 1 => ready
                .iter()
                .enumerate()
                .filter_map(|(d, t)| {
                    Some(EdgeSpec {
                        src: d,
                        dst: n,
                        entries: 0,
                        bytes: 0,
                        ready_ns: ns((*t)?),
                    })
                })
                .collect(),
            Exchange::Handoff => Vec::new(),
        };
        schedule_exchange(n, &edges, &self.link)
    }

    /// Run `y = A * x` across the fleet; `y` must have `rows` slots.
    ///
    /// Phase 1 (compute): every shard runs its plan over the full-value
    /// `x`; the owner's result is written to `y` bit-identically to the
    /// single-device plan. Phase 2 (exchange): [`Self::exchange_after`]
    /// schedules the step's halo transfers or hand-offs, ready at each
    /// producer's finish; halo ingress is booked on the receiving
    /// device, while hand-offs to the host sink touch no device.
    ///
    /// The fleet holds one `(x, y)` device-buffer pair per non-empty
    /// shard, allocated by the first call. Every call writes `x` into
    /// the shard's `x` buffer and zero-fills its `y` buffer on the host,
    /// as fresh buffers would be, at no modeled cost. Each shard's plan
    /// therefore sees the same buffers on every call, so from the second
    /// call on it replays the first call's launch accounting
    /// ([`SpmvPlan`]'s replay key) and runs its kernels for values only.
    pub fn spmv(&mut self, x: &[T], y: &mut [T]) -> FleetReport {
        assert_eq!(x.len(), self.cols, "x length mismatch");
        assert_eq!(y.len(), self.rows, "y length mismatch");
        if self.io.is_empty() {
            self.io = self
                .shards()
                .map(|(dev, plan, _)| {
                    plan.map(|p| (dev.alloc_zeroed(self.cols), dev.alloc_zeroed(p.rows())))
                })
                .collect();
        }
        for (xd, yd) in self.io.iter_mut().flatten() {
            xd.as_mut_slice().copy_from_slice(x);
            yd.as_mut_slice().fill(T::ZERO);
        }
        let n = self.devices.len();
        let mut per_device = vec![RunReport::default(); n];
        let mut compute = vec![0.0f64; n];
        let mut ready = vec![None; n];
        for (d, ((dev, plan, rows), io)) in self.shards().zip(&self.io).enumerate() {
            let (Some(plan), Some((xd, yd))) = (plan, io) else {
                continue;
            };
            let rep = plan.spmv(dev, xd, yd);
            let local = yd.as_slice();
            for (l, &g) in rows.iter().enumerate() {
                if self.partition.owner[g as usize] as usize == d {
                    y[g as usize] = local[l];
                }
            }
            compute[d] = rep.time_s;
            ready[d] = Some(rep.time_s);
            per_device[d] = rep;
        }

        let exchange = self.exchange_after(&ready, 1);
        for t in exchange.transfers.iter().filter(|t| t.dst < n) {
            let rep = self.devices[t.dst].record_peer_recv(
                &format!("halo_{}to{}", t.src, t.dst),
                t.bytes,
                t.dur_s(),
            );
            per_device[t.dst] = per_device[t.dst].clone().then(&rep);
        }
        FleetReport {
            per_device,
            compute,
            exchange,
            formats: self.formats.clone(),
            replicated_rows: self.partition.hot_rows.len(),
        }
    }
}

/// Extract the listed rows of `m` into a compact sub-matrix (row order
/// preserved; columns untouched).
fn extract_rows<T: Scalar>(m: &CsrMatrix<T>, rows: &[u32]) -> CsrMatrix<T> {
    let mut offsets = Vec::with_capacity(rows.len() + 1);
    offsets.push(0u32);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for &r in rows {
        let (rc, rv) = m.row(r as usize);
        cols.extend_from_slice(rc);
        vals.extend_from_slice(rv);
        offsets.push(cols.len() as u32);
    }
    CsrMatrix::from_raw_parts(rows.len(), m.cols(), offsets, cols, vals)
        .expect("extracted rows preserve CSR invariants")
}

/// Fold one fleet SpMV into `metrics` under `prefix`: the shared
/// per-device busy/idle/utilization gauges
/// ([`record_device_gauges`]), per-device halo traffic counters
/// (`<prefix>.<d>.halo_send_bytes` / `halo_recv_bytes`), and the
/// exchange phase gauges (`<prefix>.exchange_s`,
/// `<prefix>.exchange_tail_s`, `<prefix>.replicated_rows`).
pub fn record_fleet_metrics(metrics: &MetricsRegistry, prefix: &str, report: &FleetReport) {
    record_device_gauges(metrics, prefix, &report.per_device, report.seconds());
    for d in 0..report.per_device.len() {
        metrics.add(
            &format!("{prefix}.{d}.halo_send_bytes"),
            report.exchange.send_bytes[d],
        );
        metrics.add(
            &format!("{prefix}.{d}.halo_recv_bytes"),
            report.exchange.recv_bytes[d],
        );
    }
    metrics.set_gauge(&format!("{prefix}.exchange_s"), report.exchange.end_s());
    metrics.set_gauge(
        &format!("{prefix}.exchange_tail_s"),
        report.exchange_tail_s(),
    );
    metrics.set_gauge(
        &format!("{prefix}.replicated_rows"),
        report.replicated_rows as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::presets;
    use graphgen::{generate_power_law, PowerLawConfig};

    fn matrix(rows: usize, seed: u64) -> CsrMatrix<f64> {
        generate_power_law(&PowerLawConfig {
            rows,
            cols: rows,
            mean_degree: 10.0,
            max_degree: 1200,
            pinned_max_rows: 2,
            col_skew: 0.4,
            seed,
            ..Default::default()
        })
    }

    fn k10_fleet(m: &CsrMatrix<f64>, n: usize) -> Fleet<f64> {
        Fleet::new(m, &presets::tesla_k10_single(), &FleetConfig::k10(n))
    }

    #[test]
    fn k10_dual_result_matches_reference() {
        let m = matrix(4000, 171);
        let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
        let mut y = vec![0.0; m.rows()];
        let rep = k10_fleet(&m, 2).spmv(&x, &mut y);
        let d = sparse_formats::scalar::rel_l2_distance(&y, &m.spmv(&x));
        assert!(d < 1e-12, "rel distance {d}");
        assert_eq!(rep.per_device.len(), 2);
        assert_eq!(
            rep.replicated_rows, 0,
            "the K10 preset replicates x, not rows"
        );
        assert_eq!(rep.halo_bytes(), 0);
        assert!(rep.seconds() > 0.0);
    }

    #[test]
    fn k10_large_matrix_scales_small_matrix_does_not() {
        let big = matrix(60_000, 173);
        let small = matrix(2048, 174);
        let speedup = |m: &CsrMatrix<f64>| {
            let x = vec![1.0f64; m.cols()];
            let mut y = vec![0.0; m.rows()];
            let t1 = k10_fleet(m, 1).spmv(&x, &mut y).seconds();
            let t2 = k10_fleet(m, 2).spmv(&x, &mut y).seconds();
            t1 / t2
        };
        let s_big = speedup(&big);
        let s_small = speedup(&small);
        assert!(s_big > 1.4, "big-matrix speedup {s_big}");
        assert!(
            s_small < s_big,
            "small {s_small} should scale worse than big {s_big}"
        );
    }

    #[test]
    fn k10_fixed_formats_split_and_match_reference() {
        let m = matrix(3000, 177);
        let x: Vec<f64> = (0..m.cols()).map(|i| 0.5 + (i % 5) as f64).collect();
        let want = m.spmv(&x);
        for name in ["HYB", "CSR-vector"] {
            let cfg = FleetConfig {
                format: ShardFormat::Fixed(name),
                ..FleetConfig::k10(2)
            };
            let mut fleet = Fleet::new(&m, &presets::tesla_k10_single(), &cfg);
            assert_eq!(fleet.formats(), [name, name]);
            let mut y = vec![0.0; m.rows()];
            let rep = fleet.spmv(&x, &mut y);
            let d = sparse_formats::scalar::rel_l2_distance(&y, &want);
            assert!(d < 1e-12, "{name}: rel distance {d}");
            assert_eq!(rep.exchange.transfers.len(), 2, "{name}");
        }
    }

    #[test]
    fn single_device_has_no_sync_cost() {
        let m = matrix(2048, 176);
        let x = vec![1.0f64; m.cols()];
        let mut y = vec![0.0; m.rows()];
        let rep = k10_fleet(&m, 1).spmv(&x, &mut y);
        assert!(rep.exchange.transfers.is_empty());
        assert_eq!(rep.exchange_tail_s(), 0.0);
        assert_eq!(rep.seconds(), rep.compute_s());
    }

    /// The per-phase breakdown of [`FleetReport::seconds`] under the
    /// hand-off exchange. A flat `max + sync` model charges the full
    /// sync after the *slowest* device even when a device finished long
    /// before; here an early finisher's hand-off overlaps the slow
    /// device's compute.
    #[test]
    fn handoff_overlaps_slow_device_compute() {
        let handshake = 10e-6;
        let m = matrix(2048, 178);
        let mut fleet = k10_fleet(&m, 2);
        let report = |t0: f64, t1: f64| FleetReport {
            per_device: vec![RunReport::default(); 2],
            compute: vec![t0, t1],
            exchange: fleet.exchange_after(&[Some(t0), Some(t1)], 1),
            formats: Vec::new(),
            replicated_rows: 0,
        };
        // Skewed finishes: device 1 (40 µs) hands off at 40→50 µs,
        // entirely under device 0's 100 µs of compute. Only device 0's
        // own hand-off extends the run: 110 µs, not a flat 120 µs.
        let skewed = report(100e-6, 40e-6);
        assert_eq!(skewed.compute_s(), 100e-6);
        assert!(
            (skewed.seconds() - 110e-6).abs() < 1e-12,
            "{}",
            skewed.seconds()
        );
        assert!((skewed.exchange_tail_s() - handshake).abs() < 1e-12);
        // Balanced finishes serialize both hand-offs on the host: 20 µs.
        let balanced = report(100e-6, 100e-6);
        assert!(
            (balanced.seconds() - 120e-6).abs() < 1e-12,
            "{}",
            balanced.seconds()
        );
        assert!((balanced.exchange_tail_s() - 2.0 * handshake).abs() < 1e-12);
        // A lone participant needs no barrier.
        assert!(fleet
            .exchange_after(&[Some(100e-6), None], 1)
            .transfers
            .is_empty());
        // And end to end: a dual-device run ships exactly one hand-off
        // per device to the host sink.
        let x = vec![1.0f64; m.cols()];
        let mut y = vec![0.0; m.rows()];
        let rep = fleet.spmv(&x, &mut y);
        assert_eq!(rep.exchange.transfers.len(), 2);
        assert!(rep
            .exchange
            .transfers
            .iter()
            .all(|t| t.dst == 2 && t.bytes == 0));
        assert!(rep.seconds() >= rep.compute_s());
        assert!(
            rep.exchange_tail_s() > 0.0,
            "hand-offs ready at finish always expose a tail"
        );
    }

    /// Hand-offs land on the host sink, not a device: no device books
    /// peer ingress for them, so each device's accounting is exactly its
    /// compute.
    #[test]
    fn handoffs_book_no_device_ingress() {
        let m = matrix(3000, 179);
        let mut fleet = k10_fleet(&m, 3);
        let ledger = fleet.enable_tracing();
        let x = vec![1.0f64; m.cols()];
        let mut y = vec![0.0; m.rows()];
        let rep = fleet.spmv(&x, &mut y);
        assert_eq!(rep.exchange.transfers.len(), 3);
        assert!(rep.exchange.transfers.iter().all(|t| t.dst == 3));
        for (d, r) in rep.per_device.iter().enumerate() {
            assert_eq!(r.time_s.to_bits(), rep.compute[d].to_bits(), "device {d}");
            assert_eq!(r.counters.htod_bytes, 0, "device {d}");
        }
        assert_eq!(rep.exchange.recv_bytes, vec![0; 3]);
        assert!(
            ledger.spans().iter().all(|s| !s.name.starts_with("halo_")),
            "no peer-ingress span for a host hand-off"
        );
        ledger
            .reconcile()
            .expect("hand-off fleet trace must reconcile");
    }

    #[test]
    fn fleet_matches_reference_at_many_widths() {
        let m = matrix(4000, 301);
        let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
        let want = m.spmv(&x);
        for n in [1usize, 2, 3, 5, 8] {
            let mut fleet = Fleet::new(&m, &presets::tesla_k10_single(), &FleetConfig::new(n));
            let mut y = vec![0.0; m.rows()];
            let rep = fleet.spmv(&x, &mut y);
            let d = sparse_formats::scalar::rel_l2_distance(&y, &want);
            assert!(d < 1e-12, "{n} devices: rel distance {d}");
            assert_eq!(rep.per_device.len(), n);
            assert!(rep.seconds() > 0.0);
            if n == 1 {
                assert!(rep.exchange.transfers.is_empty(), "no self-halo");
                assert_eq!(rep.halo_bytes(), 0);
            } else {
                assert!(rep.halo_bytes() > 0, "{n} devices must exchange");
            }
        }
    }

    #[test]
    fn halo_bytes_match_partition_bookkeeping() {
        let m = matrix(3000, 302);
        let cfg = FleetConfig::new(4);
        let mut fleet = Fleet::new(&m, &presets::tesla_k10_single(), &cfg);
        let x = vec![1.0f64; m.cols()];
        let mut y = vec![0.0; m.rows()];
        let rep = fleet.spmv(&x, &mut y);
        let expect: u64 = fleet
            .partition()
            .shards
            .iter()
            .map(|s| s.halo_entries() as u64 * 8)
            .sum();
        assert_eq!(rep.halo_bytes(), expect);
        let send: u64 = rep.exchange.send_bytes.iter().sum();
        let recv: u64 = rep.exchange.recv_bytes.iter().sum();
        assert_eq!(send, expect);
        assert_eq!(recv, expect, "no halo edge targets the host sink");
        // Per-device ingress accounting mirrors the exchange exactly.
        for d in 0..4 {
            assert_eq!(
                rep.per_device[d].counters.htod_bytes,
                rep.exchange.recv_bytes[d]
            );
        }
    }

    #[test]
    fn replication_reduces_halo_traffic() {
        let m = matrix(6000, 303);
        let dev = presets::tesla_k10_single();
        let mut with = FleetConfig::new(4);
        with.replication = ReplicationPolicy {
            min_referencing_shards: 2,
            max_row_len: 64,
            max_fraction: 0.10,
        };
        let mut without = FleetConfig::new(4);
        without.replication = ReplicationPolicy::disabled();
        let x = vec![1.0f64; m.cols()];
        let mut y = vec![0.0; m.rows()];
        let rep_with = Fleet::new(&m, &dev, &with).spmv(&x, &mut y);
        let ya = y.clone();
        let rep_without = Fleet::new(&m, &dev, &without).spmv(&x, &mut y);
        assert_eq!(ya, y, "replication must not change values");
        assert!(rep_with.replicated_rows > 0, "power-law graph has hot rows");
        assert_eq!(rep_without.replicated_rows, 0);
        assert!(
            rep_with.halo_bytes() < rep_without.halo_bytes(),
            "replication {} vs {} halo bytes",
            rep_with.halo_bytes(),
            rep_without.halo_bytes()
        );
    }

    #[test]
    fn empty_shards_are_tolerated() {
        // 3 rows over 8 devices: five shards compute nothing.
        let mut t = sparse_formats::TripletMatrix::<f64>::new(3, 3);
        t.push(0, 1, 1.0).unwrap();
        t.push(1, 2, 2.0).unwrap();
        t.push(2, 0, 3.0).unwrap();
        let m = t.to_csr();
        let mut fleet = Fleet::new(&m, &presets::tesla_k10_single(), &FleetConfig::new(8));
        let x = vec![2.0f64; 3];
        let mut y = vec![0.0; 3];
        let rep = fleet.spmv(&x, &mut y);
        assert_eq!(y, vec![2.0, 4.0, 6.0]);
        assert_eq!(rep.formats.iter().filter(|f| *f == "-").count(), 5);
        assert_eq!(rep.per_device.len(), 8);
    }

    #[test]
    fn fleet_metrics_fold_halo_and_utilization() {
        let m = matrix(2000, 304);
        let mut fleet = Fleet::new(&m, &presets::tesla_k10_single(), &FleetConfig::new(2));
        let x = vec![1.0f64; m.cols()];
        let mut y = vec![0.0; m.rows()];
        let rep = fleet.spmv(&x, &mut y);
        let metrics = MetricsRegistry::new();
        record_fleet_metrics(&metrics, "fleet.device", &rep);
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter("fleet.device.0.halo_send_bytes"),
            Some(rep.exchange.send_bytes[0])
        );
        assert_eq!(
            snap.counter("fleet.device.1.halo_recv_bytes"),
            Some(rep.exchange.recv_bytes[1])
        );
        assert!(snap.gauge("fleet.device.0.utilization").is_some());
        assert_eq!(
            snap.gauge("fleet.device.exchange_s"),
            Some(rep.exchange.end_s())
        );
    }

    #[test]
    fn adaptive_shards_may_choose_different_formats() {
        // 3 huge rows + thousands of uniform short rows at 4 devices:
        // the huge rows land in a tail bin with < 4 rows, so some
        // shards see only the uniform body (ELL/HYB territory) while
        // others carry the skewed tail.
        let rows = 4003usize;
        let mut t = sparse_formats::TripletMatrix::<f64>::new(rows, rows);
        for r in 0..3usize {
            for c in 0..1500usize {
                t.push(r, (r * 7 + c * 2) % rows, 1.0 + c as f64 * 0.01)
                    .unwrap();
            }
        }
        for r in 3..rows {
            for j in 0..8usize {
                t.push(r, (r * 13 + j * 97) % rows, 0.5 + j as f64).unwrap();
            }
        }
        let m = t.to_csr();
        let mut cfg = FleetConfig::new(4);
        cfg.format = ShardFormat::Adaptive { horizon: 1000 };
        let mut fleet = Fleet::new(&m, &presets::gtx_titan(), &cfg);
        let mut distinct: Vec<&String> = fleet.formats().iter().filter(|f| *f != "-").collect();
        distinct.sort();
        distinct.dedup();
        assert!(
            distinct.len() >= 2,
            "shards should diverge, got {:?}",
            fleet.formats()
        );
        // and the mixed-format fleet still answers correctly
        let x: Vec<f64> = (0..rows).map(|i| 1.0 + (i % 5) as f64 * 0.2).collect();
        let mut y = vec![0.0; rows];
        fleet.spmv(&x, &mut y);
        let d = sparse_formats::scalar::rel_l2_distance(&y, &m.spmv(&x));
        assert!(d < 1e-12, "rel distance {d}");
    }
}
