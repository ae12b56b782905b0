//! Per-layer modeled metrics read from a device [`TraceLedger`].
//!
//! The traced run attaches a ledger to every simulated device and folds
//! the recorded kernel and transfer spans into the `gpu_sim.*` and
//! `core.*` numbers here. Every value is modeled (virtual clock or event
//! counts) except `gpu_sim.host_ns_per_warp_instr`, which divides host
//! wall time by a modeled event count.

use crate::harness::Sheet;
use acsr::{Phase, PhaseRollup};
use gpu_sim::trace::Span;
use gpu_sim::RunReport;

/// What one traced repetition's device work added up to.
pub struct DeviceWork {
    pub spans: Vec<Span>,
    pub total: RunReport,
}

/// The ACSR SpMV phases of the rollup.
const SPMV_PHASES: [Phase; 4] = [
    Phase::ZeroScatter,
    Phase::BinKernels,
    Phase::Overflow,
    Phase::LongTail,
];

impl DeviceWork {
    /// Modeled seconds of kernels outside the ACSR phases: the
    /// applications' update and norm kernels.
    pub fn other_kernels_s(&self) -> f64 {
        PhaseRollup::from_spans(&self.spans)
            .bucket(Phase::Other)
            .seconds
    }
}

/// `gpu_sim.*` and `core.*` metrics (except the host-timed ones) for one
/// repetition's device work. `rep_wall_s` is that repetition's host wall
/// time, for the per-event host cost.
pub fn device_sheet(work: &DeviceWork, rep_wall_s: f64) -> Sheet {
    let c = &work.total.counters;
    let rollup = PhaseRollup::from_spans(&work.spans);
    let mut s = Sheet::default();
    s.modeled("gpu_sim.launches", f64::from(work.total.launches), "count");
    s.modeled(
        "gpu_sim.transfer_ms",
        work.total.breakdown.transfer_s * 1e3,
        "ms",
    );
    s.modeled(
        "gpu_sim.warp_efficiency",
        c.warp_execution_efficiency().unwrap_or(0.0),
        "ratio",
    );
    s.modeled(
        "gpu_sim.coalescing_eff",
        c.coalescing_efficiency().unwrap_or(0.0),
        "ratio",
    );
    s.modeled("gpu_sim.dram_bytes", c.dram_bytes() as f64, "bytes");
    s.modeled(
        "gpu_sim.tex_hit_rate",
        c.tex_hit_rate().unwrap_or(0.0),
        "ratio",
    );
    s.modeled(
        "gpu_sim.atomic_conflicts",
        c.atomic_conflicts as f64,
        "count",
    );
    s.modeled(
        "gpu_sim.warp_instructions",
        c.warp_instructions as f64,
        "count",
    );
    s.host(
        "gpu_sim.host_ns_per_warp_instr",
        if c.warp_instructions == 0 {
            0.0
        } else {
            rep_wall_s * 1e9 / c.warp_instructions as f64
        },
        "ns",
    );

    let spmv_s: f64 = SPMV_PHASES.iter().map(|&p| rollup.bucket(p).seconds).sum();
    let spmv_flops: u64 = SPMV_PHASES
        .iter()
        .map(|&p| rollup.bucket(p).counters.flops)
        .sum();
    s.modeled("core.spmv_ms", spmv_s * 1e3, "ms");
    s.modeled(
        "core.bins_ms",
        (rollup.bucket(Phase::BinKernels).seconds + rollup.bucket(Phase::Overflow).seconds) * 1e3,
        "ms",
    );
    s.modeled(
        "core.long_tail_ms",
        rollup.bucket(Phase::LongTail).seconds * 1e3,
        "ms",
    );
    s.modeled(
        "core.zero_scatter_ms",
        rollup.bucket(Phase::ZeroScatter).seconds * 1e3,
        "ms",
    );
    s.modeled(
        "core.spmv_gflops",
        if spmv_s > 0.0 {
            spmv_flops as f64 / spmv_s / 1e9
        } else {
            0.0
        },
        "GFLOP/s",
    );
    s
}
