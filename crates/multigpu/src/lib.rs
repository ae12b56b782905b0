//! # multi-gpu — dividing ACSR work among multiple GPUs (paper §VIII)
//!
//! "The partitioning algorithm for ACSR is a simple division of each bin
//! among GPUs. For two GPUs, we simply map half of the rows in each bin
//! to each device... Such a partitioning approach can be used with any
//! number of GPUs."
//!
//! One executor, [`Fleet`], runs every multi-device configuration: each
//! bin is dealt round-robin across the devices, every device plans the
//! row slice it computes, and an event-scheduled [`halo`] exchange ends
//! each step. [`FleetConfig::k10`] is the paper's setup — replicated
//! `x`, static long-tail ACSR (the K10 lacks dynamic parallelism) and
//! one completion hand-off per device to the host — which is why the
//! paper's small matrices (ENR, INT, ...) fail to scale: their
//! per-device work no longer covers launch and sync floors. Other
//! configurations keep shards resident and exchange halos over modeled
//! interconnect links, replicate hot rows ([`ReplicationPolicy`]) and
//! select a format per shard ([`ShardFormat::Adaptive`]).

pub mod fleet;
pub mod halo;
mod partition;

pub use fleet::{record_fleet_metrics, Exchange, Fleet, FleetConfig, FleetReport, ShardFormat};
pub use halo::{schedule_exchange, EdgeSpec, EdgeTransfer, ExchangeReport, LinkModel};
pub use partition::{partition_fleet, FleetPartition, ReplicationPolicy, ShardPlan};

use gpu_sim::RunReport;

/// Record per-device utilization gauges into `metrics` from a set of
/// accumulated device reports and the run's wall time (the makespan or
/// [`FleetReport::seconds`]): `<prefix>.<d>.busy_s` (modeled device
/// time), `<prefix>.<d>.idle_s` (wall minus busy, clamped at 0), and
/// `<prefix>.<d>.utilization` (busy over wall; 0 when the wall is
/// empty). One shared helper so serve and the multi-GPU experiments
/// publish identical device gauges.
pub fn record_device_gauges(
    metrics: &acsr_telemetry::MetricsRegistry,
    prefix: &str,
    reports: &[RunReport],
    wall_s: f64,
) {
    for (d, rep) in reports.iter().enumerate() {
        let busy = rep.time_s;
        metrics.set_gauge(&format!("{prefix}.{d}.busy_s"), busy);
        metrics.set_gauge(&format!("{prefix}.{d}.idle_s"), (wall_s - busy).max(0.0));
        let util = if wall_s > 0.0 { busy / wall_s } else { 0.0 };
        metrics.set_gauge(&format!("{prefix}.{d}.utilization"), util);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_gauges_report_busy_idle_utilization() {
        let metrics = acsr_telemetry::MetricsRegistry::new();
        let fast = RunReport {
            time_s: 0.25,
            ..Default::default()
        };
        let slow = RunReport {
            time_s: 1.0,
            ..Default::default()
        };
        record_device_gauges(&metrics, "mg.device", &[fast, slow], 1.0);
        let snap = metrics.snapshot();
        assert_eq!(snap.gauge("mg.device.0.busy_s"), Some(0.25));
        assert_eq!(snap.gauge("mg.device.0.idle_s"), Some(0.75));
        assert_eq!(snap.gauge("mg.device.0.utilization"), Some(0.25));
        assert_eq!(snap.gauge("mg.device.1.utilization"), Some(1.0));
        assert_eq!(snap.gauge("mg.device.1.idle_s"), Some(0.0));
        // degenerate wall never divides by zero
        record_device_gauges(&metrics, "mg.device", &[RunReport::default()], 0.0);
        assert_eq!(
            metrics.snapshot().gauge("mg.device.0.utilization"),
            Some(0.0)
        );
    }
}
