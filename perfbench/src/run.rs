//! The run protocol every workload shares: set up several times, repeat
//! the timed phase for the time budget, check the first repetition's
//! outputs, and (in a traced run) repeat again with host spans and
//! device ledgers on.

use crate::harness::{median, peak_rss_mb, repeat_for, wall, Sheet, Tracer};
use crate::layers::{device_sheet, DeviceWork};
use gpu_sim::trace::TraceLedger;
use std::sync::Arc;

/// Set-ups per run: at least `SETUP_REPS`, and more (up to
/// `SETUP_MAX_REPS`) until they add up to `SETUP_MIN_S`, so that a
/// millisecond set-up is still a median over many samples. `setup_s` is
/// their median.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 1000;

/// Fewest timed repetitions a run makes, whatever the budget.
pub const MIN_REPS: usize = 3;

/// What one timed repetition did, on the modeled clock.
pub struct Rep {
    /// Operations attempted (solves, queries, batches and reads, SpMVs).
    pub ops: u64,
    /// Operations that failed inside the repetition (sheds,
    /// non-converged queries).
    pub failed_ops: u64,
    /// Modeled metrics; must be bit-identical on every repetition.
    pub modeled: Sheet,
}

/// One workload, driven only through the crates' public entry points.
pub trait Workload {
    /// Inputs plus everything planned or built from them.
    type State;

    /// Generate the inputs from `seed` and plan/build on them. Timed as
    /// `setup_s`; wrap each layer call in a `tracer` span.
    fn setup(&self, seed: u64, tracer: &Tracer) -> Self::State;

    /// Untimed per-repetition preparation (e.g. a fresh engine for a
    /// workload that mutates it).
    fn prepare(&self, _state: &mut Self::State) {}

    /// One timed repetition.
    fn rep(&self, state: &mut Self::State, tracer: &Tracer) -> Rep;

    /// Correctness gates on the state the last timed repetition left.
    /// Returns one message per failed check.
    fn check(&self, state: &mut Self::State, last: &Rep) -> Vec<String>;

    /// Attach one trace ledger to every simulated device the timed phase
    /// uses, and return it.
    fn enable_tracing(&self, state: &mut Self::State) -> Arc<TraceLedger>;

    /// Host-timed layer metrics, per set-up (`"setup"` spans) or per
    /// traced repetition (`"rep"` spans), or from extra probe calls made
    /// after the traced repetitions.
    fn host_layers(&self, state: &mut Self::State, tracer: &Tracer, first: &Rep) -> Sheet;

    /// Layer metrics derived from the device work of one traced
    /// repetition beyond [`device_sheet`] (e.g. launches per iteration).
    fn device_layers(&self, work: &DeviceWork, first: &Rep) -> Sheet;
}

/// Everything one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced timing) plus the modeled metrics.
    pub sheet: Sheet,
    /// Per-layer metrics; only filled by a traced run.
    pub layers: Sheet,
    /// Failure messages, for stderr.
    pub messages: Vec<String>,
    /// Chrome trace events of the traced run (host + device lanes).
    pub trace_events: Option<String>,
}

pub fn run<W: Workload>(w: &W, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let tracer = Tracer::new(traced, seed);
    let mut messages = Vec::new();

    // 1. set-up, several times; keep the last state (dropping the
    //    previous one first, so peak memory holds one state).
    let mut setup_times: Vec<f64> = Vec::new();
    let mut state = None;
    while setup_times.len() < SETUP_REPS
        || (setup_times.iter().sum::<f64>() < SETUP_MIN_S && setup_times.len() < SETUP_MAX_REPS)
    {
        drop(state.take());
        let (t, s) = wall(|| tracer.span("setup", || w.setup(seed, &tracer)));
        setup_times.push(t);
        state = Some(s);
    }
    let mut state = state.expect("at least one set-up");

    // 2. the timed phase, untraced. A traced run spends half its budget
    //    here (the overhead baseline) and half on traced repetitions.
    let budget = if traced { seconds / 2.0 } else { seconds };
    let quiet = Tracer::new(false, seed);
    let (times, reps) = repeat_for(
        budget,
        MIN_REPS,
        &mut state,
        |st| w.prepare(st),
        |st| w.rep(st, &quiet),
    );
    let first = &reps[0];
    let mut mismatched = 0u64;
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.modeled.modeled_bits() != first.modeled.modeled_bits() {
            mismatched += 1;
            messages.push(format!(
                "repetition {i}: modeled metrics differ from repetition 0"
            ));
        }
    }
    let host_s = median(&times);
    eprintln!(
        "timed phase: {} repetitions, wall min {:.4} s, median {host_s:.4} s, max {:.4} s",
        times.len(),
        times.iter().copied().fold(f64::INFINITY, f64::min),
        times.iter().copied().fold(0.0, f64::max),
    );

    // 3. correctness gates, once, on the state the last repetition left
    //    (its modeled fingerprint equals the first's, checked above).
    let failed_checks = w.check(&mut state, reps.last().expect("at least one repetition"));
    let failed_check_count = failed_checks.len() as u64;
    messages.extend(failed_checks);

    let mut sheet = Sheet::default();
    sheet.host("setup_s", median(&setup_times), "s");
    sheet.host("host_s", host_s, "s");
    sheet.extend(first.modeled.clone());

    // 4. traced repetitions: host spans around every layer call, a
    //    ledger on every device.
    let mut layers = Sheet::default();
    let mut trace_events = None;
    if traced {
        let ledger = w.enable_tracing(&mut state);
        let mut work = None;
        let (ttimes, treps) = repeat_for(
            budget,
            MIN_REPS,
            &mut state,
            |st| {
                w.prepare(st);
                ledger.clear();
            },
            |st| {
                let rep = tracer.span("rep", || w.rep(st, &tracer));
                work = Some(DeviceWork {
                    spans: ledger.spans(),
                    total: ledger.total(),
                });
                rep
            },
        );
        for (i, r) in treps.iter().enumerate() {
            if r.modeled.modeled_bits() != first.modeled.modeled_bits() {
                mismatched += 1;
                messages.push(format!(
                    "traced repetition {i}: modeled metrics differ from the untraced run"
                ));
            }
        }
        if let Err(e) = ledger.reconcile() {
            mismatched += 1;
            messages.push(format!("trace ledger failed reconciliation: {e}"));
        }
        let work = work.expect("at least one traced repetition");
        let traced_s = median(&ttimes);
        layers.extend(device_sheet(&work, traced_s));
        layers.extend(w.device_layers(&work, first));
        layers.extend(w.host_layers(&mut state, &tracer, first));
        layers.host("trace.overhead_frac", traced_s / host_s - 1.0, "ratio");
        layers.host(
            "trace.coverage",
            tracer.min_coverage("rep").unwrap_or(0.0),
            "ratio",
        );
        let (device_events, devices) = ledger.chrome_trace_events();
        let mut events = tracer.chrome_events(devices);
        if !device_events.is_empty() {
            events.push_str(",\n");
            events.push_str(&device_events);
        }
        trace_events = Some(events);
    }

    let attempted = first.ops.max(1);
    let failed = (first.failed_ops + failed_check_count + mismatched).min(attempted);
    sheet.outcome("ok_frac", 1.0 - failed as f64 / attempted as f64, "ratio");
    sheet.outcome("failed_frac", failed as f64 / attempted as f64, "ratio");
    sheet.host("peak_rss_mb", peak_rss_mb(), "MB");
    Outcome {
        attempted,
        failed,
        sheet,
        layers,
        messages,
        trace_events,
    }
}
