//! Shared machinery: the metric sheet, host-span recording, the timing
//! loops and the process-level probes (peak RSS).
//!
//! Every number the benchmark prints is a [`Metric`] tagged with the
//! clock it was read from. Modeled numbers come from the simulator's
//! virtual clock and must repeat bit for bit; host numbers are wall time
//! from [`Instant`] and are only ever reported as medians.

use sparse_formats::{CsrMatrix, TripletMatrix};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The clock a metric was read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// The simulator's virtual clock (or a count derived from modeled
    /// events). Bit-identical across runs, repetitions and
    /// `ACSR_SIM_THREADS` widths.
    Modeled,
    /// Host wall time, or a host-side measurement such as RSS.
    Host,
    /// Neither: an outcome count or ratio (correctness, failures).
    Outcome,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Modeled => "modeled",
            Clock::Host => "host",
            Clock::Outcome => "outcome",
        }
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

/// An ordered metric sheet.
#[derive(Clone, Debug, Default)]
pub struct Sheet(pub Vec<Metric>);

impl Sheet {
    pub fn modeled(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.push(name, value, unit, Clock::Modeled);
    }

    pub fn host(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.push(name, value, unit, Clock::Host);
    }

    pub fn outcome(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.push(name, value, unit, Clock::Outcome);
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, clock: Clock) {
        assert!(
            !self.0.iter().any(|m| m.name == name),
            "metric {name} reported twice"
        );
        self.0.push(Metric {
            name,
            value,
            unit,
            clock,
        });
    }

    pub fn extend(&mut self, other: Sheet) {
        for m in other.0 {
            self.push(m.name, m.value, m.unit, m.clock);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The modeled metrics as `(name, value bits)`, the fingerprint the
    /// repetition and width checks compare.
    pub fn modeled_bits(&self) -> Vec<(&'static str, u64)> {
        self.0
            .iter()
            .filter(|m| m.clock == Clock::Modeled)
            .map(|m| (m.name, m.value.to_bits()))
            .collect()
    }
}

/// One host span: a benchmark-side call into a layer.
#[derive(Clone, Debug)]
pub struct HostSpan {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl HostSpan {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory host-span recorder. When disabled, [`Tracer::span`] is a
/// plain call: untraced runs pay one branch per layer call.
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    t0: Instant,
    spans: RefCell<Vec<HostSpan>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Tracer {
        Tracer {
            enabled,
            run_id,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            let now = self.now_ns();
            spans.push(HostSpan {
                name: name.to_string(),
                start_ns: now,
                end_ns: now,
                parent,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Summed duration of every span called `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }

    /// Summed duration of the spans called `name` per span called `of`
    /// (e.g. per set-up or per repetition), seconds.
    pub fn per(&self, name: &str, of: &str) -> f64 {
        let n = self.spans.borrow().iter().filter(|s| s.name == of).count();
        self.total_s(name) / n.max(1) as f64
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children nest and never overlap: the benchmark is
    /// single-threaded).
    pub fn self_ns(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut child = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// For every span called `phase`: the share of its wall time covered
    /// by the self times of its descendants (the layer spans). Returns
    /// the smallest share, or `None` when no such span was recorded.
    pub fn min_coverage(&self, phase: &str) -> Option<f64> {
        let spans = self.spans.borrow();
        let self_ns = self.self_ns();
        let mut worst: Option<f64> = None;
        for (i, s) in spans.iter().enumerate() {
            if s.name != phase || s.dur_ns() == 0 {
                continue;
            }
            let covered: u64 = (0..spans.len())
                .filter(|&j| j != i && descends_from(&spans, j, i))
                .map(|j| self_ns[j])
                .sum();
            let share = covered as f64 / s.dur_ns() as f64;
            worst = Some(worst.map_or(share, |w: f64| w.min(share)));
        }
        worst
    }

    /// The host spans as chrome trace events on process `pid`, each with
    /// its parent index, self time and the run id.
    pub fn chrome_events(&self, pid: usize) -> String {
        let spans = self.spans.borrow();
        let self_ns = self.self_ns();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"host (benchmark spans)\"}}}}"
        );
        for (i, s) in spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":{:?},\"dur\":{:?},\
                 \"pid\":{pid},\"tid\":0,\"args\":{{\"span_id\":{i},\"run_id\":{},\"self_us\":{:?}",
                s.name,
                s.start_ns as f64 * 1e-3,
                s.dur_ns() as f64 * 1e-3,
                self.run_id,
                self_ns[i] as f64 * 1e-3,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            out.push_str("}}");
        }
        out
    }
}

fn descends_from(spans: &[HostSpan], mut j: usize, ancestor: usize) -> bool {
    while let Some(p) = spans[j].parent {
        if p == ancestor {
            return true;
        }
        j = p;
    }
    false
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Euclidean distance between two vectors of equal length.
pub fn l2_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Wall seconds of one call of `f`, with its result.
pub fn wall<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Repeat `rep` on `state` until `budget_s` of wall time has gone by,
/// running it at least `min_reps` times; `prep` runs untimed before each
/// repetition. Returns the wall seconds of each repetition and every
/// result.
pub fn repeat_for<S, R>(
    budget_s: f64,
    min_reps: usize,
    state: &mut S,
    mut prep: impl FnMut(&mut S),
    mut rep: impl FnMut(&mut S) -> R,
) -> (Vec<f64>, Vec<R>) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut outs = Vec::new();
    while outs.len() < min_reps || start.elapsed().as_secs_f64() < budget_s {
        prep(state);
        let (t, out) = wall(|| rep(state));
        times.push(t);
        outs.push(out);
    }
    (times, outs)
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// splitmix64: derives independent per-purpose seeds from the workload
/// seed, so each generator sees its own stream.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of every generated graph. Graph structure is fixed; the run
/// seed relabels vertices and drives the workload's streams, so the
/// modeled cost of a run varies with the seed only through memory
/// layout and stream content, not through a different degree sequence.
pub const GRAPH_SEED: u64 = 2014;

/// Relabel the vertices of square `m` by a permutation drawn from `seed`:
/// the same graph up to isomorphism, laid out differently in memory.
pub fn relabel(m: &CsrMatrix<f64>, seed: u64) -> CsrMatrix<f64> {
    assert_eq!(m.rows(), m.cols(), "relabeling needs a square matrix");
    let n = m.rows();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (derive_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    let mut t = TripletMatrix::with_capacity(n, n, m.nnz());
    for (r, c, v) in m.iter() {
        t.push_unchecked(perm[r], perm[c], v);
    }
    t.to_csr()
}

/// The simulator-width override this process set (0: none).
static WIDTH: AtomicUsize = AtomicUsize::new(0);

/// Set the simulator's host worker width for the rest of the process
/// (`0` returns to `ACSR_SIM_THREADS` / the machine default).
pub fn set_width(n: usize) {
    WIDTH.store(n, Ordering::SeqCst);
    gpu_sim::set_sim_threads(n);
}

/// Run `f` at simulator width 1, then restore the width in force.
///
/// Values accumulated with f64 atomics are only defined up to summation
/// order when a launch fans out over several host workers (the same
/// caveat CUDA gives); modeled times and counters are width-independent.
/// Gates that compare values bit for bit therefore run at width 1.
pub fn at_width_one<R>(f: impl FnOnce() -> R) -> R {
    gpu_sim::set_sim_threads(1);
    let out = f();
    gpu_sim::set_sim_threads(WIDTH.load(Ordering::SeqCst));
    out
}
