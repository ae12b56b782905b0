//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test [--seed <n>] [--seconds <s>]
//! ```
//!
//! A run generates its inputs from the seed, sets up several times, then
//! repeats the workload's timed phase for the given number of seconds,
//! checks the outputs, and prints one JSON line: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). A human-readable
//! table of every metric, with the clock it was read from, goes to
//! stderr. See `perfbench/README.md` for the metric definitions.

mod churn;
mod fleet;
mod harness;
mod layers;
mod pagerank;
mod run;
mod serve;

use harness::Sheet;
use run::{run, Outcome, Workload};
use std::process::ExitCode;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("host_s", "s"),
    ("peak_rss_mb", "MB"),
    ("modeled_ms", "ms"),
    ("ok_frac", "ratio"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
/// A layer that does no work on a workload reports 0.
const PER_LAYER: [(&str, &str); 53] = [
    ("failed_frac", "ratio"),
    ("p50_ms_light", "ms"),
    ("p99_ms_light", "ms"),
    ("p50_ms_heavy", "ms"),
    ("p99_ms_heavy", "ms"),
    ("attainment_heavy", "ratio"),
    ("saturation_qps", "q/s"),
    ("updates_per_modeled_s", "updates/s"),
    ("graphgen.host_s", "s"),
    ("pipeline.plan_host_s", "s"),
    ("pipeline.preprocess_ms", "ms"),
    ("pipeline.upload_ms", "ms"),
    ("core.spmv_ms", "ms"),
    ("core.bins_ms", "ms"),
    ("core.long_tail_ms", "ms"),
    ("core.zero_scatter_ms", "ms"),
    ("core.spmv_gflops", "GFLOP/s"),
    ("core.spmv_host_s", "s"),
    ("gpu_sim.launches", "count"),
    ("gpu_sim.transfer_ms", "ms"),
    ("gpu_sim.warp_efficiency", "ratio"),
    ("gpu_sim.coalescing_eff", "ratio"),
    ("gpu_sim.dram_bytes", "bytes"),
    ("gpu_sim.tex_hit_rate", "ratio"),
    ("gpu_sim.atomic_conflicts", "count"),
    ("gpu_sim.warp_instructions", "count"),
    ("gpu_sim.host_ns_per_warp_instr", "ns"),
    ("apps.iterations", "count"),
    ("apps.launches_per_iter", "count"),
    ("apps.update_norm_ms", "ms"),
    ("apps.solve_host_s", "s"),
    ("serve.waves", "count"),
    ("serve.mean_wave_width", "queries"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.device_busy_frac", "ratio"),
    ("serve.capacity_shed", "count"),
    ("serve.deadline_shed", "count"),
    ("serve.host_ms_per_wave", "ms"),
    ("stream.maintain_ms", "ms"),
    ("stream.copy_ms", "ms"),
    ("stream.read_ms", "ms"),
    ("stream.in_place_frac", "ratio"),
    ("stream.migrated_rows", "count"),
    ("stream.apply_host_s", "s"),
    ("stream.read_host_s", "s"),
    ("multigpu.partition_host_s", "s"),
    ("multigpu.halo_bytes", "bytes"),
    ("multigpu.exchange_tail_ms", "ms"),
    ("multigpu.shard_imbalance", "ratio"),
    ("multigpu.replicated_rows", "count"),
    ("multigpu.spmv_host_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
];

const WORKLOADS: [&str; 4] = ["pagerank_suite", "serve_rwr", "churn_rw", "fleet_spmv"];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.self_test {
        match &args.workload {
            None => return Err("--workload is required".into()),
            Some(w) if !WORKLOADS.contains(&w.as_str()) => {
                return Err(format!("unknown workload {w} (one of {WORKLOADS:?})"))
            }
            Some(_) => {}
        }
    }
    Ok(args)
}

fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    fn go<W: Workload>(w: W, seed: u64, seconds: f64, trace: bool) -> Outcome {
        run(&w, seed, seconds, trace)
    }
    match name {
        "pagerank_suite" => go(pagerank::PagerankSuite, seed, seconds, trace),
        "serve_rwr" => go(serve::ServeRwr, seed, seconds, trace),
        "churn_rw" => go(churn::ChurnRw, seed, seconds, trace),
        "fleet_spmv" => go(fleet::FleetSpmv, seed, seconds, trace),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// The metrics named in `wanted`, taken from `sheets`; a metric no sheet
/// holds is a layer that did no work on this workload and reads 0.
fn select(
    wanted: &[(&'static str, &'static str)],
    sheets: &[&Sheet],
) -> Vec<(&'static str, f64, &'static str)> {
    wanted
        .iter()
        .map(|&(name, unit)| {
            let found = sheets
                .iter()
                .find_map(|s| s.0.iter().find(|m| m.name == name));
            if let Some(m) = found {
                assert_eq!(m.unit, unit, "metric {name} reported in the wrong unit");
            }
            (name, found.map_or(0.0, |m| m.value), unit)
        })
        .collect()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn print_table(workload: &str, out: &Outcome) {
    eprintln!(
        "{workload}: attempted {} failed {}",
        out.attempted, out.failed
    );
    for sheet in [&out.sheet, &out.layers] {
        for m in &sheet.0 {
            eprintln!(
                "  {:<34} {:>22} {:<10} [{}]",
                m.name,
                json_number(m.value),
                m.unit,
                m.clock.label()
            );
        }
    }
    for msg in &out.messages {
        eprintln!("  FAILED: {msg}");
    }
}

fn write_trace(workload: &str, seed: u64, events: &str) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace_{workload}_seed{seed}.json"));
    let mut body = String::from("{\"traceEvents\":[\n");
    body.push_str(events);
    body.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    std::fs::write(&path, body)?;
    Ok(path.display().to_string())
}

/// Run every workload twice at the default simulator width and once at
/// width 1, traced, so the ledger-derived layer metrics are compared too;
/// every modeled metric must be bit-identical across the three runs.
fn self_test(seed: u64, seconds: f64) -> bool {
    let mut ok = true;
    for w in WORKLOADS {
        let a = run_workload(w, seed, seconds, true);
        let b = run_workload(w, seed, seconds, true);
        harness::set_width(1);
        let c = run_workload(w, seed, seconds, true);
        harness::set_width(0);
        let bits = |o: &Outcome| {
            let mut v = o.sheet.modeled_bits();
            v.extend(o.layers.modeled_bits());
            v
        };
        let same = bits(&a) == bits(&b) && bits(&a) == bits(&c);
        let clean = [&a, &b, &c].iter().all(|o| o.failed == 0);
        eprintln!(
            "self-test {w}: {} modeled metrics {}, failures {}",
            bits(&a).len(),
            if same { "bit-identical" } else { "DIFFER" },
            if clean { "none" } else { "PRESENT" }
        );
        for (name, run) in [("a", &a), ("b", &b), ("width1", &c)] {
            eprintln!(
                "  run {name:<6} host_s {:.4} setup_s {:.4}",
                run.sheet.get("host_s").unwrap_or(f64::NAN),
                run.sheet.get("setup_s").unwrap_or(f64::NAN)
            );
        }
        for (other, label) in [(&b, "second run"), (&c, "width 1")] {
            for ((n, x), (_, y)) in bits(&a).iter().zip(bits(other)) {
                if *x != y {
                    eprintln!(
                        "  {n}: {} vs {label} {}",
                        f64::from_bits(*x),
                        f64::from_bits(y)
                    );
                }
            }
        }
        ok &= same && clean;
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: simulator width {}, host cores {}",
        gpu_sim::sim_threads(),
        gpu_sim::host_cores()
    );
    if args.self_test {
        let ok = self_test(args.seed, args.seconds);
        println!(
            "{{\"self_test\": {}}}",
            if ok { "\"pass\"" } else { "\"fail\"" }
        );
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let workload = args.workload.expect("validated by parse_args");
    let out = run_workload(&workload, args.seed, args.seconds, args.trace);
    print_table(&workload, &out);
    if let Some(events) = &out.trace_events {
        match write_trace(&workload, args.seed, events) {
            Ok(path) => eprintln!("  trace written to {path}"),
            Err(e) => {
                eprintln!("perfbench: writing the trace failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let chosen = if args.trace {
        select(&PER_LAYER, &[&out.layers, &out.sheet])
    } else {
        select(&END_TO_END, &[&out.sheet])
    };
    let metrics: Vec<String> = chosen
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
