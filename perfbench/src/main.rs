//! End-to-end benchmark of SYN-dog's user-facing paths.
//!
//! ```text
//! perfbench --workload wire|daemon|campaign --seed N --seconds S --trace 0|1
//!           [--tiny] [--expect-alarm-shift K]
//! ```
//!
//! One process runs one workload. Set-up generates every input from the
//! seed; then one generating thread drives the workload's paths in a
//! closed loop for `--seconds`, checking every output against a reference.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` splits the time
//! between an untraced half and a traced half and reports the per-layer
//! metrics. Every metric is printed as a `metric` line with its unit; the
//! last line is one JSON object. `--tiny` shrinks every input for the smoke
//! test; `--expect-alarm-shift` deliberately corrupts the expected alarm
//! period so the smoke test can watch the correctness gate fail.
//! See `README.md` beside this file.

mod campaign;
mod daemon;
mod measure;
mod wire;

use std::collections::BTreeMap;
use std::process::ExitCode;

use measure::Checks;

/// Gated end-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_share", "share"),
    ("cpu_ns_per_unit", "ns"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer
/// metric reads 0 on a workload that does not load that layer.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("net.pcap_read_ns_per_frame", "ns"),
    ("net.classify_ns_per_frame", "ns"),
    ("net.classify_batch_ns_per_frame", "ns"),
    ("net.malformed_frames", "count"),
    ("fingerprint.extract_ns_per_syn", "ns"),
    ("traffic.read_pcap_ns_per_frame", "ns"),
    ("traffic.generate_counts_us_per_stub", "us"),
    ("router.source_ns_per_frame", "ns"),
    ("router.ingest_ns_per_frame", "ns"),
    ("router.filter_ns_per_record", "ns"),
    ("router.close_us_per_period", "us"),
    ("router.mitigate.shed_share", "share"),
    ("router.mitigate.collateral_syns", "count"),
    ("router.concurrent.submit_ns_per_frame", "ns"),
    ("router.concurrent.flush_us_per_period", "us"),
    ("router.concurrent.pool_miss_share", "share"),
    ("router.concurrent.dropped_frames", "count"),
    ("router.checkpoint_us_per_stub", "us"),
    ("router.checkpoint_bytes_per_stub", "bytes"),
    ("router.fold_ms", "ms"),
    ("router.correlate_ms", "ms"),
    ("core.observe_ns_per_period", "ns"),
    ("serve.supply_us_per_stub_period", "us"),
    ("serve.rotate_ms", "ms"),
    ("serve.status_us", "us"),
    ("serve.missed_periods", "count"),
    ("sim.par.speedup_2v1", "ratio"),
    ("trace.overhead_share", "share"),
    ("trace.stage_sum_share", "share"),
    ("net.self_share", "share"),
    ("fingerprint.self_share", "share"),
    ("traffic.self_share", "share"),
    ("router.self_share", "share"),
    ("core.self_share", "share"),
    ("serve.self_share", "share"),
    ("sim.self_share", "share"),
];

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count, base of a ratio, or other context for the log line.
    pub note: String,
}

impl Metric {
    /// A metric with an explanatory note.
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Self {
        Metric {
            name,
            value,
            unit,
            note: note.into(),
        }
    }
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall seconds of each repeated set-up.
    pub setup_s: Vec<f64>,
    /// The gated cost: geometric mean over the workload's paths of each
    /// path's median process CPU time per unit of input, ns.
    pub cpu_ns_per_unit: f64,
    /// What one unit is, for the log line.
    pub unit: &'static str,
    /// The workload's own end-to-end path metrics.
    pub paths: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// The correctness tally.
    pub checks: Checks,
}

/// Input sizes: the benchmark's own, or the smoke test's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's workloads.
    Full,
    /// Small inputs for the smoke test.
    Tiny,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Added to every expected alarm period (0 = the true reference).
    pub alarm_shift: i64,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        alarm_shift: 0,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => args.size = Size::Tiny,
            "--expect-alarm-shift" => {
                args.alarm_shift = value()?
                    .parse()
                    .map_err(|e| format!("--expect-alarm-shift: {e}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The CPU model from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a repository.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(commit) = read(&format!(".git/{reference}")) {
        return commit.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (commit, name) = line.split_once(' ')?;
                (name == reference).then(|| commit.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The traced run's summary metrics: how much of the traced wall time the
/// recorded stages cover, what tracing cost against the untraced run, and
/// each layer's self time as a share of the traced wall time.
pub fn trace_summary(
    spans: &[measure::Span],
    traced_wall_ns: f64,
    traced_path_s: f64,
    untraced_path_s: f64,
) -> Vec<Metric> {
    let totals = measure::stage_totals(spans);
    let self_ns = measure::layer_self_ns(&totals);
    let stage_sum: u64 = self_ns.values().sum();
    let mut out = vec![
        Metric::new(
            "trace.overhead_share",
            traced_path_s / untraced_path_s - 1.0,
            "share",
            format!(
                "traced {traced_path_s:.6} s vs untraced {untraced_path_s:.6} s per round of path calls"
            ),
        ),
        Metric::new(
            "trace.stage_sum_share",
            stage_sum as f64 / traced_wall_ns,
            "share",
            format!(
                "{} spans; stage self times over {:.3} s traced wall time",
                spans.len(),
                traced_wall_ns / 1e9
            ),
        ),
    ];
    for (layer, name) in measure::LAYERS.iter().zip([
        "net.self_share",
        "fingerprint.self_share",
        "traffic.self_share",
        "router.self_share",
        "core.self_share",
        "serve.self_share",
        "sim.self_share",
    ]) {
        out.push(Metric::new(
            name,
            self_ns[layer] as f64 / traced_wall_ns,
            "share",
            "of traced wall time",
        ));
    }
    out
}

fn print_metric(metric: &Metric) {
    let note = if metric.note.is_empty() {
        String::new()
    } else {
        format!("  ({})", metric.note)
    };
    println!(
        "metric {} = {} {}{note}",
        metric.name, metric.value, metric.unit
    );
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "wire" => wire::run(args),
        "daemon" => daemon::run(args),
        "campaign" => campaign::run(args),
        other => Err(format!(
            "unknown workload `{other}` (wire, daemon, campaign)"
        )),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "host cpu=\"{}\" nproc={} commit={} workload={} seed={} trace={} size={:?}",
        cpu_model(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_commit(),
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.size,
    );
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for failure in outcome.checks.failures() {
        println!("check FAILED: {failure}");
    }
    let common = [
        Metric::new(
            "setup_s",
            measure::median(&outcome.setup_s),
            "s",
            format!("median of {} set-ups", outcome.setup_s.len()),
        ),
        Metric::new("peak_rss_mib", measure::peak_rss_mib(), "MiB", "VmHWM"),
        Metric::new(
            "success_share",
            outcome.checks.success_share(),
            "share",
            format!(
                "{} of {} checks passed",
                outcome.checks.attempted - outcome.checks.failed,
                outcome.checks.attempted
            ),
        ),
        Metric::new(
            "cpu_ns_per_unit",
            outcome.cpu_ns_per_unit,
            "ns",
            format!(
                "CPU per {}, geometric mean of the paths' median calls",
                outcome.unit
            ),
        ),
    ];
    for metric in common.iter().chain(&outcome.paths) {
        print_metric(metric);
    }
    let reported: Vec<Metric> = if args.trace {
        let by_name: BTreeMap<&str, &Metric> = outcome.layers.iter().map(|m| (m.name, m)).collect();
        for metric in &outcome.layers {
            assert!(
                PER_LAYER.iter().any(|(name, _)| *name == metric.name),
                "{} is not a declared per-layer metric",
                metric.name
            );
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| match by_name.get(name) {
                Some(metric) => {
                    assert_eq!(metric.unit, unit, "unit of {name}");
                    (*metric).clone()
                }
                None => Metric::new(name, 0.0, unit, "layer not loaded by this workload"),
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let metric = common
                    .iter()
                    .find(|m| m.name == name)
                    .expect("every end-to-end metric is computed");
                assert_eq!(metric.unit, unit, "unit of {name}");
                metric.clone()
            })
            .collect()
    };
    if args.trace {
        for metric in &reported {
            print_metric(metric);
        }
    }
    let checks = &outcome.checks;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.ops.max(1),
        checks.ops_failed,
        json_metrics(&reported)
    );
    ExitCode::SUCCESS
}
