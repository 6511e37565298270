//! Measurement plumbing shared by the workloads: summary statistics, the
//! correctness tally, peak RSS, wall and CPU stopwatches, and the in-memory
//! span recorder of the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around its calls
//! into each layer's public functions. Each span carries its layer, a
//! stage name, its parent span and a unit count (frames, records, stubs…),
//! so a layer's self time is its spans' time minus the time of the child
//! spans nested inside them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for an empty slice).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = at.floor() as usize;
    let hi = at.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Geometric mean of positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds the process has used so far: every thread, live or exited,
/// in user and kernel mode.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and process-CPU time of one timed call.
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        Stopwatch {
            cpu_s: cpu_s(),
            wall: Instant::now(),
        }
    }

    /// `(wall seconds, CPU seconds)` since [`Stopwatch::start`].
    pub fn stop(&self) -> (f64, f64) {
        let wall = secs_since(self.wall);
        (wall, cpu_s() - self.cpu_s)
    }
}

/// Correctness tally. A check is one compared output; an operation is one
/// timed call into a path, and it fails when any of its checks fails.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks compared.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// Timed operations whose outputs were checked.
    pub ops: u64,
    /// Operations with at least one failed check.
    pub ops_failed: u64,
    failures: Vec<String>,
    op_failed: bool,
}

impl Checks {
    /// Records one check; `what` describes it for the failure log.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.op_failed = true;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Closes the current operation: it failed if any check since the
    /// previous call failed.
    pub fn end_op(&mut self) {
        self.ops += 1;
        if self.op_failed {
            self.ops_failed += 1;
        }
        self.op_failed = false;
    }

    /// Checks passed / checks attempted.
    pub fn success_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// The first few failed checks, for the log.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer (crate) whose public function the span wraps.
    pub layer: &'static str,
    /// The stage within the layer.
    pub stage: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Units of work the span covered (frames, records, stubs…).
    pub units: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns span recording on or off for the calling thread.
pub fn set_tracing(on: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = on);
}

/// An open span; close it with [`Open::exit`].
#[must_use = "a span must be closed with exit()"]
pub struct Open(Option<usize>);

/// Opens a span (a no-op returning an inert handle while tracing is off).
pub fn enter(layer: &'static str, stage: &'static str) -> Open {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return Open(None);
        }
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let id = r.spans.len();
        let parent = r.open.last().copied();
        r.spans.push(Span {
            layer,
            stage,
            start_ns,
            end_ns: start_ns,
            parent,
            units: 0,
        });
        r.open.push(id);
        Open(Some(id))
    })
}

impl Open {
    /// Closes the span, crediting it with `units` units of work.
    pub fn exit(self, units: u64) {
        let Some(id) = self.0 else { return };
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end_ns = r.epoch.elapsed().as_nanos() as u64;
            let popped = r.open.pop();
            debug_assert_eq!(popped, Some(id), "spans close innermost first");
            let span = &mut r.spans[id];
            span.end_ns = end_ns;
            span.units = units;
        });
    }
}

/// Runs `f` inside a span credited with `units`.
pub fn span<T>(layer: &'static str, stage: &'static str, units: u64, f: impl FnOnce() -> T) -> T {
    let open = enter(layer, stage);
    let out = f();
    open.exit(units);
    out
}

/// Takes every span recorded on the calling thread so far.
pub fn take_spans() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        debug_assert!(r.open.is_empty(), "all spans closed before the drain");
        std::mem::take(&mut r.spans)
    })
}

/// Aggregates of every span sharing one `(layer, stage)`.
#[derive(Debug, Clone, Default)]
pub struct StageTotals {
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children), ns.
    pub self_ns: u64,
    /// Summed units.
    pub units: u64,
    /// Each span's duration, ns.
    pub durations: Vec<f64>,
}

impl StageTotals {
    /// Span time per unit in nanoseconds (0 with no units).
    pub fn ns_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.units as f64
        }
    }

    /// Self time per unit in nanoseconds (0 with no units).
    pub fn self_ns_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.units as f64
        }
    }
}

/// Per-`(layer, stage)` totals, with self time computed from the span tree.
pub fn stage_totals(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), StageTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut totals: BTreeMap<(&'static str, &'static str), StageTotals> = BTreeMap::new();
    for (span, children) in spans.iter().zip(&child_ns) {
        let entry = totals.entry((span.layer, span.stage)).or_default();
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns().saturating_sub(*children);
        entry.units += span.units;
        entry.durations.push(span.duration_ns() as f64);
    }
    totals
}

/// The layers self time is reported for, in report order.
pub const LAYERS: [&str; 7] = [
    "net",
    "fingerprint",
    "traffic",
    "router",
    "core",
    "serve",
    "sim",
];

/// Self time per layer, ns.
pub fn layer_self_ns(
    totals: &BTreeMap<(&'static str, &'static str), StageTotals>,
) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
    for ((layer, _), stage) in totals {
        *out.entry(layer).or_default() += stage.self_ns;
    }
    out
}
