//! `daemon`: `ServeDaemon::step_period` in a closed loop over 16 stubs.
//!
//! Set-up generates one 3-minute capture per stub — Auckland and
//! LBL profiles alternating, each re-homed into its own `128.i.0.0/16` —
//! which `LoopingTraceSupply` replays endlessly. Four stubs carry a
//! staggered fingerprinted `FloodOverlay`. Mitigation is armed with
//! fingerprint keys, status is published every step, and a checkpoint
//! generation rotates every 15 periods (keep 4) into a directory inside
//! the working directory.
//!
//! One daemon lifetime is a fixed number of periods; lifetimes repeat until
//! the measuring time is spent. Each lifetime is checked: no missed
//! periods, every flooded stub alarms inside its flood window, and
//! `CheckpointRotation::latest_valid` reads back a full generation cut at
//! the last rotation boundary.

use std::path::{Path, PathBuf};
use std::time::Instant;

use syndog::{DetectorKind, PeriodSignals, SynDogConfig};
use syndog_net::Ipv4Net;
use syndog_router::{derive_seed, KeyMode, MitigationPolicy, SynDogAgent};
use syndog_serve::{
    CheckpointRotation, FloodOverlay, LoopingTraceSupply, RecordSupply, ServeConfig, ServeDaemon,
    ServeSpec, StubSpec,
};
use syndog_sim::{SimDuration, SimRng, SimTime};
use syndog_traffic::{SiteProfile, Trace, TraceRecord};

use crate::measure::{self, Checks, Stopwatch};
use crate::{Args, Metric, Outcome, Size};

/// Hosted stubs.
const STUBS: usize = 16;
/// Flood rate of each flooded stub, SYN/s.
const FLOOD_RATE: f64 = 20.0;
/// Periods between checkpoint rotations, and generations kept.
const INTERVAL: u64 = 15;
const KEEP: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 31;

/// The sizes of one configuration.
struct Shape {
    capture: SimDuration,
    periods: u64,
    flood_periods: u64,
    /// `(stub, first flood period)` of each flooded stub.
    floods: [(usize, u64); 4],
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            capture: SimDuration::from_secs(3 * 60),
            periods: 1_000,
            flood_periods: 30,
            floods: [(0, 100), (5, 320), (10, 540), (15, 760)],
        },
        Size::Tiny => Shape {
            capture: SimDuration::from_secs(3 * 60),
            periods: 120,
            flood_periods: 10,
            floods: [(0, 20), (5, 45), (10, 70), (15, 95)],
        },
    }
}

fn victim() -> std::net::SocketAddrV4 {
    "199.0.0.80:80".parse().expect("static address")
}

fn period() -> SimDuration {
    SimDuration::from_secs(20)
}

/// Every stub's prefix and capture.
struct Input {
    stubs: Vec<(Ipv4Net, Trace)>,
    records: usize,
}

fn setup(seed: u64, shape: &Shape) -> Input {
    let stubs: Vec<(Ipv4Net, Trace)> = (0..STUBS)
        .map(|i| {
            let index = i as u8 + 1;
            let prefix = Ipv4Net::new(std::net::Ipv4Addr::new(128, index, 0, 0), 16);
            let site = if i % 2 == 0 {
                SiteProfile::auckland()
            } else {
                SiteProfile::lbl()
            }
            .with_duration(shape.capture)
            .rehomed(prefix, u16::from(index));
            let mut rng = SimRng::seed_from_u64(derive_seed(seed, i as u64));
            (prefix, site.generate_trace(&mut rng))
        })
        .collect();
    let records = stubs.iter().map(|(_, t)| t.len()).sum();
    Input { stubs, records }
}

/// A `RecordSupply` wrapper that records each window as a `serve.supply`
/// span.
struct TimedSupply(Box<dyn RecordSupply>);

impl RecordSupply for TimedSupply {
    fn next_window(&mut self, index: u64, window: SimDuration) -> Vec<TraceRecord> {
        let open = measure::enter("serve", "supply");
        let records = self.0.next_window(index, window);
        open.exit(1);
        records
    }

    fn describe(&self) -> String {
        self.0.describe()
    }
}

/// Stub `i`'s supply: its looping capture, with its flood if it has one.
fn supply(input: &Input, shape: &Shape, seed: u64, i: usize) -> Box<dyn RecordSupply> {
    let base: Box<dyn RecordSupply> = Box::new(LoopingTraceSupply::new(input.stubs[i].1.clone()));
    match shape.floods.iter().find(|(stub, _)| *stub == i) {
        Some(&(_, start)) => Box::new(FloodOverlay::new(
            base,
            FLOOD_RATE,
            SimTime::ZERO + period() * start,
            period() * shape.flood_periods,
            victim(),
            derive_seed(seed, 1_000 + i as u64),
        )),
        None => base,
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        detector: DetectorKind::Syndog,
        threshold: SynDogConfig::paper_default().threshold,
        mitigation: true,
        throttle_key: KeyMode::Fingerprint,
    }
}

fn new_daemon(
    input: &Input,
    shape: &Shape,
    seed: u64,
    dir: &Path,
    traced: bool,
) -> Result<ServeDaemon, String> {
    let spec = ServeSpec {
        period: period(),
        config: serve_config(),
        config_path: None,
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_interval: INTERVAL,
        checkpoint_keep: KEEP,
        history_keep: 256,
    };
    let stubs = (0..STUBS)
        .map(|i| {
            let inner = supply(input, shape, seed, i);
            StubSpec {
                stub: input.stubs[i].0,
                supply: if traced {
                    Box::new(TimedSupply(inner))
                } else {
                    inner
                },
            }
        })
        .collect();
    ServeDaemon::new(spec, stubs).map_err(|e| format!("serve: {e}"))
}

/// A benchmark-held agent shadowing stub 0 period by period, so the
/// traced run can time the record-path stages from outside the daemon.
struct Replica {
    agent: SynDogAgent,
    supply: Box<dyn RecordSupply>,
    checkpoint_bytes: Vec<f64>,
}

impl Replica {
    fn new(input: &Input, shape: &Shape, seed: u64) -> Self {
        let mut agent = SynDogAgent::new(input.stubs[0].0, SynDogConfig::paper_default());
        agent.set_mitigation(MitigationPolicy::paper_default().with_key_mode(KeyMode::Fingerprint));
        Replica {
            agent,
            supply: Box::new(TimedSupply(supply(input, shape, seed, 0))),
            checkpoint_bytes: Vec::new(),
        }
    }

    /// Window `index`: the same phases `step_period` runs for one stub.
    fn step(&mut self, index: u64) {
        let records = self.supply.next_window(index, period());
        measure::span("router", "filter", records.len() as u64, || {
            for record in &records {
                self.agent.filter_record(record);
            }
        });
        let target = index + 1;
        measure::span("router", "close", 1, || {
            self.agent.close_periods_to(target);
            self.agent.trim_history(256);
        });
        if target.is_multiple_of(INTERVAL) {
            let json = measure::span("router", "checkpoint", 1, || {
                self.agent.checkpoint().to_json()
            });
            self.checkpoint_bytes.push(json.len() as f64);
        }
    }
}

/// The detector fed each capture's per-period counts: the core layer alone.
fn observe_probe(input: &Input) {
    for (prefix, trace) in &input.stubs {
        let counts = trace.period_counts(period());
        let mut agent = SynDogAgent::new(*prefix, SynDogConfig::paper_default());
        measure::span("core", "observe", counts.len() as u64, || {
            for sample in &counts {
                agent.observe_period(PeriodSignals {
                    syn: sample.syn,
                    synack: sample.synack,
                    fin: 0,
                    rst: 0,
                });
            }
        });
    }
}

/// Step times of one phase, seconds: wall times of plain steps, rotation
/// steps (those that write a checkpoint generation) and all steps in order,
/// and the process CPU time of plain and rotation steps.
#[derive(Default)]
struct Steps {
    plain: Vec<f64>,
    rotation: Vec<f64>,
    all: Vec<f64>,
    plain_cpu: Vec<f64>,
    rotation_cpu: Vec<f64>,
}

/// What one lifetime leaves for the per-layer metrics.
struct Lifetime {
    missed: u64,
    /// Wall time of the traced work: steps, status renders, replica.
    wall_s: f64,
    replica: Option<Replica>,
}

/// Runs one daemon lifetime, timing every step and checking the result.
fn lifetime(
    input: &Input,
    shape: &Shape,
    args: &Args,
    dir: &Path,
    traced: bool,
    steps: &mut Steps,
    checks: &mut Checks,
) -> Result<Lifetime, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut daemon = new_daemon(input, shape, args.seed, dir, traced)?;
    let mut replica = traced.then(|| Replica::new(input, shape, args.seed));
    let board = daemon.status_board();
    let mut first_alarm: [Option<u64>; 4] = [None; 4];
    let mut wall_s = 0.0;
    for _ in 0..shape.periods {
        let index = daemon.next_window();
        let clock = Stopwatch::start();
        let open = measure::enter("serve", "step");
        daemon.step_period();
        open.exit(STUBS as u64);
        let (step_s, step_cpu) = clock.stop();
        if let Some(replica) = replica.as_mut() {
            let t = Instant::now();
            measure::span("serve", "status", 1, || daemon.snapshot().render_json());
            replica.step(index);
            wall_s += measure::secs_since(t);
        }
        wall_s += step_s;
        steps.all.push(step_s);
        if (index + 1).is_multiple_of(INTERVAL) {
            steps.rotation.push(step_s);
            steps.rotation_cpu.push(step_cpu);
        } else {
            steps.plain.push(step_s);
            steps.plain_cpu.push(step_cpu);
        }
        let status = board.read();
        for (first, &(stub, _)) in first_alarm.iter_mut().zip(&shape.floods) {
            if first.is_none() && status.stubs[stub].alarm {
                *first = Some(index);
            }
        }
    }
    let snapshot = daemon.snapshot();
    let missed = snapshot.missed_periods();
    checks.check(missed == 0, || format!("daemon missed {missed} periods"));
    for (first, &(stub, start)) in first_alarm.iter().zip(&shape.floods) {
        // Each flooded stub's first alarm must fall inside its flood
        // window (moved by `--expect-alarm-shift`).
        let from = (start as i64 + args.alarm_shift).max(0) as u64;
        let window = from..from + shape.flood_periods;
        checks.check(first.is_some_and(|p| window.contains(&p)), || {
            format!("stub {stub} first alarmed at {first:?}, expected within {window:?}")
        });
    }
    let last_cut = shape.periods / INTERVAL * INTERVAL;
    let generation = CheckpointRotation::open(dir, KEEP)
        .map_err(|e| format!("open rotation: {e}"))?
        .latest_valid(STUBS);
    let full = generation.as_ref().is_some_and(|(_, checkpoints)| {
        checkpoints.len() == STUBS
            && checkpoints.iter().all(|c| {
                SynDogAgent::restore(c)
                    .is_ok_and(|agent| agent.router().current_period() == last_cut)
            })
    });
    checks.check(full, || {
        format!("no full checkpoint generation at period {last_cut}")
    });
    checks.end_op();
    drop(daemon);
    let _ = std::fs::remove_dir_all(dir);
    Ok(Lifetime {
        missed,
        wall_s,
        replica,
    })
}

/// The work directory: inside the working directory, one per process.
fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench-work").join(format!("daemon-{}", std::process::id()))
}

/// Runs the `daemon` workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let shape = shape(args.size);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut input = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let built = setup(args.seed, &shape);
        setup_s.push(measure::secs_since(t));
        input = Some(built);
    }
    let input = input.expect("at least one set-up");
    println!(
        "daemon: {STUBS} stubs, {} capture records, {} periods per lifetime, floods {:?} x {} periods at {FLOOD_RATE} SYN/s",
        input.records, shape.periods, shape.floods, shape.flood_periods
    );
    let dir = work_dir();
    let result = measure_daemon(args, &shape, &input, &dir, setup_s);
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(parent) = dir.parent() {
        // Removed only when no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    result
}

fn measure_daemon(
    args: &Args,
    shape: &Shape,
    input: &Input,
    dir: &Path,
    setup_s: Vec<f64>,
) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut untraced = Steps::default();
    let started = Instant::now();
    while untraced.all.is_empty() || measure::secs_since(started) < budget {
        lifetime(input, shape, args, dir, false, &mut untraced, &mut checks)?;
    }
    let per_stub = |steps: &[f64]| measure::median(steps) * 1e9 / STUBS as f64;
    let mut outcome = Outcome {
        setup_s,
        cpu_ns_per_unit: measure::geomean(&[
            per_stub(&untraced.plain_cpu),
            per_stub(&untraced.rotation_cpu),
        ]),
        unit: "stub-period, over plain and rotation steps",
        ..Outcome::default()
    };
    let samples = untraced.all.len();
    outcome.paths = vec![
        Metric::new(
            "serve_step_p50_ms",
            measure::median(&untraced.all) * 1e3,
            "ms",
            format!(
                "{samples} steps of {STUBS} stubs; CPU {:.0} ns per stub-period on plain steps",
                per_stub(&untraced.plain_cpu)
            ),
        ),
        Metric::new(
            "serve_step_p99_ms",
            measure::percentile(&untraced.all, 0.99) * 1e3,
            "ms",
            format!(
                "{samples} steps, {} of them rotation steps; CPU {:.0} ns per stub-period on rotation steps",
                untraced.rotation.len(),
                per_stub(&untraced.rotation_cpu)
            ),
        ),
    ];

    if args.trace {
        measure::set_tracing(true);
        let mut traced = Steps::default();
        let mut wall_s = 0.0;
        let mut last = None;
        let started = Instant::now();
        while last.is_none() || measure::secs_since(started) < args.seconds / 2.0 {
            let t = Instant::now();
            observe_probe(input);
            wall_s += measure::secs_since(t);
            let life = lifetime(input, shape, args, dir, true, &mut traced, &mut checks)?;
            wall_s += life.wall_s;
            last = Some(life);
        }
        measure::set_tracing(false);
        let last = last.expect("at least one traced lifetime");
        let replica = last.replica.expect("traced lifetimes carry a replica");
        let spans = measure::take_spans();
        let totals = measure::stage_totals(&spans);
        let stage = |layer, name| totals.get(&(layer, name)).cloned().unwrap_or_default();
        let stats = *replica
            .agent
            .mitigation()
            .expect("replica mitigation armed")
            .stats();
        let shed = if stats.attack_syns_offered == 0 {
            0.0
        } else {
            1.0 - stats.attack_syns_forwarded as f64 / stats.attack_syns_offered as f64
        };
        let status = stage("serve", "status");
        outcome.layers = vec![
            Metric::new(
                "router.filter_ns_per_record",
                stage("router", "filter").ns_per_unit(),
                "ns",
                "filter_record on a benchmark-held replica of stub 0",
            ),
            Metric::new(
                "router.close_us_per_period",
                stage("router", "close").ns_per_unit() / 1e3,
                "us",
                "close_periods_to + trim_history on the replica",
            ),
            Metric::new(
                "router.mitigate.shed_share",
                shed,
                "share",
                format!(
                    "attack SYNs throttled / {} attack SYNs offered while engaged, replica of stub 0",
                    stats.attack_syns_offered
                ),
            ),
            Metric::new(
                "router.mitigate.collateral_syns",
                stats.collateral_syns as f64,
                "count",
                "legitimate SYNs throttled, replica of stub 0",
            ),
            Metric::new(
                "router.checkpoint_us_per_stub",
                stage("router", "checkpoint").ns_per_unit() / 1e3,
                "us",
                "checkpoint() + to_json on the replica at each rotation period",
            ),
            Metric::new(
                "router.checkpoint_bytes_per_stub",
                measure::median(&replica.checkpoint_bytes),
                "bytes",
                format!("median of {} checkpoints", replica.checkpoint_bytes.len()),
            ),
            Metric::new(
                "core.observe_ns_per_period",
                stage("core", "observe").ns_per_unit(),
                "ns",
                "observe_period over each capture's period counts",
            ),
            Metric::new(
                "serve.supply_us_per_stub_period",
                stage("serve", "supply").ns_per_unit() / 1e3,
                "us",
                "RecordSupply::next_window via a timing wrapper",
            ),
            Metric::new(
                "serve.rotate_ms",
                (measure::median(&untraced.rotation) - measure::median(&untraced.plain)) * 1e3,
                "ms",
                format!(
                    "median of {} rotation steps minus median of {} plain steps",
                    untraced.rotation.len(),
                    untraced.plain.len()
                ),
            ),
            Metric::new(
                "serve.status_us",
                status.ns_per_unit() / 1e3,
                "us",
                format!("snapshot() + render_json, {} samples", status.durations.len()),
            ),
            Metric::new(
                "serve.missed_periods",
                last.missed as f64,
                "count",
                "last traced lifetime",
            ),
        ];
        outcome.layers.extend(crate::trace_summary(
            &spans,
            wall_s * 1e9,
            measure::median(&traced.all),
            measure::median(&untraced.all),
        ));
    }
    outcome.checks = checks;
    Ok(outcome)
}
