//! `wire`: frame and record ingestion of one in-memory pcap.
//!
//! Set-up generates a 3 h Auckland-profile capture of minimum-size frames
//! with a fingerprinted Plague flood over the middle hour, spoofing from a
//! rotating /24 and sized to top the capture up to a fixed frame count, so
//! that attack SYNs are about half of all frames.
//! The same bytes then go through three paths, each entered the way its CLI
//! subcommand enters it:
//!
//! - `sniff`: `PcapSource` → `SynDogAgent::run_source`;
//! - `replay`: `ConcurrentSynDog` (1 shard, `Block`, 2 sniffer threads),
//!   with this thread as the capture thread: it reads pcap frames into pool
//!   batches, tags direction by destination as `PcapSource` does, and calls
//!   `submit_batch`, `flush` and `close_period`;
//! - `mitigate`: `Trace::read_pcap` → `filter_record` under a
//!   fingerprint-keyed `MitigationPolicy` → `close_periods_to`.
//!
//! Every call is checked against `SynDogAgent::run_trace` on the generated
//! trace: first alarm period and `y_n`, frame totals, zero drops, and a
//! mitigation that engages during the flood and releases after it.

use std::io::Cursor;
use std::time::Instant;

use syndog::{DetectorKind, SynDogConfig};
use syndog_attack::tools::AttackTool;
use syndog_attack::SpoofStrategy;
use syndog_fingerprint::extract_syn;
use syndog_net::batch::{classify_batch, FrameBatch};
use syndog_net::classify::{classify, SegmentKind};
use syndog_net::pcap::PcapReader;
use syndog_net::{Ipv4Net, NetError};
use syndog_router::{
    ConcurrentSynDog, EventBatch, FrameSource, KeyMode, MitigationPolicy, OverflowPolicy,
    PcapSource, SynDogAgent, DEFAULT_BATCH_SIZE,
};
use syndog_sim::{SimDuration, SimRng, SimTime};
use syndog_traffic::{Direction, SiteProfile, Trace};

use crate::measure::{self, Checks, Stopwatch};
use crate::{Args, Metric, Outcome, Size};

/// Frames per batch on every path (the CLI default).
const BATCH: usize = DEFAULT_BATCH_SIZE;
/// Channel capacity per sniffer queue (the `replay` CLI default).
const CAPACITY: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Frames in the capture, background plus flood (about twice the 3 h
/// Auckland background).
const FRAMES: usize = 680_000;

/// The generated capture and its reference results.
struct Input {
    pcap: Vec<u8>,
    stub: Ipv4Net,
    frames: u64,
    syn_frames: u64,
    attack_syns: u64,
    /// Periods the capture spans, `ceil((last timestamp + 1 µs) / t0)`,
    /// derived the way `replay` derives it from the capture.
    periods: u64,
    flood_start_period: u64,
    flood_end_period: u64,
    /// `SynDogAgent::run_trace` on the generated trace: first alarm
    /// `(period, y_n)`.
    reference: (u64, f64),
}

fn victim() -> std::net::SocketAddrV4 {
    "199.0.0.80:80".parse().expect("static address")
}

fn setup(seed: u64, size: Size) -> Result<Input, String> {
    let (site, frames) = match size {
        Size::Full => (SiteProfile::auckland(), FRAMES),
        Size::Tiny => (
            SiteProfile::auckland().with_duration(SimDuration::from_secs(1800)),
            FRAMES / 6,
        ),
    };
    let mut rng = SimRng::seed_from_u64(seed);
    let mut trace = site.generate_trace(&mut rng);
    let third = site.duration().as_secs_f64() / 3.0;
    // The flood tops the capture up to a fixed frame count, so every seed
    // costs about the same memory and work; the site's background is about
    // half of that count.
    let rate = frames.saturating_sub(trace.len()) as f64 / third;
    let flood = AttackTool::Plague
        .flood(
            rate,
            SimTime::from_secs_f64(third),
            SimDuration::from_secs_f64(third),
            victim(),
        )
        .with_spoof(SpoofStrategy::RotatingPrefix { per_prefix: 40 });
    let attack = flood.generate_trace(&mut rng);
    let attack_syns = attack.len() as u64;
    trace.merge(&attack);

    let config = SynDogConfig::paper_default();
    let mut reference = SynDogAgent::new(site.stub(), config);
    reference.run_trace(&trace);
    let alarm = reference
        .first_alarm()
        .ok_or("the reference run raised no alarm")?;
    let period = reference.router().period().as_micros();

    let mut pcap = Vec::with_capacity(trace.len() * 80);
    trace
        .write_pcap(&mut pcap)
        .map_err(|e| format!("write pcap: {e}"))?;
    let last_us = trace.records().last().map_or(0, |r| r.time.as_micros());
    let syn_frames = trace
        .records()
        .iter()
        .filter(|r| r.kind == SegmentKind::Syn)
        .count() as u64;
    Ok(Input {
        pcap,
        stub: site.stub(),
        frames: trace.len() as u64,
        syn_frames,
        attack_syns,
        periods: (last_us + 1).div_ceil(period),
        flood_start_period: (third * 1e6) as u64 / period,
        flood_end_period: (2.0 * third * 1e6) as u64 / period,
        reference: (alarm.period, alarm.statistic),
    })
}

/// A `FrameSource` wrapper that records each `next_batch` call as a
/// `router.source` span.
struct TimedSource<S>(S);

impl<S: FrameSource> FrameSource for TimedSource<S> {
    fn next_batch(&mut self, out: &mut EventBatch) -> Result<bool, NetError> {
        let open = measure::enter("router", "source");
        let more = self.0.next_batch(out);
        open.exit(out.len() as u64);
        more
    }

    fn duration(&self) -> Option<SimDuration> {
        self.0.duration()
    }
}

/// Destination-based direction, as `PcapSource` tags frames.
fn direction_of(frame: &[u8], stub: Ipv4Net) -> Direction {
    if frame.len() >= 34 && frame[12] == 0x08 && frame[13] == 0x00 {
        let dst = std::net::Ipv4Addr::new(frame[30], frame[31], frame[32], frame[33]);
        if stub.contains(dst) {
            return Direction::Inbound;
        }
    }
    Direction::Outbound
}

struct SniffResult {
    alarm: Option<(u64, f64)>,
    frames: u64,
    malformed: u64,
}

fn sniff(input: &Input) -> Result<SniffResult, String> {
    let open = measure::enter("router", "ingest");
    let mut agent = SynDogAgent::new(input.stub, SynDogConfig::paper_default());
    let source = PcapSource::with_batch_size(Cursor::new(input.pcap.as_slice()), input.stub, BATCH)
        .map_err(|e| format!("sniff: {e}"))?;
    agent
        .run_source(TimedSource(source))
        .map_err(|e| format!("sniff: {e}"))?;
    open.exit(input.frames);
    let router = agent.router();
    let (out, inb) = (
        router.sniffer(Direction::Outbound),
        router.sniffer(Direction::Inbound),
    );
    Ok(SniffResult {
        alarm: agent.first_alarm().map(|a| (a.period, a.statistic)),
        frames: out.frames_seen() + inb.frames_seen(),
        malformed: out.malformed() + inb.malformed(),
    })
}

struct ReplayResult {
    alarm: Option<(u64, f64)>,
    frames: u64,
    dropped: u64,
    pool_hits: u64,
    pool_misses: u64,
}

fn slot(direction: Direction) -> usize {
    match direction {
        Direction::Outbound => 0,
        Direction::Inbound => 1,
    }
}

fn submit(dog: &ConcurrentSynDog, pending: &mut [FrameBatch; 2], direction: Direction) {
    let batch = &mut pending[slot(direction)];
    if batch.is_empty() {
        return;
    }
    let full = std::mem::replace(batch, dog.acquire_batch());
    let frames = full.len() as u64;
    measure::span("router", "concurrent_submit", frames, || {
        dog.submit_batch(direction, full)
    });
}

fn close_period(dog: &mut ConcurrentSynDog, pending: &mut [FrameBatch; 2]) {
    submit(dog, pending, Direction::Outbound);
    submit(dog, pending, Direction::Inbound);
    measure::span("router", "concurrent_flush", 1, || dog.flush());
    measure::span("router", "close", 1, || dog.close_period());
}

fn replay(input: &Input) -> Result<ReplayResult, String> {
    let open = measure::enter("router", "replay_capture");
    let detector = DetectorKind::Syndog.build(SynDogConfig::paper_default());
    let mut dog = ConcurrentSynDog::with_detector(detector, CAPACITY, OverflowPolicy::Block, None);
    let period = dog.router().period();
    let mut reader =
        PcapReader::new(Cursor::new(input.pcap.as_slice())).map_err(|e| format!("replay: {e}"))?;
    let mut staging = FrameBatch::with_capacity(BATCH, BATCH * 64);
    let mut times: Vec<u64> = Vec::with_capacity(BATCH);
    let mut pending = [dog.acquire_batch(), dog.acquire_batch()];
    let mut current = 0u64;
    let mut done = false;
    while !done {
        staging.clear();
        times.clear();
        let read = measure::enter("net", "pcap_read");
        while staging.len() < BATCH {
            match reader.next_packet_into(&mut staging) {
                Ok(Some((sec, nanos))) => {
                    times.push(u64::from(sec) * 1_000_000 + u64::from(nanos) / 1000);
                }
                Ok(None) => {
                    done = true;
                    break;
                }
                Err(e) => return Err(format!("replay: {e}")),
            }
        }
        read.exit(staging.len() as u64);
        for (frame, &micros) in staging.iter().zip(&times) {
            let p = SimTime::from_micros(micros).period_index(period);
            while current < p {
                close_period(&mut dog, &mut pending);
                current += 1;
            }
            let direction = direction_of(frame, input.stub);
            let batch = &mut pending[slot(direction)];
            batch.push(frame);
            if batch.len() >= BATCH {
                submit(&dog, &mut pending, direction);
            }
        }
    }
    while current < input.periods {
        close_period(&mut dog, &mut pending);
        current += 1;
    }
    let alarm = dog
        .detections()
        .iter()
        .find(|d| d.alarm)
        .map(|d| (d.period, d.statistic));
    let dropped = dog.dropped_frames();
    let pool = dog.pool().stats();
    let (out, inb) = dog.shutdown();
    open.exit(input.frames);
    Ok(ReplayResult {
        alarm,
        frames: out + inb,
        dropped,
        pool_hits: pool.hits,
        pool_misses: pool.misses,
    })
}

struct MitigateResult {
    alarm: Option<(u64, f64)>,
    records: u64,
    engaged_at: Option<u64>,
    released_at: Option<u64>,
    attack_offered: u64,
    attack_forwarded: u64,
    collateral: u64,
}

fn mitigate(input: &Input) -> Result<MitigateResult, String> {
    let open = measure::enter("router", "mitigate");
    let trace = measure::span("traffic", "read_pcap", input.frames, || {
        Trace::read_pcap(Cursor::new(input.pcap.as_slice()), input.stub)
    })
    .map_err(|e| format!("mitigate: {e}"))?;
    let mut agent = SynDogAgent::new(input.stub, SynDogConfig::paper_default());
    agent.set_mitigation(MitigationPolicy::paper_default().with_key_mode(KeyMode::Fingerprint));
    let period = agent.router().period();
    let last =
        agent.router().current_period() + trace.duration().as_micros().div_ceil(period.as_micros());
    // One `router.filter` span per period's worth of records.
    let mut chunk: Option<(measure::Open, u64)> = None;
    let mut chunk_period = u64::MAX;
    for record in trace.records() {
        let p = record.time.period_index(period);
        if p >= last {
            continue;
        }
        if p != chunk_period {
            if let Some((open, n)) = chunk.take() {
                open.exit(n);
            }
            chunk = Some((measure::enter("router", "filter"), 0));
            chunk_period = p;
        }
        agent.filter_record(record);
        if let Some((_, n)) = chunk.as_mut() {
            *n += 1;
        }
    }
    if let Some((open, n)) = chunk.take() {
        open.exit(n);
    }
    let remaining = last - agent.router().current_period();
    measure::span("router", "close", remaining, || {
        agent.close_periods_to(last)
    });
    let records = trace.len() as u64;
    drop(trace);
    open.exit(records);
    let engine = agent.mitigation().expect("mitigation armed");
    let stats = engine.stats();
    Ok(MitigateResult {
        alarm: agent.first_alarm().map(|a| (a.period, a.statistic)),
        records,
        engaged_at: engine.engaged_at(),
        released_at: engine.released_at(),
        attack_offered: stats.attack_syns_offered,
        attack_forwarded: stats.attack_syns_forwarded,
        collateral: stats.collateral_syns,
    })
}

fn same_alarm(got: Option<(u64, f64)>, want: (u64, f64)) -> bool {
    got.is_some_and(|(period, y)| {
        period == want.0 && (y - want.1).abs() <= 1e-9 * want.1.abs().max(1.0)
    })
}

/// Per-path wall times of one phase, and the process CPU time of each
/// call, seconds.
#[derive(Default)]
struct Samples {
    sniff: Vec<f64>,
    replay: Vec<f64>,
    mitigate: Vec<f64>,
    sniff_cpu: Vec<f64>,
    replay_cpu: Vec<f64>,
    mitigate_cpu: Vec<f64>,
}

impl Samples {
    /// Summed path medians: the wall time of one median round.
    fn round_s(&self) -> f64 {
        measure::median(&self.sniff)
            + measure::median(&self.replay)
            + measure::median(&self.mitigate)
    }
}

/// The last round's results, for the per-layer counts.
struct Last {
    sniff: SniffResult,
    replay: ReplayResult,
    mitigate: MitigateResult,
}

/// One closed-loop round: each path once, timed and checked. Returns the
/// round's wall time excluding the checks.
fn round(
    input: &Input,
    expected: (u64, f64),
    samples: &mut Samples,
    checks: &mut Checks,
) -> Result<(f64, Last), String> {
    let clock = Stopwatch::start();
    let sniffed = sniff(input)?;
    let (sniff_s, sniff_cpu) = clock.stop();
    let clock = Stopwatch::start();
    let replayed = replay(input)?;
    let (replay_s, replay_cpu) = clock.stop();
    let clock = Stopwatch::start();
    let mitigated = mitigate(input)?;
    let (mitigate_s, mitigate_cpu) = clock.stop();
    samples.sniff.push(sniff_s);
    samples.replay.push(replay_s);
    samples.mitigate.push(mitigate_s);
    samples.sniff_cpu.push(sniff_cpu);
    samples.replay_cpu.push(replay_cpu);
    samples.mitigate_cpu.push(mitigate_cpu);

    checks.check(same_alarm(sniffed.alarm, expected), || {
        format!("sniff alarm {:?}, expected {expected:?}", sniffed.alarm)
    });
    checks.check(sniffed.frames == input.frames, || {
        format!("sniff saw {} of {} frames", sniffed.frames, input.frames)
    });
    checks.end_op();
    checks.check(same_alarm(replayed.alarm, expected), || {
        format!("replay alarm {:?}, expected {expected:?}", replayed.alarm)
    });
    checks.check(replayed.frames == input.frames, || {
        format!(
            "replay processed {} of {} frames",
            replayed.frames, input.frames
        )
    });
    checks.check(replayed.dropped == 0, || {
        format!("replay dropped {} frames under Block", replayed.dropped)
    });
    checks.end_op();
    checks.check(same_alarm(mitigated.alarm, expected), || {
        format!(
            "mitigate alarm {:?}, expected {expected:?}",
            mitigated.alarm
        )
    });
    checks.check(
        mitigated
            .engaged_at
            .is_some_and(|p| (input.flood_start_period..=input.flood_end_period).contains(&p)),
        || {
            format!(
                "mitigation engaged at {:?}, flood periods {}..{}",
                mitigated.engaged_at, input.flood_start_period, input.flood_end_period
            )
        },
    );
    checks.check(
        mitigated
            .released_at
            .is_some_and(|p| p > input.flood_end_period),
        || {
            format!(
                "mitigation released at {:?}, flood ends at period {}",
                mitigated.released_at, input.flood_end_period
            )
        },
    );
    checks.end_op();
    Ok((
        sniff_s + replay_s + mitigate_s,
        Last {
            sniff: sniffed,
            replay: replayed,
            mitigate: mitigated,
        },
    ))
}

/// The capture as frame batches, and its SYN frames as batches, for the
/// layer probes of the traced run. Built once, outside the traced time.
struct ProbeInput {
    batches: Vec<FrameBatch>,
    syns: Vec<FrameBatch>,
}

fn probe_input(input: &Input) -> Result<ProbeInput, String> {
    let mut reader =
        PcapReader::new(Cursor::new(input.pcap.as_slice())).map_err(|e| format!("probe: {e}"))?;
    let mut batches = Vec::new();
    loop {
        let mut batch = FrameBatch::with_capacity(BATCH, BATCH * 64);
        while batch.len() < BATCH {
            match reader.next_packet_into(&mut batch) {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => return Err(format!("probe: {e}")),
            }
        }
        if batch.is_empty() {
            break;
        }
        batches.push(batch);
    }
    let syns = batches
        .iter()
        .map(|batch| {
            let mut syn_batch = FrameBatch::new();
            for frame in batch.iter() {
                if matches!(classify(frame), Ok(SegmentKind::Syn)) {
                    syn_batch.push(frame);
                }
            }
            syn_batch
        })
        .collect();
    Ok(ProbeInput { batches, syns })
}

/// The layer probes of the traced run: the scalar classifier, the batched
/// classifier and the fingerprint extractor over the capture's frames.
/// Returns the malformed-frame tally of the batched classifier.
fn probes(input: &Input, probe: &ProbeInput) -> Result<u64, String> {
    let mut classified = 0u64;
    for batch in &probe.batches {
        classified += measure::span("net", "classify", batch.len() as u64, || {
            batch.iter().filter(|frame| classify(frame).is_ok()).count() as u64
        });
    }
    let mut malformed = 0u64;
    for batch in &probe.batches {
        let counts = measure::span("net", "classify_batch", batch.len() as u64, || {
            classify_batch(batch)
        });
        malformed += counts.malformed();
    }
    let mut fingerprinted = 0u64;
    for batch in &probe.syns {
        fingerprinted += measure::span("fingerprint", "extract", batch.len() as u64, || {
            batch.iter().filter_map(extract_syn).count() as u64
        });
    }
    if classified != input.frames || fingerprinted != input.syn_frames {
        return Err(format!(
            "probe classified {classified}/{} frames, fingerprinted {fingerprinted}/{} SYNs",
            input.frames, input.syn_frames
        ));
    }
    Ok(malformed)
}

/// Runs the `wire` workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut input = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let built = setup(args.seed, args.size)?;
        setup_s.push(measure::secs_since(t));
        if input
            .as_ref()
            .is_some_and(|first: &Input| first.pcap != built.pcap)
        {
            return Err("set-up is not deterministic for one seed".into());
        }
        input = Some(built);
    }
    let input = input.expect("at least one set-up");
    let shifted = input.reference.0 as i64 + args.alarm_shift;
    let expected = (shifted.max(0) as u64, input.reference.1);
    println!(
        "wire: {} frames ({} attack SYNs, {} SYNs), {} periods, flood periods {}..{}, pcap {} bytes, reference alarm period {} y_n {}",
        input.frames,
        input.attack_syns,
        input.syn_frames,
        input.periods,
        input.flood_start_period,
        input.flood_end_period,
        input.pcap.len(),
        input.reference.0,
        input.reference.1,
    );

    let mut checks = Checks::default();
    let untraced_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut untraced = Samples::default();
    let started = Instant::now();
    let mut last = None;
    while last.is_none() || measure::secs_since(started) < untraced_budget {
        last = Some(round(&input, expected, &mut untraced, &mut checks)?.1);
    }
    let last = last.expect("at least one round");

    let frames = input.frames as f64;
    let ns_per = |samples: &[f64]| measure::median(samples) * 1e9 / frames;
    let mut outcome = Outcome {
        setup_s,
        cpu_ns_per_unit: measure::geomean(&[
            ns_per(&untraced.sniff_cpu),
            ns_per(&untraced.replay_cpu),
            ns_per(&untraced.mitigate_cpu),
        ]),
        unit: "frame",
        ..Outcome::default()
    };
    let rounds = untraced.sniff.len();
    let rate = |samples: &[f64], units: u64| units as f64 / measure::median(samples) / 1e6;
    outcome.paths = vec![
        Metric::new(
            "sniff_mfps",
            rate(&untraced.sniff, input.frames),
            "Mframes/s",
            format!(
                "median of {rounds} passes over {} frames; CPU {:.2} ns/frame",
                input.frames,
                ns_per(&untraced.sniff_cpu)
            ),
        ),
        Metric::new(
            "replay_mfps",
            rate(&untraced.replay, input.frames),
            "Mframes/s",
            format!(
                "median of {rounds} passes, closed loop under Block; CPU {:.2} ns/frame on 3 threads",
                ns_per(&untraced.replay_cpu)
            ),
        ),
        Metric::new(
            "mitigate_mrps",
            rate(&untraced.mitigate, last.mitigate.records),
            "Mrecords/s",
            format!(
                "median of {rounds} passes over {} records; CPU {:.2} ns/frame",
                last.mitigate.records,
                ns_per(&untraced.mitigate_cpu)
            ),
        ),
    ];

    if args.trace {
        let probe = probe_input(&input)?;
        measure::set_tracing(true);
        let mut traced = Samples::default();
        let mut wall_s = 0.0;
        let mut malformed_probe = 0;
        let mut last_traced = None;
        let started = Instant::now();
        while last_traced.is_none() || measure::secs_since(started) < args.seconds / 2.0 {
            let t = Instant::now();
            malformed_probe = probes(&input, &probe)?;
            wall_s += measure::secs_since(t);
            let (round_s, last) = round(&input, expected, &mut traced, &mut checks)?;
            wall_s += round_s;
            last_traced = Some(last);
        }
        measure::set_tracing(false);
        let last = last_traced.expect("at least one traced round");
        let spans = measure::take_spans();
        let totals = measure::stage_totals(&spans);
        let stage = |layer, name| totals.get(&(layer, name)).cloned().unwrap_or_default();
        let pool_total = (last.replay.pool_hits + last.replay.pool_misses).max(1);
        let shed = if last.mitigate.attack_offered == 0 {
            0.0
        } else {
            1.0 - last.mitigate.attack_forwarded as f64 / last.mitigate.attack_offered as f64
        };
        outcome.layers = vec![
            Metric::new(
                "net.pcap_read_ns_per_frame",
                stage("net", "pcap_read").ns_per_unit(),
                "ns",
                "PcapReader::next_packet_into on the replay capture thread",
            ),
            Metric::new(
                "net.classify_ns_per_frame",
                stage("net", "classify").ns_per_unit(),
                "ns",
                "scalar classify, as PcapSource uses it",
            ),
            Metric::new(
                "net.classify_batch_ns_per_frame",
                stage("net", "classify_batch").ns_per_unit(),
                "ns",
                "SWAR classify_batch, as the sniffer threads use it",
            ),
            Metric::new(
                "net.malformed_frames",
                (last.sniff.malformed + malformed_probe) as f64,
                "count",
                "sniff sniffers plus classify_batch probe",
            ),
            Metric::new(
                "fingerprint.extract_ns_per_syn",
                stage("fingerprint", "extract").ns_per_unit(),
                "ns",
                format!("extract_syn over {} SYN frames", input.syn_frames),
            ),
            Metric::new(
                "traffic.read_pcap_ns_per_frame",
                stage("traffic", "read_pcap").ns_per_unit(),
                "ns",
                "Trace::read_pcap on the mitigate path",
            ),
            Metric::new(
                "router.source_ns_per_frame",
                stage("router", "source").ns_per_unit(),
                "ns",
                "inside PcapSource::next_batch on the sniff path",
            ),
            Metric::new(
                "router.ingest_ns_per_frame",
                stage("router", "ingest").self_ns_per_unit(),
                "ns",
                "run_source minus its source spans",
            ),
            Metric::new(
                "router.filter_ns_per_record",
                stage("router", "filter").ns_per_unit(),
                "ns",
                "filter_record, fingerprint keys",
            ),
            Metric::new(
                "router.close_us_per_period",
                stage("router", "close").ns_per_unit() / 1e3,
                "us",
                "ConcurrentSynDog::close_period and trailing close_periods_to",
            ),
            Metric::new(
                "router.mitigate.shed_share",
                shed,
                "share",
                format!(
                    "attack SYNs throttled / {} attack SYNs offered while engaged",
                    last.mitigate.attack_offered
                ),
            ),
            Metric::new(
                "router.mitigate.collateral_syns",
                last.mitigate.collateral as f64,
                "count",
                "legitimate SYNs throttled",
            ),
            Metric::new(
                "router.concurrent.submit_ns_per_frame",
                stage("router", "concurrent_submit").ns_per_unit(),
                "ns",
                "submit_batch, including time blocked on a full channel",
            ),
            Metric::new(
                "router.concurrent.flush_us_per_period",
                stage("router", "concurrent_flush").ns_per_unit() / 1e3,
                "us",
                "flush barrier per period",
            ),
            Metric::new(
                "router.concurrent.pool_miss_share",
                last.replay.pool_misses as f64 / pool_total as f64,
                "share",
                format!("misses / {pool_total} pool acquires"),
            ),
            Metric::new(
                "router.concurrent.dropped_frames",
                last.replay.dropped as f64,
                "count",
                "under Block",
            ),
        ];
        outcome.layers.extend(crate::trace_summary(
            &spans,
            wall_s * 1e9,
            traced.round_s(),
            untraced.round_s(),
        ));
    }
    outcome.checks = checks;
    Ok(outcome)
}
