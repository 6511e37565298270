//! `campaign`: `Fleet::run_counts_correlated` over thousands of LBL stubs.
//!
//! A `Scenario::distributed_flood` plants one slave in every 20th stub (5%
//! of the fleet), each flooding at 6 SYN/s — below a single UNC-scale
//! vantage point's `f_min`, so only the correlation tier sees the campaign.
//! The fleet runs count-level with `CollectorConfig::with_regions(8)` and
//! `Parallelism::Fixed(2)`. Every run is checked: the attacked campaign is
//! reconstructed exactly, its topology cross-check matches, and its onset
//! lies at the flood's start period.

use std::time::Instant;

use syndog::{PeriodSignals, SynDogConfig};
use syndog_router::{
    CampaignReport, CollectorConfig, Fleet, FleetCorrelator, Scenario, SynDogAgent,
};
use syndog_sim::{Parallelism, SimDuration, SimRng, SimTime};
use syndog_traffic::sites::OBSERVATION_PERIOD;
use syndog_traffic::SiteProfile;

use crate::measure::{self, Checks, Stopwatch};
use crate::{Args, Metric, Outcome, Size};

/// Per-slave flood rate, SYN/s.
const SLAVE_RATE: f64 = 6.0;
/// Campaign start, seconds into each stub's capture.
const START_SECS: u64 = 600;
/// One slave per this many stubs.
const EVERY: usize = 20;
/// Regional collectors.
const REGIONS: usize = 8;
/// Stubs whose count generation and detector are probed in the traced run.
const PROBE_EVERY: usize = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 201;

fn victim() -> std::net::SocketAddrV4 {
    "199.0.0.80:80".parse().expect("static address")
}

fn scenario(seed: u64, size: Size) -> Scenario {
    let (stubs, template) = match size {
        Size::Full => (4_000, SiteProfile::lbl()),
        Size::Tiny => (
            200,
            SiteProfile::lbl().with_duration(SimDuration::from_secs(2_400)),
        ),
    };
    let attacked: Vec<usize> = (0..stubs).step_by(EVERY).collect();
    Scenario::distributed_flood(
        "campaign",
        &template,
        stubs,
        &attacked,
        SLAVE_RATE * attacked.len() as f64,
        SimTime::from_secs(START_SECS),
        victim(),
        SynDogConfig::paper_default(),
        seed,
    )
}

/// The count-level stages of one stub, called from outside the fleet:
/// count generation (traffic) then the detector (core).
fn probe_stub(scenario: &Scenario, index: usize) {
    let spec = &scenario.stubs[index];
    let counts = measure::span("traffic", "generate_counts", 1, || {
        let mut rng = SimRng::seed_from_u64(scenario.stub_seed(index));
        let mut counts = spec.site.generate_period_counts(&mut rng);
        if let Some(flood) = &spec.attack {
            let flood_counts = flood.period_counts(counts.len(), OBSERVATION_PERIOD, &mut rng);
            for (c, f) in counts.iter_mut().zip(&flood_counts) {
                c.merge(*f);
            }
        }
        counts
    });
    let mut agent = SynDogAgent::new(spec.stub(), scenario.config);
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

/// Runs the `campaign` workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let scenario = scenario(args.seed, args.size);
        let fleet = Fleet::new(scenario).with_parallelism(Parallelism::Fixed(2));
        setup_s.push(measure::secs_since(t));
        built = Some(fleet);
    }
    let fleet = built.expect("at least one set-up");
    let scenario = fleet.scenario().clone();
    let stubs = scenario.stubs.len();
    let config = CollectorConfig::with_regions(REGIONS);
    let start_period = START_SECS / OBSERVATION_PERIOD.as_secs_f64() as u64;
    let expected_onset = (start_period as i64 + args.alarm_shift).max(0) as u64;
    println!(
        "campaign: {stubs} LBL stubs, {} slaves at {SLAVE_RATE} SYN/s from period {start_period}, {REGIONS} regions, 2 workers",
        scenario.attacked_indices().len()
    );

    let periods = scenario.stubs[0].site.periods() as u64;
    let mut checks = Checks::default();
    let correlated_run = |checks: &mut Checks| -> Result<(f64, f64, CampaignReport), String> {
        let clock = Stopwatch::start();
        let run = measure::span("router", "correlated_run", stubs as u64, || {
            fleet.run_counts_correlated(&config, None)
        })
        .map_err(|e| format!("correlated run: {e}"))?;
        let (elapsed, cpu) = clock.stop();
        checks.check(run.periods == periods, || {
            format!("{} periods per stub, expected {periods}", run.periods)
        });
        // The attacked campaign is the largest reconstructed one. A clean
        // stub that false-alarms on its own forms a one-member cluster
        // beside it; those are counted and printed, not gated (see
        // README.md).
        let report = run.report;
        let campaign = report
            .campaigns
            .iter()
            .max_by_key(|c| c.members.len())
            .cloned();
        let attacked_only = CampaignReport {
            campaigns: campaign.iter().cloned().collect(),
            ..report.clone()
        };
        checks.check(attacked_only.exact_reconstruction(), || {
            format!(
                "campaign not reconstructed exactly: {} members, {} attacked",
                campaign.as_ref().map_or(0, |c| c.members.len()),
                report.attacked.len()
            )
        });
        checks.check(attacked_only.topology_cross_check().matches(), || {
            "topology cross-check mismatch".to_string()
        });
        let onset = campaign.as_ref().map(|c| c.first_onset);
        checks.check(
            onset.is_some_and(|p| p.abs_diff(expected_onset) <= config.window_periods),
            || format!("campaign onset {onset:?}, expected period {expected_onset}"),
        );
        checks.end_op();
        Ok((elapsed, cpu, report))
    };

    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut untraced = Vec::new();
    let mut untraced_cpu = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while last.is_none() || measure::secs_since(started) < budget {
        let (elapsed, cpu, report) = correlated_run(&mut checks)?;
        untraced.push(elapsed);
        untraced_cpu.push(cpu);
        last = Some(report);
    }
    let last = last.expect("at least one run");
    let attacked = last.attacked.len();
    let stray = last.implicated().len()
        - last
            .campaigns
            .iter()
            .map(|c| c.members.len())
            .max()
            .unwrap_or(0);
    println!(
        "campaign: whole-fleet exact_reconstruction() = {}; {} campaigns, {stray} clean stubs implicated outside the {attacked}-slave campaign",
        last.exact_reconstruction(),
        last.campaigns.len(),
    );
    let stub_periods = (stubs as u64 * periods) as f64;
    let mut outcome = Outcome {
        setup_s,
        cpu_ns_per_unit: measure::median(&untraced_cpu) * 1e9 / stub_periods,
        unit: "stub-period",
        ..Outcome::default()
    };
    outcome.paths = vec![Metric::new(
        "fleet_stub_periods_per_s",
        stub_periods / measure::median(&untraced),
        "stub-periods/s",
        format!(
            "median of {} runs over {stubs} stubs x {periods} periods",
            untraced.len()
        ),
    )];

    if args.trace {
        let serial = Fleet::new(scenario.clone()).with_parallelism(Parallelism::Fixed(1));
        measure::set_tracing(true);
        let mut traced = Vec::new();
        let mut wall_s = 0.0;
        let started = Instant::now();
        while traced.is_empty() || measure::secs_since(started) < args.seconds / 2.0 {
            let t = Instant::now();
            let (elapsed, _, expected_report) = correlated_run(&mut checks)?;
            traced.push(elapsed);
            let rows = measure::span("router", "fold_2_workers", stubs as u64, || {
                fleet.fold_counts(Vec::with_capacity(stubs), |rows, row| rows.push(row))
            });
            let report = measure::span("router", "correlate", stubs as u64, || {
                let mut correlator = FleetCorrelator::new(config, stubs);
                for row in &rows {
                    correlator.observe_row(row);
                }
                correlator.finish(scenario.name.clone(), scenario.master_seed)
            });
            checks.check(report == expected_report, || {
                "correlating the collected rows differs from the correlated run".to_string()
            });
            drop(rows);
            measure::span("router", "fold_1_worker", stubs as u64, || {
                serial.fold_counts(Vec::with_capacity(stubs), |rows, row| rows.push(row))
            });
            for index in (0..stubs).step_by(PROBE_EVERY) {
                probe_stub(&scenario, index);
            }
            wall_s += measure::secs_since(t);
        }
        measure::set_tracing(false);
        let spans = measure::take_spans();
        let totals = measure::stage_totals(&spans);
        let stage = |name| totals.get(&("router", name)).cloned().unwrap_or_default();
        let median_ms = |name| measure::median(&stage(name).durations) / 1e6;
        let generate = totals
            .get(&("traffic", "generate_counts"))
            .cloned()
            .unwrap_or_default();
        let observe = totals
            .get(&("core", "observe"))
            .cloned()
            .unwrap_or_default();
        let iterations = traced.len();
        outcome.layers = vec![
            Metric::new(
                "traffic.generate_counts_us_per_stub",
                generate.ns_per_unit() / 1e3,
                "us",
                format!(
                    "generate_period_counts + flood counts, {} stubs probed",
                    generate.units
                ),
            ),
            Metric::new(
                "router.fold_ms",
                median_ms("fold_2_workers"),
                "ms",
                format!("fold_counts collecting the rows, 2 workers, median of {iterations}"),
            ),
            Metric::new(
                "router.correlate_ms",
                median_ms("correlate"),
                "ms",
                "FleetCorrelator over the collected rows, timed directly",
            ),
            Metric::new(
                "core.observe_ns_per_period",
                observe.ns_per_unit(),
                "ns",
                format!("observe_period over {} probed stub-periods", observe.units),
            ),
            Metric::new(
                "sim.par.speedup_2v1",
                median_ms("fold_1_worker") / median_ms("fold_2_workers"),
                "ratio",
                "fold_counts at 1 worker over 2 workers",
            ),
        ];
        outcome.layers.extend(crate::trace_summary(
            &spans,
            wall_s * 1e9,
            measure::median(&traced),
            measure::median(&untraced),
        ));
    }
    outcome.checks = checks;
    Ok(outcome)
}
