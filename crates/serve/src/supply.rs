//! Where the daemon's records come from: window-addressed workloads.
//!
//! The supervisor loop consumes traffic one observation window at a
//! time. A [`RecordSupply`] answers "give me window `n`" with the
//! records in `[n·t0, (n+1)·t0)`, deterministically: window `n` is the
//! same records no matter how many windows were drawn before it, which
//! is what makes kill → `--resume-latest` → continue byte-identical to
//! an uninterrupted run.
//!
//! Three supplies cover the serve modes:
//! - [`PlanSupply`] — a scripted [`LoadPlan`] over a calibrated
//!   [`SiteProfile`] (ramps, pulses, diurnal cycles),
//! - [`LoopingTraceSupply`] — a bounded capture replayed end-to-end
//!   forever, each pass shifted by the trace duration,
//! - [`FloodOverlay`] — any supply plus an injected constant-rate
//!   spoofed SYN flood over one interval (the soak tests' mid-run
//!   attack).

use std::net::SocketAddrV4;

use syndog_net::SegmentKind;
use syndog_sim::{SimDuration, SimRng, SimTime};
use syndog_traffic::load::{attack_fingerprint, attack_mac};
use syndog_traffic::trace::{Direction, Trace, TraceRecord};
use syndog_traffic::{LoadPlan, SiteProfile};

/// A deterministic, window-addressed record source.
pub trait RecordSupply: Send {
    /// The records whose times lie in `[index·window, (index+1)·window)`,
    /// time-sorted. Must be a pure function of `(self, index, window)`.
    fn next_window(&mut self, index: u64, window: SimDuration) -> Vec<TraceRecord>;

    /// One-line description for status output.
    fn describe(&self) -> String;
}

/// [`RecordSupply`] over a scripted [`LoadPlan`] driving a
/// [`SiteProfile`].
#[derive(Debug, Clone)]
pub struct PlanSupply {
    plan: LoadPlan,
    profile: SiteProfile,
    seed: u64,
}

impl PlanSupply {
    /// A supply generating `plan` over `profile`, seeded by `seed`.
    pub fn new(plan: LoadPlan, profile: SiteProfile, seed: u64) -> Self {
        PlanSupply {
            plan,
            profile,
            seed,
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &LoadPlan {
        &self.plan
    }
}

impl RecordSupply for PlanSupply {
    fn next_window(&mut self, index: u64, window: SimDuration) -> Vec<TraceRecord> {
        self.plan
            .window_records(&self.profile, index, window, self.seed)
    }

    fn describe(&self) -> String {
        format!(
            "plan[{} phases, cycle {}s] over {}",
            self.plan.phases().len(),
            self.plan.cycle_duration().as_secs_f64(),
            self.profile.name(),
        )
    }
}

/// [`RecordSupply`] replaying an owned [`Trace`] in an endless loop.
///
/// The trace is time-sorted once on construction, so each window costs
/// two binary searches per overlapping pass plus a copy of the records
/// it returns, not a scan of the whole capture.
#[derive(Debug, Clone)]
pub struct LoopingTraceSupply {
    trace: Trace,
}

/// A record's offset from the start of its pass, in microseconds.
fn pass_offset(record: &TraceRecord) -> u64 {
    (record.time - SimTime::ZERO).as_micros()
}

impl LoopingTraceSupply {
    /// A supply looping `trace` forever.
    ///
    /// # Panics
    ///
    /// Panics if the trace's nominal duration is zero (the loop could
    /// never advance sim-time) or it holds no records.
    pub fn new(mut trace: Trace) -> Self {
        assert!(
            trace.duration() > SimDuration::ZERO,
            "looping a zero-duration trace would freeze sim-time"
        );
        assert!(
            !trace.records().is_empty(),
            "looping an empty trace supplies nothing forever"
        );
        // Stable, so records with equal times keep their capture order.
        // Checked first: captures usually arrive sorted, and the sort
        // would allocate a scratch copy of the whole trace regardless.
        if !trace.records().is_sorted_by_key(|r| r.time) {
            trace.sort();
        }
        LoopingTraceSupply { trace }
    }
}

impl RecordSupply for LoopingTraceSupply {
    fn next_window(&mut self, index: u64, window: SimDuration) -> Vec<TraceRecord> {
        let start = (window * index).as_micros();
        let end = start + window.as_micros();
        let pass_len = self.trace.duration().as_micros();
        let records = self.trace.records();
        let mut out = Vec::new();
        // The window may straddle a loop boundary: take the slice of
        // every pass that overlaps it. Passes follow each other in time,
        // so concatenating their slices keeps the output sorted.
        // Stragglers recorded past the trace's nominal duration are
        // dropped — clamping to `pass_len` keeps them out, since they
        // would double-book time that belongs to the next pass.
        for pass in start / pass_len..=(end - 1) / pass_len {
            let offset = pass_len * pass;
            let from = start.saturating_sub(offset);
            let to = (end - offset).min(pass_len);
            let lo = records.partition_point(|r| pass_offset(r) < from);
            let hi = records.partition_point(|r| pass_offset(r) < to);
            out.extend(records[lo..hi].iter().map(|record| {
                let mut record = *record;
                record.time =
                    SimTime::ZERO + SimDuration::from_micros(offset + pass_offset(&record));
                record
            }));
        }
        out
    }

    fn describe(&self) -> String {
        format!(
            "looping trace[{} records / {}s per pass]",
            self.trace.records().len(),
            self.trace.duration().as_secs_f64(),
        )
    }
}

/// Any supply overlaid with an injected constant-rate spoofed SYN flood
/// over `[start, start + duration)` — the soak tests' mid-run attack.
pub struct FloodOverlay {
    inner: Box<dyn RecordSupply>,
    rate: f64,
    start: SimTime,
    duration: SimDuration,
    target: SocketAddrV4,
    seed: u64,
}

impl FloodOverlay {
    /// Overlays `inner` with `rate` SYN/s at `target` during
    /// `[start, start + duration)`.
    pub fn new(
        inner: Box<dyn RecordSupply>,
        rate: f64,
        start: SimTime,
        duration: SimDuration,
        target: SocketAddrV4,
        seed: u64,
    ) -> Self {
        FloodOverlay {
            inner,
            rate,
            start,
            duration,
            target,
            seed,
        }
    }
}

impl RecordSupply for FloodOverlay {
    fn next_window(&mut self, index: u64, window: SimDuration) -> Vec<TraceRecord> {
        let mut records = self.inner.next_window(index, window);
        let win_start = SimTime::ZERO + window * index;
        let win_end = win_start + window;
        let flood_end = self.start + self.duration;
        // The flood's SYNs are laid out on a global grid from its start
        // time, so windowing never changes the stream — only selects it.
        let gap_us = (1_000_000.0 / self.rate).max(1.0) as u64;
        if self.rate > 0.0 && self.start < win_end && flood_end > win_start {
            let first = (win_start.max(self.start) - self.start).as_micros() / gap_us;
            let mut i = first;
            loop {
                let at = self.start + SimDuration::from_micros(i * gap_us);
                if at >= win_end || at >= flood_end {
                    break;
                }
                if at >= win_start {
                    let mut rng = SimRng::seed_from_u64(self.seed ^ i.wrapping_mul(0x9e37));
                    let spoofed = SocketAddrV4::new(
                        std::net::Ipv4Addr::from(rng.next_u32() | 0x0100_0000),
                        1024 + (rng.next_u32() % 60000) as u16,
                    );
                    records.push(
                        TraceRecord::new(
                            at,
                            Direction::Outbound,
                            SegmentKind::Syn,
                            spoofed,
                            self.target,
                        )
                        .with_mac(attack_mac())
                        .with_fp(attack_fingerprint().to_bits()),
                    );
                }
                i += 1;
            }
        }
        records.sort_by_key(|r| r.time);
        records
    }

    fn describe(&self) -> String {
        format!(
            "{} + flood[{} SYN/s @ {}s for {}s]",
            self.inner.describe(),
            self.rate,
            (self.start - SimTime::ZERO).as_micros() as f64 / 1e6,
            self.duration.as_secs_f64(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndog_traffic::LoadPhase;

    const T0: SimDuration = SimDuration::from_secs(20);

    fn rec(secs: f64) -> TraceRecord {
        TraceRecord::new(
            SimTime::from_secs_f64(secs),
            Direction::Outbound,
            SegmentKind::Syn,
            "10.1.0.5:1025".parse().unwrap(),
            "192.0.2.80:80".parse().unwrap(),
        )
    }

    #[test]
    fn looping_supply_windows_tile_the_loop_exactly() {
        // A 30 s trace against a 20 s window: window 1 straddles the
        // pass boundary at t = 30.
        let trace = Trace::from_records(vec![rec(5.0), rec(25.0)], SimDuration::from_secs(30));
        let mut supply = LoopingTraceSupply::new(trace);
        let w0: Vec<f64> = supply
            .next_window(0, T0)
            .iter()
            .map(|r| r.time.as_secs_f64())
            .collect();
        assert_eq!(w0, vec![5.0]);
        let w1: Vec<f64> = supply
            .next_window(1, T0)
            .iter()
            .map(|r| r.time.as_secs_f64())
            .collect();
        assert_eq!(w1, vec![25.0, 35.0]); // pass 0's 25 s, pass 1's 5+30 s
                                          // Windows are random-access: asking again (or out of order)
                                          // changes nothing — the resume property.
        let again: Vec<f64> = supply
            .next_window(1, T0)
            .iter()
            .map(|r| r.time.as_secs_f64())
            .collect();
        assert_eq!(again, w1);
    }

    /// The full-scan window the sliced [`LoopingTraceSupply`] replaced,
    /// kept as its oracle: every record of every overlapping pass is
    /// tested against the window, then the result is sorted.
    fn full_scan_window(trace: &Trace, index: u64, window: SimDuration) -> Vec<TraceRecord> {
        let start = (window * index).as_micros();
        let end = start + window.as_micros();
        let pass_len = trace.duration().as_micros();
        let mut out = Vec::new();
        for pass in start / pass_len..=(end - 1) / pass_len {
            let offset = pass_len * pass;
            for record in trace.records() {
                let at = (record.time - SimTime::ZERO).as_micros();
                if at >= pass_len {
                    continue;
                }
                let shifted = offset + at;
                if shifted >= start && shifted < end {
                    let mut record = *record;
                    record.time = SimTime::ZERO + SimDuration::from_micros(shifted);
                    out.push(record);
                }
            }
        }
        out.sort_by_key(|r| r.time);
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn sliced_windows_equal_the_full_scan_oracle(
            // (time µs, source port): times cluster on a coarse grid so
            // ties are common; some land past the pass as stragglers.
            raw in proptest::collection::vec((0u64..40, 0u64..1_000, 0u16..4), 1..60),
            pass_s in 1u64..30,
            window_ms in 1u64..45_000,
            index in 0u64..200,
        ) {
            let pass = SimDuration::from_secs(pass_s);
            let grid = pass.as_micros() / 32;
            let mut trace = Trace::new(pass);
            for (slot, jitter, tag) in raw {
                // Slots 33.. fall past the pass; odd jitter breaks some
                // ties while most records stay on the grid.
                let at = slot * grid + if jitter % 3 == 0 { jitter } else { 0 };
                let mut record = TraceRecord::new(
                    SimTime::from_micros(at),
                    Direction::Outbound,
                    SegmentKind::Syn,
                    SocketAddrV4::new([10, 1, 0, 5].into(), 1024 + tag),
                    "192.0.2.80:80".parse().unwrap(),
                );
                record.fp = jitter;
                // Unsorted pushes: the supply must order them itself.
                trace.push(record);
            }
            let window = SimDuration::from_micros(window_ms * 1_000);
            let mut supply = LoopingTraceSupply::new(trace.clone());
            // Near the pass boundary too, where windows straddle passes.
            let straddle = (pass.as_micros() * (index % 7 + 1)) / window.as_micros();
            for index in [index, straddle, straddle + 1] {
                proptest::prop_assert_eq!(
                    supply.next_window(index, window),
                    full_scan_window(&trace, index, window),
                    "window {} of {:?} over a {:?} pass", index, window, pass
                );
            }
        }
    }

    #[test]
    fn flood_overlay_injects_only_inside_its_interval() {
        let plan = LoadPlan::new(vec![LoadPhase::steady(
            "quiet",
            SimDuration::from_secs(3600),
            0.0,
            0.0,
        )]);
        let inner = PlanSupply::new(plan, SiteProfile::lbl(), 1);
        let mut supply = FloodOverlay::new(
            Box::new(inner),
            10.0,
            SimTime::from_secs(30),
            SimDuration::from_secs(20),
            "199.0.0.80:80".parse().unwrap(),
            7,
        );
        assert!(supply.next_window(0, T0).is_empty(), "before the flood");
        // Window 1 = [20, 40): flood active in [30, 40) ⇒ 100 SYNs.
        let w1 = supply.next_window(1, T0);
        assert_eq!(w1.len(), 100);
        assert!(w1.iter().all(|r| r.src_mac == attack_mac()));
        assert!(w1.iter().all(|r| r.time >= SimTime::from_secs(30)));
        // Window 2 = [40, 60): flood active in [40, 50) ⇒ 100 more.
        assert_eq!(supply.next_window(2, T0).len(), 100);
        assert!(supply.next_window(3, T0).is_empty(), "after the flood");
    }
}
