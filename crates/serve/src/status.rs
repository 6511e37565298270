//! The operator status plane: what a human (or a grep in CI) asks the
//! daemon while it runs.
//!
//! The Prometheus scrape answers "how are the time series trending"; the
//! status plane answers "what is the daemon doing *right now*": per-stub
//! uptime, the detector's current `y_n` against its threshold, alarm
//! state, which throttle keys are engaged, how stale the newest
//! checkpoint generation is, and whether any period was ever missed.
//! The daemon refreshes a shared [`StatusBoard`] at every period
//! boundary; [`StatusBoard::route_handler`] plugs `/status` (plain text)
//! and `/status.json` (machine-readable) into the same
//! [`ScrapeServer`](syndog_telemetry::ScrapeServer) that serves
//! `/metrics`.

use std::sync::{Arc, RwLock};

use serde::Serialize;
use syndog_telemetry::RouteHandler;

/// One hosted agent's live state.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct StubStatus {
    /// The stub prefix the agent watches.
    pub stub: String,
    /// The detection strategy currently in force.
    pub detector: String,
    /// Where the records come from.
    pub supply: String,
    /// Periods closed since this process started (its uptime in
    /// sim-time periods).
    pub uptime_periods: u64,
    /// Total periods the agent has ever closed (survives restore).
    pub periods_closed: u64,
    /// Periods the supervisor failed to close on time — the soak
    /// invariant says this stays zero.
    pub missed_periods: u64,
    /// The detector's current decision statistic `y_n`.
    pub y_n: f64,
    /// The decision threshold `N` in force.
    pub threshold: f64,
    /// The learned SYN/ACK baseline `K̄`, once warmed up.
    pub k_average: Option<f64>,
    /// Whether the most recent period alarmed.
    pub alarm: bool,
    /// Alarms raised over the whole run (counted before history trims).
    pub alarms_total: u64,
    /// Whether mitigation is armed at all.
    pub mitigation: bool,
    /// Engaged throttle keys, rendered (`mac:…` / `net:…`), empty when
    /// disengaged.
    pub throttle_keys: Vec<String>,
}

/// The whole daemon's live state.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct StatusSnapshot {
    /// Current sim-time in seconds (the end of the last closed period).
    pub sim_secs: f64,
    /// The observation period `t0` in seconds.
    pub period_secs: f64,
    /// Newest checkpoint generation on disk, if rotation is enabled.
    pub checkpoint_seq: Option<u64>,
    /// Periods since the newest generation was written (its age).
    pub checkpoint_age_periods: Option<u64>,
    /// Rotations that failed to write a full generation.
    pub checkpoint_failures: u64,
    /// The most recent rotation failure, if any.
    pub last_checkpoint_error: Option<String>,
    /// Successful config hot-reloads applied.
    pub config_reloads: u64,
    /// Malformed config edits rejected.
    pub config_errors: u64,
    /// Whether this process restored from a checkpoint generation.
    pub resumed: bool,
    /// Per-stub drill-down.
    pub stubs: Vec<StubStatus>,
}

impl StatusSnapshot {
    /// Total missed periods across every stub.
    pub fn missed_periods(&self) -> u64 {
        self.stubs.iter().map(|s| s.missed_periods).sum()
    }

    /// Plain-text rendering for `/status` and the CLI's exit summary.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "syndog serve @ t={:.0}s (t0={:.0}s) missed={} reloads={} reload_errors={}{}\n",
            self.sim_secs,
            self.period_secs,
            self.missed_periods(),
            self.config_reloads,
            self.config_errors,
            if self.resumed { " resumed" } else { "" },
        );
        match (self.checkpoint_seq, self.checkpoint_age_periods) {
            (Some(seq), Some(age)) => {
                out.push_str(&format!("checkpoint: seq={seq} age={age} periods\n"));
            }
            _ => out.push_str("checkpoint: disabled\n"),
        }
        if let Some(err) = &self.last_checkpoint_error {
            out.push_str(&format!(
                "checkpoint failures: {} (last: {err})\n",
                self.checkpoint_failures
            ));
        }
        for stub in &self.stubs {
            out.push_str(&format!(
                "stub {} detector={} up={}p closed={}p missed={} y_n={:.4}/{:.2} K={} alarm={} alarms={} throttles=[{}]\n",
                stub.stub,
                stub.detector,
                stub.uptime_periods,
                stub.periods_closed,
                stub.missed_periods,
                stub.y_n,
                stub.threshold,
                stub.k_average
                    .map_or_else(|| "warming".to_string(), |k| format!("{k:.1}")),
                if stub.alarm { "RAISED" } else { "clear" },
                stub.alarms_total,
                stub.throttle_keys.join(","),
            ));
            out.push_str(&format!("  supply: {}\n", stub.supply));
        }
        out
    }

    /// JSON rendering for `/status.json`.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails — impossible for this plain data
    /// type (all floats the daemon writes are finite).
    pub fn render_json(&self) -> String {
        serde_json::to_string(self).expect("status snapshot is serializable")
    }
}

/// The shared, live status the daemon writes and the HTTP routes read.
#[derive(Debug, Clone, Default)]
pub struct StatusBoard {
    inner: Arc<RwLock<StatusSnapshot>>,
}

impl StatusBoard {
    /// A board holding an empty snapshot.
    pub fn new() -> Self {
        StatusBoard::default()
    }

    /// Replaces the published snapshot (called at period boundaries).
    pub fn publish(&self, snapshot: StatusSnapshot) {
        *self.inner.write().expect("status lock") = snapshot;
    }

    /// The current snapshot.
    pub fn read(&self) -> StatusSnapshot {
        self.inner.read().expect("status lock").clone()
    }

    /// A [`RouteHandler`] answering `/status` (text) and `/status.json`
    /// for [`ScrapeServer::bind_with_routes`](syndog_telemetry::ScrapeServer::bind_with_routes).
    pub fn route_handler(&self) -> RouteHandler {
        let board = self.clone();
        Arc::new(move |path| match path {
            "/status" => Some(("text/plain".to_string(), board.read().render_text())),
            "/status.json" => Some(("application/json".to_string(), board.read().render_json())),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatusSnapshot {
        StatusSnapshot {
            sim_secs: 400.0,
            period_secs: 20.0,
            checkpoint_seq: Some(3),
            checkpoint_age_periods: Some(2),
            checkpoint_failures: 1,
            last_checkpoint_error: Some("period 45: disk full".to_string()),
            config_reloads: 1,
            config_errors: 0,
            resumed: true,
            stubs: vec![StubStatus {
                stub: "128.1.0.0/16".to_string(),
                detector: "syndog".to_string(),
                supply: "plan[2 phases, cycle 200s] over LBL".to_string(),
                uptime_periods: 8,
                periods_closed: 20,
                missed_periods: 0,
                y_n: 1.2345,
                threshold: 1.05,
                k_average: Some(101.5),
                alarm: true,
                alarms_total: 2,
                mitigation: true,
                throttle_keys: vec!["mac:02:ff:ff:00:de:ad".to_string()],
            }],
        }
    }

    #[test]
    fn text_rendering_carries_the_drill_down() {
        let text = sample().render_text();
        for needle in [
            "t=400s",
            "missed=0",
            "resumed",
            "checkpoint: seq=3 age=2",
            "checkpoint failures: 1 (last: period 45: disk full)",
            "stub 128.1.0.0/16",
            "y_n=1.2345/1.05",
            "alarm=RAISED",
            "alarms=2",
            "throttles=[mac:02:ff:ff:00:de:ad]",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn json_rendering_is_parseable_and_complete() {
        let json = sample().render_json();
        for needle in [
            "\"stub\":\"128.1.0.0/16\"",
            "\"checkpoint_seq\":3",
            "\"alarms_total\":2",
            "\"missed_periods\":0",
            "\"resumed\":true",
            "\"checkpoint_failures\":1",
            "\"last_checkpoint_error\":\"period 45: disk full\"",
            "\"throttle_keys\":[\"mac:02:ff:ff:00:de:ad\"]",
        ] {
            assert!(json.contains(needle), "missing `{needle}` in:\n{json}");
        }
    }

    #[test]
    fn board_routes_status_paths_only() {
        let board = StatusBoard::new();
        board.publish(sample());
        let route = board.route_handler();
        let (kind, text) = route("/status").unwrap();
        assert_eq!(kind, "text/plain");
        assert!(text.contains("stub 128.1.0.0/16"));
        let (kind, json) = route("/status.json").unwrap();
        assert_eq!(kind, "application/json");
        assert!(json.starts_with('{'));
        assert!(route("/metrics").is_none());
    }
}
