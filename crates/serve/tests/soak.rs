//! The serve subsystem's acceptance soak: ≥ 4 sim-hours of daemon
//! operation with a mid-run flood, a kill → `--resume-latest` →
//! continue cycle, a detector hot-reload at a period boundary, zero
//! missed periods, flat memory across the second half, and checkpoint
//! retention honored.
//!
//! The run is deterministic end to end (window-addressed supplies,
//! index-addressed seeds), which buys the strongest possible resume
//! assertion: the killed-and-resumed daemon's final detection state is
//! *identical* to an uninterrupted run's.

use std::path::{Path, PathBuf};

use syndog::DetectorKind;
use syndog_serve::{PlanSupply, ServeConfig, ServeDaemon, ServeSpec, StubSpec};
use syndog_sim::SimDuration;
use syndog_traffic::{LoadPlan, SiteProfile};

/// 720 × 20 s periods = 14,400 s = 4 sim-hours.
const TOTAL_PERIODS: u64 = 720;
/// Killed mid-flood, right after a rotation boundary (165 = 11 × 15).
const KILL_AT: u64 = 165;
/// The detector hot-reload lands at this period boundary.
const RELOAD_AT: u64 = 400;
const CHECKPOINT_INTERVAL: u64 = 15;
const CHECKPOINT_KEEP: usize = 4;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("syndog-soak-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The 4-hour schedule: quiet baseline, a 400 s / 12 SYN/s flood pulse
/// starting at t = 3000 s (period 150), then a long calm tail. One
/// cycle spans the whole run.
fn flood_plan() -> LoadPlan {
    LoadPlan::parse(
        "phase quiet 3000s benign=1 attack=0\n\
         phase flood 400s benign=1 attack=12\n\
         phase calm 11000s benign=1 attack=0\n",
    )
    .unwrap()
}

fn quiet_plan() -> LoadPlan {
    LoadPlan::parse("phase quiet 14400s benign=1 attack=0\n").unwrap()
}

/// Two stubs: one attacked, one clean — localization must stay per-stub.
fn stubs(seed: u64) -> Vec<StubSpec> {
    let attacked = SiteProfile::lbl().rehomed("128.1.0.0/16".parse().unwrap(), 1);
    let clean = SiteProfile::lbl().rehomed("128.2.0.0/16".parse().unwrap(), 2);
    vec![
        StubSpec {
            stub: attacked.stub(),
            supply: Box::new(PlanSupply::new(flood_plan(), attacked, seed)),
        },
        StubSpec {
            stub: clean.stub(),
            supply: Box::new(PlanSupply::new(quiet_plan(), clean, seed ^ 0xc1ea)),
        },
    ]
}

fn spec(checkpoint_dir: &Path, config_path: &Path) -> ServeSpec {
    ServeSpec {
        period: SimDuration::from_secs(20),
        config: ServeConfig {
            detector: DetectorKind::Syndog,
            threshold: 1.05,
            mitigation: true,
            throttle_key: syndog_router::KeyMode::Mac,
        },
        config_path: Some(config_path.to_path_buf()),
        checkpoint_dir: Some(checkpoint_dir.to_path_buf()),
        checkpoint_interval: CHECKPOINT_INTERVAL,
        checkpoint_keep: CHECKPOINT_KEEP,
        history_keep: 64,
    }
}

/// The hot-reloaded config: swap strategy and threshold, keep mitigation.
const RELOADED: &str = "detector = ewma\nthreshold = 2.5\nmitigation = on\n";

#[test]
fn four_sim_hours_with_flood_kill_resume_and_hot_reload() {
    let ck_dir = temp_dir("main-ck");
    let config_path = ck_dir.join("serve.conf");
    let seed = 42;

    // ---- Phase A: fresh daemon until the kill point (mid-flood). ----
    let mut daemon = ServeDaemon::new(spec(&ck_dir, &config_path), stubs(seed)).unwrap();
    daemon.run_for(KILL_AT);
    let pre_kill = daemon.snapshot();
    assert_eq!(pre_kill.missed_periods(), 0);
    assert!(
        pre_kill.stubs[0].alarms_total >= 1,
        "flood must alarm before the kill: {pre_kill:?}"
    );
    assert!(pre_kill.stubs[0].alarm, "mid-flood the alarm is raised");
    assert!(
        !pre_kill.stubs[0].throttle_keys.is_empty(),
        "mitigation must be engaged mid-flood"
    );
    assert_eq!(pre_kill.stubs[1].alarms_total, 0, "clean stub stays clean");
    assert_eq!(
        pre_kill.checkpoint_seq,
        Some(KILL_AT / CHECKPOINT_INTERVAL - 1)
    );
    // Kill: drop without any orderly shutdown.
    drop(daemon);

    // ---- Phase B: resume-latest restores mid-attack state. ----
    let mut resumed = ServeDaemon::resume_latest(spec(&ck_dir, &config_path), stubs(seed)).unwrap();
    assert!(resumed.resumed());
    assert_eq!(resumed.next_window(), KILL_AT, "resumed at the cut");
    let restored = resumed.snapshot();
    assert!(
        !restored.stubs[0].throttle_keys.is_empty(),
        "engaged throttles survive the restore"
    );
    assert_eq!(restored.stubs[0].y_n, pre_kill.stubs[0].y_n);
    assert_eq!(
        restored.stubs[0].alarms_total,
        pre_kill.stubs[0].alarms_total
    );
    assert_eq!(restored.stubs[0].uptime_periods, 0, "uptime restarts");
    assert_eq!(restored.stubs[0].periods_closed, KILL_AT, "clock survives");

    // Continue to the reload point, apply the detector hot-reload at a
    // period boundary, then run out the rest of the four hours.
    resumed.run_for(RELOAD_AT - KILL_AT);
    assert_eq!(resumed.snapshot().stubs[0].detector, "syndog");
    std::fs::write(&config_path, RELOADED).unwrap();
    resumed.step_period();
    let after_reload = resumed.snapshot();
    assert_eq!(after_reload.config_reloads, 1);
    assert_eq!(after_reload.stubs[0].detector, "ewma", "swap took effect");
    assert_eq!(after_reload.stubs[0].threshold, 2.5);
    assert_eq!(after_reload.missed_periods(), 0, "no restart, no gap");

    // Second half: the state footprint must stay flat.
    let mut footprints = Vec::new();
    while resumed.next_window() < TOTAL_PERIODS {
        resumed.step_period();
        if resumed.next_window() >= TOTAL_PERIODS / 2 && resumed.next_window().is_multiple_of(20) {
            footprints.push(resumed.state_footprint());
        }
    }
    let (low, high) = (
        *footprints.iter().min().unwrap(),
        *footprints.iter().max().unwrap(),
    );
    assert!(
        high <= low + low / 10,
        "state footprint grew across the second half: {footprints:?}"
    );

    // ---- End-of-run invariants. ----
    let end = resumed.snapshot();
    assert_eq!(end.sim_secs, 14_400.0, "four sim-hours elapsed");
    assert_eq!(end.missed_periods(), 0, "zero missed periods over the run");
    assert!(end.stubs[0].alarms_total >= 1, "alarm was raised");
    assert!(!end.stubs[0].alarm, "alarm cleared after the flood");
    assert!(
        end.stubs[0].throttle_keys.is_empty(),
        "throttles released by hysteresis"
    );
    assert_eq!(end.stubs[1].alarms_total, 0, "clean stub never alarmed");
    assert_eq!(end.config_reloads, 1);
    assert_eq!(end.config_errors, 0);

    // Retention honored: exactly keep generations × two stubs on disk,
    // and they are the newest ones.
    let mut files: Vec<String> = std::fs::read_dir(&ck_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
        .filter(|name| name.starts_with("ck-"))
        .collect();
    files.sort();
    assert_eq!(files.len(), CHECKPOINT_KEEP * 2, "{files:?}");
    // Phase A wrote seqs 0..=10; the resumed daemon continued at 11 —
    // one unbroken sequence, 48 generations in all.
    let last_seq = TOTAL_PERIODS / CHECKPOINT_INTERVAL - 1;
    assert!(
        files
            .last()
            .unwrap()
            .starts_with(&format!("ck-{last_seq:08}")),
        "{files:?}"
    );

    // ---- The strongest resume assertion: a never-killed control run
    // with the same workload and the same reload schedule ends in the
    // exact same detection state. ----
    let control_dir = temp_dir("control-ck");
    let control_config = control_dir.join("serve.conf");
    let mut control = ServeDaemon::new(spec(&control_dir, &control_config), stubs(seed)).unwrap();
    control.run_for(RELOAD_AT);
    std::fs::write(&control_config, RELOADED).unwrap();
    control.run_for(TOTAL_PERIODS - RELOAD_AT);
    let control_end = control.snapshot();
    assert_eq!(control_end.missed_periods(), 0);
    for (resumed_stub, control_stub) in end.stubs.iter().zip(&control_end.stubs) {
        assert_eq!(resumed_stub.y_n, control_stub.y_n);
        assert_eq!(resumed_stub.k_average, control_stub.k_average);
        assert_eq!(resumed_stub.alarms_total, control_stub.alarms_total);
        assert_eq!(resumed_stub.periods_closed, control_stub.periods_closed);
    }

    std::fs::remove_dir_all(&ck_dir).ok();
    std::fs::remove_dir_all(&control_dir).ok();
}

/// Fingerprint-keyed throttling rides the version-4 checkpoint through a
/// kill → resume cycle: the engaged `fp:` throttle survives the restore,
/// and the resumed daemon's next checkpoint generation is *byte-identical*
/// to one written by a never-killed control run — the fingerprint tables,
/// exoneration window, and key-mode knob all round-trip exactly.
#[test]
fn fingerprint_throttles_survive_kill_resume_byte_identically() {
    let read_generation = |dir: &Path, seq: u64| -> Vec<(String, Vec<u8>)> {
        let prefix = format!("ck-{seq:08}");
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .unwrap()
                    .to_string_lossy()
                    .starts_with(&prefix)
            })
            .map(|p| {
                (
                    p.file_name().unwrap().to_string_lossy().to_string(),
                    std::fs::read(&p).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    };
    let fp_spec = |dir: &Path, config: &Path| {
        let mut spec = spec(dir, config);
        spec.config.throttle_key = syndog_router::KeyMode::Fingerprint;
        spec
    };
    const END_AT: u64 = 225; // past the flood pulse's start at period 150

    let ck_dir = temp_dir("fp-ck");
    let config_path = ck_dir.join("serve.conf");
    let seed = 42;
    let mut daemon = ServeDaemon::new(fp_spec(&ck_dir, &config_path), stubs(seed)).unwrap();
    daemon.run_for(KILL_AT);
    let pre_kill = daemon.snapshot();
    assert!(
        pre_kill.stubs[0]
            .throttle_keys
            .iter()
            .any(|key| key.starts_with("fp:")),
        "mid-flood the throttle is keyed on the tool fingerprint: {:?}",
        pre_kill.stubs[0].throttle_keys
    );
    drop(daemon); // kill without shutdown

    let mut resumed =
        ServeDaemon::resume_latest(fp_spec(&ck_dir, &config_path), stubs(seed)).unwrap();
    assert!(resumed.resumed());
    let restored = resumed.snapshot();
    assert_eq!(
        restored.stubs[0].throttle_keys, pre_kill.stubs[0].throttle_keys,
        "the fp-keyed throttle survives the restore"
    );
    resumed.run_for(END_AT - KILL_AT);

    // A never-killed control run writes the same generations.
    let control_dir = temp_dir("fp-control-ck");
    let control_config = control_dir.join("serve.conf");
    let mut control =
        ServeDaemon::new(fp_spec(&control_dir, &control_config), stubs(seed)).unwrap();
    control.run_for(END_AT);

    let last_seq = END_AT / CHECKPOINT_INTERVAL - 1;
    let resumed_gen = read_generation(&ck_dir, last_seq);
    let control_gen = read_generation(&control_dir, last_seq);
    assert_eq!(resumed_gen.len(), 2, "one file per stub");
    assert_eq!(
        resumed_gen, control_gen,
        "resumed checkpoints must be byte-identical to the control's"
    );

    std::fs::remove_dir_all(&ck_dir).ok();
    std::fs::remove_dir_all(&control_dir).ok();
}

#[test]
fn resume_falls_back_when_the_newest_generation_is_corrupt() {
    let ck_dir = temp_dir("corrupt-ck");
    let config_path = ck_dir.join("serve.conf");
    let seed = 7;
    let mut daemon = ServeDaemon::new(spec(&ck_dir, &config_path), stubs(seed)).unwrap();
    daemon.run_for(2 * CHECKPOINT_INTERVAL); // two generations
    drop(daemon);

    // Truncate one stub file of the newest generation, as a crash
    // mid-write under a non-atomic writer would have.
    let mut files: Vec<PathBuf> = std::fs::read_dir(&ck_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("ck-"))
        .collect();
    files.sort();
    let newest = files.last().unwrap();
    let bytes = std::fs::read(newest).unwrap();
    std::fs::write(newest, &bytes[..bytes.len() / 2]).unwrap();

    let resumed = ServeDaemon::resume_latest(spec(&ck_dir, &config_path), stubs(seed)).unwrap();
    assert_eq!(
        resumed.next_window(),
        CHECKPOINT_INTERVAL,
        "fell back to the previous (valid) generation"
    );
    std::fs::remove_dir_all(&ck_dir).ok();
}

#[test]
fn status_plane_serves_beside_the_prometheus_scrape() {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;
    use syndog_telemetry::{ScrapeServer, Telemetry};

    let ck_dir = temp_dir("status-ck");
    let config_path = ck_dir.join("serve.conf");
    let mut daemon = ServeDaemon::new(spec(&ck_dir, &config_path), stubs(3)).unwrap();
    let hub = Arc::new(Telemetry::new());
    daemon.attach_telemetry(&hub);
    let server = ScrapeServer::bind_with_routes(
        Arc::clone(&hub),
        "127.0.0.1:0",
        vec![daemon.status_board().route_handler()],
    )
    .unwrap();
    daemon.run_for(5);

    let fetch = |path: &str| {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    };
    let status = fetch("/status");
    assert!(status.contains("stub 128.1.0.0/16"), "{status}");
    assert!(status.contains("missed=0"), "{status}");
    let json = fetch("/status.json");
    assert!(json.contains("\"missed_periods\":0"), "{json}");
    let metrics = fetch("/metrics");
    assert!(metrics.contains("syndog_periods_total"), "{metrics}");
    std::fs::remove_dir_all(&ck_dir).ok();
}

#[test]
fn rotation_failures_are_counted_while_the_daemon_keeps_stepping() {
    let root = temp_dir("rotation-failure");
    let ck_dir = root.join("ck");
    let config_path = root.join("serve.conf");
    let mut daemon = ServeDaemon::new(spec(&ck_dir, &config_path), stubs(11)).unwrap();
    daemon.run_for(CHECKPOINT_INTERVAL);
    let healthy = daemon.snapshot();
    assert_eq!(healthy.checkpoint_seq, Some(0));
    assert_eq!(healthy.checkpoint_failures, 0);
    assert_eq!(healthy.last_checkpoint_error, None);

    // Replace the rotation directory with a regular file: every write
    // under it now fails, whatever the process's privileges.
    std::fs::remove_dir_all(&ck_dir).unwrap();
    std::fs::write(&ck_dir, b"not a directory").unwrap();
    daemon.run_for(2 * CHECKPOINT_INTERVAL);
    let failing = daemon.snapshot();
    assert_eq!(
        daemon.next_window(),
        3 * CHECKPOINT_INTERVAL,
        "kept stepping"
    );
    assert_eq!(failing.missed_periods(), 0);
    assert_eq!(failing.checkpoint_failures, 2, "one per failed rotation");
    let err = failing.last_checkpoint_error.as_deref().unwrap();
    assert!(
        err.starts_with(&format!("period {}: ", 3 * CHECKPOINT_INTERVAL)),
        "{err}"
    );
    // The last good generation is still what the status plane reports,
    // and it ages.
    assert_eq!(failing.checkpoint_seq, Some(0));
    assert_eq!(
        failing.checkpoint_age_periods,
        Some(2 * CHECKPOINT_INTERVAL)
    );
    let json = failing.render_json();
    assert!(json.contains("\"checkpoint_failures\":2"), "{json}");
    assert!(failing.render_text().contains("checkpoint failures: 2"));

    // Once the directory is back, the next interval rotates again and
    // the failure count stops rising.
    std::fs::remove_file(&ck_dir).unwrap();
    std::fs::create_dir(&ck_dir).unwrap();
    daemon.run_for(CHECKPOINT_INTERVAL);
    let recovered = daemon.snapshot();
    assert_eq!(recovered.checkpoint_failures, 2);
    assert_eq!(recovered.checkpoint_age_periods, Some(0));
    assert_eq!(recovered.missed_periods(), 0);
    std::fs::remove_dir_all(&root).ok();
}
