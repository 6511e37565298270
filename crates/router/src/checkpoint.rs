//! Versioned, checksummed checkpoint/restore of detection state.
//!
//! A SYN-dog agent learns continuously: the SYN/ACK EWMA `K̄` takes many
//! periods to converge, and the CUSUM statistic `y_n` carries the whole
//! attack history. A router that restarts mid-attack must not re-learn
//! either — §3.1's normalization is only as good as the `K̄` behind it.
//! [`Checkpoint`] captures everything the detection pipeline needs to
//! resume exactly where it stopped:
//!
//! - the detector (an [`AnyDetector`]: which strategy, its config, learned
//!   baseline, decision statistic, period count),
//! - the router's period clock and stub prefix,
//! - both sniffers' pending (`syn`/`synack`/`fin`/`rst` since the last
//!   period close) and lifetime counters,
//! - the recorded detection series and alarms, plus the agent's
//!   period-index base,
//! - the mitigation engine, when one is attached ([`MitigationState`]):
//!   installed throttle keys with exact token-bucket fill levels, the
//!   hysteresis gate and calm streak, the armed locator's per-MAC
//!   tallies, and the decision counters — a restarted router resumes
//!   throttling mid-attack instead of re-deriving the engagement.
//!
//! # Wire format
//!
//! A checkpoint file is a JSON envelope:
//!
//! ```json
//! {"magic":"syndog-checkpoint","version":4,"crc32":3735928559,"payload":"{…}"}
//! ```
//!
//! The `payload` string is the serialized [`Checkpoint`]; `crc32` is the
//! IEEE CRC-32 of the payload's UTF-8 bytes. Rules, in validation order:
//!
//! 1. `magic` must be exactly `syndog-checkpoint` ([`CheckpointError::BadMagic`]),
//! 2. `version` must be one this build understands —
//!    [`MIN_CHECKPOINT_VERSION`] through [`CHECKPOINT_VERSION`]
//!    ([`CheckpointError::UnsupportedVersion`]); any payload-schema change
//!    bumps the version,
//! 3. `crc32` must match the payload bytes ([`CheckpointError::CrcMismatch`]) —
//!    a truncated or hand-edited file fails closed rather than restoring
//!    half a detector.
//!
//! The round-trip guarantee (checkpoint at period `k`, restore, feed the
//! rest of the trace → detections identical to an uninterrupted run) is
//! exercised in `tests/faults.rs`.

use syndog::{AnyDetector, Detection};
use syndog_net::{Ipv4Net, SegmentKind};
use syndog_sim::{SimDuration, SimTime};
use syndog_traffic::trace::Direction;

use serde::{Deserialize, Serialize};

use crate::agent::Alarm;
use crate::mitigate::{MitigationEngine, MitigationState};
use crate::router::LeafRouter;
use crate::sniffer::Sniffer;

/// The checkpoint payload schema version this build writes.
///
/// Version history: 1 — detector/router/sniffer state only; 2 — adds the
/// optional `mitigation` payload field (throttle buckets, hysteresis
/// gate, locator tallies, decision counters); 3 — the detector becomes a
/// strategy-tagged [`AnyDetector`] union and sniffers carry pending
/// `fin`/`rst` counts; 4 — the mitigation state gains the SYN
/// fingerprint subsystem (lifetime and per-period fingerprint tables,
/// the locator's attack-fingerprint tallies, the flash-crowd exoneration
/// window and tally, and the policy's key-mode/exoneration knobs).
pub const CHECKPOINT_VERSION: u32 = 4;

/// The oldest payload schema version this build still reads. Version-2
/// and version-3 files restore losslessly: a bare detector map is taken
/// as the paper strategy, absent `fin`/`rst` counts as zero, and absent
/// fingerprint state as empty tables under MAC keying — exactly what
/// those builds maintained.
pub const MIN_CHECKPOINT_VERSION: u32 = 2;

/// The envelope magic string.
const MAGIC: &str = "syndog-checkpoint";

/// Slice-by-8 lookup tables for [`crc32`], built at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k]`
/// advances a byte's contribution past `k` further zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`) — the same checksum
/// pcap tooling and zlib use, table-driven eight bytes at a time to stay
/// dependency-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Why a checkpoint could not be parsed or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file is not valid JSON or not a checkpoint envelope/payload.
    Malformed(String),
    /// The envelope magic is wrong — not a checkpoint file at all.
    BadMagic(String),
    /// The envelope's schema version is one this build does not read.
    UnsupportedVersion(u32),
    /// The payload bytes do not match the envelope checksum.
    CrcMismatch {
        /// The checksum the envelope claims.
        expected: u32,
        /// The checksum the payload actually has.
        actual: u32,
    },
    /// The payload parsed but describes an unusable state.
    InvalidState(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
            CheckpointError::BadMagic(found) => {
                write!(f, "not a checkpoint file (magic `{found}`, want `{MAGIC}`)")
            }
            CheckpointError::UnsupportedVersion(version) => write!(
                f,
                "unsupported checkpoint version {version} (this build reads \
                 {MIN_CHECKPOINT_VERSION} through {CHECKPOINT_VERSION})"
            ),
            CheckpointError::CrcMismatch { expected, actual } => write!(
                f,
                "checkpoint CRC mismatch: envelope says {expected:#010x}, payload is {actual:#010x}"
            ),
            CheckpointError::InvalidState(why) => write!(f, "invalid checkpoint state: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One sniffer's counters, captured for restore.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SnifferState {
    /// Pending SYN count (since the last period close).
    pub syn: u64,
    /// Pending SYN/ACK count.
    pub synack: u64,
    /// Pending FIN count.
    pub fin: u64,
    /// Pending RST count.
    pub rst: u64,
    /// Lifetime frames seen.
    pub frames_seen: u64,
    /// Lifetime malformed frames.
    pub malformed: u64,
    /// Lifetime per-[`SegmentKind`] tallies, in [`SegmentKind::ALL`]
    /// order. A `Vec` on the wire so the arity is validated on restore
    /// rather than assumed.
    pub kinds: Vec<u64>,
}

// Hand-written so version-2 payloads (no `fin`/`rst` fields) still parse:
// absent close-side counts restore as zero, which is exactly what a
// version-2 sniffer had accumulated.
impl Deserialize for SnifferState {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let map = serde::MapAccess::new(value, "SnifferState")?;
        let pending_or_zero = |name: &str| match map.field(name) {
            Ok(v) => Deserialize::from_value(v),
            Err(_) => Ok(0),
        };
        Ok(SnifferState {
            syn: Deserialize::from_value(map.field("syn")?)?,
            synack: Deserialize::from_value(map.field("synack")?)?,
            fin: pending_or_zero("fin")?,
            rst: pending_or_zero("rst")?,
            frames_seen: Deserialize::from_value(map.field("frames_seen")?)?,
            malformed: Deserialize::from_value(map.field("malformed")?)?,
            kinds: Deserialize::from_value(map.field("kinds")?)?,
        })
    }
}

impl SnifferState {
    /// Captures a sniffer's counters.
    pub fn capture(sniffer: &Sniffer) -> Self {
        SnifferState {
            syn: sniffer.syn_count(),
            synack: sniffer.synack_count(),
            fin: sniffer.fin_count(),
            rst: sniffer.rst_count(),
            frames_seen: sniffer.frames_seen(),
            malformed: sniffer.malformed(),
            kinds: SegmentKind::ALL
                .iter()
                .map(|&k| sniffer.kind_count(k))
                .collect(),
        }
    }

    fn restore_into(&self, sniffer: &mut Sniffer) -> Result<(), CheckpointError> {
        let kinds: [u64; SegmentKind::ALL.len()] =
            self.kinds.as_slice().try_into().map_err(|_| {
                CheckpointError::InvalidState(format!(
                    "sniffer kind tallies: got {} entries, want {}",
                    self.kinds.len(),
                    SegmentKind::ALL.len()
                ))
            })?;
        sniffer.restore_counts(
            self.syn,
            self.synack,
            self.fin,
            self.rst,
            self.frames_seen,
            self.malformed,
            kinds,
        );
        Ok(())
    }
}

/// A recorded alarm, flattened to serializable primitives.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlarmState {
    /// Detector-relative period index.
    pub period: u64,
    /// Alarm time in simulated microseconds.
    pub time_micros: u64,
    /// The CUSUM statistic that crossed.
    pub statistic: f64,
}

impl AlarmState {
    /// Captures an [`Alarm`].
    pub fn from_alarm(alarm: &Alarm) -> Self {
        AlarmState {
            period: alarm.period,
            time_micros: alarm.time.as_micros(),
            statistic: alarm.statistic,
        }
    }

    /// Rebuilds the [`Alarm`].
    pub fn to_alarm(&self) -> Alarm {
        Alarm {
            period: self.period,
            time: SimTime::from_micros(self.time_micros),
            statistic: self.statistic,
        }
    }
}

/// The complete captured state of a detection pipeline (see the
/// [module docs](crate::checkpoint) for what is covered and why).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The router's stub prefix, in CIDR notation.
    pub stub: String,
    /// The observation period `t0`, in microseconds.
    pub period_micros: u64,
    /// Absolute index of the period the router is accumulating.
    pub current_period: u64,
    /// Absolute period index of the detector's period 0.
    pub period_base: u64,
    /// The outbound sniffer's counters.
    pub outbound: SnifferState,
    /// The inbound sniffer's counters.
    pub inbound: SnifferState,
    /// The detector: strategy tag, config, learned baseline, decision
    /// statistic, period count. Serialized externally tagged
    /// (`{"syndog": {...}}`); version-2 payloads carried the paper
    /// detector bare, which [`AnyDetector`]'s deserializer still accepts.
    pub detector: AnyDetector,
    /// The per-period detection series recorded so far.
    pub detections: Vec<Detection>,
    /// The alarms raised so far.
    pub alarms: Vec<AlarmState>,
    /// The mitigation engine's state — `None` for agents without a
    /// [`MitigationEngine`]. Adding this field is the version 1 → 2
    /// payload schema change; version-1 files are rejected at the
    /// envelope's version check, never half-read.
    pub mitigation: Option<MitigationState>,
}

/// The on-disk envelope around a serialized [`Checkpoint`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Envelope {
    magic: String,
    version: u32,
    crc32: u32,
    payload: String,
}

impl Checkpoint {
    /// Captures a detection pipeline's state.
    pub fn capture(
        router: &LeafRouter,
        period_base: u64,
        detector: &AnyDetector,
        detections: &[Detection],
        alarms: &[Alarm],
        mitigation: Option<&MitigationEngine>,
    ) -> Self {
        Checkpoint {
            stub: router.stub().to_string(),
            period_micros: router.period().as_micros(),
            current_period: router.current_period(),
            period_base,
            outbound: SnifferState::capture(router.sniffer(Direction::Outbound)),
            inbound: SnifferState::capture(router.sniffer(Direction::Inbound)),
            detector: detector.clone(),
            detections: detections.to_vec(),
            alarms: alarms.iter().map(AlarmState::from_alarm).collect(),
            mitigation: mitigation.map(MitigationEngine::snapshot),
        }
    }

    /// Rebuilds the [`LeafRouter`] this checkpoint describes: stub,
    /// period clock position, and both sniffers' counters.
    pub(crate) fn restore_router(&self) -> Result<LeafRouter, CheckpointError> {
        let stub: Ipv4Net = self.stub.parse().map_err(|_| {
            CheckpointError::InvalidState(format!("bad stub prefix `{}`", self.stub))
        })?;
        if self.period_micros == 0 {
            return Err(CheckpointError::InvalidState(
                "zero observation period".to_string(),
            ));
        }
        let mut router = LeafRouter::new(stub, SimDuration::from_micros(self.period_micros));
        router.set_current_period(self.current_period);
        self.outbound
            .restore_into(router.sniffer_mut(Direction::Outbound))?;
        self.inbound
            .restore_into(router.sniffer_mut(Direction::Inbound))?;
        Ok(router)
    }

    /// Rebuilds the [`MitigationEngine`] this checkpoint carries, if any.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::InvalidState`] when the captured
    /// mitigation state is internally inconsistent (unparseable stub,
    /// non-positive period or threshold).
    pub fn restore_mitigation(&self) -> Result<Option<MitigationEngine>, CheckpointError> {
        self.mitigation
            .as_ref()
            .map(|state| {
                MitigationEngine::from_state(state)
                    .map_err(|why| CheckpointError::InvalidState(format!("mitigation: {why}")))
            })
            .transpose()
    }

    /// Serializes to the versioned, checksummed JSON envelope.
    ///
    /// # Panics
    ///
    /// Panics if the detector state holds non-finite floats — impossible
    /// for states produced by the detector itself (`y_n` and `K̄` are
    /// finite by construction).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let payload = serde_json::to_string(self)
            .expect("checkpoint state is finite-valued and serializable");
        // The envelope's fields are fixed, so it is rendered directly —
        // byte for byte what serializing an `Envelope` writes — rather
        // than cloning the payload into a value tree. The slack covers
        // the envelope fields and the payload's escaped quotes.
        let mut out = String::with_capacity(payload.len() + payload.len() / 4 + 96);
        write!(
            out,
            r#"{{"magic":"{MAGIC}","version":{CHECKPOINT_VERSION},"crc32":{},"payload":"#,
            crc32(payload.as_bytes())
        )
        .expect("write to String");
        serde_json::push_str_literal(&mut out, &payload);
        out.push('}');
        out
    }

    /// Parses and validates a JSON envelope (magic, then version, then
    /// CRC, then payload — see the [module docs](crate::checkpoint)).
    ///
    /// # Errors
    ///
    /// Returns the [`CheckpointError`] for the first failed validation.
    pub fn from_json(text: &str) -> Result<Checkpoint, CheckpointError> {
        let envelope: Envelope = serde_json::from_str(text)
            .map_err(|err| CheckpointError::Malformed(format!("envelope: {err:?}")))?;
        if envelope.magic != MAGIC {
            return Err(CheckpointError::BadMagic(envelope.magic));
        }
        if !(MIN_CHECKPOINT_VERSION..=CHECKPOINT_VERSION).contains(&envelope.version) {
            return Err(CheckpointError::UnsupportedVersion(envelope.version));
        }
        let actual = crc32(envelope.payload.as_bytes());
        if actual != envelope.crc32 {
            return Err(CheckpointError::CrcMismatch {
                expected: envelope.crc32,
                actual,
            });
        }
        serde_json::from_str(&envelope.payload)
            .map_err(|err| CheckpointError::Malformed(format!("payload: {err:?}")))
    }

    /// Writes the checkpoint to `path` atomically: serialize to a
    /// sibling temp file in the same directory, flush to disk, then
    /// rename over the target. A crash mid-write leaves either the
    /// previous complete file or a stray `.tmp` — never a truncated
    /// checkpoint under the final name.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (create, write, sync, rename).
    pub fn write_atomic(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let file_name = path
            .file_name()
            .and_then(|name| name.to_str())
            .unwrap_or("checkpoint");
        let tmp = path.with_file_name(format!(".{file_name}.tmp-{}", std::process::id()));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(self.to_json().as_bytes())?;
            file.sync_all()?;
        }
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(err) => {
                let _ = std::fs::remove_file(&tmp);
                Err(err)
            }
        }
    }

    /// Reads and validates a checkpoint file. I/O failures (missing
    /// file, permission) surface as [`CheckpointError::Malformed`] so a
    /// caller probing rotation slots can treat "unreadable" and
    /// "corrupt" uniformly: skip the slot, try the previous one.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when the file cannot be read or
    /// fails any envelope validation.
    pub fn read_file(path: &std::path::Path) -> Result<Checkpoint, CheckpointError> {
        let text = std::fs::read_to_string(path)
            .map_err(|err| CheckpointError::Malformed(format!("read {}: {err}", path.display())))?;
        Checkpoint::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndog::SynDogConfig;

    fn sample_checkpoint() -> Checkpoint {
        let mut detector = syndog::DetectorKind::Syndog.build(SynDogConfig::paper_default());
        for _ in 0..5 {
            detector.observe(syndog::PeriodSignals {
                syn: 100,
                synack: 98,
                fin: 90,
                rst: 4,
            });
        }
        let mut router =
            LeafRouter::new("10.1.0.0/16".parse().unwrap(), SimDuration::from_secs(20));
        router
            .sniffer_mut(Direction::Outbound)
            .observe_kind(SegmentKind::Syn);
        router.set_current_period(5);
        Checkpoint::capture(&router, 0, &detector, &[], &[], None)
    }

    fn engaged_engine() -> crate::mitigate::MitigationEngine {
        use crate::mitigate::{MitigationEngine, MitigationPolicy};
        let config = SynDogConfig::paper_default();
        let mut engine = MitigationEngine::new(
            "10.1.0.0/16".parse().unwrap(),
            &config,
            MitigationPolicy::paper_default(),
        );
        let detection = Detection {
            period: 0,
            delta: 200.0,
            k_average: 100.0,
            x: 2.0,
            statistic: 1.65,
            alarm: true,
        };
        engine.on_detection(&detection, 0);
        assert!(engine.is_engaged());
        engine
    }

    /// The bitwise CRC-32 the table-driven [`crc32`] replaced, kept as
    /// its oracle.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest::proptest! {
        #[test]
        fn crc32_matches_the_bitwise_oracle_on_short_buffers(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..65),
        ) {
            // Every prefix, so each case covers lengths 0 through its own.
            for len in 0..=bytes.len() {
                proptest::prop_assert_eq!(crc32(&bytes[..len]), crc32_bitwise(&bytes[..len]));
            }
        }
    }

    #[test]
    fn crc32_matches_the_bitwise_oracle_on_a_long_buffer() {
        let mut rng = proptest::prelude::TestRng::for_test("crc32_long_buffer");
        let long: Vec<u8> = (0..100_003).map(|_| rng.next_u64() as u8).collect();
        // Every alignment of the eight-byte main loop against its tail.
        for skip in 0..8 {
            assert_eq!(crc32(&long[skip..]), crc32_bitwise(&long[skip..]));
        }
    }

    #[test]
    fn envelope_round_trips() {
        let checkpoint = sample_checkpoint();
        let json = checkpoint.to_json();
        let parsed = Checkpoint::from_json(&json).unwrap();
        assert_eq!(parsed, checkpoint);
        let router = parsed.restore_router().unwrap();
        assert_eq!(router.current_period(), 5);
        assert_eq!(router.sniffer(Direction::Outbound).syn_count(), 1);
        assert_eq!(
            router
                .sniffer(Direction::Outbound)
                .kind_count(SegmentKind::Syn),
            1
        );
    }

    #[test]
    fn tampered_payload_fails_the_crc() {
        let json = sample_checkpoint().to_json();
        // Flip one digit inside the payload without breaking the JSON.
        let tampered = json.replacen("\\\"current_period\\\":5", "\\\"current_period\\\":6", 1);
        assert_ne!(json, tampered, "tamper target must exist");
        match Checkpoint::from_json(&tampered) {
            Err(CheckpointError::CrcMismatch { expected, actual }) => assert_ne!(expected, actual),
            other => panic!("want CrcMismatch, got {other:?}"),
        }
    }

    #[test]
    fn wrong_magic_and_version_are_rejected_in_order() {
        let checkpoint = sample_checkpoint();
        let payload = serde_json::to_string(&checkpoint).unwrap();
        let crc = crc32(payload.as_bytes());
        let bad_magic = serde_json::to_string(&Envelope {
            magic: "not-a-checkpoint".to_string(),
            version: CHECKPOINT_VERSION,
            crc32: crc,
            payload: payload.clone(),
        })
        .unwrap();
        assert_eq!(
            Checkpoint::from_json(&bad_magic),
            Err(CheckpointError::BadMagic("not-a-checkpoint".to_string()))
        );
        let future = serde_json::to_string(&Envelope {
            magic: MAGIC.to_string(),
            version: CHECKPOINT_VERSION + 1,
            crc32: crc,
            payload,
        })
        .unwrap();
        assert_eq!(
            Checkpoint::from_json(&future),
            Err(CheckpointError::UnsupportedVersion(CHECKPOINT_VERSION + 1))
        );
        assert!(matches!(
            Checkpoint::from_json("{"),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn version_1_files_are_rejected() {
        let payload = serde_json::to_string(&sample_checkpoint()).unwrap();
        let crc = crc32(payload.as_bytes());
        let ancient = serde_json::to_string(&Envelope {
            magic: MAGIC.to_string(),
            version: 1,
            crc32: crc,
            payload,
        })
        .unwrap();
        assert_eq!(
            Checkpoint::from_json(&ancient),
            Err(CheckpointError::UnsupportedVersion(1))
        );
    }

    #[test]
    fn version_2_checkpoint_restores_with_the_default_detector() {
        // A frozen version-2 payload, exactly as the previous release
        // wrote it: bare (untagged) SynDogDetector, sniffers without
        // pending fin/rst counts. It must restore losslessly: the paper
        // strategy, zero pending closes.
        let payload = concat!(
            r#"{"stub":"10.1.0.0/16","period_micros":20000000,"current_period":5,"#,
            r#""period_base":0,"#,
            r#""outbound":{"syn":2,"synack":0,"frames_seen":12,"malformed":1,"#,
            r#""kinds":[2,0,1,1,3,4,0]},"#,
            r#""inbound":{"syn":0,"synack":3,"frames_seen":7,"malformed":0,"#,
            r#""kinds":[0,3,1,0,2,1,0]},"#,
            r#""detector":{"config":{"observation_period_secs":20.0,"alpha":0.9,"#,
            r#""offset":0.35,"min_attack_mean":0.7,"threshold":1.05},"#,
            r#""estimator":{"alpha":0.9,"average":98.5},"#,
            r#""cusum":{"a":0.35,"threshold":1.05,"y":0.25,"n":5,"first_alarm":null}},"#,
            r#""detections":[],"alarms":[],"mitigation":null}"#
        );
        let envelope = serde_json::to_string(&Envelope {
            magic: MAGIC.to_string(),
            version: 2,
            crc32: crc32(payload.as_bytes()),
            payload: payload.to_string(),
        })
        .unwrap();
        let checkpoint = Checkpoint::from_json(&envelope).unwrap();
        assert!(matches!(checkpoint.detector, AnyDetector::Syndog(_)));
        assert_eq!(checkpoint.detector.kind(), syndog::DetectorKind::Syndog);
        assert_eq!(checkpoint.detector.periods_observed(), 5);
        assert_eq!(checkpoint.detector.k_average(), Some(98.5));
        assert_eq!(checkpoint.outbound.fin, 0);
        assert_eq!(checkpoint.outbound.rst, 0);
        let router = checkpoint.restore_router().unwrap();
        assert_eq!(router.current_period(), 5);
        assert_eq!(router.sniffer(Direction::Outbound).syn_count(), 2);
        assert_eq!(router.sniffer(Direction::Outbound).fin_count(), 0);
        // Re-saving writes the current version; the state survives the
        // upgrade round-trip.
        let resaved = Checkpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(resaved, checkpoint);
    }

    #[test]
    fn version_3_checkpoint_restores_with_empty_fingerprint_state() {
        // A frozen version-3 payload, exactly as the previous release
        // wrote it: tagged detector, sniffers with pending fin/rst, and a
        // mid-attack mitigation block that predates the fingerprint
        // subsystem — no fingerprint tables, no exoneration window, no
        // key-mode knob. It must restore to what that engine was: MAC
        // keying, empty fingerprint state.
        let payload = concat!(
            r#"{"stub":"10.1.0.0/16","period_micros":20000000,"current_period":5,"#,
            r#""period_base":0,"#,
            r#""outbound":{"syn":2,"synack":0,"fin":1,"rst":0,"frames_seen":12,"#,
            r#""malformed":1,"kinds":[2,0,1,1,3,4,0]},"#,
            r#""inbound":{"syn":0,"synack":3,"fin":0,"rst":1,"frames_seen":7,"#,
            r#""malformed":0,"kinds":[0,3,1,0,2,1,0]},"#,
            r#""detector":{"syndog":{"config":{"observation_period_secs":20.0,"alpha":0.9,"#,
            r#""offset":0.35,"min_attack_mean":0.7,"threshold":1.05},"#,
            r#""estimator":{"alpha":0.9,"average":98.5},"#,
            r#""cusum":{"a":0.35,"threshold":1.05,"y":1.05,"n":5,"first_alarm":4}}},"#,
            r#""detections":[],"alarms":[],"#,
            r#""mitigation":{"policy":{"bucket_fraction":0.05,"min_tokens_per_period":1.0,"#,
            r#""burst_periods":1.0,"release_periods":3,"suspect_min_share":0.5},"#,
            r#""offset":0.35,"threshold":1.05,"period_secs":20.0,"#,
            r#""stub":"10.1.0.0/16","armed":true,"activity":[],"#,
            r#""engagement":{"allowance":5.0,"buckets":[]},"#,
            r#""gate":1.05,"calm_streak":0,"suspect":null,"#,
            r#""stats":{"engagements":1,"releases":0,"engaged_periods":0,"#,
            r#""throttled_syns":0,"passed_syns":0,"collateral_syns":0,"#,
            r#""attack_syns_offered":0,"attack_syns_forwarded":0},"#,
            r#""engaged_at":4,"released_at":null}}"#
        );
        let envelope = serde_json::to_string(&Envelope {
            magic: MAGIC.to_string(),
            version: 3,
            crc32: crc32(payload.as_bytes()),
            payload: payload.to_string(),
        })
        .unwrap();
        let checkpoint = Checkpoint::from_json(&envelope).unwrap();
        let engine = checkpoint
            .restore_mitigation()
            .unwrap()
            .expect("mitigation present");
        assert!(engine.is_engaged());
        assert_eq!(
            engine.policy().key_mode,
            crate::mitigate::KeyMode::Mac,
            "version-3 engines keyed by MAC"
        );
        assert!(engine.fingerprints().is_empty());
        assert!(engine.locator().attack_fingerprints().is_empty());
        assert_eq!(engine.stats().exonerated_periods, 0);
        // Re-saving writes version 4 and the state survives the upgrade.
        let resaved = Checkpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(resaved, checkpoint);
    }

    #[test]
    fn version_4_round_trips_mid_attack_fingerprint_throttles() {
        use crate::mitigate::{KeyMode, MitigationEngine, MitigationPolicy, ThrottleKey};
        use std::net::SocketAddrV4;
        use syndog_net::MacAddr;
        use syndog_traffic::trace::TraceRecord;

        let tool = syndog_fingerprint::FingerprintKey::new(255, 512, 0, 0, 0).to_bits();
        let syn = |ms: u64, src: &str, host: u32| {
            TraceRecord::new(
                SimTime::from_micros(ms * 1000),
                Direction::Outbound,
                SegmentKind::Syn,
                src.parse::<SocketAddrV4>().unwrap(),
                "192.0.2.80:80".parse().unwrap(),
            )
            .with_mac(MacAddr::for_host(0xfffe, host))
            .with_fp(tool)
        };
        let config = SynDogConfig::paper_default();
        let mut engine = MitigationEngine::new(
            "10.1.0.0/16".parse().unwrap(),
            &config,
            MitigationPolicy::paper_default().with_key_mode(KeyMode::Fingerprint),
        );
        let detection = Detection {
            period: 0,
            delta: 200.0,
            k_average: 100.0,
            x: 2.0,
            statistic: 1.65,
            alarm: true,
        };
        engine.on_detection(&detection, 0);
        // A rotating-prefix, rotating-MAC flood mid-throttle: the bucket
        // is keyed on the tool's fingerprint.
        for i in 0..60u64 {
            engine.process(&syn(
                i * 100,
                &format!("172.16.{}.9:6000", i % 40),
                (i % 8) as u32,
            ));
        }
        assert_eq!(engine.keys(), vec![ThrottleKey::Fingerprint(tool)]);
        assert!(engine.stats().throttled_syns > 0);

        let mut checkpoint = sample_checkpoint();
        checkpoint.mitigation = Some(engine.snapshot());
        let json = checkpoint.to_json();
        let envelope: Envelope = serde_json::from_str(&json).unwrap();
        assert_eq!(envelope.version, 4, "fingerprint state is a v4 payload");
        let parsed = Checkpoint::from_json(&json).unwrap();
        assert_eq!(parsed, checkpoint);
        let mut restored = parsed
            .restore_mitigation()
            .unwrap()
            .expect("mitigation present");
        assert_eq!(restored, engine);
        // The restored engine keeps making byte-identical decisions.
        for i in 60..120u64 {
            let record = syn(
                i * 100,
                &format!("172.16.{}.9:6000", i % 40),
                (i % 8) as u32,
            );
            assert_eq!(engine.process(&record), restored.process(&record));
        }
        assert_eq!(engine, restored);
    }

    /// A fingerprint-keyed agent driven through a calm baseline into a
    /// rotating-source flood, checkpointed mid-throttle: detections,
    /// alarms, lifetime and per-period fingerprint tables, and an
    /// engaged bucket with a fractional fill level.
    fn mid_attack_fingerprint_checkpoint() -> Checkpoint {
        use crate::mitigate::{KeyMode, MitigationPolicy, ThrottleKey};
        use crate::SynDogAgent;
        use syndog_net::MacAddr;
        use syndog_traffic::trace::TraceRecord;

        let tool = syndog_fingerprint::FingerprintKey::new(255, 512, 0, 0, 0).to_bits();
        let browser = syndog_fingerprint::FingerprintKey::new(64, 64240, 1460, 7, 0x1f).to_bits();
        let record = |us: u64, dir, kind, src: String, dst: String| {
            TraceRecord::new(
                SimTime::from_micros(us),
                dir,
                kind,
                src.parse().unwrap(),
                dst.parse().unwrap(),
            )
        };
        let mut agent = SynDogAgent::new(
            "10.1.0.0/16".parse().unwrap(),
            SynDogConfig::paper_default(),
        );
        agent.set_mitigation(MitigationPolicy::paper_default().with_key_mode(KeyMode::Fingerprint));
        let period_us = 20_000_000;
        for period in 0..14u64 {
            let base = period * period_us;
            for i in 0..60u64 {
                let at = base + i * 300_000 + 7;
                let host = format!("10.1.{}.{}:{}", i % 5, 10 + i % 7, 20_000 + i);
                let server = format!("192.0.2.{}:443", 1 + i % 3);
                let syn = record(
                    at,
                    Direction::Outbound,
                    SegmentKind::Syn,
                    host.clone(),
                    server.clone(),
                )
                .with_mac(MacAddr::for_host(1, (i % 4) as u32))
                .with_fp(browser);
                agent.filter_record(&syn);
                agent.observe_record(&record(
                    at + 900,
                    Direction::Inbound,
                    SegmentKind::SynAck,
                    server,
                    host,
                ));
            }
            if period >= 9 {
                for i in 0..240u64 {
                    let at = base + i * 80_000 + 13;
                    let flood = record(
                        at,
                        Direction::Outbound,
                        SegmentKind::Syn,
                        format!("172.16.{}.9:6000", i % 40),
                        "192.0.2.80:80".to_string(),
                    )
                    .with_mac(MacAddr::for_host(0xfffe, (i % 8) as u32))
                    .with_fp(tool);
                    agent.filter_record(&flood);
                }
            }
            agent.close_periods_to(period + 1);
        }
        assert!(!agent.alarms().is_empty(), "the flood must alarm");
        let engine = agent.mitigation().expect("mitigation armed");
        assert!(engine.keys().contains(&ThrottleKey::Fingerprint(tool)));
        agent.checkpoint()
    }

    #[test]
    fn mid_attack_fingerprint_checkpoint_bytes_are_pinned() {
        // The exact on-disk bytes of a fixed v4 checkpoint. Any change to
        // the JSON codec, the envelope rendering or the checksum that
        // alters what is written fails here.
        let json = mid_attack_fingerprint_checkpoint().to_json();
        assert!(json.starts_with(r#"{"magic":"syndog-checkpoint","version":4,"crc32":"#));
        assert_eq!((json.len(), crc32(json.as_bytes())), (4372, 0x88A3_6B54));
        // The directly rendered envelope is what serializing one writes.
        let envelope: Envelope = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&envelope).unwrap(), json);
        assert_eq!(Checkpoint::from_json(&json).unwrap().to_json(), json);
    }

    #[test]
    fn every_strategy_round_trips_through_the_envelope() {
        for kind in syndog::DetectorKind::ALL {
            let mut detector = kind.build(SynDogConfig::paper_default());
            for _ in 0..7 {
                detector.observe(syndog::PeriodSignals {
                    syn: 900,
                    synack: 850,
                    fin: 820,
                    rst: 40,
                });
            }
            let router =
                LeafRouter::new("10.1.0.0/16".parse().unwrap(), SimDuration::from_secs(20));
            let checkpoint = Checkpoint::capture(&router, 0, &detector, &[], &[], None);
            let parsed = Checkpoint::from_json(&checkpoint.to_json()).unwrap();
            assert_eq!(parsed.detector, detector, "{kind} state must round-trip");
            assert_eq!(parsed.detector.kind(), kind);
        }
    }

    #[test]
    fn invalid_restored_state_is_rejected() {
        let mut checkpoint = sample_checkpoint();
        checkpoint.outbound.kinds.pop();
        assert!(matches!(
            checkpoint.restore_router(),
            Err(CheckpointError::InvalidState(_))
        ));
        let mut bad_stub = sample_checkpoint();
        bad_stub.stub = "not-a-prefix".to_string();
        assert!(matches!(
            bad_stub.restore_router(),
            Err(CheckpointError::InvalidState(_))
        ));
        let mut zero_period = sample_checkpoint();
        zero_period.period_micros = 0;
        assert!(matches!(
            zero_period.restore_router(),
            Err(CheckpointError::InvalidState(_))
        ));
    }

    #[test]
    fn mitigation_state_round_trips_through_the_envelope() {
        let engine = engaged_engine();
        let mut checkpoint = sample_checkpoint();
        checkpoint.mitigation = Some(engine.snapshot());
        let json = checkpoint.to_json();
        let parsed = Checkpoint::from_json(&json).unwrap();
        assert_eq!(parsed, checkpoint);
        let restored = parsed
            .restore_mitigation()
            .unwrap()
            .expect("mitigation state present");
        assert_eq!(restored, engine);
        assert!(restored.is_engaged());
    }

    #[test]
    fn checkpoint_without_mitigation_restores_as_none() {
        let checkpoint = sample_checkpoint();
        assert_eq!(checkpoint.mitigation, None);
        let parsed = Checkpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(parsed.mitigation, None);
        assert_eq!(parsed.restore_mitigation(), Ok(None));
    }

    #[test]
    fn corrupt_mitigation_state_is_rejected() {
        let mut checkpoint = sample_checkpoint();
        let mut state = engaged_engine().snapshot();
        state.stub = "not-a-prefix".to_string();
        checkpoint.mitigation = Some(state);
        assert!(matches!(
            checkpoint.restore_mitigation(),
            Err(CheckpointError::InvalidState(_))
        ));
    }

    #[test]
    fn write_atomic_round_trips_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("syndog-ck-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        let checkpoint = sample_checkpoint();
        checkpoint.write_atomic(&path).unwrap();
        assert_eq!(Checkpoint::read_file(&path).unwrap(), checkpoint);
        // Overwrite in place: the rename replaces the old file.
        checkpoint.write_atomic(&path).unwrap();
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(entries, vec!["ck.json".to_string()], "{entries:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_is_rejected_by_read_file() {
        let dir = std::env::temp_dir().join(format!("syndog-ck-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        let json = sample_checkpoint().to_json();
        // A crash mid-write under non-atomic `fs::write` would leave a
        // prefix of the envelope; every prefix must fail validation.
        std::fs::write(&path, &json[..json.len() / 2]).unwrap();
        assert!(matches!(
            Checkpoint::read_file(&path),
            Err(CheckpointError::Malformed(_))
        ));
        // Missing files are Malformed too (probe-a-slot semantics).
        assert!(matches!(
            Checkpoint::read_file(&dir.join("absent.json")),
            Err(CheckpointError::Malformed(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
