//! The adversary subsystem: replay/rollback attack synthesis against
//! post-crash NVMM images, judged by the per-policy detection oracle
//! in [`crate::integrity`].
//!
//! The crash-consistency machinery asks *"can a power failure leave a
//! bad image?"*; this module asks the complementary security question
//! the encrypted-NVMM literature pairs with it (Bonsai Merkle trees;
//! Osiris/Triad-NVM-style recovery; SGX integrity engines): *"can a
//! physical attacker with DIMM access pass off a **stale but
//! well-formed** image as current?"* The attacker model is standard:
//!
//! * full read/write access to every NVMM region (data, counter, MAC,
//!   tree) across power cycles — a pulled DIMM or interposer;
//! * the ability to record earlier bus traffic, so any previously
//!   persisted `(ciphertext, counter, MAC)` tuple can be replayed
//!   byte-exactly;
//! * **no** access to on-chip state: the AES/MAC keys and whatever
//!   small non-volatile registers the design reserves (tree root,
//!   epoch counters, monotone write counter — see
//!   [`FreshnessRef`]).
//!
//! [`synthesize`] forges an attacked image from two honest snapshots
//! of the same run (an earlier crash image and the completed image);
//! [`run_detection_row`] drives one policy through every
//! [`AttackKind`] and returns the verdict row the detection-matrix
//! test and the `fig_attack` bench share. The expected outcome — the
//! point of the experiment — is that `mac-only` is *provably* caught
//! out by replay and counter rollback (nothing anchors freshness),
//! while every tree/epoch/packed-counter policy detects all four
//! attack classes via its freshness root or a MAC mismatch.

use crate::addr::{CounterLineAddr, LineAddr, MacLineAddr};
use crate::config::SimConfig;
use crate::integrity::{verify_image_attack, AttackVerdict, FreshnessRef, IntegritySpec};
use crate::nvmm::NvmmImage;
use crate::system::{CrashSpec, RunOutcome, System};
use crate::time::Time;
use crate::trace::Trace;
use nvmm_crypto::engine::EncryptionEngine;
use nvmm_crypto::mac::MacEngine;

/// The attack classes the adversary engine can mount. Each forges an
/// image from a `(stale, latest)` snapshot pair; see [`synthesize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Replay the *entire* stale image: every region byte-exact as it
    /// once legitimately persisted. Internally self-consistent by
    /// construction — only an on-chip freshness reference can tell it
    /// from the current state.
    Replay,
    /// Per-victim rollback: splice each victim line's stale
    /// `(ciphertext, counter slot, MAC slot)` tuple into the latest
    /// image, leaving every other region (tree nodes, epoch summaries,
    /// untouched lines) current. The classic counter-replay that
    /// defeats bare counter-mode encryption.
    CounterRollback,
    /// Bit-flip each victim's ciphertext in place, keeping its counter
    /// and MAC — a torn/corrupted write outside ADR guarantees. The
    /// plaintext decrypts "cleanly" to garbage; the per-line MAC is
    /// every policy's oracle here.
    TornWrite,
    /// Incoherent splice: each victim's *data and counter* come from
    /// the stale snapshot but its MAC stays current. Detected even by
    /// `mac-only` — included as the control showing MACs do their one
    /// job.
    SplitReplay,
}

impl AttackKind {
    /// Every attack class, in matrix-row order.
    pub const ALL: [AttackKind; 4] = [
        AttackKind::Replay,
        AttackKind::CounterRollback,
        AttackKind::TornWrite,
        AttackKind::SplitReplay,
    ];

    /// Short label used in reports and artifact keys.
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::Replay => "replay",
            AttackKind::CounterRollback => "counter-rollback",
            AttackKind::TornWrite => "torn-write",
            AttackKind::SplitReplay => "split-replay",
        }
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A forged image plus the data lines the adversary tampered with —
/// the minimized witness a failing matrix cell reports.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// The attacked post-crash image handed to the oracle.
    pub image: NvmmImage,
    /// Victim data lines, ascending. For [`AttackKind::Replay`] these
    /// are the lines whose content the replay rewound (the whole image
    /// is stale, but these witness it).
    pub victims: Vec<LineAddr>,
}

/// Two honest snapshots of one run: the ADR post-crash image at an
/// intermediate instant (what the adversary recorded) and the
/// completed image (what the system currently holds), plus the
/// completion outcome for stats/wear reporting.
#[derive(Debug)]
pub struct SnapshotPair {
    /// The earlier, legitimately persisted image the adversary replays
    /// from.
    pub stale: NvmmImage,
    /// The current image — also the source of the
    /// [`FreshnessRef`] anchor.
    pub latest: NvmmImage,
    /// The instant the stale snapshot was captured.
    pub stale_at: Time,
    /// The completed run (stats, wear report, telemetry).
    pub outcome: RunOutcome,
}

/// Runs `traces` under `cfg` twice — once crashed at
/// `frac_milli`/1000 of the full runtime, once to completion — and
/// returns the two images. Both runs are deterministic, so the pair
/// is a pure function of `(cfg, traces, frac_milli)`.
pub fn snapshot_pair(cfg: &SimConfig, traces: &[Trace], frac_milli: u64) -> SnapshotPair {
    let outcome = System::new(cfg.clone(), traces.to_vec()).run(CrashSpec::None);
    let stale_at = Time(outcome.stats.runtime.0 * frac_milli / 1000);
    let stale = System::new(cfg.clone(), traces.to_vec())
        .run(CrashSpec::AtTime(stale_at))
        .image;
    SnapshotPair {
        stale,
        latest: outcome.image.clone(),
        stale_at,
        outcome,
    }
}

/// Data lines present in both snapshots whose persisted ciphertext
/// differs — the rewindable victim set, ascending.
pub fn victim_lines(stale: &NvmmImage, latest: &NvmmImage) -> Vec<LineAddr> {
    let mut victims: Vec<LineAddr> = latest
        .data_line_addrs()
        .filter(
            |&line| match (stale.raw_data(line), latest.raw_data(line)) {
                (Some(old), Some(new)) => old != new,
                _ => false,
            },
        )
        .collect();
    victims.sort_unstable();
    victims
}

/// Splices `line`'s stale `(ciphertext, counter slot)` into `img`.
fn splice_stale_data_and_counter(img: &mut NvmmImage, stale: &NvmmImage, line: LineAddr) {
    let ciphertext = stale.raw_data(line).expect("victim present in stale image");
    img.write_encrypted(line, ciphertext, stale.encryption_counter(line));
    let slot = line.counter_slot();
    let cline = CounterLineAddr(slot.counter_line);
    let mut counters = img.counter_line(cline);
    counters.set(slot.slot, stale.counter_line(cline).get(slot.slot));
    img.write_counter_line(cline, counters);
}

/// Splices `line`'s stale MAC slot into `img`.
fn splice_stale_mac(img: &mut NvmmImage, stale: &NvmmImage, line: LineAddr) {
    let slot = line.mac_slot();
    let mline = MacLineAddr(slot.mac_line);
    let mut macs = img.mac_line(mline);
    macs.set(slot.slot, stale.mac_line(mline).get(slot.slot));
    img.write_mac_line(mline, macs);
}

/// Forges an attacked image of class `kind` from a snapshot pair,
/// tampering with at most `max_victims` lines. Returns `None` when
/// the pair offers no rewindable victim (no line was rewritten
/// between the snapshots) — the attack would be vacuous.
pub fn synthesize(
    kind: AttackKind,
    stale: &NvmmImage,
    latest: &NvmmImage,
    max_victims: u64,
) -> Option<AttackOutcome> {
    let mut victims = victim_lines(stale, latest);
    victims.truncate(max_victims.max(1) as usize);
    if victims.is_empty() {
        return None;
    }
    let image = match kind {
        AttackKind::Replay => stale.clone(),
        AttackKind::CounterRollback => {
            let mut img = latest.clone();
            for &line in &victims {
                splice_stale_data_and_counter(&mut img, stale, line);
                splice_stale_mac(&mut img, stale, line);
            }
            img
        }
        AttackKind::TornWrite => {
            let mut img = latest.clone();
            for &line in &victims {
                let mut ciphertext = img.raw_data(line).expect("victim present");
                ciphertext[0] ^= 0x80;
                img.write_encrypted(line, ciphertext, img.encryption_counter(line));
            }
            img
        }
        AttackKind::SplitReplay => {
            let mut img = latest.clone();
            for &line in &victims {
                splice_stale_data_and_counter(&mut img, stale, line);
            }
            img
        }
    };
    Some(AttackOutcome { image, victims })
}

/// One cell of the detection matrix: what the oracle said about one
/// `(policy, attack)` pairing.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// The attack mounted.
    pub attack: AttackKind,
    /// The oracle's verdict on the forged image.
    pub verdict: AttackVerdict,
    /// Victim lines the forgery tampered with (the witness).
    pub victims: Vec<LineAddr>,
}

/// Whether the literature *expects* `spec`'s policy to miss `kind`:
/// `mac-only` has no freshness anchor, so a coherent stale tuple set —
/// wholesale ([`AttackKind::Replay`]) or per-line
/// ([`AttackKind::CounterRollback`]) — sails through. Every other
/// `(policy, attack)` cell must detect; an `Undetected` there is a
/// test failure.
pub fn expected_vulnerable(spec: IntegritySpec, kind: AttackKind) -> bool {
    spec.policy == crate::config::IntegrityPolicy::MacOnly
        && matches!(kind, AttackKind::Replay | AttackKind::CounterRollback)
}

/// Maximum data lines [`run_detection_row`] splices per synthesized
/// attack. Bounds witness size; replay attacks substitute the whole
/// stale image regardless.
pub const ATTACK_VICTIMS: u64 = 4;

/// Runs `cfg`'s policy through every attack class: snapshots the run
/// at `frac_milli`/1000 of its runtime, captures the freshness anchor
/// from the completed image, forges each attack, and judges it.
/// Returns the matrix row plus the completion outcome (for wear and
/// traffic reporting). Panics if the snapshot pair yields no victims —
/// callers must supply a workload that rewrites lines.
pub fn run_detection_row(
    cfg: &SimConfig,
    traces: &[Trace],
    frac_milli: u64,
) -> (Vec<MatrixCell>, RunOutcome) {
    let spec = IntegritySpec::from_config(cfg);
    let pair = snapshot_pair(cfg, traces, frac_milli);
    let fresh = FreshnessRef::capture(&pair.latest, spec);
    let engine = EncryptionEngine::new(cfg.key);
    let mac_engine = MacEngine::new(cfg.key);
    let mut row = Vec::with_capacity(AttackKind::ALL.len());
    for kind in AttackKind::ALL {
        let forged =
            synthesize(kind, &pair.stale, &pair.latest, ATTACK_VICTIMS).unwrap_or_else(|| {
                panic!(
                    "vacuous {kind} attack: no line rewritten between the snapshot \
                     at {} and completion — lengthen the trace or raise frac_milli",
                    pair.stale_at
                )
            });
        let verdict = verify_image_attack(&forged.image, spec, &engine, &mac_engine, &fresh);
        row.push(MatrixCell {
            attack: kind,
            verdict,
            victims: forged.victims,
        });
    }
    (row, pair.outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Design, IntegrityPolicy};
    use crate::trace::TraceEvent;

    /// `rounds` rewrites over `lines` distinct lines, all
    /// counter-atomic, each round writing distinct content.
    fn rewrite_trace(lines: u64, rounds: u64) -> Trace {
        let mut t = Trace::new();
        for round in 0..rounds {
            for i in 0..lines {
                t.push(TraceEvent::Write {
                    line: LineAddr(i),
                    data: [(1 + round * lines + i) as u8; 64],
                    counter_atomic: true,
                });
                t.push(TraceEvent::Clwb { line: LineAddr(i) });
                t.push(TraceEvent::PersistBarrier);
            }
        }
        t
    }

    fn attack_cfg(policy: IntegrityPolicy) -> SimConfig {
        let mut cfg = SimConfig::single_core(Design::Sca).with_integrity(policy);
        cfg.phoenix_epoch_every = 1;
        cfg
    }

    #[test]
    fn snapshot_pair_is_deterministic_and_ordered() {
        let cfg = attack_cfg(IntegrityPolicy::Lazy);
        let traces = vec![rewrite_trace(4, 3)];
        let a = snapshot_pair(&cfg, &traces, 500);
        let b = snapshot_pair(&cfg, &traces, 500);
        assert_eq!(a.stale.fingerprint(), b.stale.fingerprint());
        assert_eq!(a.latest.fingerprint(), b.latest.fingerprint());
        assert!(a.stale_at < a.outcome.stats.runtime);
        assert_ne!(
            a.stale.fingerprint(),
            a.latest.fingerprint(),
            "snapshots must actually differ for the attacks to bite"
        );
    }

    #[test]
    fn victims_are_rewritten_lines_sorted() {
        let cfg = attack_cfg(IntegrityPolicy::MacOnly);
        let traces = vec![rewrite_trace(4, 3)];
        let pair = snapshot_pair(&cfg, &traces, 500);
        let victims = victim_lines(&pair.stale, &pair.latest);
        assert!(!victims.is_empty());
        assert!(victims.windows(2).all(|w| w[0] < w[1]));
        for &v in &victims {
            assert_ne!(pair.stale.raw_data(v), pair.latest.raw_data(v));
        }
    }

    #[test]
    fn synthesize_honors_the_victim_cap_and_vacuity() {
        let cfg = attack_cfg(IntegrityPolicy::MacOnly);
        let traces = vec![rewrite_trace(4, 3)];
        let pair = snapshot_pair(&cfg, &traces, 500);
        let forged =
            synthesize(AttackKind::CounterRollback, &pair.stale, &pair.latest, 1).expect("victims");
        assert_eq!(forged.victims.len(), 1);
        // Same image on both sides: nothing to rewind.
        assert!(synthesize(AttackKind::Replay, &pair.latest, &pair.latest, 4).is_none());
    }

    #[test]
    fn torn_write_keeps_counter_but_corrupts_ciphertext() {
        let cfg = attack_cfg(IntegrityPolicy::MacOnly);
        let traces = vec![rewrite_trace(2, 2)];
        let pair = snapshot_pair(&cfg, &traces, 500);
        let forged =
            synthesize(AttackKind::TornWrite, &pair.stale, &pair.latest, 8).expect("victims");
        for &v in &forged.victims {
            assert_eq!(
                forged.image.encryption_counter(v),
                pair.latest.encryption_counter(v)
            );
            assert_ne!(forged.image.raw_data(v), pair.latest.raw_data(v));
        }
    }

    #[test]
    fn expected_vulnerable_is_exactly_mac_only_replay_rollback() {
        for policy in IntegrityPolicy::ALL {
            if !policy.enabled() {
                continue;
            }
            let spec = IntegritySpec { policy, levels: 4 };
            for kind in AttackKind::ALL {
                let expect = policy == IntegrityPolicy::MacOnly
                    && matches!(kind, AttackKind::Replay | AttackKind::CounterRollback);
                assert_eq!(expected_vulnerable(spec, kind), expect, "{policy} × {kind}");
            }
        }
    }
}
