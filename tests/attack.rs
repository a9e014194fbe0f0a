//! Integration tests for the adversary subsystem
//! (`nvmm_sim::attack` + the detection oracle in
//! `nvmm_sim::integrity`).
//!
//! The acceptance criterion is a *differential detection matrix*: six
//! integrity policies × four attack classes, where the only
//! `Undetected` cells allowed are `mac-only × {replay,
//! counter-rollback}` — the textbook freshness gap of per-line MACs
//! without a tree, epoch, or monotone-counter anchor. Every other
//! `Undetected` cell is a failure and reports its minimized witness
//! (the victim lines the forgery touched). The soundness half is a
//! property test: an *honest* image judged against its own freshness
//! reference never trips the oracle, across policies, crash fractions,
//! and workload shapes.

use nvmm::crypto::{EncryptionEngine, MacEngine};
use nvmm::sim::addr::{LineAddr, TreeNodeAddr};
use nvmm::sim::attack::{
    expected_vulnerable, run_detection_row, snapshot_pair, victim_lines, AttackKind,
};
use nvmm::sim::config::{Design, IntegrityPolicy, SimConfig};
use nvmm::sim::integrity::{
    verify_image, verify_image_attack, AttackVerdict, DigestLine, FreshnessRef, IntegritySpec,
};
use nvmm::sim::nvmm::NvmmImage;
use nvmm::sim::trace::{Trace, TraceEvent};
use proptest::prelude::*;

const ENABLED: [IntegrityPolicy; 6] = [
    IntegrityPolicy::MacOnly,
    IntegrityPolicy::Lazy,
    IntegrityPolicy::Strict,
    IntegrityPolicy::Pipelined,
    IntegrityPolicy::Phoenix,
    IntegrityPolicy::Colocated,
];

/// The adversary oracle on `img` with engines for `cfg`'s key.
fn judge(cfg: &SimConfig, img: &NvmmImage, fresh: &FreshnessRef) -> AttackVerdict {
    let (engine, mac_engine) = (EncryptionEngine::new(cfg.key), MacEngine::new(cfg.key));
    verify_image_attack(
        img,
        IntegritySpec::from_config(cfg),
        &engine,
        &mac_engine,
        fresh,
    )
}

/// `rounds` counter-atomic rewrites over `lines` distinct lines, each
/// round writing distinct content — the rewindable workload every
/// attack needs.
fn rewrite_trace(lines: u64, rounds: u64) -> Trace {
    let mut t = Trace::new();
    for round in 0..rounds {
        for i in 0..lines {
            t.push(TraceEvent::Write {
                line: LineAddr(i * 3), // spread over counter lines
                data: [(1 + round * lines + i) as u8; 64],
                counter_atomic: true,
            });
            t.push(TraceEvent::Clwb {
                line: LineAddr(i * 3),
            });
            t.push(TraceEvent::PersistBarrier);
        }
    }
    t
}

fn attack_cfg(policy: IntegrityPolicy) -> SimConfig {
    let mut cfg = SimConfig::single_core(Design::Sca).with_integrity(policy);
    // Summaries on every pair so the phoenix freshness register always
    // has a sequence to regress from.
    cfg.phoenix_epoch_every = 1;
    cfg
}

/// The tentpole acceptance test: the full policy × attack matrix, with
/// `Undetected` allowed exactly on the expected-vulnerable cells.
#[test]
fn detection_matrix_has_no_unexpected_undetected_cells() {
    let traces = vec![rewrite_trace(6, 4)];
    for policy in ENABLED {
        let cfg = attack_cfg(policy);
        let spec = IntegritySpec::from_config(&cfg);
        let (row, outcome) = run_detection_row(&cfg, &traces, 500);
        assert_eq!(row.len(), AttackKind::ALL.len());
        for cell in &row {
            assert!(
                !cell.victims.is_empty(),
                "{policy} × {}: vacuous cell, no victims",
                cell.attack
            );
            if expected_vulnerable(spec, cell.attack) {
                assert_eq!(
                    cell.verdict,
                    AttackVerdict::Undetected,
                    "{policy} × {} was expected vulnerable, but the oracle fired: {:?}",
                    cell.attack,
                    cell.verdict
                );
            } else {
                assert!(
                    cell.verdict.detected(),
                    "UNDETECTED: {policy} × {} slipped past the oracle; \
                     minimized witness victims: {:?}",
                    cell.attack,
                    cell.victims
                );
            }
        }
        // The run behind the matrix also carries a coherent wear story:
        // one charge per architectural write request, coalesced or not.
        assert_eq!(
            outcome.wear.total_writes,
            outcome.stats.nvmm_writes() + outcome.stats.coalesced_writes()
        );
    }
}

/// The blame trails name the mechanism that fired, per policy class.
#[test]
fn detection_blames_name_the_right_mechanism() {
    let traces = vec![rewrite_trace(6, 4)];
    let blame_of = |policy: IntegrityPolicy, kind: AttackKind| -> String {
        let (row, _) = run_detection_row(&attack_cfg(policy), &traces, 500);
        row.iter()
            .find(|c| c.attack == kind)
            .expect("cell present")
            .verdict
            .blame()
            .unwrap_or_else(|| panic!("{policy} × {kind} must detect"))
            .to_string()
    };
    // Tree policies catch wholesale replay through the NV root register.
    for policy in [
        IntegrityPolicy::Lazy,
        IntegrityPolicy::Strict,
        IntegrityPolicy::Pipelined,
    ] {
        let blame = blame_of(policy, AttackKind::Replay);
        assert!(blame.contains("root"), "{policy}: {blame}");
    }
    // Phoenix catches it through epoch-summary sequence regression.
    let blame = blame_of(IntegrityPolicy::Phoenix, AttackKind::Replay);
    assert!(
        blame.contains("epoch regression") || blame.contains("stale epoch"),
        "phoenix: {blame}"
    );
    // Colocated through its monotone counter-sum register.
    let blame = blame_of(IntegrityPolicy::Colocated, AttackKind::Replay);
    assert!(blame.contains("counter rollback"), "colocated: {blame}");
    // Torn writes are a per-line MAC matter for every policy.
    for policy in ENABLED {
        let blame = blame_of(policy, AttackKind::TornWrite);
        assert!(blame.contains("MAC mismatch"), "{policy}: {blame}");
    }
    // Split replay (stale data+counter, current MAC) is the control
    // even mac-only catches.
    let blame = blame_of(IntegrityPolicy::MacOnly, AttackKind::SplitReplay);
    assert!(blame.contains("MAC mismatch"), "mac-only: {blame}");
}

/// The matrix is non-vacuous: the snapshot pair really differs, and
/// mac-only's vulnerability is demonstrated (not merely tolerated).
#[test]
fn mac_only_replay_really_rewinds_state() {
    let cfg = attack_cfg(IntegrityPolicy::MacOnly);
    let traces = vec![rewrite_trace(6, 4)];
    let pair = snapshot_pair(&cfg, &traces, 500);
    let victims = victim_lines(&pair.stale, &pair.latest);
    assert!(
        !victims.is_empty(),
        "snapshots must differ for the replay to mean anything"
    );
    let spec = IntegritySpec::from_config(&cfg);
    let fresh = FreshnessRef::capture(&pair.latest, spec);
    // The stale image — genuinely old data — passes every check
    // mac-only performs. That is the attack, demonstrated end to end.
    assert_eq!(judge(&cfg, &pair.stale, &fresh), AttackVerdict::Undetected);
}

/// A forged tree node that names no child — one at level 0, one past
/// the last index whose eight children are addressable — is a strict
/// violation naming the node and slot, not an overflow.
#[test]
fn forged_tree_nodes_without_children_are_violations() {
    let cfg = attack_cfg(IntegrityPolicy::Strict);
    let spec = IntegritySpec::from_config(&cfg);
    let (engine, mac_engine) = (EncryptionEngine::new(cfg.key), MacEngine::new(cfg.key));
    for node in [
        TreeNodeAddr { level: 0, index: 3 },
        TreeNodeAddr {
            level: 2,
            index: u64::MAX / 8 + 1,
        },
    ] {
        let mut digests = DigestLine::new();
        digests.set(5, 0x1234);
        let mut img = NvmmImage::new();
        img.write_tree_node(node, digests);
        let want = format!(
            "tree node {node} slot 5 names no child: the node lies outside \
             the tree's address space"
        );
        assert_eq!(
            verify_image(&img, spec, &engine, &mac_engine),
            Err(want.clone())
        );
        let fresh = FreshnessRef::capture(&img, spec);
        assert_eq!(judge(&cfg, &img, &fresh).blame(), Some(want.as_str()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Soundness (satellite): replaying the *latest* tuple set — an
    /// honest image judged against its own freshness reference — is
    /// never flagged, under any policy, for both the completed image
    /// and the mid-run crash image. Zero false positives.
    #[test]
    fn honest_images_never_trip_the_oracle(
        lines in 2u64..7,
        rounds in 1u64..5,
        frac_milli in 100u64..900,
    ) {
        let traces = vec![rewrite_trace(lines, rounds)];
        for policy in ENABLED {
            let cfg = attack_cfg(policy);
            let spec = IntegritySpec::from_config(&cfg);
            let pair = snapshot_pair(&cfg, &traces, frac_milli);
            for img in [&pair.latest, &pair.stale] {
                let fresh = FreshnessRef::capture(img, spec);
                let v = judge(&cfg, img, &fresh);
                prop_assert_eq!(
                    v.clone(),
                    AttackVerdict::Undetected,
                    "false positive under {} at frac {}: {:?}",
                    policy, frac_milli, v
                );
            }
        }
    }
}
