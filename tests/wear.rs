//! Wear known answers.
//!
//! Every NVMM write request journals exactly one record, so a run's
//! wear report is a tally of its journal targets. These rows pin that
//! tally — distinct lines, total writes, the hottest line and the
//! histogram — together with a digest of the run's whole `Stats` and
//! its completion-image fingerprint, for every design without
//! integrity, SCA under each of the six integrity policies, the three
//! injected bugs, two stop-loss configurations, a tiny-cache row whose
//! counter and metadata caches evict, and three rows with compressed
//! counter lines (SCA, FCA, and SCA under the packed colocated policy,
//! whose `bytes_written` the compression lowers), at one and two
//! shards. The values were computed before wear moved from a
//! per-request tracker to the journal tally (the compression rows
//! before the controller's write path was rebuilt around one
//! submission and charge); each row also checks that tally against
//! `Stats::wear_line_writes`, the independent per-request count.

use nvmm::sim::config::{Design, Fault, IntegrityPolicy, SimConfig};
use nvmm::sim::integrity::digest64;
use nvmm::sim::system::{CrashSpec, RunOutcome, System};
use nvmm::workloads::{traces_for_cores, WorkloadKind, WorkloadSpec};

const CORES: usize = 2;

/// One pinned run: `(label, shards, distinct, total, max, histogram,
/// stats digest, image fingerprint)`.
type Row = (
    &'static str,
    usize,
    u64,
    u64,
    u64,
    &'static [u64],
    u64,
    u128,
);

/// The configuration behind each row label.
fn config(label: &str) -> SimConfig {
    let sca = |policy| SimConfig::table2(Design::Sca, CORES).with_integrity(policy);
    let compressed = |mut cfg: SimConfig| {
        cfg.compress_counters = true;
        cfg
    };
    if let Some(design) = Design::ALL.iter().find(|d| d.label() == label) {
        return SimConfig::table2(*design, CORES);
    }
    if let Some(policy) = IntegrityPolicy::ALL
        .iter()
        .find(|p| p.enabled() && format!("sca+{}", p.label()) == label)
    {
        return sca(*policy);
    }
    match label {
        "sca+strict+tree-bug" => sca(IntegrityPolicy::Strict).with_fault(Fault::TreeParentFirst),
        "sca+pipelined+pipeline-bug" => {
            sca(IntegrityPolicy::Pipelined).with_fault(Fault::DroppedRootDependency)
        }
        "sca+phoenix+phoenix-bug" => sca(IntegrityPolicy::Phoenix).with_fault(Fault::StaleEpoch),
        "sca+compress" => compressed(SimConfig::table2(Design::Sca, CORES)),
        "fca+compress" => compressed(SimConfig::table2(Design::Fca, CORES)),
        "sca+colocated+compress" => compressed(sca(IntegrityPolicy::Colocated)),
        "unsafe+stop-loss" => {
            let mut cfg = SimConfig::table2(Design::UnsafeNoAtomicity, CORES);
            cfg.stop_loss = Some(4);
            cfg
        }
        "sca+lazy+stop-loss" => {
            let mut cfg = sca(IntegrityPolicy::Lazy);
            cfg.stop_loss = Some(2);
            cfg
        }
        "sca+lazy+tiny-caches" => {
            // Small enough that counter lines, MAC lines and tree nodes
            // are evicted dirty, so every write-back site fires.
            let mut cfg = sca(IntegrityPolicy::Lazy).with_counter_cache_bytes(2048);
            cfg.metadata_cache.capacity_bytes = 2048;
            cfg.metadata_cache.ways = 2;
            cfg
        }
        _ => panic!("no configuration for row {label}"),
    }
}

fn run(label: &str, shards: usize) -> RunOutcome {
    let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(6);
    let cfg = config(label).with_shards(shards);
    System::new(cfg, traces_for_cores(&spec, CORES)).run(CrashSpec::None)
}

fn stats_digest(out: &RunOutcome) -> u64 {
    digest64(format!("{:?}", out.stats).as_bytes())
}

#[rustfmt::skip]
const KNOWN: &[Row] = &[
    ("NoEncryption", 1, 52, 148, 13, &[36, 0, 14, 2], 0xf1819573256b8de7, 0xb3c24cd17a816750d7507e07f226e3ea),
    ("NoEncryption", 2, 52, 148, 13, &[36, 0, 14, 2], 0x4dff048a6a000b64, 0xb3c24cd17a816750d7507e07f226e3ea),
    ("Ideal", 1, 52, 148, 13, &[36, 0, 14, 2], 0x646fec474efb66c0, 0xdedcb302f399cb57a2c3d73efa2c225e),
    ("Ideal", 2, 52, 148, 13, &[36, 0, 14, 2], 0xd067b3b878e97ad5, 0xdedcb302f399cb57a2c3d73efa2c225e),
    ("SCA", 1, 73, 248, 19, &[46, 1, 18, 6, 2], 0xb37e0f84e9b32667, 0x44aefee1030870b25aeef17514dd85f),
    ("SCA", 2, 73, 248, 19, &[46, 1, 18, 6, 2], 0x102f81848effabf7, 0x44aefee1030870b25aeef17514dd85f),
    ("FCA", 1, 73, 296, 43, &[46, 1, 18, 6, 0, 2], 0xb8e8853a3addfbed, 0x44aefee1030870b25aeef17514dd85f),
    ("FCA", 2, 73, 296, 43, &[46, 1, 18, 6, 0, 2], 0x376901fbcbc09a83, 0x44aefee1030870b25aeef17514dd85f),
    ("Co-located", 1, 52, 148, 13, &[36, 0, 14, 2], 0x60b0fbb58a53ec45, 0x8eaa0e290410b084113a1c633374889d),
    ("Co-located", 2, 52, 148, 13, &[36, 0, 14, 2], 0xa9e2c9402ecc264e, 0x450b0c5529cd43e5aea458c5fd7678f6),
    ("Co-located w/ C-Cache", 1, 52, 148, 13, &[36, 0, 14, 2], 0xa67ccff7b293c96a, 0xfcb23a85b883f5bbcbd59383296214da),
    ("Co-located w/ C-Cache", 2, 52, 148, 13, &[36, 0, 14, 2], 0x38dd29951150f477, 0x450b0c5529cd43e5aea458c5fd7678f6),
    ("Unsafe (no atomicity)", 1, 52, 148, 13, &[36, 0, 14, 2], 0x646fec474efb66c0, 0xdedcb302f399cb57a2c3d73efa2c225e),
    ("Unsafe (no atomicity)", 2, 52, 148, 13, &[36, 0, 14, 2], 0xd067b3b878e97ad5, 0xdedcb302f399cb57a2c3d73efa2c225e),
    ("sca+mac-only", 1, 94, 348, 19, &[56, 2, 22, 10, 4], 0xababc19b9c06362e, 0x117c813721987b509a94131ffece62db),
    ("sca+mac-only", 2, 94, 348, 19, &[56, 2, 22, 10, 4], 0x5a9e53ced915da2a, 0x117c813721987b509a94131ffece62db),
    ("sca+lazy", 1, 94, 348, 19, &[56, 2, 22, 10, 4], 0x662839729dce59e5, 0x117c813721987b509a94131ffece62db),
    ("sca+lazy", 2, 94, 348, 19, &[56, 2, 22, 10, 4], 0x8401393179a40421, 0x117c813721987b509a94131ffece62db),
    ("sca+strict", 1, 121, 1924, 148, &[58, 6, 22, 14, 0, 8, 10, 3], 0xe62a09b43556f385, 0x8f3110282bf3bfa531df4fbac97785bf),
    ("sca+strict", 2, 121, 1924, 148, &[58, 6, 22, 14, 0, 8, 10, 3], 0x43038f4bba025511, 0x9012a4095dc1e8acf779ed18244d209),
    ("sca+pipelined", 1, 121, 1924, 148, &[58, 6, 22, 14, 0, 8, 10, 3], 0xe915347c7ac7581f, 0x8f3110282bf3bfa531df4fbac97785bf),
    ("sca+pipelined", 2, 121, 1924, 148, &[58, 6, 22, 14, 0, 8, 10, 3], 0x37b2b6ae553ae32e, 0x9012a4095dc1e8acf779ed18244d209),
    ("sca+phoenix", 1, 96, 354, 19, &[56, 4, 22, 10, 4], 0xc89960ba91f31774, 0x33f5f961d84ab27c06ffc04e575012e7),
    ("sca+phoenix", 2, 96, 354, 19, &[56, 4, 22, 10, 4], 0x2c7b6f0c615fdfb0, 0x33f5f961d84ab27c06ffc04e575012e7),
    ("sca+colocated", 1, 73, 248, 19, &[46, 1, 18, 6, 2], 0xa4d9052df9d1221d, 0x117c813721987b509a94131ffece62db),
    ("sca+colocated", 2, 73, 248, 19, &[46, 1, 18, 6, 2], 0xd61a0a0ad5c20a45, 0x117c813721987b509a94131ffece62db),
    ("sca+strict+tree-bug", 1, 121, 1924, 148, &[58, 6, 22, 14, 0, 8, 10, 3], 0x4155402388123ed, 0x8f3110282bf3bfa531df4fbac97785bf),
    ("sca+strict+tree-bug", 2, 121, 1924, 148, &[58, 6, 22, 14, 0, 8, 10, 3], 0xddfaa55c7dce72b, 0x9012a4095dc1e8acf779ed18244d209),
    ("sca+pipelined+pipeline-bug", 1, 121, 1924, 148, &[58, 6, 22, 14, 0, 8, 10, 3], 0xc39945925f7266af, 0x8f3110282bf3bfa531df4fbac97785bf),
    ("sca+pipelined+pipeline-bug", 2, 121, 1924, 148, &[58, 6, 22, 14, 0, 8, 10, 3], 0x4ae1e7263dc40a94, 0x9012a4095dc1e8acf779ed18244d209),
    ("sca+phoenix+phoenix-bug", 1, 96, 354, 19, &[56, 4, 22, 10, 4], 0xc89960ba91f31774, 0x33f5f961d84ab27c06ffc04e575012e7),
    ("sca+phoenix+phoenix-bug", 2, 96, 354, 19, &[56, 4, 22, 10, 4], 0x2c7b6f0c615fdfb0, 0x33f5f961d84ab27c06ffc04e575012e7),
    ("unsafe+stop-loss", 1, 62, 180, 13, &[40, 4, 14, 4], 0x2c9ca47e22396abc, 0x2f633d0f2a2fef21e9f674ed9f3384ae),
    ("unsafe+stop-loss", 2, 62, 180, 13, &[40, 4, 14, 4], 0xe17d5ffdc5b6ac21, 0x2f633d0f2a2fef21e9f674ed9f3384ae),
    ("sca+lazy+stop-loss", 1, 94, 396, 31, &[56, 2, 22, 10, 4], 0x4b55989508e7d48, 0x117c813721987b509a94131ffece62db),
    ("sca+lazy+stop-loss", 2, 94, 396, 31, &[56, 2, 22, 10, 4], 0x68bf833a8ba843ec, 0x117c813721987b509a94131ffece62db),
    ("sca+lazy+tiny-caches", 1, 111, 587, 45, &[58, 5, 25, 17, 2, 4], 0x104cc17f79764d98, 0xf38f04ad4aa912ba489ecd48d708f23b),
    ("sca+lazy+tiny-caches", 2, 121, 1176, 74, &[61, 5, 26, 15, 2, 5, 7], 0x8259789d06083be8, 0x655ff52fe45db1433f293651898754e8),
    ("sca+compress", 1, 73, 248, 19, &[46, 1, 18, 6, 2], 0x3fb5b4b13a853f85, 0x44aefee1030870b25aeef17514dd85f),
    ("sca+compress", 2, 73, 248, 19, &[46, 1, 18, 6, 2], 0x48b33923e0c537f9, 0x44aefee1030870b25aeef17514dd85f),
    ("fca+compress", 1, 73, 296, 43, &[46, 1, 18, 6, 0, 2], 0x6027bbb65eeb1973, 0x44aefee1030870b25aeef17514dd85f),
    ("fca+compress", 2, 73, 296, 43, &[46, 1, 18, 6, 0, 2], 0xdcda9b91cfd19685, 0x44aefee1030870b25aeef17514dd85f),
    ("sca+colocated+compress", 1, 73, 248, 19, &[46, 1, 18, 6, 2], 0xa739eadb82c06f2b, 0x117c813721987b509a94131ffece62db),
    ("sca+colocated+compress", 2, 73, 248, 19, &[46, 1, 18, 6, 2], 0x9592aed0378481e3, 0x117c813721987b509a94131ffece62db),
];

#[test]
fn wear_reports_match_their_known_answers() {
    let mut labels: Vec<String> = Design::ALL.iter().map(|d| d.label().to_string()).collect();
    labels.extend(
        IntegrityPolicy::ALL
            .iter()
            .filter(|p| p.enabled())
            .map(|p| format!("sca+{}", p.label())),
    );
    labels.extend(
        [
            "sca+strict+tree-bug",
            "sca+pipelined+pipeline-bug",
            "sca+phoenix+phoenix-bug",
            "unsafe+stop-loss",
            "sca+lazy+stop-loss",
            "sca+lazy+tiny-caches",
            "sca+compress",
            "fca+compress",
            "sca+colocated+compress",
        ]
        .map(String::from),
    );
    let mut mismatches = Vec::new();
    for label in &labels {
        for shards in [1, 2] {
            let out = run(label, shards);
            let w = &out.wear;
            assert_eq!(
                w.total_writes, out.stats.wear_line_writes,
                "{label} shards={shards}: the journal tally must equal the per-request count"
            );
            assert_eq!(
                w.distinct_lines, out.stats.distinct_lines_written,
                "{label}"
            );
            assert_eq!(w.max_line_writes, out.stats.max_line_writes, "{label}");
            let got = format!(
                "(\"{label}\", {shards}, {}, {}, {}, &{:?}, {:#x}, {:#x}),",
                w.distinct_lines,
                w.total_writes,
                w.max_line_writes,
                w.histogram,
                stats_digest(&out),
                out.image.fingerprint(),
            );
            let pinned = KNOWN
                .iter()
                .find(|row| row.0 == label.as_str() && row.1 == shards)
                .map(|r| {
                    format!(
                        "(\"{}\", {}, {}, {}, {}, &{:?}, {:#x}, {:#x}),",
                        r.0, r.1, r.2, r.3, r.4, r.5, r.6, r.7
                    )
                });
            if pinned.as_deref() != Some(got.as_str()) {
                mismatches.push(got);
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "wear known answers moved; the runs now give:\n{}",
        mismatches.join("\n")
    );
}
