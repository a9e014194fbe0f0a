//! Integrity-verification cost: execution time and metadata write
//! amplification of the six integrity persistence policies on top of
//! SCA, across the five workloads.
//!
//! No single paper figure corresponds to this experiment — the source
//! paper models encryption without integrity — but the subsystem follows
//! the same recoverability playbook (Bonsai-style counter trees,
//! Phoenix/Osiris-style rebuild-from-leaves recovery), and this binary
//! quantifies what each policy pays for its crash-time guarantee:
//!
//! * `mac-only` — per-line MACs persisted with their counter lines; no
//!   tree.
//! * `lazy` — MACs as above; tree nodes cached on chip, persisted only
//!   on eviction, rebuilt from leaves at recovery.
//! * `strict` — every write persists MAC + leaf-to-root tree path
//!   atomically with its (data, counter) pair, serialized through the
//!   root-update engine.
//! * `pipelined` — strict's persistence guarantee with in-cache
//!   dependency tracking instead of root serialization (Freij et al.):
//!   consecutive root writes overlap, so the root engine never stalls a
//!   pair.
//! * `phoenix` — the tree never persists at all; only MACs and periodic
//!   epoch summaries reach NVMM, and recovery reconstructs the tree
//!   from the surviving counter lines.
//! * `colocated` — SecPM-style packed metadata: each pair journals one
//!   (counter, MAC) line instead of a counter line plus a MAC line,
//!   halving metadata writes; no tree.
//!
//! Expected shape (self-checked): `mac-only <= lazy < strict` in
//! geomean execution time; `pipelined` matches strict's guarantee with
//! zero root-update stalls where strict stalls on every consecutive
//! pair; `colocated` undercuts `lazy`'s metadata write amplification;
//! and the run-time/boot-time trade is real — the `<policy> recovery`
//! series prices each policy's boot ([`recovery_cost`]: tree nodes
//! recomputed from the persisted image), with `phoenix` paying a
//! whole-tree reconstruction where `strict`/`pipelined` recover free.
//!
//! The saved artifact is a pure function of the workload/policy table —
//! `NVMM_THREADS` only parallelizes the sweep and `NVMM_SHARDS` only
//! sizes the stdout sharding cross-check — so CI `cmp`s it byte-for-byte
//! across both knobs.

use nvmm_bench::sweep::{SweepCell, SweepRunner};
use nvmm_bench::{env_u64, eval_spec, geo_mean, print_table, Experiment};
use nvmm_sim::config::{Design, IntegrityPolicy, SimConfig};
use nvmm_sim::integrity::{recovery_cost, IntegritySpec};
use nvmm_sim::system::{CrashSpec, System};
use nvmm_workloads::{traces_for_cores, WorkloadKind, WorkloadSpec};

const POLICIES: [IntegrityPolicy; 6] = [
    IntegrityPolicy::MacOnly,
    IntegrityPolicy::Lazy,
    IntegrityPolicy::Strict,
    IntegrityPolicy::Pipelined,
    IntegrityPolicy::Phoenix,
    IntegrityPolicy::Colocated,
];

fn main() {
    let mut cells = Vec::new();
    for kind in WorkloadKind::ALL {
        let spec = eval_spec(kind);
        cells.push(SweepCell::eval(
            kind.label(),
            "baseline",
            &spec,
            Design::Sca,
            1,
        ));
        for p in POLICIES {
            let cfg = SimConfig::table2(Design::Sca, 1).with_integrity(p);
            // Keep the completion image: the recovery column prices the
            // boot-time tree rebuild from it.
            cells.push(SweepCell::new(kind.label(), p.label(), &spec, cfg).with_kept_image());
        }
    }
    let outs = SweepRunner::from_env().run(cells);

    let mut exp = Experiment::new(
        "fig_integrity",
        "execution time normalized to SCA without integrity (lower is better); \
         `<policy> amp` series carry metadata writes per data write",
    );
    let mut runtime_rows = Vec::new();
    let mut amp_rows = Vec::new();
    let mut recovery_rows = Vec::new();
    let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); POLICIES.len()];
    let mut per_policy_amp: Vec<Vec<f64>> = vec![Vec::new(); POLICIES.len()];
    let mut per_policy_recovery = [0u64; POLICIES.len()];
    let mut root_stalls = [0u64; POLICIES.len()];
    let mut root_overlaps = [0u64; POLICIES.len()];
    for kind in WorkloadKind::ALL {
        let base = outs.get(kind.label(), "baseline").stats.runtime.0 as f64;
        let mut runtimes = Vec::new();
        let mut amps = Vec::new();
        let mut recoveries = Vec::new();
        for (i, p) in POLICIES.iter().enumerate() {
            let out = outs.get(kind.label(), p.label());
            let stats = &out.stats;
            let v = stats.runtime.0 as f64 / base;
            outs.record(&mut exp, kind.label(), p.label(), v);
            exp.insert(
                kind.label(),
                &format!("{} amp", p.label()),
                stats.metadata_write_amplification(),
            );
            // Boot-time recovery bill: tree nodes the verifier must
            // recompute from the persisted completion image before it
            // can serve reads — phoenix's whole-tree reconstruction,
            // lazy's rebuild of the evicted interior, zero for the
            // policies whose persisted state is already current.
            let spec =
                IntegritySpec::from_config(&SimConfig::table2(Design::Sca, 1).with_integrity(*p));
            let recovery = recovery_cost(&out.image, spec);
            exp.insert(
                kind.label(),
                &format!("{} recovery", p.label()),
                recovery as f64,
            );
            per_policy[i].push(v);
            per_policy_amp[i].push(stats.metadata_write_amplification());
            per_policy_recovery[i] += recovery;
            root_stalls[i] += stats.root_update_stalls;
            root_overlaps[i] += stats.root_update_overlaps;
            runtimes.push(v);
            amps.push(stats.metadata_write_amplification());
            recoveries.push(recovery as f64);
        }
        runtime_rows.push((kind.label().to_string(), runtimes));
        amp_rows.push((kind.label().to_string(), amps));
        recovery_rows.push((kind.label().to_string(), recoveries));
    }
    let means: Vec<f64> = per_policy.iter().map(|v| geo_mean(v)).collect();
    runtime_rows.push(("geomean".to_string(), means.clone()));

    let series = POLICIES.map(|p| p.label());
    print_table(
        "Integrity policies — execution time normalized to SCA (no integrity)",
        &series,
        &runtime_rows,
    );
    print_table(
        "Integrity policies — metadata writes per data write (counter + MAC + tree)",
        &series,
        &amp_rows,
    );
    print_table(
        "Integrity policies — boot-time recovery (tree nodes rebuilt from the image)",
        &series,
        &recovery_rows,
    );

    // Self-check 1: the cost ordering the original policies promise.
    // mac-only can tie lazy (tree evictions may be absent on small
    // runs) but strict's per-write leaf-to-root persistence must cost
    // strictly more.
    let (mac_only, lazy, strict) = (means[0], means[1], means[2]);
    assert!(
        mac_only <= lazy + 1e-9,
        "mac-only ({mac_only:.4}) must not exceed lazy ({lazy:.4})"
    );
    assert!(
        lazy < strict,
        "lazy ({lazy:.4}) must undercut strict ({strict:.4})"
    );

    // Self-check 2: pipelined keeps strict's persistence guarantee but
    // replaces its root-engine stalls with overlapped (clamped) root
    // writes — strict must stall, pipelined never.
    let (pipelined, strict_stalls, pipe_stalls) = (means[3], root_stalls[2], root_stalls[3]);
    assert!(
        strict_stalls > 0,
        "strict's root engine must stall somewhere across the evaluation"
    );
    assert_eq!(
        pipe_stalls, 0,
        "pipelined must never stall on the root update"
    );
    assert!(
        pipelined <= strict + 1e-9,
        "pipelined ({pipelined:.4}) must not exceed strict ({strict:.4})"
    );

    // Self-check 3: the SecPM packing halves metadata records per pair,
    // so colocated's metadata write amplification undercuts lazy's
    // (same no-eviction-pressure caveat as above: compare means).
    let lazy_amp = per_policy_amp[1].iter().sum::<f64>() / per_policy_amp[1].len() as f64;
    let coloc_amp = per_policy_amp[5].iter().sum::<f64>() / per_policy_amp[5].len() as f64;
    assert!(
        coloc_amp < lazy_amp,
        "colocated amp ({coloc_amp:.4}) must undercut lazy amp ({lazy_amp:.4})"
    );

    // Self-check 4: the run-time/boot-time trade. Phoenix persists no
    // tree, so it must pay at recovery what strict prepaid per write —
    // strict's (and pipelined's) persisted state recovers for free.
    let (strict_rec, pipe_rec, phoenix_rec) = (
        per_policy_recovery[2],
        per_policy_recovery[3],
        per_policy_recovery[4],
    );
    assert_eq!(strict_rec, 0, "strict's persisted tree must recover free");
    assert_eq!(pipe_rec, 0, "pipelined's persisted tree must recover free");
    assert!(
        phoenix_rec > strict_rec,
        "phoenix must pay a boot-time rebuild ({phoenix_rec} nodes) where strict pays none"
    );

    println!(
        "\nself-check passed: mac-only ({mac_only:.3}) <= lazy ({lazy:.3}) < strict ({strict:.3}); \
         pipelined ({pipelined:.3}) overlaps {} roots with 0 stalls (strict stalls {}); \
         colocated amp {coloc_amp:.3} < lazy amp {lazy_amp:.3}",
        root_overlaps[3], strict_stalls
    );

    // Sharding cross-check (stdout only — never in the artifact, which
    // must stay byte-identical across NVMM_SHARDS): colocated work and
    // its final image are invariant under channel sharding.
    let shards = (env_u64("NVMM_SHARDS", 1) as usize).max(1);
    let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(8);
    let run = |n: usize| {
        let cfg = SimConfig::table2(Design::Sca, 1)
            .with_integrity(IntegrityPolicy::Colocated)
            .with_shards(n);
        let traces = traces_for_cores(&spec, 1);
        System::new(cfg, traces).run(CrashSpec::None)
    };
    let one = run(1);
    let many = run(shards);
    assert_eq!(
        one.image.fingerprint(),
        many.image.fingerprint(),
        "sharding changed the colocated completion image"
    );
    assert_eq!(
        one.stats.nvmm_packed_meta_writes + one.stats.coalesced_packed_meta_writes,
        many.stats.nvmm_packed_meta_writes + many.stats.coalesced_packed_meta_writes,
        "sharding changed the packed-metadata work performed"
    );
    println!("sharding cross-check passed at {shards} shard(s)");

    let path = exp.save().expect("write results");
    println!("saved {}", path.display());
}
