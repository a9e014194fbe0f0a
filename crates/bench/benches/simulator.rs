//! Criterion benchmarks for the memory-system simulator itself: how fast
//! the trace-replay engine executes per design and, on SCA, per
//! integrity policy (strict also with batched-journal compaction), how
//! fast workloads record their traces, the cost of crash recovery, and
//! the host cost of model-checking one crash set per workload, of
//! building a sweep's crash sets and of discovering a run's crash
//! instants.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nvmm_core::recovery::{recover_undo_log, RecoveredMemory};
use nvmm_crypto::EncryptionEngine;
use nvmm_sim::config::{Design, IntegrityPolicy, SimConfig};
use nvmm_sim::integrity::IntegritySpec;
use nvmm_sim::system::{instant_after_events, CrashSpec, CrashSweep, System};
use nvmm_sim::time::Time;
use nvmm_workloads::{
    check_crash_set, crash_instants_cfg, execute, traces_for_cores, Executed, ModelCheckOpts,
    WorkloadKind, WorkloadSpec,
};
use std::hint::black_box;

fn bench_replay(c: &mut Criterion) {
    let spec = WorkloadSpec::smoke(WorkloadKind::HashTable).with_ops(50);
    let traces = traces_for_cores(&spec, 1);
    let events = traces[0].len() as u64;
    let mut g = c.benchmark_group("replay");
    g.throughput(Throughput::Elements(events));
    g.sample_size(20);
    for design in [
        Design::NoEncryption,
        Design::Sca,
        Design::Fca,
        Design::CoLocated,
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(design.label()),
            &design,
            |b, &design| {
                b.iter(|| {
                    let cfg = SimConfig::single_core(design);
                    System::new(cfg, black_box(traces.clone())).run(CrashSpec::None)
                })
            },
        );
    }
    // The host cost of each integrity policy's controller work: the
    // MAC per write, the tree path per write (strict persists it in
    // the pair, lazy keeps it dirty on chip).
    for (name, policy) in [
        ("none", IntegrityPolicy::None),
        ("mac-only", IntegrityPolicy::MacOnly),
        ("lazy", IntegrityPolicy::Lazy),
        ("strict", IntegrityPolicy::Strict),
    ] {
        g.bench_with_input(
            BenchmarkId::new(Design::Sca.label(), name),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    let cfg = SimConfig::single_core(Design::Sca).with_integrity(policy);
                    System::new(cfg, black_box(traces.clone())).run(CrashSpec::None)
                })
            },
        );
    }
    // Strict on two shards with batched-journal compaction: the cut,
    // the hand-off to the compaction worker and its fold.
    let batched = format!("{}/strict-batched", Design::Sca.label());
    g.bench_function(&batched, |b| {
        b.iter(|| {
            let cfg = SimConfig::single_core(Design::Sca)
                .with_integrity(IntegrityPolicy::Strict)
                .with_shards(2);
            System::new(cfg, black_box(traces.clone()))
                .with_journal_batch(64)
                .run(CrashSpec::None)
        })
    });
    g.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_gen");
    g.sample_size(20);
    for kind in WorkloadKind::ALL {
        let spec = WorkloadSpec::smoke(kind).with_ops(50);
        g.bench_with_input(
            BenchmarkId::from_parameter(kind.label()),
            &spec,
            |b, spec| b.iter(|| traces_for_cores(black_box(spec), 1)),
        );
    }
    // One core of the benchmark's `replay_closed` set-up: the stored
    // traces of all five kinds at `evaluation_default` x 1000
    // transactions. Throughput is in events recorded.
    let specs = WorkloadKind::ALL.map(|kind| WorkloadSpec::evaluation_default(kind).with_ops(1000));
    let generate = || {
        specs
            .each_ref()
            .map(|spec| traces_for_cores(black_box(spec), 1))
    };
    let events = generate().iter().flatten().map(|t| t.len() as u64).sum();
    g.throughput(Throughput::Elements(events));
    g.bench_function("evaluation_default x1000/one core", |b| b.iter(generate));
    g.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let spec = WorkloadSpec::smoke(WorkloadKind::BTree).with_ops(30);
    let ex = execute(&spec, 0, spec.ops);
    let trace = ex.pm.trace().clone();
    let cfg = SimConfig::single_core(Design::Sca);
    let key = cfg.key;
    let at = instant_after_events(&cfg, &trace, 501);
    let out = System::new(cfg, vec![trace]).run(CrashSpec::AtTime(at));
    let mut g = c.benchmark_group("recovery");
    g.sample_size(30);
    // The view borrows the image, so the row times recovery (with a
    // fresh engine, as after a real crash) and no image copy.
    g.bench_function("decrypt_and_rollback", |b| {
        b.iter(|| {
            let mut mem = RecoveredMemory::over(&out.image, EncryptionEngine::new(key));
            recover_undo_log(black_box(&mut mem), &ex.log)
        })
    });
    g.finish();
}

/// The configuration and spec of the `mc_*` benchmark shape for `kind`:
/// SCA + strict, `smoke` (seed 7) with 64 transactions of 24 payload
/// lines.
fn mc_spec(kind: WorkloadKind) -> (SimConfig, WorkloadSpec) {
    let cfg = SimConfig::single_core(Design::Sca).with_integrity(IntegrityPolicy::Strict);
    let spec = WorkloadSpec::smoke(kind)
        .with_ops(64)
        .with_payload_lines(24);
    (cfg, spec)
}

/// The `mc_*` benchmark shape for `kind` ([`mc_spec`]), executed once,
/// and its 40 in-flight crash instants under default `ModelCheckOpts`.
fn mc_shape(kind: WorkloadKind) -> (SimConfig, WorkloadSpec, Executed, Vec<Time>) {
    let (cfg, spec) = mc_spec(kind);
    let instants = crash_instants_cfg(&spec, cfg.clone(), &ModelCheckOpts::default(), 40);
    let ex = execute(&spec, 0, spec.ops);
    (cfg, spec, ex, instants)
}

/// Crash-state discovery on the `mc_*` shape, each row over all five
/// kinds: `crash_instants_cfg`, the 40 in-flight instants the
/// benchmark's `mc_*` inputs take, and `breakpoints`, a fresh execution
/// swept once ([`CrashSweep::one_core`]) and its breakpoints from the
/// setup boundary on, every post-setup crash state. Both execute each
/// workload and replay it once. Throughput is in instants found.
fn bench_discovery(c: &mut Criterion) {
    let shapes = WorkloadKind::ALL.map(mc_spec);
    let instants = || -> usize {
        let opts = ModelCheckOpts::default();
        shapes
            .iter()
            .map(|(cfg, spec)| crash_instants_cfg(black_box(spec), cfg.clone(), &opts, 40).len())
            .sum()
    };
    let breakpoints = || -> usize {
        shapes
            .iter()
            .map(|(cfg, spec)| {
                let ex = execute(black_box(spec), 0, spec.ops);
                let (from, sweep) = CrashSweep::one_core(cfg, ex.pm.trace(), ex.setup_events);
                sweep.breakpoints(from).len()
            })
            .sum()
    };
    let mut g = c.benchmark_group("discovery");
    g.sample_size(10);
    g.throughput(Throughput::Elements(instants() as u64));
    g.bench_function("crash_instants_cfg", |b| b.iter(instants));
    g.throughput(Throughput::Elements(breakpoints() as u64));
    g.bench_function("breakpoints", |b| b.iter(breakpoints));
    g.finish();
}

/// One row per kind: `check_crash_set` — the fused delta walk, judging
/// the recovery oracle on every retained image in place — on the middle
/// in-flight crash set of the `mc_*` shape, with default
/// `ModelCheckOpts`, on the calling thread. Throughput is in images
/// judged.
fn bench_model_check(c: &mut Criterion) {
    let opts = ModelCheckOpts::default();
    let mut g = c.benchmark_group("model_check");
    g.sample_size(10);
    for kind in WorkloadKind::ALL {
        let (cfg, spec, ex, instants) = mc_shape(kind);
        let integrity = IntegritySpec::from_config(&cfg);
        let set = System::new(cfg.clone(), vec![ex.pm.trace().clone()])
            .run(CrashSpec::AtTime(instants[instants.len() / 2]))
            .crash_set
            .expect("an in-flight instant leaves a crash set");
        let check = || check_crash_set(&spec, &ex, &set, cfg.key, cfg.design, integrity, &opts);
        g.throughput(Throughput::Elements(check().images_checked as u64));
        g.bench_function(kind.label(), |b| b.iter(check));
    }
    g.finish();
}

/// One row per kind: one crash cursor advanced through all 40 instants
/// of the `mc_*` shape, cutting each instant's crash set from the
/// complete journals with the records new since the previous one — what
/// each model-check worker does before it walks a set. The sweep is
/// simulated once, outside the timing. Throughput is in crash sets
/// built.
fn bench_crash_cursor(c: &mut Criterion) {
    let mut g = c.benchmark_group("crash_cursor");
    g.sample_size(10);
    for kind in WorkloadKind::ALL {
        let (cfg, _, ex, instants) = mc_shape(kind);
        let sweep = System::new(cfg, vec![ex.pm.trace().clone()]).run_crash_sweep();
        g.throughput(Throughput::Elements(instants.len() as u64));
        g.bench_function(kind.label(), |b| {
            b.iter(|| {
                let mut cursor = black_box(&sweep).cursor();
                (instants.iter())
                    .map(|&t| cursor.crash_set(t).in_flight_len())
                    .sum::<usize>()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_replay,
    bench_trace_generation,
    bench_recovery,
    bench_model_check,
    bench_crash_cursor,
    bench_discovery
);
criterion_main!(benches);
