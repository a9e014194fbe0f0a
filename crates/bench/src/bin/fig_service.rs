//! Service-scale throughput and tail latency under open-loop load.
//!
//! The paper's evaluation is closed-loop: each core issues its next
//! transaction the instant the previous one commits, so latency is
//! pure service time. A service facing "heavy traffic from millions of
//! users" (ROADMAP open item 3) is *open-loop*: requests arrive on
//! their own schedule and queueing delay dominates the tail. This
//! binary drives deterministic open-loop arrival curves — steady,
//! burst, diurnal ramp ([`nvmm_workloads::arrival`]) — through the
//! sweep engine at 1, 2, and 4 channel shards
//! ([`nvmm_sim::shard::ShardedController`]) and reports throughput
//! plus p50/p95/p99/p999 arrival-to-commit latency per cell.
//!
//! The arrival rate is calibrated from the measured closed-loop
//! service time at shards=1 and pushed past saturation (4× the service
//! rate), so the steady curve measures drain bandwidth: more channel
//! shards must sustain strictly higher throughput.
//!
//! **Self-checks (exit nonzero on failure):**
//!
//! 1. At shards=1 the sweep-engine outcome equals a direct replay
//!    ([`System::run`]) of the same shaped traces.
//! 2. Shards=4 sustains strictly higher steady-curve throughput than
//!    shards=1.
//! 3. The streamed ingest path (generator-backed
//!    [`nvmm_sim::trace::TraceStream`], never materializing the event
//!    sequence) with batched-journal compaction produces the same
//!    stats, wear report, latency histogram and final NVMM image as
//!    the same stream without compaction.
//!
//! **Artifacts:** `target/experiments/BENCH_service.json` — rows are
//! arrival curves (`steady`/`burst`/`diurnal` plus the `closed`-loop
//! baseline), series are `s{N} tps`, `s{N} p50_ns`, `s{N} p95_ns`,
//! `s{N} p99_ns`, `s{N} p999_ns`, `s{N} pmax_ns` per shard count `N`.
//! Everything in it is simulated-time only, so the file is
//! byte-identical across `NVMM_SHARDS`/`NVMM_THREADS` settings (CI
//! `cmp`s it at `NVMM_SHARDS=1` vs `4`). Wall-clock figures and the
//! `NVMM_SHARDS`-dependent streaming-demo numbers live in the
//! `target/experiments/BENCH_service_timing.json` companion, like
//! `crash_matrix_timing.json`. It records `host_cores` (the host's
//! available parallelism) next to `wall_ns`: the streamed demo compacts
//! its journal on a worker thread beside replay, so its wall time
//! depends on whether a second core is free.
//!
//! **Environment knobs:**
//!
//! * `NVMM_OPS` — transactions per core in the sweep cells
//!   (default 120).
//! * `NVMM_SHARDS` — shard count for the streaming-ingest demo section
//!   (timing artifact only; default 4).
//! * `NVMM_STREAM_OPS` — transactions per core streamed through the
//!   generator-backed ingest demo (default 20_000; set 10_000_000+ to
//!   demonstrate O(1)-memory service-scale ingest).
//! * `NVMM_SERVICE_BATCH` — journal-compaction batch, in events
//!   (default 4096).
//! * `NVMM_THREADS` — sweep worker threads.

use nvmm_bench::sweep::{SweepCell, SweepRunner};
use nvmm_bench::{env_u64, print_table, Experiment};
use nvmm_sim::config::{Design, SimConfig};
use nvmm_sim::parallel::host_cores;
use nvmm_sim::system::{CrashSpec, RunOutcome, System};
use nvmm_sim::time::Time;
use nvmm_sim::trace::{TraceEvent, TraceStream};
use nvmm_sim::LineAddr;
use nvmm_workloads::{shape_open_loop, traces_for_cores, ArrivalCurve, WorkloadKind, WorkloadSpec};
use std::time::Instant;

const CORES: usize = 4;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn service_cfg(shards: usize) -> SimConfig {
    SimConfig::table2(Design::Sca, CORES).with_shards(shards)
}

/// Records one cell's throughput and latency quantiles into the
/// artifact (latency series only when the cell replayed open-loop).
fn record_cell(exp: &mut Experiment, row: &str, shards: usize, out: &RunOutcome) {
    exp.insert(row, &format!("s{shards} tps"), out.stats.throughput_tps());
    if let Some(hist) = &out.latency {
        for (name, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999)] {
            exp.insert(
                row,
                &format!("s{shards} {name}_ns"),
                hist.quantile(q) as f64,
            );
        }
        exp.insert(row, &format!("s{shards} pmax_ns"), hist.max() as f64);
    }
}

/// A deterministic generator-backed open-loop stream for one core:
/// `ops` transactions of `payload` counter-atomic line writes each,
/// arriving every `gap`, over a core-private footprint. The event
/// sequence is produced lazily — it never exists in memory.
fn service_stream(core: usize, ops: u64, payload: u64, gap: Time) -> TraceStream {
    let footprint = 4096u64; // lines per core
    let base = core as u64 * footprint;
    let offset = Time(gap.0 * core as u64 / CORES as u64);
    let mut tx = 0u64;
    let mut step = 0u64; // position within the transaction
    TraceStream::from_generator(move || {
        if tx >= ops {
            return None;
        }
        let arrival = Time(offset.0 + (tx + 1) * gap.0);
        let line = LineAddr(base + (tx * payload + step / 2) % footprint);
        // Per transaction: gate, then (write, clwb) × payload, then
        // barrier and commit.
        let ev = match step {
            0 => TraceEvent::WaitUntil { at: arrival },
            s if s <= 2 * payload => {
                if s % 2 == 1 {
                    TraceEvent::Write {
                        line,
                        data: [(tx + step) as u8; 64],
                        counter_atomic: true,
                    }
                } else {
                    TraceEvent::Clwb { line }
                }
            }
            s if s == 2 * payload + 1 => TraceEvent::PersistBarrier,
            _ => TraceEvent::TxCommit { id: arrival.0 },
        };
        if step == 2 * payload + 2 {
            step = 0;
            tx += 1;
        } else {
            step += 1;
        }
        Some(ev)
    })
}

/// Runs the streamed ingest demo at `shards`, with or without
/// batched-journal compaction. Returns (outcome, wall ns).
fn run_stream(shards: usize, ops: u64, batch: Option<u64>) -> (RunOutcome, u64) {
    let cfg = service_cfg(shards);
    // Overloaded arrival rate so the queues stay busy.
    let gap = Time::from_ns(200);
    let sources = (0..CORES).map(|c| service_stream(c, ops, 4, gap)).collect();
    let mut sys = System::with_sources(cfg, sources);
    if let Some(b) = batch {
        sys = sys.with_journal_batch(b);
    }
    let started = Instant::now();
    let out = sys.run(CrashSpec::None);
    (out, started.elapsed().as_nanos() as u64)
}

fn main() {
    let ops = env_u64("NVMM_OPS", 120) as usize;
    let demo_shards = (env_u64("NVMM_SHARDS", 4) as usize).max(1);
    let stream_ops = env_u64("NVMM_STREAM_OPS", 20_000);
    let batch = env_u64("NVMM_SERVICE_BATCH", 4096);
    let runner = SweepRunner::from_env();
    let mut failed = false;

    let spec = WorkloadSpec::evaluation_default(WorkloadKind::Queue)
        .with_ops(ops)
        .with_payload_lines(4);

    // ---- Calibration: closed-loop service time at shards=1. ----
    let baseline = runner.run(vec![SweepCell::new("closed", "s1", &spec, service_cfg(1))]);
    let base_out = baseline.outcome(0);
    let committed = base_out.stats.transactions_committed.max(1);
    let service_per_tx = Time(base_out.stats.runtime.0 / committed);
    // Push arrivals to 4× the measured service rate: firmly open-loop
    // saturated, so steady-curve throughput measures drain bandwidth.
    let mean_gap = Time((service_per_tx.0 / 4).max(1));
    println!(
        "calibration: {} tx in {}, service/tx {}, arrival gap {}",
        committed, base_out.stats.runtime, service_per_tx, mean_gap
    );

    // ---- The grid: 3 arrival curves × 3 shard counts. ----
    let phase = (ops as u64 / 4).max(1);
    let curves = [
        ArrivalCurve::steady(mean_gap),
        ArrivalCurve::burst(mean_gap, phase),
        ArrivalCurve::diurnal(mean_gap, phase),
    ];
    let mut cells = Vec::new();
    for curve in curves {
        for shards in SHARD_COUNTS {
            cells.push(
                SweepCell::new(
                    curve.model.label(),
                    &format!("s{shards}"),
                    &spec,
                    service_cfg(shards),
                )
                .with_shape(curve),
            );
        }
    }
    let outs = runner.run(cells);

    let mut exp = Experiment::new(
        "BENCH_service",
        "open-loop service throughput (tx/s) and arrival-to-commit latency quantiles (ns)",
    );
    record_cell(&mut exp, "closed", 1, base_out);
    let mut table = Vec::new();
    for (cell, out) in outs.iter() {
        let shards = cell.cfg.shards;
        record_cell(&mut exp, &cell.row, shards, out);
        let hist = out
            .latency
            .as_ref()
            .expect("open-loop cells report latency");
        table.push((
            format!("{}/s{}", cell.row, shards),
            vec![
                out.stats.throughput_tps() / 1e6,
                hist.quantile(0.50) as f64 / 1e3,
                hist.quantile(0.95) as f64 / 1e3,
                hist.quantile(0.99) as f64 / 1e3,
                hist.quantile(0.999) as f64 / 1e3,
            ],
        ));
    }
    print_table(
        "open-loop service sweep (Queue, SCA, 4 cores)",
        &["Mtx/s", "p50 us", "p95 us", "p99 us", "p999 us"],
        &table,
    );

    // ---- Self-check 1: the sweep engine equals a direct replay. ----
    let shaped = shape_open_loop(traces_for_cores(&spec, CORES), &curves[0]);
    let direct = System::new(service_cfg(1), shaped).run(CrashSpec::None);
    let swept = outs.get("steady", "s1");
    if swept.stats != direct.stats {
        eprintln!("FAIL: sweep-engine outcome diverges from direct replay at shards=1");
        failed = true;
    }
    if swept.latency != direct.latency {
        eprintln!("FAIL: sweep-engine latency histogram diverges from direct replay");
        failed = true;
    }

    // ---- Self-check 2: sharding must buy steady-curve throughput. ----
    let tps1 = outs.get("steady", "s1").stats.throughput_tps();
    let tps4 = outs.get("steady", "s4").stats.throughput_tps();
    if tps4 > tps1 {
        println!(
            "sharding: steady-curve throughput {:.3} Mtx/s at s1 -> {:.3} Mtx/s at s4 ({:.2}x)",
            tps1 / 1e6,
            tps4 / 1e6,
            tps4 / tps1
        );
    } else {
        eprintln!("FAIL: shards=4 steady throughput {tps4} not above shards=1 {tps1}");
        failed = true;
    }

    // ---- Self-check 3 + timing companion: streamed ingest demo. ----
    let mut timing = Experiment::new(
        "BENCH_service_timing",
        "wall-clock and streaming-demo figures for fig_service (nondeterministic / env-dependent)",
    );
    let check_ops = stream_ops.min(20_000);
    let (batched, _) = run_stream(demo_shards, check_ops, Some(batch));
    let (unbatched, _) = run_stream(demo_shards, check_ops, None);
    if batched.stats != unbatched.stats
        || batched.wear != unbatched.wear
        || batched.latency != unbatched.latency
        || batched.image.fingerprint() != unbatched.image.fingerprint()
    {
        eprintln!("FAIL: batched-journal compaction changed the streamed run's outcome");
        failed = true;
    } else {
        println!(
            "compaction: batched and unbatched streams agree ({} tx, image fp {:x})",
            batched.stats.transactions_committed,
            batched.image.fingerprint()
        );
    }
    let (demo, wall_ns) = run_stream(demo_shards, stream_ops, Some(batch));
    let row = format!("stream_s{demo_shards}");
    timing.insert(&row, "wall_ns", wall_ns as f64);
    timing.insert(&row, "host_cores", host_cores() as f64);
    timing.insert(&row, "events", demo.events_processed as f64);
    timing.insert(&row, "tx", demo.stats.transactions_committed as f64);
    timing.insert(&row, "sim_tps", demo.stats.throughput_tps());
    timing.insert(
        &row,
        "events_per_wall_s",
        demo.events_processed as f64 / (wall_ns.max(1) as f64 / 1e9),
    );
    if let Some(hist) = &demo.latency {
        timing.insert(&row, "p99_ns", hist.quantile(0.99) as f64);
    }
    println!(
        "stream demo: {} events ({} tx/core, {} shards) in {:.1} ms, {:.1} Mevents/s",
        demo.events_processed,
        stream_ops,
        demo_shards,
        wall_ns as f64 / 1e6,
        demo.events_processed as f64 / (wall_ns.max(1) as f64 / 1e3),
    );

    let path = exp.save().expect("write results");
    println!("saved {}", path.display());
    let timing_path = timing.save().expect("write timing");
    println!("saved {}", timing_path.display());
    if failed {
        std::process::exit(1);
    }
    println!(
        "fig_service self-checks clean: sweep matches direct replay, sharded speedup, \
         compaction equivalence"
    );
}
