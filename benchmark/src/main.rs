//! The repository benchmark: host and simulated cost of the encrypted-NVMM
//! simulator and its crash model checker on four workloads.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! ```
//!
//! With `--workload`, one workload runs in this process: a quarter-size
//! warm-up, the set-up timed several times, then timed repetitions until
//! `--seconds` have passed (at least three), each checked and required
//! to reproduce the first one's digest. The last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics of an extra traced pass. Without `--workload`, every workload
//! runs in a child process of its own, so each peak RSS is its own.
//! The exit code is nonzero when any output check fails.

mod metrics;
mod spans;
mod workloads;

use metrics::{HostTimes, Metric, TracedTimes};
use nvmm_json::Json;
use spans::Spans;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Scale, Workload};

/// Set-ups timed per run, at the least, and the host time they must
/// fill; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
/// Timed repetitions per run, at the least.
const MIN_REPS: usize = 3;
/// Host threads a workload may use.
const MAX_THREADS: usize = 2;
/// How far the top-level spans may stray from the traced wall time.
const COVERAGE_TOLERANCE: f64 = 0.05;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::iter::from_fn(move || it.next()).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                args.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                // Any integer: a negative one is taken modulo 2^64.
                let v = value("--seed")?;
                args.seed = v
                    .parse()
                    .or_else(|_| v.parse::<i64>().map(|n| n as u64))
                    .map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        args.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// One workload's result.
struct Measured {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    /// Empty unless traced.
    per_layer: Vec<Metric>,
    record: Json,
    problems: Vec<String>,
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Clears every `NVMM_*` knob the caller may have set, so a run measures
/// the production paths, and gives the model checker its thread budget.
fn pin_env() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("NVMM_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var(
        "NVMM_MC_THREADS",
        host_threads().min(MAX_THREADS).to_string(),
    );
}

/// A fixed amount of AES work, timed: compare it across runs to tell
/// host drift from a change in the code.
fn calib_s() -> f64 {
    let aes = nvmm_crypto::aes::Aes128::new(&[7; 16]);
    let started = Instant::now();
    let mut block = [0u8; 16];
    for _ in 0..200_000 {
        block = aes.encrypt_block(std::hint::black_box(&block));
    }
    std::hint::black_box(block);
    started.elapsed().as_secs_f64()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn num(v: f64) -> Json {
    Json::F64(v)
}

fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

/// Runs workload `w` as `args` describes, checking every output.
fn measure(w: Workload, args: &Args) -> Measured {
    pin_env();
    let (scale, warm_scale) = if args.smoke {
        (Scale::Smoke, Scale::Smoke)
    } else {
        (Scale::Full, Scale::Warm)
    };
    let calib_before = calib_s();
    let mut problems = Vec::new();
    let check = |problems: &mut Vec<String>, what: &str, out: &workloads::Outcome| {
        problems.extend(out.problems.iter().map(|p| format!("{what}: {p}")));
    };

    let warm_inputs = w.setup(warm_scale, args.seed, &mut Spans::off());
    let warm = w.rep(&warm_inputs, &mut Spans::off());
    drop(warm_inputs);
    check(&mut problems, "warm-up", &warm);

    let mut setup_times = Vec::new();
    let mut inputs = None;
    while setup_times.len() < SETUP_REPS || setup_times.iter().sum::<f64>() < SETUP_MIN_S {
        // Free the previous inputs first: one set is held at a time.
        drop(inputs.take());
        let started = Instant::now();
        inputs = Some(w.setup(scale, args.seed, &mut Spans::off()));
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");

    let mut rep_times = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut first: Option<workloads::Outcome> = None;
    let mut digests_agree = true;
    let started = Instant::now();
    while rep_times.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let out = w.rep(&inputs, &mut Spans::off());
        rep_times.push(t.elapsed().as_secs_f64());
        check(&mut problems, "rep", &out);
        attempted += out.attempted;
        failed += out.failed;
        match &first {
            None => first = Some(out),
            Some(f) => digests_agree &= f.digest == out.digest,
        }
    }
    let first = first.expect("at least one repetition");
    if !digests_agree {
        problems.push(format!("{} differs between repetitions", w.digest_name()));
    }
    let rep_s = median(&rep_times);
    let rss = peak_rss_mib();
    if rss.is_none() {
        problems.push("cannot read VmHWM from /proc/self/status".to_string());
    }
    let host = HostTimes {
        setup_s: median(&setup_times),
        rep_s,
        peak_rss_mib: rss.unwrap_or(0.0),
    };
    let end_to_end = metrics::end_to_end(&first, &host);

    let mut per_layer = Vec::new();
    let mut traced_record = Json::Null;
    if args.trace {
        drop(inputs);
        let mut spans = Spans::on();
        let pass = Instant::now();
        let traced_inputs = w.setup(scale, args.seed, &mut spans);
        let rep_started = Instant::now();
        let out = w.rep(&traced_inputs, &mut spans);
        let rep_wall = rep_started.elapsed().as_secs_f64();
        let pass_wall = pass.elapsed().as_secs_f64();
        check(&mut problems, "traced", &out);
        if out.digest != first.digest {
            problems.push(format!(
                "traced {} differs from the untraced one",
                w.digest_name()
            ));
        }
        let coverage = spans.top_level_sum() / spans.covered_s(pass_wall);
        if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
            problems.push(format!(
                "layer spans cover {:.1}% of the traced wall time, not 100 +- {:.0}%",
                coverage * 100.0,
                COVERAGE_TOLERANCE * 100.0
            ));
        }
        let times = TracedTimes {
            calib_s: calib_before,
            overhead: rep_wall / rep_s - 1.0,
            coverage,
        };
        per_layer = metrics::per_layer(&out, &spans, &times);
        traced_record = Json::Obj(vec![
            ("pass_wall_s".into(), num(pass_wall)),
            ("rep_wall_s".into(), num(rep_wall)),
            ("span_sum_s".into(), num(spans.top_level_sum())),
            ("covered_s".into(), num(spans.covered_s(pass_wall))),
        ]);
    }
    let calib_after = calib_s();

    let hex = |d: u64| s(&format!("{d:016x}"));
    let record = Json::Obj(vec![
        ("workload".into(), s(w.name())),
        ("seed".into(), Json::U64(args.seed)),
        ("sizes".into(), s(&w.describe(scale))),
        ("warmup_sizes".into(), s(&w.describe(warm_scale))),
        ("nproc".into(), Json::U64(host_threads() as u64)),
        ("revision".into(), s(&revision())),
        (
            "host_threads".into(),
            Json::U64(host_threads().min(MAX_THREADS) as u64),
        ),
        ("shard_threads".into(), Json::U64(1)),
        (
            "NVMM_SHARD_THREADS_scaling".into(),
            s(
                "unmeasured: on a 2-core host the front end plus two ChannelPort \
               workers oversubscribe the cores, so the timing is scheduler-bound",
            ),
        ),
        ("seconds".into(), num(args.seconds)),
        ("setup_reps".into(), Json::U64(setup_times.len() as u64)),
        ("setup_s".into(), num(host.setup_s)),
        (
            "rep_s".into(),
            Json::Arr(rep_times.iter().copied().map(num).collect()),
        ),
        ("host.calib_s_before".into(), num(calib_before)),
        ("host.calib_s_after".into(), num(calib_after)),
        ("ops_attempted".into(), Json::U64(attempted)),
        ("ops_failed".into(), Json::U64(failed)),
        (w.digest_name().into(), hex(first.digest)),
        ("warmup_digest".into(), hex(warm.digest)),
        ("traced".into(), traced_record),
    ]);
    Measured {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        end_to_end,
        per_layer,
        record,
        problems,
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), num(m.value)),
                        ("unit".into(), s(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::U64(attempted)),
        ("failed".into(), Json::U64(failed)),
        ("metrics".into(), metrics),
    ])
    .to_compact()
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let r = measure(w, args);
    println!(
        "{}",
        Json::Obj(vec![("record".into(), r.record)]).to_compact()
    );
    let shown = if args.trace {
        &r.per_layer
    } else {
        &r.end_to_end
    };
    for m in shown {
        println!("{:<32} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for p in &r.problems {
        eprintln!("FAIL: {}: {p}", w.name());
    }
    println!(
        "{}",
        result_line(r.correct, r.attempted, r.failed, metrics_json(shown))
    );
    if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own (and, traced, a
/// second one), relays their output, and sums their results.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut all = Vec::new();
    for w in Workload::ALL {
        for trace in [false, true].into_iter().filter(|&t| !t || args.trace) {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = match cmd.output() {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("cannot run {}: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let last = stdout.lines().last().and_then(|l| Json::parse(l).ok());
            let Some(last) = last.filter(|_| out.status.success()) else {
                eprintln!(
                    "FAIL: {} (trace {}) exited with {}",
                    w.name(),
                    trace as u8,
                    out.status
                );
                correct = false;
                continue;
            };
            correct &= last.get("correct").and_then(Json::as_bool) == Some(true);
            if !trace {
                attempted += last.get("attempted").and_then(Json::as_u64).unwrap_or(0);
                failed += last.get("failed").and_then(Json::as_u64).unwrap_or(0);
            }
            for (name, v) in last.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                all.push((format!("{}.{name}", w.name()), v.clone()));
            }
        }
    }
    println!(
        "{}",
        result_line(correct, attempted, failed, Json::Obj(all))
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_valued_and_bare_flags() {
        let a = parse("--workload mc_clean --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload, Some(Workload::McClean));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, false));
        assert!(parse("--trace 1").unwrap().trace);
        assert!(parse("--trace --smoke").unwrap().trace);
        assert!(parse("--trace --smoke").unwrap().smoke);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed").is_err());
        assert_eq!(parse("--seed -1").unwrap().seed, u64::MAX);
        assert!(parse("--seconds -1").is_err());
    }

    /// Every workload at toy size, traced, with every check on; the
    /// metric names and units printed must be those `BENCHMARK.json`
    /// declares.
    #[test]
    fn smoke_runs_pass_and_report_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> BTreeSet<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("a metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let names = |ms: &[Metric]| -> BTreeSet<(String, String)> {
            ms.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        let workloads: BTreeSet<String> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("a workload list")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(String::from))
            .collect();
        let ours: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
        assert_eq!(workloads, ours);

        for w in Workload::ALL {
            let args = Args {
                workload: Some(w),
                seed: 3,
                seconds: 0.0,
                trace: true,
                smoke: true,
            };
            let r = measure(w, &args);
            assert!(r.correct, "{}: {:?}", w.name(), r.problems);
            assert!(r.attempted > 0, "{}", w.name());
            assert_eq!(names(&r.end_to_end), declared("end_to_end"), "{}", w.name());
            assert_eq!(names(&r.per_layer), declared("per_layer"), "{}", w.name());
            assert!(
                r.end_to_end.iter().all(|m| m.value > 0.0),
                "{}: {:?}",
                w.name(),
                r.end_to_end
            );
        }
    }
}
