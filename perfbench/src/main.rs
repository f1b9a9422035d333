//! The repository benchmark: SQL text in, result bits out.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload q1-deposit --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Each invocation runs one workload (see `workload::SPECS`) as a closed
//! loop in this process and checks every reply's bits against a
//! reference. `--trace 0` prints the end-to-end metrics; `--trace 1` is a
//! separate run that records spans around the calls into each layer and
//! prints the per-layer metrics (see `layers`). The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; the line before it records the machine fingerprint and the
//! result digest. A result-bit mismatch exits with code 1, bad arguments
//! with code 2.

mod layers;
mod qgen;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Spec, BACKEND};

/// Set-ups per untraced run: at least `SETUP_MIN_REPS`, then more until
/// they took `SETUP_SECONDS` (at most `SETUP_MAX_REPS`). `setup_s` is
/// their median, so a cheap set-up is sampled often enough to be steady.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 40;
const SETUP_SECONDS: f64 = 1.0;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Outcome counts and the metrics of one run.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub errors: Vec<String>,
    /// Lines printed with the metrics (the traced run's span summary).
    pub notes: Vec<String>,
    /// Reply-bit digest per session, folded in session order.
    pub digest: u64,
    pub samples: usize,
    /// Client sessions, for the fingerprint.
    pub clients: usize,
}

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <q1-deposit|q15-groups|q6-encoded|wire-mixed> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => spec = Some(Spec::by_name(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0 && *s <= 120.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set (VmHWM) of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The revision of the checkout this binary was built from, when it is
/// a git work tree; read from `.git` directly so no process is spawned.
fn git_revision() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(&format!(" {r}")))
                .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
        }),
    };
    rev.filter(|r| !r.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The untraced run: the references, repeated set-ups, then the timed
/// loop on the last set-up.
fn timed_run(spec: &Spec, seed: u64, seconds: f64) -> Result<Report, String> {
    let refs = workload::references(spec, &rfa_workloads::Lineitem::generate(spec.rows, seed))?;
    let mut setup_s: Vec<f64> = Vec::new();
    let mut setup = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_SECONDS && setup_s.len() < SETUP_MAX_REPS)
    {
        drop(setup.take());
        let t0 = Instant::now();
        setup = Some(workload::set_up(spec, seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut setup = setup.expect("at least one set-up ran");
    let table = setup.table.clone();
    let call = |_: usize, client: Option<&mut rfa_server::Client>, text: &str, _: u64| {
        workload::query(spec, &table, client, text)
    };
    // Warm-up: lazy pool start, first-touch allocations, plan caches.
    workload::run_sessions(
        spec,
        seed,
        &mut setup,
        &refs,
        Duration::ZERO,
        2 * spec.clients,
        call,
    );
    let budget = Duration::from_secs_f64(seconds);
    let sessions = workload::run_sessions(
        spec,
        seed,
        &mut setup,
        &refs,
        budget,
        workload::min_queries(),
        call,
    );
    // Latency and throughput are taken per window of consecutive
    // completions and reported as medians over the windows.
    let mut done: Vec<(u64, u64)> = sessions
        .iter()
        .flat_map(|s| s.done_ns.iter().copied().zip(s.latency_ns.iter().copied()))
        .collect();
    let windows = stats::windows(&mut done);
    let mut report = Report::from_sessions(&sessions, spec);
    if windows.is_empty() {
        return Err(format!("no query completed: {:?}", report.errors));
    }
    report.notes.push(format!(
        "{} windows of {} completions",
        windows.len(),
        stats::WINDOW
    ));
    let failed_ratio = report.failed as f64 / report.attempted as f64;
    let over_windows =
        |f: fn(&stats::Window) -> f64| stats::median(&windows.iter().map(f).collect::<Vec<_>>());
    report.metrics = vec![
        metric("query_ms_p50", over_windows(|w| w.p50_ms), "ms"),
        metric("query_ms_p90", over_windows(|w| w.p90_ms), "ms"),
        metric("queries_per_s", over_windows(|w| w.per_s), "1/s"),
        metric("peak_rss_mib", peak_rss_mib()?, "MiB"),
        metric("setup_s", stats::median(&setup_s), "s"),
        metric("success_ratio", 1.0 - failed_ratio, "ratio"),
    ];
    Ok(report)
}

impl Report {
    pub fn from_sessions(sessions: &[workload::SessionOut], spec: &Spec) -> Report {
        Report {
            metrics: Vec::new(),
            attempted: sessions.iter().map(|s| s.attempted).sum(),
            failed: sessions.iter().map(|s| s.failed).sum(),
            mismatches: sessions.iter().map(|s| s.mismatches).sum(),
            errors: sessions.iter().flat_map(|s| s.errors.clone()).collect(),
            notes: Vec::new(),
            digest: stats::digest(
                stats::DIGEST_BASIS,
                &sessions.iter().map(|s| s.digest).collect::<Vec<_>>(),
            ),
            samples: sessions.iter().map(|s| s.latency_ns.len()).sum(),
            clients: spec.clients,
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_report(args: &Args, report: &Report) {
    let spec = args.spec;
    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "{} seed {} ({mode}): {} attempted, {} failed (failed_ratio {}), {} mismatches, {} timed samples",
        spec.name,
        args.seed,
        report.attempted,
        report.failed,
        json_num(report.failed as f64 / report.attempted.max(1) as f64),
        report.mismatches,
        report.samples,
    );
    for e in &report.errors {
        println!("  failure: {e}");
    }
    for n in &report.notes {
        println!("  {n}");
    }
    for m in &report.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"fingerprint\":{{\"git\":{},\"nproc\":{nproc},\"simd\":{},\"rows\":{},\"seed\":{},\
         \"backend\":{},\"clients\":{},\"threads\":{},\"wire\":{},\"encoded\":{}}},\
         \"workload\":{},\"trace\":{},\"samples\":{},\"failed_ratio\":{},\"result_digest\":\"{:016x}\"}}",
        json_str(&git_revision()),
        json_str(&rfa_core::cpu::active().to_string()),
        spec.rows,
        args.seed,
        json_str(&format!("{BACKEND:?}")),
        report.clients,
        spec.threads,
        spec.wire,
        spec.encoded,
        json_str(spec.name),
        args.trace,
        report.samples,
        json_num(report.failed as f64 / report.attempted.max(1) as f64),
        report.digest,
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.mismatches == 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
}

/// Pins glibc's malloc thresholds: blocks of 128 KiB and up (the default
/// threshold) are always mapped fresh, and the heap is trimmed only above
/// 1 GiB, so the small blocks a query frees are reused by the next one
/// instead of being returned and faulted in again. Left dynamic, both
/// thresholds move with the first large frees, so a process lands in a
/// fast or a slow mode at random (2-thread Q15: 100 or 135 ms per query).
/// With the default trim threshold, page faults are most of a Q15 query
/// and follow the host's memory load (serial medians of 51 to 73 ms);
/// with every block reused from the heap, heap layout differs per process
/// (Q6 medians of 3.8 to 5.7 ms).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_thresholds() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` is glibc's documented tuning entry point, takes
    // plain integers and is called before this process starts a thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 << 10);
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_thresholds() {}

fn main() -> ExitCode {
    pin_malloc_thresholds();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = if args.trace {
        layers::traced_run(args.spec, args.seed, args.seconds)
    } else {
        timed_run(args.spec, args.seed, args.seconds)
    };
    match run {
        Ok(report) => {
            print_report(&args, &report);
            if report.mismatches == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} replies differ from their reference",
                    report.mismatches
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments() {
        let a = args("--workload wire-mixed --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.spec.name, a.seed, a.seconds, a.trace),
            ("wire-mixed", 9, 2.5, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload q1-deposit --seed 1 --seconds 0").is_err());
        assert!(args("--workload q1-deposit --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload q1-deposit --seconds 1").is_err());
        assert!(args("--workload q1-deposit --seed").is_err());
    }

    #[test]
    fn json_output_is_well_formed() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(0.25), "0.25");
        assert_eq!(json_num(f64::NAN), "null");
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
