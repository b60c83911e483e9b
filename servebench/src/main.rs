//! `servebench`: the serving stack's benchmark.
//!
//! ```text
//! servebench --workload <scan-100k|papers-faceted|ingest-churn> --seed <n>
//!            --seconds <s> --trace <0|1>
//! ```
//!
//! It drives `sem-serve` from outside, through its public functions, with
//! a schedule generated from `--seed`. The untraced run (`--trace 0`)
//! reports the end-to-end metrics; the traced run (`--trace 1`) runs the
//! same schedule twice, untraced then traced, and reports per-layer
//! metrics plus the tracing overhead. Which metrics are reported, and in
//! which unit, is `BENCHMARK.json`'s to say (see [`manifest`]). Every
//! figure is printed by name and unit; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. A failed correctness
//! check turns `correct` false (the failures are listed above the result);
//! a usage or set-up error exits 2 without a result.
//!
//! Scratch state (stores, the trained paper fixture, span dumps and the
//! run records) lives under `$CARGO_TARGET_DIR/servebench-work`
//! (default `servebench/target/servebench-work`).

mod exact;
mod fixture;
mod host;
mod json;
mod manifest;
mod run;
mod schedule;
mod stats;
mod trace;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::json::{int, num, obj, s, Value};
use crate::manifest::{Manifest, Metric};

use crate::run::{execute, Inputs, Pass, Workload};
use crate::stats::{median, percentile, Percentile};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String], default_seconds: f64) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| format!("bad seconds {value:?}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.unwrap_or(default_seconds);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// `$CARGO_TARGET_DIR/servebench-work`, relative to the checkout.
fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("servebench/target"))
        .join("servebench-work")
}

/// A computed figure: value plus how it was obtained.
struct Reported {
    name: &'static str,
    unit: String,
    value: f64,
    note: String,
}

fn reported(name: &'static str, unit: &str, value: f64, note: impl Into<String>) -> Reported {
    Reported { name, unit: unit.into(), value, note: note.into() }
}

fn tail(p: Percentile, label: &str) -> String {
    format!(
        "{label} of {} samples, {} beyond; highest percentile with >=10 beyond: p{:.2}",
        p.samples, p.beyond, p.max_supported
    )
}

/// Every end-to-end figure of an untraced pass.
fn end_to_end(pass: &Pass) -> Vec<Reported> {
    let ms = |name, samples: &[f64], p, label: &str| {
        let pct = percentile(samples, p);
        reported(name, "ms", pct.value, tail(pct, label))
    };
    let (rss, hwm) = pass.rss_baseline_mb;
    let mut out = vec![
        reported("setup_s", "s", pass.setup(), format!("median of {} set-ups", pass.setup_s.len())),
        reported("recall_at_10", "ratio", pass.recall, "served top-10 vs exact reference"),
        reported(
            "store_bytes_ratio",
            "ratio",
            pass.store_bytes_ratio,
            "snapshots + journals / raw f32",
        ),
        reported(
            "peak_rss_mb",
            "MiB",
            pass.peak_rss_mb,
            format!("VmHWM minus VmRSS before set-up ({rss:.1} MiB; VmHWM then {hwm:.1} MiB)"),
        ),
        reported("peak_qps", "1/s", pass.peak_qps, "closed loop, one client per CPU"),
        reported(
            "heal_s",
            "s",
            median(&pass.heal_s),
            format!("median of {} heal drills", pass.heal_s.len()),
        ),
        ms("query_p50_ms", &pass.query_ms, 50.0, "open-loop p50"),
        ms("query_p99_ms", &pass.query_ms, 99.0, "open-loop p99"),
        ms("closed_query_p50_ms", &pass.closed_query_ms, 50.0, "closed-loop p50"),
        ms("closed_query_p99_ms", &pass.closed_query_ms, 99.0, "closed-loop p99"),
        reported(
            "failed_share",
            "ratio",
            pass.tally.failed_share(),
            "(failed + shed + degraded) / attempted",
        ),
    ];
    let (missed, queried) = pass.sq8_self_misses;
    if queried > 0 {
        out.push(reported(
            "sq8_self_miss_share",
            "ratio",
            missed as f64 / queried as f64,
            format!("{missed} of {queried} new-paper self-queries missed rank 1 on the SQ8 stack"),
        ));
    }
    if pass.open_ingest_ms.is_empty() {
        let samples = &pass.closed_ingest_ms;
        out.push(ms("ingest_p50_ms", samples, 50.0, "one writer, back to back, p50"));
        out.push(ms("ingest_p99_ms", samples, 99.0, "one writer, back to back, p99"));
        out.push(reported(
            "ingest_per_s",
            "1/s",
            pass.ingest_per_s,
            "new papers acked per second, one writer",
        ));
    } else {
        let samples = &pass.open_ingest_ms;
        out.push(ms("ingest_p50_ms", samples, 50.0, "open-loop p50, beside the reads"));
        out.push(ms("ingest_p99_ms", samples, 99.0, "open-loop p99, beside the reads"));
    }
    out
}

/// The per-layer figures of a traced pass, with the tracing overhead.
fn per_layer(untraced: &Pass, traced: &Pass, units: &[Metric]) -> Vec<Reported> {
    let overhead = "traced minus untraced pass of the same schedule";
    let mut out: Vec<Reported> =
        traced.layer.iter().map(|(&name, &value)| reported(name, "", value, "")).collect();
    out.push(reported("trace.overhead_setup_s", "s", traced.setup() - untraced.setup(), overhead));
    out.push(reported(
        "trace.overhead_query_p50_ms",
        "ms",
        traced.query(50.0) - untraced.query(50.0),
        overhead,
    ));
    out.push(reported(
        "trace.overhead_query_p99_ms",
        "ms",
        traced.query(99.0) - untraced.query(99.0),
        overhead,
    ));
    // the layer counters carry no unit of their own: they take the
    // manifest's, and one the manifest does not name is printed bare
    for r in &mut out {
        if let Some(m) = units.iter().find(|m| m.name == r.name && r.unit.is_empty()) {
            r.unit = m.unit.clone();
        }
    }
    out
}

/// Splits `figures` into the metrics `wanted` names, in its order, and
/// the rest. A named metric the run did not compute, or computed in
/// another unit, is an error.
fn select(
    wanted: &[Metric],
    mut figures: Vec<Reported>,
) -> Result<(Vec<Reported>, Vec<Reported>), String> {
    let mut chosen = Vec::with_capacity(wanted.len());
    for m in wanted {
        let i = figures.iter().position(|r| r.name == m.name).ok_or_else(|| {
            format!("BENCHMARK.json names {:?}, which this run does not compute", m.name)
        })?;
        let r = figures.remove(i);
        if r.unit != m.unit {
            return Err(format!(
                "{} is measured in {:?}, BENCHMARK.json says {:?}",
                m.name, r.unit, m.unit
            ));
        }
        chosen.push(r);
    }
    Ok((chosen, figures))
}

fn run(args: &Args, manifest: &Manifest) -> Result<String, String> {
    let host = host::Host::detect();
    let work = work_dir();
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let papers =
        if args.workload.needs_papers() { Some(fixture::load_or_build(&work)?) } else { None };
    let inputs = Inputs {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        papers: papers.as_ref(),
        workers: host.nproc,
        setups: if args.trace { 1 } else { run::SETUP_REPEATS },
        dir: work.join(format!("run-{}-{}", args.workload.name(), std::process::id())),
    };
    println!(
        "servebench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host nproc={} cpu={:?} sha={}", host.nproc, host.cpu, host.sha);
    let result = (|| {
        let first = execute(&inputs, false)?;
        let traced = if args.trace { Some(execute(&inputs, true)?) } else { None };
        Ok::<_, String>((first, traced))
    })();
    let _ = std::fs::remove_dir_all(&inputs.dir);
    let (untraced, traced) = result?;
    let mut checks = untraced.checks.clone();
    let mut correct = checks.passed();
    let (reported, also) = match &traced {
        Some(t) => {
            correct &= t.checks.passed() && t.fingerprint == untraced.fingerprint;
            checks = t.checks.clone();
            let (layer, rest) =
                select(&manifest.per_layer, per_layer(&untraced, t, &manifest.per_layer))?;
            (layer, rest.into_iter().chain(end_to_end(&untraced)).collect())
        }
        None => select(&manifest.end_to_end, end_to_end(&untraced))?,
    };
    let pass = traced.as_ref().unwrap_or(&untraced);
    println!("inputs fingerprint={}", pass.fingerprint);
    let tally = pass.tally;
    println!(
        "operations attempted={} ok={} failed={} shed={} degraded={} failed_share={:.6}",
        tally.attempted,
        tally.ok,
        tally.failed,
        tally.shed,
        tally.degraded,
        tally.failed_share()
    );
    let late = percentile(&pass.lateness_ms, 99.0);
    println!(
        "generator lateness p50={:.3} ms p99={:.3} ms ({} operations)",
        percentile(&pass.lateness_ms, 50.0).value,
        late.value,
        late.samples
    );
    for (name, (runs, fails)) in &checks.counts {
        println!("check {name}: {}/{runs} passed", runs - fails);
    }
    if let Some(t) = &traced {
        if t.fingerprint != untraced.fingerprint {
            println!("check traced_inputs_match: FAILED");
        }
        println!("self time by span (top 12):");
        for (name, ns) in trace::self_time_by_name(&t.spans).into_iter().take(12) {
            println!("  {name:<32} {:>12.3} ms", ns as f64 / 1e6);
        }
        let path =
            work.join("spans").join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        trace::write_jsonl(&path, &t.spans).map_err(|e| format!("writing spans: {e}"))?;
        println!("spans written to {}", path.display());
    }
    for failure in &checks.failures {
        println!("FAILED {failure}");
    }
    let print = |label: &str, metrics: &[Reported]| -> Value {
        for r in metrics {
            let note = if r.note.is_empty() { String::new() } else { format!("  ({})", r.note) };
            println!("{label} {} = {} {}{note}", r.name, r.value, r.unit);
        }
        obj(metrics.iter().map(|r| (r.name, obj([("value", num(r.value)), ("unit", s(&r.unit))]))))
    };
    let values = print("metric", &reported);
    let also = print("also", &also);
    let record = obj([
        ("workload", s(args.workload.name())),
        ("seed", int(args.seed)),
        ("seconds", num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        (
            "host",
            obj([("nproc", int(host.nproc as u64)), ("cpu", s(&host.cpu)), ("sha", s(&host.sha))]),
        ),
        ("inputs_fingerprint", s(&pass.fingerprint)),
        (
            "operations",
            obj([
                ("attempted", int(tally.attempted)),
                ("ok", int(tally.ok)),
                ("failed", int(tally.failed)),
                ("shed", int(tally.shed)),
                ("degraded", int(tally.degraded)),
                ("failed_share", num(tally.failed_share())),
            ]),
        ),
        (
            "checks",
            obj(checks
                .counts
                .iter()
                .map(|(n, (r, f))| (*n, obj([("runs", int(*r)), ("failed", int(*f))])))),
        ),
        ("correct", Value::Bool(correct)),
        ("metrics", values.clone()),
        ("also", also),
    ]);
    let record_text = json::text(&record);
    println!("record {record_text}");
    append_record(&work.join("records.jsonl"), &record_text);
    let result = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", int(tally.attempted)),
        ("failed", int(tally.failed + tally.shed + tally.degraded)),
        ("metrics", values),
    ]);
    Ok(json::text(&result))
}

fn append_record(path: &Path, record: &str) {
    let file = std::fs::OpenOptions::new().create(true).append(true).open(path);
    if let Ok(mut f) = file {
        let _ = writeln!(f, "{record}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--build-fixture") {
        let Some(dir) = argv.get(1) else {
            eprintln!("--build-fixture needs a directory");
            return ExitCode::from(2);
        };
        return match fixture::build_into(Path::new(dir)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("servebench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let manifest = match manifest::load() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let args = match parse_args(&argv, manifest.run_seconds) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, &manifest) {
        // an incorrect result is still a result: it is reported as
        // `"correct": false` (with the failed checks listed above it)
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}
