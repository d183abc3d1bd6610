//! End-to-end discovery benchmark over the reactor front end.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mixed|search|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it sets the catalog up, drives it with two closed-loop
//! HTTP connections for `S` seconds, checks the responses, and prints the
//! end-to-end metrics. With `--trace 1` it runs the same load to read the
//! reactor's counters, then one traced sequential pass that times each
//! layer from outside (see `trace.rs`), and prints the per-layer metrics.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod client;
mod gen;
mod load;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use load::{Inputs, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 45;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or_else(|| {
                        format!("unknown workload {value} (mixed, search, ingest)")
                    })?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One named metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_string(&m.name),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

fn json_string(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("a string serializes")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            for m in &report.metrics {
                println!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
            }
            for problem in &report.problems {
                println!("CHECK FAILED: {problem}");
            }
            let correct = report.problems.is_empty();
            println!(
                "{}",
                result_line(correct, report.attempted, report.failed, &report.metrics)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

pub struct Report {
    pub lines: Vec<String>,
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

fn run(args: &Args, work: &std::path::Path) -> Result<Report, String> {
    let inputs = Inputs::new(args.workload, args.seed, work.to_path_buf());
    if args.trace {
        return trace::run(&inputs, args.seconds);
    }
    // Each set-up serves one share of the timed window, so the run's
    // figures come from several catalog instances, not one.
    let length = Duration::from_secs_f64(args.seconds as f64 / load::SETUPS as f64);
    let mut setup_times = Vec::new();
    let mut problems = Vec::new();
    let mut lines = Vec::new();
    let mut reads = Vec::new();
    let mut steal = Vec::new();
    let mut writes = Vec::new();
    let (mut attempted, mut failed, mut parity, mut hot, mut seconds) = (0, 0, 0, 0, 0.0);
    for index in 0..load::SETUPS {
        let (served, times) = load::setup(&inputs, index)?;
        setup_times.push(times);
        let outcome = load::window(&inputs, &served, length, index);
        if let Some(writer) = &outcome.writer {
            problems.extend(load::check_durable(served, writer));
        } else {
            load::Served::close(served);
        }
        lines.push(format!(
            "set-up {index}: {} reads in {:.2} s, {} writes, host CPU steal per sub-window {:.0?} %",
            outcome.reads.len(),
            outcome.seconds,
            outcome.write_ns.len(),
            outcome.steal.iter().map(|s| s * 100.0).collect::<Vec<_>>(),
        ));
        steal.push(outcome.steal);
        problems.extend(outcome.problems);
        reads.extend(outcome.reads.into_iter().map(|r| (index, r)));
        writes.extend(outcome.write_ns);
        attempted += outcome.attempted;
        failed += outcome.failed;
        parity += outcome.parity_checked;
        hot += outcome.hot_reads;
        seconds += outcome.seconds;
    }
    writes.sort_unstable();
    let ms = |ns: f64| ns / 1e6;
    let stats = load::window_stats(&reads, &steal, length);
    let metrics = vec![
        metric("qps", stats.all.qps, "1/s"),
        metric("p50_ms", ms(stats.all.p50_ns), "ms"),
        metric("p99_ms", ms(stats.all.p99_ns), "ms"),
        metric("setup_s", load::setup_seconds(&setup_times), "s"),
        metric("rss_mb", load::peak_rss_mb(), "MB"),
    ];
    let shapes: Vec<String> = inputs
        .lakes
        .iter()
        .map(|l| {
            let (tables, columns, rows, docs) = l.shape;
            format!("{tables} tables / {columns} columns / {rows} rows / {docs} documents")
        })
        .collect();
    lines.insert(
        0,
        format!(
            "workload {} seed {} seconds {} connections {} set-ups {}; lakes: {}",
            args.workload.name(),
            args.seed,
            args.seconds,
            load::CONNECTIONS,
            load::SETUPS,
            shapes.join(", "),
        ),
    );
    lines.push(format!(
        "reads {} (hot-set replays {hot}), writes {}, parity samples checked {parity}",
        reads.len(),
        writes.len(),
    ));
    lines.push(format!(
        "qps, p50 and p99 are over the {} reads ({} beyond the p99) of the {} of {} \
         sub-windows of {:.2} s with the least host CPU steal (at most {:.1}% kept, {:.1}% worst)",
        stats.all.reads,
        stats.all.reads / 100,
        stats.kept,
        stats.sub_windows,
        stats.width,
        stats.kept_steal * 100.0,
        stats.max_steal * 100.0,
    ));
    for (i, (kept, f)) in stats.per_setup.iter().enumerate() {
        lines.push(format!(
            "set-up {i} kept {kept} sub-windows: qps {:.1}, p50 {:.4} ms, p99 {:.3} ms over {} reads",
            f.qps,
            ms(f.p50_ns),
            ms(f.p99_ns),
            f.reads
        ));
    }
    let error_rate = failed as f64 / attempted.max(1) as f64;
    let mut extra = vec![metric("error_rate", error_rate, "ratio")];
    if args.workload == Workload::Ingest {
        extra.push(metric("writes_per_s", writes.len() as f64 / seconds, "1/s"));
        extra.push(metric(
            "write_p50_ms",
            ms(load::quantile(&writes, 0.50) as f64),
            "ms",
        ));
        extra.push(metric(
            "write_p99_ms",
            ms(load::quantile(&writes, 0.99) as f64),
            "ms",
        ));
    }
    for m in &extra {
        lines.push(format!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit));
    }
    for (i, t) in setup_times.iter().enumerate() {
        lines.push(format!(
            "setup {i}: lake {:.3}s catalog {:.3}s joint {:.3}s serve {:.4}s warmup {:.3}s total {:.3}s \
             (host CPU steal {:.1}%)",
            t.lake,
            t.catalog,
            t.joint,
            t.serve,
            t.warmup,
            t.total,
            t.steal * 100.0
        ));
    }
    Ok(Report {
        lines,
        metrics,
        problems,
        attempted,
        failed,
    })
}
