//! **wire2intent** — the wire-to-intent benchmark.
//!
//! Replays pre-encoded RFC 7854 BMP over a loopback socket into an
//! in-process `ArtemisService` guarding a fleet of owned prefixes, pumps
//! it the way the daemon's feed pump does, and measures the time from a
//! hijack's bytes being due at the generator to the mitigation intent
//! reaching the controller. See `README.md` beside this crate for the
//! workloads, metrics and gates.
//!
//! ```sh
//! cargo run --release --offline --manifest-path wire2intent/Cargo.toml -- \
//!     --workload hijack_storm --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The
//! process exits non-zero when a correctness gate fails.

mod bench;
mod cpu;
mod stats;
mod traffic;

use bench::{Metric, Options, Workload};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

const USAGE: &str = "usage: wire2intent --workload <firehose|hijack_storm|operator_mix> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::HijackStorm,
        seed: 1,
        run_for: Duration::from_secs(20),
        trace: false,
        fleet: 100_000,
        setup_reps: 9,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("bad {what} {value:?}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("workload"))?);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("seconds"));
                }
                opts.run_for = Duration::from_secs_f64(s);
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    opts.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(opts)
}

/// First line of a command's output, or `unknown`.
fn probe(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(m.name),
            m.value,
            json_string(m.unit)
        ));
    }
    Ok(format!("{{{}}}", fields.join(", ")))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let report = match bench::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wire2intent: {e}");
            return ExitCode::from(2);
        }
    };

    let mut env = report.env.clone();
    env.push(("rustc", probe("rustc", &["--version"])));
    // The checkout's own `.git` only: never a parent directory's repository.
    env.push((
        "git_commit",
        probe("git", &["--git-dir=.git", "rev-parse", "--short", "HEAD"]),
    ));
    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    println!("# env {{{}}}", env_json.join(", "));
    for line in &report.span_summary {
        eprintln!("span  {line}");
    }
    for g in &report.gates {
        eprintln!(
            "gate  {:<24} {}  {}",
            g.name,
            if g.passed { "ok  " } else { "FAIL" },
            g.detail
        );
    }
    for c in &report.checks {
        eprintln!(
            "check {:<24} {}  {}",
            c.name,
            if c.passed { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    let shown = if opts.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    for m in shown {
        eprintln!("metric {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for m in &report.info {
        eprintln!("info   {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let metrics = match metrics_json(shown) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("wire2intent: {e}");
            return ExitCode::from(2);
        }
    };
    let correct = report.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.attempted.max(1),
        report.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
