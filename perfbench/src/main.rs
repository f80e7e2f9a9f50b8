//! The COMPAQT serving benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <qec-fit|zipf-spill-recal> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a provenance line, a human-readable summary, and as its last
//! line one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics of the traced run. See `README.md`.

mod fixture;
mod layers;
mod openloop;
mod run;
mod speed;
mod stats;
mod traffic;
mod workloads;

use std::process::ExitCode;

use workloads::Kind;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's verdict and metrics.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Why a check failed, for the log.
    pub problems: Vec<String>,
    /// Human-readable lines (sample counts, sub-results).
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one check; a failed one is recorded with its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from('"');
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

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let prov = run::provenance(args.kind, args.seed, args.trace);
    println!("{prov}");
    let result = if args.trace {
        layers::run(args.kind, args.seed, args.seconds)
    } else {
        run::run(args.kind, args.seed, args.seconds)
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.kind.name());
            return ExitCode::FAILURE;
        }
    };
    for line in &report.notes {
        println!("# {line}");
    }
    for p in report.problems.iter().take(20) {
        println!("# FAILED: {p}");
    }
    report.attempted = report.attempted.max(1);
    let error_rate = report.failed as f64 / report.attempted as f64;
    println!(
        "# {}: attempted {} failed {} error_rate {error_rate}",
        args.kind.name(),
        report.attempted,
        report.failed
    );
    for m in &report.metrics {
        println!("# {:<34} {:>16} {}", m.name, m.value, m.unit);
    }
    // A metric that could not be measured (too few samples, no
    // traffic) is a harness failure, not a number.
    let bad: Vec<&str> =
        report.metrics.iter().filter(|m| !m.value.is_finite()).map(|m| m.name).collect();
    if !bad.is_empty() {
        eprintln!("perfbench: no finite value for {}", bad.join(", "));
        return ExitCode::FAILURE;
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
