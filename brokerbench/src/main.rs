//! The broker benchmark.
//!
//! ```text
//! brokerbench --workload <stock-s4|stock-s1> --seed <n> --seconds <s>
//!             --trace <0|1> [--spans <file>]
//! ```
//!
//! Runs one workload against the public `Broker` API and prints, as the
//! last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones from the traced run. A human-readable table goes to
//! standard error. The exit code is 0 only when every check passed.
//! Each workload's open-loop rate is fixed in `workload::Spec`.
//! `brokerbench/run.py` builds and runs this binary.

mod bench;
mod mirror;
mod schedule;
mod sink;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{Config, Outcome};
use workload::Name;

fn usage(problem: &str) -> ExitCode {
    eprintln!("brokerbench: {problem}");
    eprintln!(
        "usage: brokerbench --workload <stock-s4|stock-s1> --seed <n> --seconds <s> \
         --trace <0|1> [--spans <file>]"
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => name = Some(Name::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Config {
        name: name.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

/// Formats a finite number as JSON; anything else is reported as a
/// failure by the caller.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(problem) => return usage(&problem),
    };
    let mut outcome = bench::run(&config);
    if let Some((name, _, _)) = outcome.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        outcome
            .notes
            .push(format!("metric {name} is not a finite number"));
        outcome.correct = false;
    }
    for (name, value, unit) in &outcome.metrics {
        eprintln!("{name:<40} {value:>16.4} {unit}");
    }
    for note in &outcome.notes {
        eprintln!("check failed: {note}");
    }
    println!("{}", result_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let c = parse_args(&args("--workload stock-s4 --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(c.name, Name::StockS4);
        assert_eq!((c.seed, c.seconds, c.trace), (7, 10.0, true));
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload stock-s4 --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload stock-s4 --seed 1 --trace 0")).is_err());
        assert!(parse_args(&args(
            "--workload stock-s4 --seed 1 --seconds 1 --trace 0 --rate 5"
        ))
        .is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(&Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                ("setup_s".into(), 0.5, "s"),
                ("x\"y".into(), f64::NAN, "count"),
            ],
            notes: Vec::new(),
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"x\\\"y\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
