//! `pstbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints every metric by name with its unit and sample count, then, as
//! the last line of standard output, one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). Exits 1 without a result when a run
//! cannot complete.

use std::path::PathBuf;
use std::process::ExitCode;

use pstbench::{Options, Outcome, Scale, END_TO_END, PER_LAYER, WORKLOADS};

fn usage() -> String {
    format!(
        "usage: pstbench --workload <{}|all> --seed <n> --seconds <n> --trace <0|1> \
         [--pst-bin <path>] [--trace-dir <dir>]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(Vec<String>, Options), String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: 10.0,
        trace: false,
        fault: None,
        scale: Scale::Full,
        pst_bin: None,
        trace_dir: None,
    };
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag}` expects {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--pst-bin" => opts.pst_bin = Some(PathBuf::from(value)),
            "--trace-dir" => opts.trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workloads = match workload.as_deref() {
        Some("all") => WORKLOADS.iter().map(|w| w.to_string()).collect(),
        Some(w) if WORKLOADS.contains(&w) => vec![w.to_string()],
        Some(w) => return Err(format!("unknown workload `{w}`")),
        None => return Err("`--workload` is required".to_string()),
    };
    Ok((workloads, opts))
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn print_human(workload: &str, out: &Outcome) {
    for (name, m) in &out.metrics {
        println!(
            "{workload} {name} = {} {} (n={})",
            m.value,
            unit_of(name),
            m.samples
        );
    }
    println!(
        "{workload} failed_frac = {} ({} of {} operations failed; {} checks passed or failed, {} inconclusive)",
        out.failed_frac(),
        out.failed,
        out.attempted,
        out.checks,
        out.inconclusive
    );
}

fn json_metrics(
    prefix: &str,
    out: &Outcome,
    trace: bool,
    fields: &mut Vec<String>,
) -> Result<(), String> {
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in wanted {
        let value = match out.metrics.get(*name) {
            Some(m) if m.value.is_finite() => m.value,
            Some(m) => return Err(format!("metric `{name}` is not finite ({})", m.value)),
            // A layer this workload never calls did no work.
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric `{name}` was not measured")),
        };
        fields.push(format!(
            "\"{prefix}{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let (workloads, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("pstbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut fields = Vec::new();
    for workload in &workloads {
        let out = match pstbench::run(workload, &opts) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("pstbench: {workload}: {e}");
                return ExitCode::from(1);
            }
        };
        print_human(workload, &out);
        attempted += out.attempted;
        failed += out.failed;
        let prefix = if workloads.len() > 1 {
            format!("{workload}/")
        } else {
            String::new()
        };
        if let Err(e) = json_metrics(&prefix, &out, opts.trace, &mut fields) {
            eprintln!("pstbench: {workload}: {e}");
            return ExitCode::from(1);
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
