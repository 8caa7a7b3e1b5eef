//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]`
//!
//! Runs one workload and prints its metrics by name and unit; the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits non-zero, printing no result, when an
//! argument is bad or any correctness check fails. With `--out-dir`, the
//! run's record is written there, and a traced run's spans as CSV; spans
//! are tens of MB, so only each workload's latest traced run keeps them.

use colibri_perfbench::{run, Report, RunConfig, Workload, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<(RunConfig, Option<PathBuf>), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must be within 0..=3600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out-dir" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let cfg = RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    Ok((cfg, out))
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The metrics this run reports: every end-to-end metric untraced, every
/// per-layer metric traced (0 for layers the workload does not enter).
fn reported(rep: &Report, trace: bool) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut out = Vec::new();
    if trace {
        for (name, unit) in PER_LAYER {
            out.push((name, rep.metrics.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = *rep
                .metrics
                .get(name)
                .ok_or(format!("metric {name} was not measured"))?;
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("end-to-end metric {name} = {v} must be positive"));
            }
            out.push((name, v, unit));
        }
    }
    Ok(out)
}

/// The `metrics` object of the result line and the record.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

fn record(cfg: &RunConfig, rep: &Report, metrics_json: &str) -> String {
    let mut s = String::from("{");
    let _ = write!(
        s,
        "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"attempted\":{},\"failed\":{}",
        json_str(cfg.workload.name()),
        cfg.seed,
        json_num(cfg.seconds),
        u8::from(cfg.trace),
        rep.attempted,
        rep.failed
    );
    let obj = |items: Vec<String>| format!("{{{}}}", items.join(","));
    let offered = rep
        .offered
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let _ = write!(s, ",\"offered\":{}", obj(offered));
    let _ = write!(s, ",\"metrics\":{metrics_json}");
    let sums = rep
        .summaries
        .iter()
        .map(|(k, x)| {
            format!(
                "{}:{{\"median\":{},\"min\":{},\"max\":{},\"n\":{}}}",
                json_str(k),
                json_num(x.median),
                json_num(x.min),
                json_num(x.max),
                x.n
            )
        })
        .collect();
    let _ = write!(s, ",\"summaries\":{}", obj(sums));
    let cycles: Vec<String> = rep
        .cycles
        .iter()
        .map(|x| {
            format!(
                "{{\"rate_per_s\":{},\"p50_ns\":{},\"p99_ns\":{},\"samples\":{}}}",
                json_num(x.rate),
                x.p50_ns,
                x.p99_ns,
                x.samples
            )
        })
        .collect();
    let _ = write!(s, ",\"cycles\":[{}]", cycles.join(","));
    let exact = rep
        .exact
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let _ = write!(s, ",\"exact\":{}}}", obj(exact));
    s
}

fn main() -> ExitCode {
    let (cfg, out_dir) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rep = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: check failed: {e}",
                cfg.workload.name(),
                cfg.seed
            );
            return ExitCode::from(1);
        }
    };
    let metrics = match reported(&rep, cfg.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let metrics_obj = metrics_json(&metrics);
    if let Some(dir) = out_dir {
        let stem = format!(
            "{}-seed{}-trace{}",
            cfg.workload.name(),
            cfg.seed,
            u8::from(cfg.trace)
        );
        let written = std::fs::create_dir_all(&dir)
            .and_then(|_| {
                std::fs::write(
                    dir.join(format!("{stem}.json")),
                    record(&cfg, &rep, &metrics_obj),
                )
            })
            .and_then(|_| match &rep.tracer {
                Some(tr) => tr.write_csv(&dir.join(format!("{}.spans.csv", cfg.workload.name()))),
                None => Ok(()),
            });
        if let Err(e) = written {
            eprintln!("perfbench: cannot write to {}: {e}", dir.display());
            return ExitCode::from(1);
        }
    }
    println!(
        "{} seed {} trace {}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    for (name, v, unit) in &metrics {
        println!("  {name:<34} {v:>16.6} {unit}");
    }
    println!("  {:<34} {:>16} of {}", "failed", rep.failed, rep.attempted);
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        rep.attempted.max(1),
        rep.failed,
        metrics_obj
    );
    ExitCode::SUCCESS
}
