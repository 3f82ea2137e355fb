//! Command lines of the two binaries.

use std::path::PathBuf;

/// Seconds of warm operations one run times; `run_seconds` in
/// `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 12.0;
/// Set-ups per run; their median is `setup_s`.
pub const SETUPS: usize = 3;

pub const USAGE: &str = "\
usage:
  perf --workload NAME [--seed N] [--seconds S] [--trace 0] [--scale F]
  perf run (--all | --workload NAME) [--seed N] [--repeat R] [--seconds S]
           [--scale F] [--label TEXT] [--out FILE]
  perf diff A.json B.json
  perf list
  perf manifest            (prints what BENCHMARK.json must hold)
  perf-layers [trace] --workload NAME [--seed N] [--seconds S] [--trace 1] [--scale F]";

/// One workload, run in this process.
#[derive(Clone, Debug, PartialEq)]
pub struct Single {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
}

#[derive(Clone, Debug, PartialEq)]
pub struct RunAll {
    /// Empty means every workload.
    pub workloads: Vec<String>,
    pub seed: u64,
    /// Run `repeat` times with seeds `seed`, `seed + 1`, ...
    pub repeat: u64,
    pub seconds: f64,
    pub scale: f64,
    pub label: String,
    pub out: Option<PathBuf>,
}

#[derive(Clone, Debug, PartialEq)]
pub enum Cmd {
    Single(Single),
    Run(RunAll),
    Diff(PathBuf, PathBuf),
    List,
    Manifest,
}

/// Where run products go: `PERF_OUT_DIR`, or `perf/out` under the current
/// directory (the driver runs from the root of a checkout).
pub fn out_dir() -> PathBuf {
    std::env::var_os("PERF_OUT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perf/out"))
}

pub fn parse(args: &[String]) -> Result<Cmd, String> {
    let (sub, flags) = match args.first().map(String::as_str) {
        Some("run") => ("run", &args[1..]),
        Some("trace") => ("single", &args[1..]),
        Some("list") => return Ok(Cmd::List),
        Some("manifest") => return Ok(Cmd::Manifest),
        Some("diff") => {
            return match &args[1..] {
                [a, b] => Ok(Cmd::Diff(a.into(), b.into())),
                _ => Err("diff takes two result files".into()),
            }
        }
        Some(flag) if flag.starts_with("--") => ("single", args),
        Some(other) => return Err(format!("unknown command {other}")),
        None => return Err("no command".into()),
    };

    let mut workloads = Vec::new();
    let mut all = false;
    let (mut seed, mut repeat, mut seconds, mut scale) = (1u64, 1u64, RUN_SECONDS, 1.0f64);
    let mut trace = None;
    let mut label = String::new();
    let mut out = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        if flag == "--all" {
            all = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("{flag}: cannot read {value}");
        match flag.as_str() {
            "--workload" => workloads.push(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--repeat" => repeat = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--scale" => scale = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--label" => label = value.clone(),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if !(scale > 0.0 && scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    if repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }

    if sub == "run" {
        if all != workloads.is_empty() {
            return Err("run takes --all or --workload".into());
        }
        return Ok(Cmd::Run(RunAll {
            workloads,
            seed,
            repeat,
            seconds,
            scale,
            label,
            out,
        }));
    }
    match workloads.as_slice() {
        [workload] if !all => Ok(Cmd::Single(Single {
            workload: workload.clone(),
            seed,
            seconds,
            trace: trace.unwrap_or(args.first().is_some_and(|a| a == "trace")),
            scale,
        })),
        _ => Err("exactly one --workload expected".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn reads_the_drivers_command_line() {
        let cmd = parse(&args(
            "--workload svc-b16-2conn --seed 7 --seconds 8 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Cmd::Single(Single {
                workload: "svc-b16-2conn".into(),
                seed: 7,
                seconds: 8.0,
                trace: false,
                scale: 1.0,
            })
        );
        let Cmd::Single(s) = parse(&args("trace --workload iter-cube-20k")).unwrap() else {
            panic!("trace runs one workload");
        };
        assert!(s.trace && s.seed == 1 && s.seconds == RUN_SECONDS);
    }

    #[test]
    fn reads_run_diff_and_rejects_nonsense() {
        let Cmd::Run(r) = parse(&args("run --all --seed 3 --repeat 10 --scale 0.02")).unwrap()
        else {
            panic!("run");
        };
        assert!(r.workloads.is_empty() && r.seed == 3 && r.repeat == 10 && r.scale == 0.02);
        assert_eq!(
            parse(&args("diff a.json b.json")).unwrap(),
            Cmd::Diff("a.json".into(), "b.json".into())
        );
        for bad in [
            "",
            "run",
            "run --all --workload x",
            "--workload a --workload b",
            "--workload a --seconds 0",
            "--workload a --scale 2",
            "--workload a --trace 2",
            "--workload a --bogus 1",
            "diff a.json",
            "frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} should be rejected");
        }
    }
}
