//! Runs one timed benchmark suite.
//!
//! ```text
//! cargo run --release -p softsku-bench --bin bench -- <suite>                  # full
//! cargo run --release -p softsku-bench --bin bench -- <suite> --smoke          # CI
//! cargo run --release -p softsku-bench --bin bench -- <suite> --json out.json  # summary
//! ```
//!
//! Suites: `sweep`, `rollout`, `obs`, `engine`, `chaos`, `mesh`, `slo`
//! (see [`softsku_bench::suites`]). `--json PATH` writes the suite's
//! measurements under one envelope (`bench`, `smoke`, `hardware_threads`,
//! `base_seed`). Bad arguments print usage and exit 2.

use softsku_bench::suites::{BoxError, Suite, BASE_SEED};
use softsku_telemetry::Json;
use std::fmt;

/// A parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    suite: Suite,
    smoke: bool,
    json: Option<String>,
}

/// Why a command line was rejected.
#[derive(Debug, PartialEq)]
struct UsageError(String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

fn usage() -> String {
    let names: Vec<&str> = Suite::ALL.iter().map(|s| s.name()).collect();
    format!("usage: bench <{}> [--smoke] [--json PATH]", names.join("|"))
}

/// Parses the arguments after the program name.
fn parse_args(args: &[String]) -> Result<Args, UsageError> {
    let mut suite = None;
    let mut smoke = false;
    let mut json = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--json" => match it.next() {
                Some(path) if !path.starts_with('-') => json = Some(path.clone()),
                _ => return Err(UsageError("--json needs a PATH".into())),
            },
            flag if flag.starts_with('-') => {
                return Err(UsageError(format!("unknown flag {flag:?}")))
            }
            name if suite.is_none() => {
                suite = Some(
                    Suite::ALL
                        .into_iter()
                        .find(|s| s.name() == name)
                        .ok_or_else(|| UsageError(format!("unknown suite {name:?}")))?,
                )
            }
            extra => return Err(UsageError(format!("unexpected argument {extra:?}"))),
        }
    }
    let suite = suite.ok_or_else(|| UsageError("no suite given".into()))?;
    Ok(Args { suite, smoke, json })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("bench: {e}\n{}", usage());
        std::process::exit(2)
    });
    if let Err(e) = run(&args) {
        eprintln!("bench: {e}");
        std::process::exit(1);
    }
}

/// Runs the selected suite and writes its summary.
fn run(args: &Args) -> Result<(), BoxError> {
    let hw = usku::scheduler::default_workers().get();
    println!("hardware threads: {hw} (speedups are bounded by this; determinism is not)");
    let payload = args.suite.run(args.smoke, hw)?;

    if let Some(path) = &args.json {
        let mut summary = Json::obj()
            .set("bench", Json::Str(format!("{}bench", args.suite.name())))
            .set("smoke", Json::Bool(args.smoke))
            .set("hardware_threads", Json::Int(hw as i64))
            .set("base_seed", Json::Int(BASE_SEED as i64));
        if let Json::Obj(entries) = payload {
            for (key, value) in entries {
                summary = summary.set(&key, value);
            }
        }
        std::fs::write(path, summary.render_pretty())
            .map_err(|e| std::io::Error::new(e.kind(), format!("writing {path}: {e}")))?;
        println!("wrote {path}");
    }
    if args.smoke {
        println!("smoke ok");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, UsageError> {
        let owned: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&owned)
    }

    #[test]
    fn accepts_every_suite_with_flags_in_any_order() {
        for suite in Suite::ALL {
            assert_eq!(
                parse(&["--json", "out.json", suite.name(), "--smoke"]),
                Ok(Args {
                    suite,
                    smoke: true,
                    json: Some("out.json".into()),
                })
            );
        }
        assert_eq!(
            parse(&["mesh"]),
            Ok(Args {
                suite: Suite::Mesh,
                smoke: false,
                json: None,
            })
        );
    }

    #[test]
    fn rejects_an_unknown_suite() {
        assert!(parse(&["nosuch"]).is_err());
        assert!(parse(&["sweepbench", "--smoke"]).is_err());
    }

    #[test]
    fn rejects_a_missing_suite() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--smoke"]).is_err());
    }

    #[test]
    fn rejects_an_unknown_flag() {
        assert!(parse(&["sweep", "--smoke", "--jsn", "out.json"]).is_err());
        assert!(parse(&["sweep", "-s"]).is_err());
    }

    #[test]
    fn rejects_json_without_a_path() {
        assert!(parse(&["sweep", "--json"]).is_err());
        assert!(parse(&["sweep", "--json", "--smoke"]).is_err());
    }

    #[test]
    fn rejects_a_second_positional() {
        assert!(parse(&["sweep", "mesh"]).is_err());
    }
}
