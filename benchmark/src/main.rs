//! Command line: `--workload NAME --seed N --seconds S --trace 0|1`.
//! Prints a fingerprint line, then the
//! result line last; the traced run also writes its spans under `out/`
//! in this package's directory.

use sperr_benchmark::{fingerprint, result_line, run, Opts, Workload};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::Dump,
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("usage: sperr-benchmark --workload dump|explore|stream_f32 --seed N --seconds S --trace 0|1\n{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fp = fingerprint(&opts, &outcome.notes);
    if let Some(spans) = &outcome.spans {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "trace-{}-{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        let body = format!("{{\"fingerprint\":{fp}}}\n{spans}");
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{{\"fingerprint\":{fp}}}");
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
