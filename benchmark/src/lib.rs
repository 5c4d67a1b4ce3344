//! The SPERR repository benchmark: three workloads through the public
//! `sperr-core` API in its default configuration, end-to-end metrics
//! from a timed run and per-layer metrics from a traced replay. See
//! README.md in this directory.

pub mod job;
pub mod replay;
pub mod simd;
pub mod trace;
pub mod util;
pub mod workload;

pub use workload::{Metric, Opts, Outcome, Workload};

use util::json_str;

/// Runs one workload: the traced run when `opts.trace`, else the timed one.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    if opts.trace {
        workload::traced(opts)
    } else {
        workload::timed(opts)
    }
}

/// The host and build this binary runs on, as a JSON object.
pub fn fingerprint(opts: &Opts, notes: &[(String, String)]) -> String {
    let mut s = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"features\":{{\"force_scalar\":{},\"telemetry\":{}}}",
        json_str(opts.workload.name()),
        opts.seed,
        opts.seconds,
        opts.trace,
        util::nproc(),
        json_str(&util::cpu_model()),
        json_str(env!("BENCH_RUSTC_VERSION")),
        // The benchmark never enables `sperr-simd/force-scalar`, and
        // `sperr-simd` exposes no flag for it.
        false,
        sperr_telemetry::is_enabled(),
    );
    for (k, v) in notes {
        s.push_str(&format!(",{}:{}", json_str(k), v));
    }
    s.push('}');
    s
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; such a value marks the run
            // incorrect below.
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".into()
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    let correct = outcome.failed == 0 && outcome.metrics.iter().all(|m| m.value.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
