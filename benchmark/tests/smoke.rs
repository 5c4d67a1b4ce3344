//! Smoke-sized self-test: every workload once in each mode on tiny
//! inputs. Every metric `BENCHMARK.json` names must be emitted with a
//! finite value and a unit, no operation may fail, and the traced run's
//! replay-equivalence check must pass.

use sperr_benchmark::job::{Case, Job};
use sperr_benchmark::replay::Queries;
use sperr_benchmark::trace::Tracer;
use sperr_benchmark::{result_line, run, Opts, Workload};
use sperr_datagen::SyntheticField;

/// The `"name"` values inside the top-level array `key` of BENCHMARK.json
/// (its entries are flat objects, so the array ends at the first `]`).
fn names_in(spec: &str, key: &str) -> Vec<String> {
    let start = spec
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let body = &spec[start..];
    let body = &body[body.find('[').expect("array")..];
    let body = &body[..body.find(']').expect("array end")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("name value").to_string())
        .collect()
}

#[test]
fn every_metric_is_emitted_and_nothing_fails() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut workloads = names_in(&spec, "workloads");
    workloads.sort();
    let mut ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    ours.sort();
    assert_eq!(workloads, ours);

    for trace in [false, true] {
        let mut want = names_in(&spec, if trace { "per_layer" } else { "end_to_end" });
        want.sort();
        assert!(!want.is_empty());
        for workload in Workload::ALL {
            let opts = Opts {
                workload,
                seed: 5,
                seconds: 0.0,
                trace,
                smoke: true,
            };
            let out =
                run(&opts).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0, "{} trace={trace}", workload.name());
            let mut got: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
            got.sort();
            assert_eq!(got, want, "{} trace={trace}", workload.name());
            for m in &out.metrics {
                assert!(
                    m.value.is_finite(),
                    "{} {}: {}",
                    workload.name(),
                    m.name,
                    m.value
                );
                assert!(!m.unit.is_empty());
            }
            assert!(result_line(&out).starts_with("{\"correct\": true,"));
        }
    }
}

#[test]
fn replay_check_rejects_a_different_program() {
    let field = SyntheticField::MirandaPressure.generate([24, 16, 16], 1);
    let case = Case::new("pressure", field, 1e-4, [16, 16, 16], false);
    let s = case.sperr(1);
    let stream = case.compress(&s).1.expect("compress");
    let full = case.decompress(&s, &stream).1.expect("decompress");
    let q = Queries {
        full: true,
        regions: vec![([4, 4, 4], [20, 12, 12])],
        previews: 1,
        preview_bpp: 1.0,
    };
    let preview = s.decode_at_bpp(&stream, 1.0).expect("preview").data;
    let mut out = case
        .replay(&mut Tracer::new(true), &stream, &q)
        .expect("replay");
    case.verify(&stream, &q, &out, &full, std::slice::from_ref(&preview))
        .expect("replay matches the program");

    out.chunks[1].speck[0] ^= 1;
    assert!(case
        .verify(&stream, &q, &out, &full, std::slice::from_ref(&preview))
        .is_err());
    out.chunks[1].speck[0] ^= 1;
    out.packed[7] ^= 1;
    assert!(case.verify(&stream, &q, &out, &full, &[preview]).is_err());
}
