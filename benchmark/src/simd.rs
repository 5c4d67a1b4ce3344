//! Throughput of the three `sperr-simd` kernels the wavelet and SPECK
//! layers spend most time in, each against its `sperr_simd::scalar`
//! twin, on a workload's own chunk data. Bytes moved are computed from
//! the array sizes (reads plus writes), not measured.

use crate::job::Sample;
use crate::util::median;
use std::hint::black_box;
use std::time::Instant;

/// Largest array the kernels run over, in elements.
const MAX_LEN: usize = 1 << 21;
/// Interleaved SIMD/scalar pairs per kernel.
const PAIRS: usize = 7;

pub struct KernelRate {
    pub name: &'static str,
    pub gb_s: f64,
    pub vs_scalar: f64,
}

/// GB/s of `kernel(false)` (the SIMD path) over `bytes`, and its speed
/// relative to `kernel(true)` (the scalar twin), timed in interleaved pairs.
fn rate(bytes: usize, mut kernel: impl FnMut(bool)) -> (f64, f64) {
    let mut fast = Vec::with_capacity(PAIRS);
    let mut slow = Vec::with_capacity(PAIRS);
    for i in 0..PAIRS {
        // Alternate which side runs first, so neither always inherits
        // the other's cache state.
        for scalar in [i % 2 == 1, i % 2 == 0] {
            let t0 = Instant::now();
            kernel(scalar);
            let secs = t0.elapsed().as_secs_f64();
            if scalar { &mut slow } else { &mut fast }.push(secs);
        }
    }
    let (f, s) = (median(&fast), median(&slow));
    (bytes as f64 / f / 1e9, s / f)
}

/// Runs the kernels over (a prefix of) `data` with quantization step `q`.
pub fn bench<T: Sample>(data: &[T], q: f64) -> Vec<KernelRate> {
    let n = data.len().min(MAX_LEN);
    let x = &data[..n];
    let w = std::mem::size_of::<T>();
    let c = T::from_f64(-0.5);
    let inv_q = T::from_f64(1.0 / q);
    let qt = T::from_f64(q);
    let mut out = Vec::new();

    // dst[i] += c·(a[i] + b[i]): three reads and one write per lane.
    let mut dst = x[..n - 1].to_vec();
    let (a, b) = (&x[..n - 1], &x[1..]);
    let (gb_s, vs_scalar) = rate(4 * (n - 1) * w, |scalar| {
        if scalar {
            sperr_simd::scalar::scalar_lift_pairs(black_box(&mut dst[..]), a, b, c)
        } else {
            sperr_simd::lift_pairs(black_box(&mut dst[..]), a, b, c)
        }
    });
    black_box(&dst);
    out.push(KernelRate {
        name: "lift_pairs",
        gb_s,
        vs_scalar,
    });

    // One coefficient read and one metadata byte written per lane.
    let mut meta = vec![0u8; n];
    let (gb_s, vs_scalar) = rate(n * (w + 1), |scalar| {
        if scalar {
            sperr_simd::scalar::scalar_quantize_meta_into(black_box(x), inv_q, &mut meta)
        } else {
            sperr_simd::quantize_meta_into(black_box(x), inv_q, &mut meta)
        }
    });
    black_box(&meta);
    out.push(KernelRate {
        name: "quantize_meta_into",
        gb_s,
        vs_scalar,
    });

    // One coefficient read and one reconstruction written per lane.
    let mut rec = vec![T::ZERO; n];
    let (gb_s, vs_scalar) = rate(2 * n * w, |scalar| {
        if scalar {
            sperr_simd::scalar::scalar_reconstruct_mid_riser_into(black_box(x), qt, inv_q, &mut rec)
        } else {
            sperr_simd::reconstruct_mid_riser_into(black_box(x), qt, inv_q, &mut rec)
        }
    });
    black_box(&rec);
    out.push(KernelRate {
        name: "reconstruct_mid_riser_into",
        gb_s,
        vs_scalar,
    });
    out
}
