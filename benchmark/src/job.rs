//! One input field and the calls the workloads make on it, behind a
//! width-erased trait so a workload can mix `f64` and `f32` fields.

use crate::replay::{self, Bbox, Queries, ReplayOut};
use crate::simd::{self, KernelRate};
use crate::trace::Tracer;
use sperr_compress_api::{Bound, CompressError, FieldOf, LossyCompressor, Precision};
use sperr_core::{chunk_grid, extract_chunk, Float, Sperr, SperrConfig};
use std::time::Instant;

/// The two sample widths and the public calls that differ between them.
pub trait Sample: Float + Send + Sync + 'static {
    const PRECISION: Precision;
    fn compress(s: &Sperr, f: &FieldOf<Self>, t: f64) -> Result<Vec<u8>, CompressError>;
    fn decompress(s: &Sperr, stream: &[u8]) -> Result<Vec<Self>, CompressError>;
    /// The documented point-wise bound a decode is held to.
    fn budget(t: f64, range: f64) -> f64;
    fn to_le(data: &[Self]) -> Vec<u8>;
    fn decoded(values: Vec<Self>) -> Decoded;
}

impl Sample for f64 {
    const PRECISION: Precision = Precision::Double;
    fn compress(s: &Sperr, f: &FieldOf<f64>, t: f64) -> Result<Vec<u8>, CompressError> {
        s.compress(f, Bound::Pwe(t))
    }
    fn decompress(s: &Sperr, stream: &[u8]) -> Result<Vec<f64>, CompressError> {
        LossyCompressor::decompress(s, stream).map(|f| f.data)
    }
    fn budget(t: f64, _range: f64) -> f64 {
        t
    }
    fn to_le(data: &[f64]) -> Vec<u8> {
        data.iter().flat_map(|v| v.to_le_bytes()).collect()
    }
    fn decoded(values: Vec<f64>) -> Decoded {
        Decoded::F64(values)
    }
}

impl Sample for f32 {
    const PRECISION: Precision = Precision::Single;
    fn compress(s: &Sperr, f: &FieldOf<f32>, t: f64) -> Result<Vec<u8>, CompressError> {
        s.compress_f32(f, Bound::Pwe(t))
    }
    fn decompress(s: &Sperr, stream: &[u8]) -> Result<Vec<f32>, CompressError> {
        s.decompress_f32(stream).map(|f| f.data)
    }
    /// DESIGN.md §15: the f64 budget plus single-precision round-off
    /// headroom (`sperr_conformance::corpus::f32_budget`).
    fn budget(t: f64, range: f64) -> f64 {
        t * (1.0 + 1e-5) + range * 1e-5
    }
    fn to_le(data: &[f32]) -> Vec<u8> {
        data.iter().flat_map(|v| v.to_le_bytes()).collect()
    }
    fn decoded(values: Vec<f32>) -> Decoded {
        Decoded::F32(values)
    }
}

/// A full decode at the stream's native width, as the call returned it.
/// No widened copy is made, so the harness adds little to peak memory.
pub enum Decoded {
    F64(Vec<f64>),
    F32(Vec<f32>),
    /// The little-endian bytes a streaming decode wrote, `width` bytes a
    /// value.
    Le {
        bytes: Vec<u8>,
        width: usize,
    },
}

impl Decoded {
    pub fn count(&self) -> usize {
        match self {
            Decoded::F64(v) => v.len(),
            Decoded::F32(v) => v.len(),
            Decoded::Le { bytes, width } => bytes.len() / width,
        }
    }

    /// Value `i`, widened to `f64` (exact for `f32`).
    pub fn get(&self, i: usize) -> f64 {
        match self {
            Decoded::F64(v) => v[i],
            Decoded::F32(v) => f64::from(v[i]),
            Decoded::Le { bytes, width: 4 } => f64::from(f32::from_le_bytes(
                bytes[4 * i..4 * i + 4].try_into().unwrap(),
            )),
            Decoded::Le { bytes, .. } => {
                f64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap())
            }
        }
    }

    /// The box `bbox` of a `dims` volume, widened to `f64`.
    pub fn cut(&self, dims: [usize; 3], (lo, hi): Bbox) -> Vec<f64> {
        let mut out = Vec::with_capacity((0..3).map(|d| hi[d] - lo[d]).product());
        for z in lo[2]..hi[2] {
            for y in lo[1]..hi[1] {
                let row = dims[0] * (y + dims[1] * z);
                out.extend((row + lo[0]..row + hi[0]).map(|i| self.get(i)));
            }
        }
        out
    }

    /// Every value widened to `f64`.
    pub fn to_f64(&self) -> Vec<f64> {
        (0..self.count()).map(|i| self.get(i)).collect()
    }
}

/// One field, compressed at a PWE tolerance `t` with `chunk_dims` and
/// everything else at `SperrConfig::default()`.
pub struct Case<T: Sample> {
    pub label: &'static str,
    pub field: FieldOf<T>,
    pub t: f64,
    pub range: f64,
    pub chunk_dims: [usize; 3],
    /// Little-endian input for the streaming calls; `None` selects the
    /// in-memory calls.
    pub raw: Option<Vec<u8>>,
}

impl<T: Sample> Case<T> {
    /// A case at tolerance `rel · range`.
    pub fn new(
        label: &'static str,
        field: FieldOf<T>,
        rel: f64,
        chunk_dims: [usize; 3],
        streaming: bool,
    ) -> Self {
        let range = field.range();
        let raw = streaming.then(|| T::to_le(&field.data));
        Case {
            label,
            field,
            t: rel * range,
            range,
            chunk_dims,
            raw,
        }
    }
}

/// What a workload does with a field.
pub trait Job {
    fn label(&self) -> &'static str;
    fn dims(&self) -> [usize; 3];
    /// Bytes per input value (4 or 8).
    fn width(&self) -> usize;
    fn values(&self) -> usize;
    fn sperr(&self, num_threads: usize) -> Sperr;
    /// Timed compress: seconds of the call and its stream.
    fn compress(&self, s: &Sperr) -> (f64, Result<Vec<u8>, String>);
    /// Timed full decompress: seconds of the call and the values.
    fn decompress(&self, s: &Sperr, stream: &[u8]) -> (f64, Result<Decoded, String>);
    /// Value count and the point-wise bound.
    fn check(&self, decoded: &Decoded) -> Result<(), String>;
    /// PSNR in dB, as `sperr_metrics::psnr` computes it.
    fn psnr(&self, decoded: &Decoded) -> f64;
    /// Replays `stream`'s compress and the reads in `queries` layer by
    /// layer on one thread, recording spans into `tr`.
    fn replay(
        &self,
        tr: &mut Tracer,
        stream: &[u8],
        queries: &Queries,
    ) -> Result<ReplayOut, String>;
    /// SIMD kernel rates on the field's first chunk.
    fn simd(&self) -> Vec<KernelRate>;
    /// Checks a replay against the production calls.
    fn verify(
        &self,
        stream: &[u8],
        queries: &Queries,
        out: &ReplayOut,
        full: &Decoded,
        previews: &[Vec<f64>],
    ) -> Result<(), String>;
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

impl<T: Sample> Job for Case<T> {
    fn label(&self) -> &'static str {
        self.label
    }
    fn dims(&self) -> [usize; 3] {
        self.field.dims
    }
    fn width(&self) -> usize {
        std::mem::size_of::<T>()
    }
    fn values(&self) -> usize {
        self.field.data.len()
    }

    fn sperr(&self, num_threads: usize) -> Sperr {
        Sperr::new(SperrConfig {
            chunk_dims: self.chunk_dims,
            num_threads,
            ..SperrConfig::default()
        })
    }

    fn compress(&self, s: &Sperr) -> (f64, Result<Vec<u8>, String>) {
        match &self.raw {
            None => {
                let (secs, r) = timed(|| T::compress(s, &self.field, self.t));
                (secs, r.map_err(|e| e.to_string()))
            }
            Some(raw) => {
                let mut out = Vec::new();
                let (secs, r) = timed(|| {
                    let bound = Bound::Pwe(self.t);
                    if T::PRECISION == Precision::Single {
                        s.compress_stream_f32(&raw[..], &mut out, self.field.dims, bound)
                    } else {
                        s.compress_stream(&raw[..], &mut out, self.field.dims, T::PRECISION, bound)
                    }
                });
                (secs, r.map(|_| out).map_err(|e| e.to_string()))
            }
        }
    }

    fn decompress(&self, s: &Sperr, stream: &[u8]) -> (f64, Result<Decoded, String>) {
        match &self.raw {
            None => {
                let (secs, r) = timed(|| T::decompress(s, stream));
                (secs, r.map(T::decoded).map_err(|e| e.to_string()))
            }
            Some(_) => {
                let mut out = Vec::new();
                let (secs, r) = timed(|| s.decompress_stream(stream, &mut out, Some(T::PRECISION)));
                let width = std::mem::size_of::<T>();
                (
                    secs,
                    r.map(|_| Decoded::Le { bytes: out, width })
                        .map_err(|e| e.to_string()),
                )
            }
        }
    }

    fn check(&self, decoded: &Decoded) -> Result<(), String> {
        if decoded.count() != self.field.data.len() {
            return Err(format!(
                "{}: decoded {} values, expected {}",
                self.label,
                decoded.count(),
                self.field.data.len()
            ));
        }
        let budget = T::budget(self.t, self.range);
        let worst = self
            .field
            .data
            .iter()
            .enumerate()
            .map(|(i, x)| (x.to_f64() - decoded.get(i)).abs())
            .fold(
                0.0f64,
                |m, e| if e.is_nan() { f64::INFINITY } else { m.max(e) },
            );
        if worst > budget {
            return Err(format!(
                "{}: max error {worst:e} exceeds budget {budget:e}",
                self.label
            ));
        }
        Ok(())
    }

    fn psnr(&self, decoded: &Decoded) -> f64 {
        let sum: f64 = self
            .field
            .data
            .iter()
            .enumerate()
            .map(|(i, x)| (x.to_f64() - decoded.get(i)).powi(2))
            .sum();
        let rmse = (sum / self.field.data.len() as f64).sqrt();
        if rmse == 0.0 {
            f64::INFINITY
        } else {
            20.0 * (self.range / rmse).log10()
        }
    }

    fn replay(
        &self,
        tr: &mut Tracer,
        stream: &[u8],
        queries: &Queries,
    ) -> Result<ReplayOut, String> {
        replay::replay(self, tr, stream, queries)
    }

    fn simd(&self) -> Vec<KernelRate> {
        let spec = chunk_grid(self.field.dims, self.chunk_dims)[0];
        let chunk = extract_chunk(&self.field.data, self.field.dims, &spec);
        simd::bench(&chunk, SperrConfig::default().q_factor * self.t)
    }

    fn verify(
        &self,
        stream: &[u8],
        queries: &Queries,
        out: &ReplayOut,
        full: &Decoded,
        previews: &[Vec<f64>],
    ) -> Result<(), String> {
        replay::verify(self, stream, queries, out, full, previews)
    }
}
