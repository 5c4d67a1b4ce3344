//! The traced replay: one field's compress and reads, re-run chunk by
//! chunk on one thread through the layer crates' public functions, with
//! a span around every call, and the check that the replay is the same
//! program as the production calls.
//!
//! The replay mirrors what `Sperr` does per chunk (see
//! `sperr_core::compress_chunk_pwe_with` and the decode paths):
//! `extract_chunk` → `forward_3d` → `speck::encode` →
//! `reconstruct_quantized` → `inverse_3d` → residual scan →
//! `outlier::encode` (plus the decode the encoder runs to record each
//! chunk's exact max error), then `lossless::compress` over the
//! container. Reads inflate the container with `lossless::decompress`
//! and run `speck::decode` → `inverse_3d` → `outlier::decode` per chunk.
//! Container assembly, parsing and checksums are private to `sperr-core`
//! and are not replayed; they fall into `core.other_s`.

use crate::job::{Case, Decoded, Sample};
use crate::trace::{OpKind, Tracer};
use sperr_core::{
    chunk_grid, compress_chunk_pwe_with, extract_chunk, ChunkSpec, ScratchArena, Sperr,
    SperrConfig, WorkerPool,
};
use sperr_outlier::Outlier;
use sperr_speck::Termination;
use sperr_wavelet::{forward_3d, inverse_3d, levels_for_dims, Kernel};

/// Outer framing byte of a stream whose container went through the
/// lossless pass (the default).
const OUTER_LOSSLESS: u8 = 1;
/// Per-chunk header bytes `Sperr::decode_at_bpp` charges against a
/// preview's byte budget.
const PREVIEW_CHUNK_HEADER_BYTES: usize = 26;

pub type Bbox = ([usize; 3], [usize; 3]);

/// The reads a replay re-runs after the compress.
pub struct Queries {
    pub full: bool,
    pub regions: Vec<Bbox>,
    pub previews: usize,
    pub preview_bpp: f64,
}

/// One replayed chunk encoding.
pub struct ChunkOut {
    pub speck: Vec<u8>,
    pub outlier: Vec<u8>,
    pub q: f64,
    pub planes: u8,
    pub max_n: u8,
}

/// Work counted at the layer boundaries during a replay.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub chunks: u64,
    pub planes: u64,
    pub coeffs: u64,
    pub speck_bits: u64,
    pub significance_bits: u64,
    pub outliers: u64,
    pub speck_bytes: u64,
    pub outlier_bytes: u64,
    pub lossless_in: u64,
    pub lossless_out: u64,
    pub inflated: u64,
    pub reads: u64,
    pub region_points: u64,
    pub region_chunk_points: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.chunks += o.chunks;
        self.planes += o.planes;
        self.coeffs += o.coeffs;
        self.speck_bits += o.speck_bits;
        self.significance_bits += o.significance_bits;
        self.outliers += o.outliers;
        self.speck_bytes += o.speck_bytes;
        self.outlier_bytes += o.outlier_bytes;
        self.lossless_in += o.lossless_in;
        self.lossless_out += o.lossless_out;
        self.inflated += o.inflated;
        self.reads += o.reads;
        self.region_points += o.region_points;
        self.region_chunk_points += o.region_chunk_points;
    }
}

/// Everything a replay produced, kept for [`verify`].
pub struct ReplayOut {
    pub chunks: Vec<ChunkOut>,
    /// The container the production stream wraps, as inflated before
    /// the replay (the input of the replayed `lossless::compress`).
    pub container: Vec<u8>,
    /// Absolute offset of each chunk's payload in `container`.
    pub offsets: Vec<usize>,
    pub packed: Vec<u8>,
    pub full: Option<Vec<f64>>,
    pub regions: Vec<Vec<f64>>,
    pub previews: Vec<Vec<f64>>,
    pub counts: Counts,
}

/// The container inside a default-framed stream and its chunk payload
/// offsets, from the public `Sperr::inspect` index.
fn unwrap(stream: &[u8]) -> Result<(Vec<u8>, Vec<usize>), String> {
    match stream.split_first() {
        Some((&OUTER_LOSSLESS, body)) => {
            let container = sperr_lossless::decompress(body).map_err(|e| e.to_string())?;
            let info = Sperr::default()
                .inspect(stream)
                .map_err(|e| e.to_string())?;
            let index = info
                .chunk_index
                .ok_or("stream has no chunk index (container v3)")?;
            let offsets = index
                .iter()
                .map(|e| info.payload_offset + e.offset as usize)
                .collect();
            Ok((container, offsets))
        }
        _ => Err("replay expects the default lossless stream framing".into()),
    }
}

fn intersect(spec: &ChunkSpec, (lo, hi): Bbox) -> Option<Bbox> {
    let mut a = [0; 3];
    let mut b = [0; 3];
    for d in 0..3 {
        a[d] = lo[d].max(spec.offset[d]);
        b[d] = hi[d].min(spec.offset[d] + spec.dims[d]);
        if a[d] >= b[d] {
            return None;
        }
    }
    Some((a, b))
}

/// Copies the part `isect` of a decoded chunk into `out`, a buffer of
/// extent `out_dims` whose origin sits at `out_lo` in the volume.
fn place<T: Sample>(
    out: &mut [f64],
    out_dims: [usize; 3],
    out_lo: [usize; 3],
    chunk: &[T],
    spec: &ChunkSpec,
    (a, b): Bbox,
) {
    let len = b[0] - a[0];
    for z in a[2]..b[2] {
        for y in a[1]..b[1] {
            let src = (a[0] - spec.offset[0])
                + spec.dims[0] * ((y - spec.offset[1]) + spec.dims[1] * (z - spec.offset[2]));
            let dst = (a[0] - out_lo[0])
                + out_dims[0] * ((y - out_lo[1]) + out_dims[1] * (z - out_lo[2]));
            for (o, v) in out[dst..dst + len].iter_mut().zip(&chunk[src..src + len]) {
                *o = v.to_f64();
            }
        }
    }
}

/// Outliers of one chunk: every point whose reconstruction is off by
/// more than `t` (the scan `sperr-core` runs between SPECK and the
/// outlier coder).
fn scan<T: Sample>(data: &[T], recon: &[T], t: f64) -> Vec<Outlier> {
    data.iter()
        .zip(recon)
        .enumerate()
        .filter_map(|(pos, (&x, &r))| {
            let corr = (x - r).to_f64();
            (corr.abs() > t).then_some(Outlier { pos, corr })
        })
        .collect()
}

/// Which read a chunk decode serves.
#[derive(Clone, Copy)]
enum ChunkRead {
    /// Everything, outlier corrections included.
    Full,
    /// Corrections only where they land in the box (volume coordinates).
    Region(Bbox),
    /// SPECK truncated to this many bytes, no corrections.
    Preview(usize),
}

/// One chunk's decode from the inflated container: SPECK, the inverse
/// wavelet, then the outlier corrections `read` asks for.
#[allow(clippy::too_many_arguments)]
fn decode_chunk<T: Sample>(
    tr: &mut Tracer,
    op: u32,
    container: &[u8],
    offset: usize,
    ch: &ChunkOut,
    spec: &ChunkSpec,
    t: f64,
    read: ChunkRead,
) -> Result<Vec<T>, String> {
    let n = spec.len();
    let bytes = (n * std::mem::size_of::<T>()) as u64;
    let speck_end = offset + ch.speck.len();
    let payload_end = speck_end + ch.outlier.len();
    if payload_end > container.len() {
        return Err("chunk payload runs past the container".into());
    }
    let speck_keep = match read {
        ChunkRead::Preview(budget) => ch.speck.len().min(budget),
        _ => ch.speck.len(),
    };
    let speck = &container[offset..offset + speck_keep];
    let outlier = &container[speck_end..payload_end];
    let c = tr.open(op, None, "core.chunk", bytes);
    let decoded = tr.span(op, Some(c), "speck.decode", bytes, || {
        sperr_speck::decode::<T, 3>(speck, spec.dims, ch.q, ch.planes)
    });
    let mut coeffs = decoded.map_err(|e| e.to_string())?;
    let levels = levels_for_dims(spec.dims);
    tr.span(op, Some(c), "wavelet.inverse_3d", bytes, || {
        inverse_3d(&mut coeffs, spec.dims, levels, Kernel::Cdf97)
    });
    let keep = match read {
        ChunkRead::Full => None,
        ChunkRead::Region(bbox) => Some(bbox),
        ChunkRead::Preview(_) => {
            tr.close(c);
            return Ok(coeffs);
        }
    };
    if !outlier.is_empty() {
        // Decode and apply: the production `outlier_apply` stage.
        let applied = tr.span(op, Some(c), "outlier.decode", outlier.len() as u64, || {
            let corrections = sperr_outlier::decode(outlier, n, t, ch.max_n)?;
            for o in corrections {
                let p = [
                    o.pos % spec.dims[0],
                    (o.pos / spec.dims[0]) % spec.dims[1],
                    o.pos / (spec.dims[0] * spec.dims[1]),
                ];
                let inside = keep.is_none_or(|(lo, hi)| {
                    (0..3).all(|d| (lo[d]..hi[d]).contains(&(p[d] + spec.offset[d])))
                });
                if inside {
                    coeffs[o.pos] = T::from_f64(coeffs[o.pos].to_f64() + o.corr);
                }
            }
            Ok::<(), sperr_outlier::DecodeError>(())
        });
        applied.map_err(|e| e.to_string())?;
    }
    tr.close(c);
    Ok(coeffs)
}

/// Replays `case`'s compress into `stream` and the reads in `queries`.
pub fn replay<T: Sample>(
    case: &Case<T>,
    tr: &mut Tracer,
    stream: &[u8],
    queries: &Queries,
) -> Result<ReplayOut, String> {
    let (container, offsets) = unwrap(stream)?;
    let dims = case.field.dims;
    let specs = chunk_grid(dims, case.chunk_dims);
    if specs.len() != offsets.len() {
        return Err("chunk count differs from the stream's index".into());
    }
    let width = std::mem::size_of::<T>();
    let q = SperrConfig::default().q_factor * case.t;
    let t = case.t;
    let mut counts = Counts::default();

    // Compress.
    let op = tr.op(OpKind::Compress);
    let mut chunks = Vec::with_capacity(specs.len());
    for spec in &specs {
        let n = spec.len();
        let bytes = (n * width) as u64;
        let levels = levels_for_dims(spec.dims);
        let c = tr.open(op, None, "core.chunk", bytes);
        let input = tr.span(op, Some(c), "core.extract_chunk", bytes, || {
            extract_chunk(&case.field.data, dims, spec)
        });
        let coeffs = tr.span(op, Some(c), "wavelet.forward_3d", bytes, || {
            let mut v = input.clone();
            forward_3d(&mut v, spec.dims, levels, Kernel::Cdf97);
            v
        });
        let enc = tr.span(op, Some(c), "speck.encode", bytes, || {
            sperr_speck::encode(&coeffs, spec.dims, q, Termination::Quality)
        });
        let mut recon = tr.span(op, Some(c), "speck.reconstruct_quantized", bytes, || {
            sperr_speck::reconstruct_quantized(&coeffs, q)
        });
        tr.span(op, Some(c), "wavelet.inverse_3d", bytes, || {
            inverse_3d(&mut recon, spec.dims, levels, Kernel::Cdf97)
        });
        let found = tr.span(op, Some(c), "outlier.scan", bytes, || {
            scan(&input, &recon, t)
        });
        let oenc = tr.span(op, Some(c), "outlier.encode", found.len() as u64, || {
            sperr_outlier::encode(&found, n, t)
        });
        if !found.is_empty() {
            let decoded = tr.span(
                op,
                Some(c),
                "outlier.decode",
                oenc.stream.len() as u64,
                || sperr_outlier::decode(&oenc.stream, n, t, oenc.max_n),
            );
            decoded.map_err(|e| e.to_string())?;
        }
        tr.close(c);
        counts.chunks += 1;
        counts.planes += u64::from(enc.num_planes);
        counts.coeffs += n as u64;
        counts.speck_bits += enc.bits_used as u64;
        counts.significance_bits += enc.significance_bits as u64;
        counts.outliers += found.len() as u64;
        counts.speck_bytes += enc.stream.len() as u64;
        counts.outlier_bytes += oenc.stream.len() as u64;
        chunks.push(ChunkOut {
            speck: enc.stream,
            outlier: oenc.stream,
            q,
            planes: enc.num_planes,
            max_n: oenc.max_n,
        });
    }
    let packed = tr.span(
        op,
        None,
        "lossless.compress",
        container.len() as u64,
        || sperr_lossless::compress(&container),
    );
    counts.lossless_in += container.len() as u64;
    counts.lossless_out += packed.len() as u64;

    // Reads. Each inflates the whole container, as `Sperr` does.
    let body = &stream[1..];
    let inflate = |tr: &mut Tracer, op: u32, counts: &mut Counts| -> Result<Vec<u8>, String> {
        let c = tr.span(
            op,
            None,
            "lossless.decompress",
            container.len() as u64,
            || sperr_lossless::decompress(body),
        );
        let c = c.map_err(|e| e.to_string())?;
        counts.inflated += c.len() as u64;
        Ok(c)
    };
    let n_total: usize = dims.iter().product();
    let mut full = None;
    if queries.full {
        let op = tr.op(OpKind::Decompress);
        counts.reads += 1;
        let inflated = inflate(tr, op, &mut counts)?;
        let mut out = vec![0.0f64; n_total];
        for (i, spec) in specs.iter().enumerate() {
            let chunk: Vec<T> = decode_chunk(
                tr,
                op,
                &inflated,
                offsets[i],
                &chunks[i],
                spec,
                t,
                ChunkRead::Full,
            )?;
            let whole = (
                spec.offset,
                [0, 1, 2].map(|d| spec.offset[d] + spec.dims[d]),
            );
            tr.span(
                op,
                None,
                "core.insert_chunk",
                (spec.len() * width) as u64,
                || place(&mut out, dims, [0; 3], &chunk, spec, whole),
            );
        }
        full = Some(out);
    }
    let mut regions = Vec::new();
    for &bbox in &queries.regions {
        let op = tr.op(OpKind::Region);
        counts.reads += 1;
        let inflated = inflate(tr, op, &mut counts)?;
        let ext = [0, 1, 2].map(|d| bbox.1[d] - bbox.0[d]);
        let mut out = vec![0.0f64; ext.iter().product()];
        counts.region_points += out.len() as u64;
        for (i, spec) in specs.iter().enumerate() {
            let Some(isect) = intersect(spec, bbox) else {
                continue;
            };
            counts.region_chunk_points += spec.len() as u64;
            let read = ChunkRead::Region(bbox);
            let chunk: Vec<T> =
                decode_chunk(tr, op, &inflated, offsets[i], &chunks[i], spec, t, read)?;
            let bytes = (isect
                .1
                .iter()
                .zip(&isect.0)
                .map(|(b, a)| b - a)
                .product::<usize>()
                * width) as u64;
            tr.span(op, None, "core.copy_region", bytes, || {
                place(&mut out, ext, bbox.0, &chunk, spec, isect)
            });
        }
        regions.push(out);
    }
    let mut previews = Vec::new();
    for _ in 0..queries.previews {
        let op = tr.op(OpKind::Preview);
        counts.reads += 1;
        // `decode_at_bpp` inspects the stream, then decodes it: two inflates.
        inflate(tr, op, &mut counts)?;
        let inflated = inflate(tr, op, &mut counts)?;
        let mut out = vec![0.0f64; n_total];
        for (i, spec) in specs.iter().enumerate() {
            let budget = ((queries.preview_bpp * spec.len() as f64) as usize / 8)
                .saturating_sub(PREVIEW_CHUNK_HEADER_BYTES);
            let read = ChunkRead::Preview(budget);
            let chunk: Vec<T> =
                decode_chunk(tr, op, &inflated, offsets[i], &chunks[i], spec, t, read)?;
            let whole = (
                spec.offset,
                [0, 1, 2].map(|d| spec.offset[d] + spec.dims[d]),
            );
            tr.span(
                op,
                None,
                "core.insert_chunk",
                (spec.len() * width) as u64,
                || place(&mut out, dims, [0; 3], &chunk, spec, whole),
            );
        }
        previews.push(out);
    }
    Ok(ReplayOut {
        chunks,
        container,
        offsets,
        packed,
        full,
        regions,
        previews,
        counts,
    })
}

/// Whether `a` and `b` hold the same values bit for bit.
pub fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks that a replay is the program the production calls run:
/// every chunk's SPECK and outlier bytes equal
/// `compress_chunk_pwe_with` and the production container's payload,
/// `lossless::compress` over that container equals the stream body, and
/// the replayed reads equal the production decodes bit for bit.
pub fn verify<T: Sample>(
    case: &Case<T>,
    stream: &[u8],
    queries: &Queries,
    out: &ReplayOut,
    full: &Decoded,
    previews: &[Vec<f64>],
) -> Result<(), String> {
    let dims = case.field.dims;
    let specs = chunk_grid(dims, case.chunk_dims);
    let pool = WorkerPool::inline();
    let mut arena = ScratchArena::<T>::new();
    let q_factor = SperrConfig::default().q_factor;
    for (i, (spec, ch)) in specs.iter().zip(&out.chunks).enumerate() {
        let input = extract_chunk(&case.field.data, dims, spec);
        let enc = compress_chunk_pwe_with(
            &input,
            spec.dims,
            case.t,
            q_factor,
            Kernel::Cdf97,
            &pool,
            &mut arena,
        );
        if enc.speck_stream != ch.speck
            || enc.outlier_stream != ch.outlier
            || enc.num_planes != ch.planes
            || enc.max_n != ch.max_n
            || enc.q.to_bits() != ch.q.to_bits()
        {
            return Err(format!(
                "{} chunk {i}: replay differs from compress_chunk_pwe_with",
                case.label
            ));
        }
        let start = out.offsets[i];
        let payload = out
            .container
            .get(start..start + ch.speck.len() + ch.outlier.len());
        if payload != Some(&[ch.speck.as_slice(), ch.outlier.as_slice()].concat()[..]) {
            return Err(format!(
                "{} chunk {i}: replay differs from the stream's payload",
                case.label
            ));
        }
    }
    if out.packed[..] != stream[1..] {
        return Err(format!(
            "{}: lossless::compress of the container differs from the stream body",
            case.label
        ));
    }
    if let Some(f) = &out.full {
        if !bit_equal(f, &full.to_f64()) {
            return Err(format!(
                "{}: replayed decode differs from Sperr::decompress",
                case.label
            ));
        }
    }
    for (r, &bbox) in out.regions.iter().zip(&queries.regions) {
        if !bit_equal(r, &full.cut(dims, bbox)) {
            return Err(format!(
                "{}: replayed region differs from the full decode",
                case.label
            ));
        }
    }
    for (r, p) in out.previews.iter().zip(previews) {
        if !bit_equal(r, p) {
            return Err(format!(
                "{}: replayed preview differs from Sperr::decode_at_bpp",
                case.label
            ));
        }
    }
    Ok(())
}
