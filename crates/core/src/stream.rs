//! Streaming compress/decompress over `Read`/`Write` endpoints with
//! bounded raw-side memory.
//!
//! The non-streaming API ([`Sperr::compress`]) holds the whole volume in
//! RAM. This module runs the same per-chunk pipeline over a row-major
//! stream one *window* at a time: a run of whole chunk z-layers holding
//! at most the in-flight budget of chunks (one layer at least — a
//! row-major stream cannot complete any chunk before its whole z-layer
//! has passed). Compressing, the caller thread reads a window's rows into
//! its chunk buffers, then [`Sperr::map_chunks`] — the pooled loop every
//! in-memory read and write runs on — encodes the window's chunks;
//! decompressing, `map_chunks` decodes a window at the payload's native
//! width and the caller writes its rows out. Peak raw-data memory is
//! `O(budget × chunk)` instead of `O(volume)`. (Compressed chunk payloads
//! still accumulate until the container header — which precedes them —
//! can be written, so total memory is `O(budget × chunk +
//! compressed_output)`.)
//!
//! # Cancellation semantics
//!
//! Every chunk job runs under `catch_unwind`, so a window always drains
//! and leaves the pool reusable; then the first error in chunk order wins
//! and the run returns it. A reader or writer error stops the run at the
//! row that failed. An outer guard on the caller thread turns any other
//! panic into a typed error: nothing unwinds out of the public API.
//!
//! # Fault taxonomy
//!
//! * [`SperrError::Io`] — a `Read`/`Write` endpoint failed; carries the
//!   pipeline stage (`stream.ingest` / `stream.emit`) and chunk index
//!   when attributable.
//! * [`SperrError::Codec`] — a typed codec error (corrupt stream,
//!   truncation, limit violations); carries the stage label that raised
//!   it and the chunk index when per-chunk.
//! * [`SperrError::Panic`] — a worker panicked; carries the captured
//!   panic message and the last stage label the panicking thread
//!   entered. Never escapes as an unwind.

use std::io::{Read, Write};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::chunk::{chunk_grid, ChunkSpec};
use crate::compressor::{decode_stats, parse_bound, ChunkTarget, Sperr};
use crate::engine::{Fidelity, ParsedStream};
use crate::faultpoint;
use crate::pool::panic_payload_message;
use crate::stats::{metric_labels, stage_labels, CompressionStats, StageTimes};
use crate::ChunkStatus;
use sperr_compress_api::{Bound, CompressError, Precision};
use sperr_simd::Float;
use sperr_telemetry::timed;

/// Stage labels specific to the streaming pipeline (the per-chunk codec
/// stages reuse [`stage_labels`]).
pub const STAGE_INGEST: &str = "stream.ingest";
/// See [`STAGE_INGEST`].
pub const STAGE_EMIT: &str = "stream.emit";
/// See [`STAGE_INGEST`].
pub const STAGE_CONTAINER: &str = "stream.container";
/// Fallback stage label when a panic cannot be attributed more precisely.
pub const STAGE_PIPELINE: &str = "stream.pipeline";

/// Typed error for the streaming pipeline. Every failure mode of
/// [`Sperr::compress_stream`] / [`Sperr::decompress_stream`] surfaces as
/// one of these — never a panic, never a hang.
#[derive(Debug, Clone, PartialEq)]
pub enum SperrError {
    /// A codec-level failure (corrupt/truncated/limit-violating stream,
    /// invalid parameters).
    Codec {
        /// Pipeline stage that raised the error.
        stage: &'static str,
        /// Chunk index, when the failure is attributable to one chunk.
        chunk: Option<usize>,
        /// The underlying typed codec error.
        source: CompressError,
    },
    /// A `Read`/`Write` endpoint failed.
    Io {
        /// Pipeline stage performing the I/O (`stream.ingest` or
        /// `stream.emit`).
        stage: &'static str,
        /// Chunk index, when attributable.
        chunk: Option<usize>,
        /// The I/O error kind, preserved for caller dispatch (e.g. the
        /// CLI's exit-code mapping).
        kind: std::io::ErrorKind,
        /// The error's display text.
        message: String,
    },
    /// A worker panicked; the pipeline cancelled deterministically and
    /// captured the payload.
    Panic {
        /// Last stage label the panicking thread entered.
        stage: &'static str,
        /// Chunk index being processed, when known.
        chunk: Option<usize>,
        /// The captured panic message.
        message: String,
    },
}

impl SperrError {
    fn io(stage: &'static str, chunk: Option<usize>, e: &std::io::Error) -> Self {
        SperrError::Io { stage, chunk, kind: e.kind(), message: e.to_string() }
    }

    /// The underlying codec error, when this is a codec failure.
    pub fn codec_source(&self) -> Option<&CompressError> {
        match self {
            SperrError::Codec { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl std::fmt::Display for SperrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let chunk = |c: &Option<usize>| match c {
            Some(i) => format!(" (chunk {i})"),
            None => String::new(),
        };
        match self {
            SperrError::Codec { stage, chunk: c, source } => {
                write!(f, "[{stage}{}] {source}", chunk(c))
            }
            SperrError::Io { stage, chunk: c, kind, message } => {
                write!(f, "[{stage}{}] i/o error ({kind:?}): {message}", chunk(c))
            }
            SperrError::Panic { stage, chunk: c, message } => {
                write!(f, "[{stage}{}] worker panicked: {message}", chunk(c))
            }
        }
    }
}

impl std::error::Error for SperrError {}

/// Outcome accounting for one streaming run.
#[derive(Debug, Clone, Default)]
pub struct StreamReport {
    /// Raw bytes consumed from the reader.
    pub bytes_in: u64,
    /// Bytes written to the writer.
    pub bytes_out: u64,
    /// Chunks processed.
    pub n_chunks: usize,
    /// The effective in-flight chunk budget the run enforced (config
    /// value clamped up to one chunk layer; see
    /// [`SperrConfig::in_flight_chunks`](crate::SperrConfig)).
    pub in_flight_budget: usize,
    /// Highest number of raw chunk buffers simultaneously in flight —
    /// always `≤ in_flight_budget`; the bounded-memory tests assert on
    /// this.
    pub peak_in_flight: usize,
    /// Codec statistics (same accounting as the non-streaming path).
    pub stats: CompressionStats,
}

/// Report of a resilient streaming decompression: the usual accounting
/// plus one [`ChunkStatus`] per chunk, in chunk order.
#[derive(Debug, Clone)]
pub struct StreamResilientReport {
    /// Run accounting.
    pub report: StreamReport,
    /// Per-chunk outcome, in chunk-grid order.
    pub statuses: Vec<ChunkStatus>,
}

impl StreamResilientReport {
    /// True when every chunk decoded cleanly.
    pub fn all_ok(&self) -> bool {
        self.statuses.iter().all(|s| matches!(s, ChunkStatus::Ok))
    }
}

/// Geometry of the chunk grid as seen by the streaming loops: chunks
/// arrive (and leave) in z-layers because the raw volume is streamed in
/// x-fastest row-major order, so the loops walk windows of whole layers.
struct LayerGeometry {
    dims: [usize; 3],
    chunk_dims: [usize; 3],
    /// Chunks along x.
    nx: usize,
    /// Chunks per z-layer.
    layer_len: usize,
    n_chunks: usize,
}

impl LayerGeometry {
    fn new(dims: [usize; 3], chunk_dims: [usize; 3]) -> Self {
        let n: [usize; 3] = std::array::from_fn(|d| dims[d].div_ceil(chunk_dims[d]));
        LayerGeometry {
            dims,
            chunk_dims,
            nx: n[0],
            layer_len: n[0] * n[1],
            n_chunks: n[0] * n[1] * n[2],
        }
    }

    /// Chunk-index windows of whole z-layers, each holding at most
    /// `budget` chunks (one layer at least).
    fn windows(&self, budget: usize) -> impl Iterator<Item = Range<usize>> {
        let (len, n) = ((budget / self.layer_len).max(1) * self.layer_len, self.n_chunks);
        (0..n).step_by(len).map(move |lo| lo..(lo + len).min(n))
    }

    /// The volume z-planes window `w` covers.
    fn z_range(&self, w: &Range<usize>) -> Range<usize> {
        let z = |i: usize| (i / self.layer_len * self.chunk_dims[2]).min(self.dims[2]);
        z(w.start)..z(w.end)
    }

    /// Window-relative indices of the `nx` chunks that volume row `y` of
    /// the window's `dz`-th z-plane crosses, in x order.
    fn row_chunks(&self, y: usize, dz: usize) -> Range<usize> {
        let first = dz / self.chunk_dims[2] * self.layer_len + y / self.chunk_dims[1] * self.nx;
        first..first + self.nx
    }
}

/// Reads raw little-endian scalars row by row, converting to the
/// pipeline's sample type `T` exactly like the CLI's file reader (so
/// streaming output is byte-identical to the file path). The `f64`
/// pipeline widens Single wire data (the legacy ingest); the `f32`
/// pipeline reads Single wire data natively (the f32→f64→f32 hop in
/// `from_f64` is exact).
struct ScalarReader<R: Read, T: Float = f64> {
    inner: R,
    precision: Precision,
    row_bytes: Vec<u8>,
    row: Vec<T>,
    bytes_in: u64,
}

impl<R: Read, T: Float> ScalarReader<R, T> {
    fn new(inner: R, precision: Precision, row_len: usize) -> Self {
        let scalar = match precision {
            Precision::Single => 4,
            Precision::Double => 8,
        };
        ScalarReader {
            inner,
            precision,
            row_bytes: vec![0u8; row_len * scalar],
            row: vec![T::ZERO; row_len],
            bytes_in: 0,
        }
    }

    /// Reads one x-row of scalars; short reads surface as
    /// `ErrorKind::UnexpectedEof`.
    fn read_row(&mut self) -> Result<&[T], SperrError> {
        self.inner
            .read_exact(&mut self.row_bytes)
            .map_err(|e| SperrError::io(STAGE_INGEST, None, &e))?;
        self.bytes_in += self.row_bytes.len() as u64;
        match self.precision {
            Precision::Single => {
                for (dst, src) in self.row.iter_mut().zip(self.row_bytes.chunks_exact(4)) {
                    *dst =
                        T::from_f64(f32::from_le_bytes([src[0], src[1], src[2], src[3]]) as f64);
                }
            }
            Precision::Double => {
                for (dst, src) in self.row.iter_mut().zip(self.row_bytes.chunks_exact(8)) {
                    *dst = T::from_f64(f64::from_le_bytes([
                        src[0], src[1], src[2], src[3], src[4], src[5], src[6], src[7],
                    ]));
                }
            }
        }
        Ok(&self.row)
    }
}

/// Writes `f64` rows as raw little-endian scalars, matching the CLI's
/// file writer byte for byte.
struct ScalarWriter<W: Write> {
    inner: W,
    precision: Precision,
    buf: Vec<u8>,
    bytes_out: u64,
}

impl<W: Write> ScalarWriter<W> {
    fn new(inner: W, precision: Precision) -> Self {
        ScalarWriter { inner, precision, buf: Vec::new(), bytes_out: 0 }
    }

    fn write_row(&mut self, row: &[f64]) -> Result<(), SperrError> {
        self.buf.clear();
        match self.precision {
            Precision::Single => {
                for &v in row {
                    self.buf.extend_from_slice(&(v as f32).to_le_bytes());
                }
            }
            Precision::Double => {
                for &v in row {
                    self.buf.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        self.inner
            .write_all(&self.buf)
            .map_err(|e| SperrError::io(STAGE_EMIT, None, &e))?;
        self.bytes_out += self.buf.len() as u64;
        Ok(())
    }

    fn write_all_at_once(&mut self, bytes: &[u8]) -> Result<(), SperrError> {
        self.inner
            .write_all(bytes)
            .map_err(|e| SperrError::io(STAGE_EMIT, None, &e))?;
        self.bytes_out += bytes.len() as u64;
        Ok(())
    }

    fn flush(&mut self) -> Result<(), SperrError> {
        self.inner.flush().map_err(|e| SperrError::io(STAGE_EMIT, None, &e))
    }
}

/// Reads window `w`'s rows, scattering each into the x-fastest buffers
/// of the chunks it crosses — in exactly the order `extract_chunk_into`
/// fills them.
fn ingest_window<R: Read, T: Float>(
    rd: &mut ScalarReader<R, T>,
    geo: &LayerGeometry,
    w: &Range<usize>,
    specs: &[ChunkSpec],
    bufs: &mut [Vec<T>],
) -> Result<(), SperrError> {
    for dz in 0..geo.z_range(w).len() {
        faultpoint::stage(STAGE_INGEST);
        for y in 0..geo.dims[1] {
            let row = rd.read_row()?;
            let cs = geo.row_chunks(y, dz);
            for (spec, buf) in specs[cs.clone()].iter().zip(&mut bufs[cs]) {
                buf.extend_from_slice(&row[spec.offset[0]..][..spec.dims[0]]);
            }
        }
    }
    Ok(())
}

/// Writes window `w`'s rows, gathering each from the decoded buffers of
/// the chunks it crosses.
fn emit_window<T: Float, W: Write>(
    wr: &mut ScalarWriter<W>,
    geo: &LayerGeometry,
    w: &Range<usize>,
    specs: &[ChunkSpec],
    chunks: &[Vec<T>],
    row: &mut [f64],
) -> Result<(), SperrError> {
    for (dz, z) in geo.z_range(w).enumerate() {
        faultpoint::stage(STAGE_EMIT);
        for y in 0..geo.dims[1] {
            let cs = geo.row_chunks(y, dz);
            for (spec, chunk) in specs[cs.clone()].iter().zip(&chunks[cs]) {
                let (cdx, ly, lz) = (spec.dims[0], y - spec.offset[1], z - spec.offset[2]);
                let src = &chunk[cdx * (ly + spec.dims[1] * lz)..][..cdx];
                for (d, &v) in row[spec.offset[0]..][..cdx].iter_mut().zip(src) {
                    *d = v.to_f64();
                }
            }
            wr.write_row(row)?;
        }
    }
    Ok(())
}

impl Sperr {
    /// Resolved in-flight chunk budget: the configured value (0 = auto,
    /// 2 × worker threads), clamped up to one chunk layer — a row-major
    /// stream cannot complete any chunk without buffering its whole
    /// z-layer. Records it on the budget gauge.
    fn resolve_budget(&self, grid: &[ChunkSpec], layer_len: usize) -> usize {
        let configured = match self.config().in_flight_chunks {
            0 => 2 * self.effective_threads(grid),
            n => n,
        };
        let budget = configured.max(layer_len).max(1);
        sperr_telemetry::record_units(metric_labels::STREAM_IN_FLIGHT_BUDGET, budget as u64);
        budget
    }

    /// Streaming compression: reads `dims[0]·dims[1]·dims[2]` raw
    /// little-endian scalars (f32 or f64 per `precision`, x fastest) from
    /// `reader` and writes a SPERR stream to `writer`. Output is
    /// byte-identical to [`Sperr::compress`] on the same data; peak
    /// raw-data memory is bounded by the in-flight chunk budget (times
    /// chunk size) rather than the volume size.
    ///
    /// PSNR bounds are rejected: they require full-volume statistics
    /// (the data range) that a single pass cannot provide.
    pub fn compress_stream<R: Read, W: Write>(
        &self,
        reader: R,
        writer: W,
        dims: [usize; 3],
        precision: Precision,
        bound: Bound,
    ) -> Result<StreamReport, SperrError> {
        // Outer guard: a panic anywhere on the caller thread (ingest,
        // container assembly) still surfaces as a typed error — nothing
        // unwinds out of the public API.
        guarded(None, || {
            self.compress_stream_inner::<f64, R, W>(reader, writer, dims, precision, false, bound)
        })
        .and_then(|r| r)
    }

    /// Streaming compression through the f32-native pipeline: reads raw
    /// little-endian `f32` scalars (x fastest) from `reader` and writes an
    /// f32-native SPERR stream (precision tag 2), byte-identical to
    /// [`Sperr::compress_f32`] on the same data. Contrast with
    /// [`Sperr::compress_stream`] at `Precision::Single`, which keeps the
    /// legacy behavior of widening f32 input into the f64 pipeline.
    pub fn compress_stream_f32<R: Read, W: Write>(
        &self,
        reader: R,
        writer: W,
        dims: [usize; 3],
        bound: Bound,
    ) -> Result<StreamReport, SperrError> {
        // Outer guard: see `compress_stream`.
        guarded(None, || {
            self.compress_stream_inner::<f32, R, W>(
                reader,
                writer,
                dims,
                Precision::Single,
                true,
                bound,
            )
        })
        .and_then(|r| r)
    }

    fn compress_stream_inner<T: Float, R: Read, W: Write>(
        &self,
        reader: R,
        writer: W,
        dims: [usize; 3],
        precision: Precision,
        native_f32: bool,
        bound: Bound,
    ) -> Result<StreamReport, SperrError> {
        let ingest_err = |source| SperrError::Codec { stage: STAGE_INGEST, chunk: None, source };
        if dims.contains(&0) {
            return Err(ingest_err(CompressError::Invalid("empty field".into())));
        }
        if let Bound::Psnr(_) = bound {
            return Err(ingest_err(CompressError::Unsupported(
                "PSNR-bounded compression needs the full-volume data range; \
                 unavailable in single-pass streaming",
            )));
        }
        let (mode, bound_value) = parse_bound(bound).map_err(ingest_err)?;
        let target = ChunkTarget { mode, bound_value, rmse_target: 0.0 };
        let total_points: usize = dims.iter().product();
        let _run = sperr_telemetry::span!("sperr.compress_stream", total_points);
        let _op = sperr_telemetry::OpTimer::new(metric_labels::OP_COMPRESS_STREAM);

        let chunk_dims = self.config().chunk_dims;
        let grid = chunk_grid(dims, chunk_dims);
        let geo = LayerGeometry::new(dims, chunk_dims);
        let budget = self.resolve_budget(&grid, geo.layer_len);

        let mut rd = ScalarReader::<R, T>::new(reader, precision, dims[0]);
        let mut encoded = Vec::with_capacity(grid.len());
        let mut peak_in_flight = 0;
        for w in geo.windows(budget) {
            let specs = &grid[w.clone()];
            let mut bufs: Vec<Vec<T>> = specs.iter().map(|s| Vec::with_capacity(s.len())).collect();
            ingest_window(&mut rd, &geo, &w, specs, &mut bufs)?;
            peak_in_flight = peak_in_flight.max(specs.len());
            sperr_telemetry::record_units(metric_labels::STREAM_IN_FLIGHT, specs.len() as u64);
            let results = self.map_chunks(specs, |j, pool, arena, _| {
                guarded(Some(w.start + j), || {
                    self.encode_chunk(&bufs[j], &specs[j], target, pool, arena)
                })
            });
            for enc in results {
                encoded.push(enc?);
            }
        }

        faultpoint::stage(STAGE_CONTAINER);
        let (out, stats) = self.finish_encode(target, dims, precision, native_f32, &encoded);

        faultpoint::stage(STAGE_EMIT);
        let mut wr = ScalarWriter::new(writer, precision);
        wr.write_all_at_once(&out)?;
        wr.flush()?;
        Ok(StreamReport {
            bytes_in: rd.bytes_in,
            bytes_out: wr.bytes_out,
            n_chunks: grid.len(),
            in_flight_budget: budget,
            peak_in_flight,
            stats,
        })
    }

    /// Streaming strict decompression: reads a SPERR stream from `reader`
    /// and writes the raw little-endian scalar volume (x fastest) to
    /// `writer`, in `out_precision` (or the stream's recorded precision
    /// when `None`). Any chunk failure (checksum mismatch, decode error)
    /// fails the whole run with a typed error; see
    /// [`Sperr::decompress_stream_resilient`] for the
    /// salvage-what-you-can variant. Decoded chunks held in memory are
    /// bounded by the in-flight budget.
    pub fn decompress_stream<R: Read, W: Write>(
        &self,
        reader: R,
        writer: W,
        out_precision: Option<Precision>,
    ) -> Result<StreamReport, SperrError> {
        self.decompress_stream_impl(reader, writer, out_precision, false).map(|r| r.report)
    }

    /// Streaming resilient decompression: like
    /// [`Sperr::decompress_stream`], but a corrupt chunk yields its
    /// [`ChunkStatus`] and a neutral zero-filled region while the stream
    /// continues — the streaming form of
    /// [`Sperr::decompress_resilient`].
    pub fn decompress_stream_resilient<R: Read, W: Write>(
        &self,
        reader: R,
        writer: W,
        out_precision: Option<Precision>,
    ) -> Result<StreamResilientReport, SperrError> {
        self.decompress_stream_impl(reader, writer, out_precision, true)
    }

    fn decompress_stream_impl<R: Read, W: Write>(
        &self,
        reader: R,
        writer: W,
        out_precision: Option<Precision>,
        resilient: bool,
    ) -> Result<StreamResilientReport, SperrError> {
        // Outer guard: see `compress_stream`.
        guarded(None, || self.decompress_stream_inner(reader, writer, out_precision, resilient))
            .and_then(|r| r)
    }

    fn decompress_stream_inner<R: Read, W: Write>(
        &self,
        mut reader: R,
        writer: W,
        out_precision: Option<Precision>,
        resilient: bool,
    ) -> Result<StreamResilientReport, SperrError> {
        // The container places header + chunk table + checksums before
        // the payloads, and the lossless outer pass spans everything, so
        // the compressed input must be held whole; what stays bounded is
        // the *decoded* side.
        let mut stream = Vec::new();
        faultpoint::stage(STAGE_INGEST);
        reader
            .read_to_end(&mut stream)
            .map_err(|e| SperrError::io(STAGE_INGEST, None, &e))?;
        let _run = sperr_telemetry::span!("sperr.decompress_stream", stream.len());
        let _op = sperr_telemetry::OpTimer::new(metric_labels::OP_DECOMPRESS_STREAM);

        faultpoint::stage(STAGE_CONTAINER);
        let container_err =
            |source| SperrError::Codec { stage: STAGE_CONTAINER, chunk: None, source };
        let ps = ParsedStream::parse(&stream).map_err(container_err)?;
        // Strict runs verify every checksum before any decode, timed like
        // the in-memory strict read.
        let mut times = StageTimes::default();
        if !resilient {
            let (checked, crc_time) =
                timed(stage_labels::CONTAINER_READ, || ps.check_crcs(0..ps.entries.len()));
            checked.map_err(container_err)?;
            times.container = crc_time;
        }
        let geo = LayerGeometry::new(ps.header.dims, ps.header.chunk_dims);
        let budget = self.resolve_budget(&ps.grid, geo.layer_len);
        let mut wr = ScalarWriter::new(writer, out_precision.unwrap_or(ps.header.precision));
        // Chunks decode at the payload's native width; emission widens
        // each row exactly (and narrows back losslessly for f32 output).
        let (statuses, peak_in_flight) = if ps.header.native_f32 {
            self.decode_windows::<f32, W>(&ps, &geo, budget, &mut wr, resilient, &mut times)?
        } else {
            self.decode_windows::<f64, W>(&ps, &geo, budget, &mut wr, resilient, &mut times)?
        };
        wr.flush()?;
        Ok(StreamResilientReport {
            report: StreamReport {
                bytes_in: stream.len() as u64,
                bytes_out: wr.bytes_out,
                n_chunks: ps.grid.len(),
                in_flight_budget: budget,
                peak_in_flight,
                stats: decode_stats(&ps, stream.len(), &times),
            },
            statuses,
        })
    }

    /// The streaming decode loop at payload width `T`: decodes each window
    /// on the pool, then writes its rows. A chunk that fails is zero-filled
    /// and reported when `resilient`, and fails the run otherwise. Returns
    /// the per-chunk statuses and the largest window; chunk stage times
    /// accumulate into `times`.
    fn decode_windows<T: Float, W: Write>(
        &self,
        ps: &ParsedStream,
        geo: &LayerGeometry,
        budget: usize,
        wr: &mut ScalarWriter<W>,
        resilient: bool,
        times: &mut StageTimes,
    ) -> Result<(Vec<ChunkStatus>, usize), SperrError> {
        let mut statuses = Vec::with_capacity(ps.grid.len());
        let mut row = vec![0.0f64; geo.dims[0]];
        let mut peak = 0;
        for w in geo.windows(budget) {
            let specs = &ps.grid[w.clone()];
            peak = peak.max(specs.len());
            sperr_telemetry::record_units(metric_labels::STREAM_IN_FLIGHT, specs.len() as u64);
            let decoded = self.map_chunks::<T, _>(specs, |j, pool, arena, _| {
                let i = w.start + j;
                let full = Fidelity::Full;
                match guarded(Some(i), || ps.decode_chunk(i, full, None, resilient, pool, arena))? {
                    Ok(ok) => Ok((ok, ChunkStatus::Ok)),
                    Err(status) => {
                        // Strict runs verified checksums up front, so this
                        // is a decode failure; its stage is this thread's.
                        if !resilient {
                            status.clone().into_result(i).map_err(|source| SperrError::Codec {
                                stage: faultpoint::last_stage(),
                                chunk: Some(i),
                                source,
                            })?;
                        }
                        Ok(((vec![T::ZERO; specs[j].len()], StageTimes::default()), status))
                    }
                }
            });
            let mut chunks = Vec::with_capacity(specs.len());
            for result in decoded {
                let ((data, chunk_times), status) = result?;
                times.accumulate(&chunk_times);
                statuses.push(status);
                chunks.push(data);
            }
            emit_window(wr, geo, &w, specs, &chunks, &mut row)?;
        }
        Ok((statuses, peak))
    }
}

/// Runs `f`, turning a panic into a typed [`SperrError::Panic`] carrying
/// `chunk` and the last stage the thread entered ([`STAGE_PIPELINE`] if
/// it entered none).
fn guarded<R>(chunk: Option<usize>, f: impl FnOnce() -> R) -> Result<R, SperrError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| SperrError::Panic {
        stage: match faultpoint::last_stage() {
            "" => STAGE_PIPELINE,
            stage => stage,
        },
        chunk,
        message: panic_payload_message(p.as_ref()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SperrConfig;
    use sperr_compress_api::{Field, LossyCompressor};

    fn wavy(dims: [usize; 3]) -> Field {
        Field::from_fn(dims, |x, y, z| {
            (x as f64 * 0.29).sin() * 30.0
                + (y as f64 * 0.15).cos() * 12.0
                + ((x * z) as f64 * 0.013).sin() * 5.0
                + z as f64 * 0.4
        })
    }

    fn raw_bytes(field: &Field, precision: Precision) -> Vec<u8> {
        let mut out = Vec::new();
        for &v in &field.data {
            match precision {
                Precision::Single => out.extend_from_slice(&(v as f32).to_le_bytes()),
                Precision::Double => out.extend_from_slice(&v.to_le_bytes()),
            }
        }
        out
    }

    fn cfg(threads: usize) -> SperrConfig {
        SperrConfig {
            chunk_dims: [16, 16, 16],
            num_threads: threads,
            ..SperrConfig::default()
        }
    }

    #[test]
    fn stream_compress_matches_in_memory_across_threads() {
        // Non-divisible dims: boundary chunks on every axis, 2 z-layers.
        let dims = [40usize, 28, 20];
        let field = wavy(dims);
        for precision in [Precision::Double, Precision::Single] {
            let raw = raw_bytes(&field, precision);
            // The in-memory reference must see exactly the f64 values the
            // stream reader reconstructs (f32 roundtrip for Single).
            let mut ref_field = field.clone().with_precision(precision);
            if precision == Precision::Single {
                for v in &mut ref_field.data {
                    *v = *v as f32 as f64;
                }
            }
            for bound in [Bound::Pwe(1e-3), Bound::Bpp(2.0)] {
                let reference = Sperr::new(cfg(1)).compress(&ref_field, bound).unwrap();
                for threads in [1usize, 2, 4, 8] {
                    let sperr = Sperr::new(cfg(threads));
                    let mut out = Vec::new();
                    let report = sperr
                        .compress_stream(&raw[..], &mut out, dims, precision, bound)
                        .unwrap();
                    assert_eq!(out, reference, "threads={threads} {bound:?} {precision:?}");
                    assert_eq!(report.bytes_in, raw.len() as u64);
                    assert_eq!(report.bytes_out, out.len() as u64);
                    assert!(report.peak_in_flight <= report.in_flight_budget);
                }
            }
        }
    }

    #[test]
    fn stream_decompress_matches_in_memory() {
        let dims = [40usize, 28, 20];
        let field = wavy(dims);
        let sperr = Sperr::new(cfg(4));
        let stream = sperr.compress(&field, Bound::Pwe(1e-3)).unwrap();
        let decoded = sperr.decompress(&stream).unwrap();
        let want = raw_bytes(&decoded, decoded.precision);
        for threads in [1usize, 2, 4, 8] {
            let mut out = Vec::new();
            let report = Sperr::new(cfg(threads))
                .decompress_stream(&stream[..], &mut out, None)
                .unwrap();
            assert_eq!(out, want, "threads={threads}");
            assert!(report.peak_in_flight <= report.in_flight_budget);
            assert_eq!(report.n_chunks, 3 * 2 * 2);
        }
    }

    #[test]
    fn stream_f32_compress_matches_in_memory_across_threads() {
        // compress_stream_f32 must produce the exact bytes of the
        // in-memory f32-native path, at every thread count.
        let dims = [40usize, 28, 20];
        let field = wavy(dims);
        let f32_field = field.narrow_lossy();
        let raw: Vec<u8> =
            f32_field.data.iter().flat_map(|v| v.to_le_bytes()).collect();
        for bound in [Bound::Pwe(1e-3), Bound::Bpp(2.0)] {
            let reference = Sperr::new(cfg(1)).compress_f32(&f32_field, bound).unwrap();
            assert!(Sperr::new(cfg(1)).inspect(&reference).unwrap().native_f32);
            for threads in [1usize, 2, 4, 8] {
                let sperr = Sperr::new(cfg(threads));
                let mut out = Vec::new();
                let report = sperr
                    .compress_stream_f32(&raw[..], &mut out, dims, bound)
                    .unwrap();
                assert_eq!(out, reference, "threads={threads} {bound:?}");
                assert_eq!(report.bytes_in, raw.len() as u64);
                assert!(report.peak_in_flight <= report.in_flight_budget);
            }
        }
    }

    #[test]
    fn stream_decompress_native_f32_stream() {
        // decompress_stream on a tag-2 stream: the default output
        // precision is Single, and the emitted f32 wire bytes must match
        // the in-memory decompress_f32 samples exactly (decode at f32,
        // widen, narrow back — all lossless).
        let dims = [40usize, 28, 20];
        let field = wavy(dims).narrow_lossy();
        let sperr = Sperr::new(cfg(4));
        let stream = sperr.compress_f32(&field, Bound::Pwe(1e-3)).unwrap();
        let decoded = sperr.decompress_f32(&stream).unwrap();
        let want: Vec<u8> =
            decoded.data.iter().flat_map(|v| v.to_le_bytes()).collect();
        for threads in [1usize, 2, 4, 8] {
            let mut out = Vec::new();
            let report = Sperr::new(cfg(threads))
                .decompress_stream(&stream[..], &mut out, None)
                .unwrap();
            assert_eq!(out, want, "threads={threads}");
            assert!(report.peak_in_flight <= report.in_flight_budget);
        }
        // Explicit f64 output widens exactly.
        let mut out64 = Vec::new();
        sperr
            .decompress_stream(&stream[..], &mut out64, Some(Precision::Double))
            .unwrap();
        let want64: Vec<u8> =
            decoded.data.iter().flat_map(|v| (*v as f64).to_le_bytes()).collect();
        assert_eq!(out64, want64);
    }

    #[test]
    fn stream_decompress_stats_match_in_memory() {
        // A lossless-framed stream: the streaming decode reports its parse
        // stages like `decompress_with_stats`, with the same geometry.
        let field = wavy([40, 28, 20]);
        let sperr = Sperr::new(cfg(2));
        assert!(sperr.config().lossless);
        let stream = sperr.compress(&field, Bound::Pwe(1e-3)).unwrap();
        let (_, want) = sperr.decompress_with_stats(&stream).unwrap();
        let got = sperr.decompress_stream(&stream[..], Vec::new(), None).unwrap().stats;
        assert!(got.stage_times.lossless > std::time::Duration::ZERO);
        assert!(got.stage_times.container > std::time::Duration::ZERO);
        assert_eq!(
            (got.num_points, got.num_chunks, got.container_bytes, got.output_bytes),
            (want.num_points, want.num_chunks, want.container_bytes, want.output_bytes)
        );
    }

    #[test]
    fn bounded_in_flight_budget_is_honored() {
        // 8 z-layers of 1 chunk each with a budget of 2: windows hold two
        // layers rather than buffering ahead.
        let dims = [16usize, 16, 128];
        let field = wavy(dims);
        let raw = raw_bytes(&field, Precision::Double);
        let sperr = Sperr::new(SperrConfig {
            chunk_dims: [16, 16, 16],
            num_threads: 4,
            in_flight_chunks: 2,
            ..SperrConfig::default()
        });
        let mut out = Vec::new();
        let report = sperr
            .compress_stream(&raw[..], &mut out, dims, Precision::Double, Bound::Pwe(1e-3))
            .unwrap();
        assert_eq!(report.n_chunks, 8);
        assert_eq!(report.in_flight_budget, 2);
        assert!(
            report.peak_in_flight <= 2,
            "budget 2 but peak {}",
            report.peak_in_flight
        );
        // And the output is still the reference bytes.
        let reference = Sperr::new(cfg(1)).compress(&field, Bound::Pwe(1e-3)).unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn short_read_is_typed_io_error() {
        let dims = [16usize, 16, 32];
        let field = wavy(dims);
        let raw = raw_bytes(&field, Precision::Double);
        let sperr = Sperr::new(cfg(4));
        let mut out = Vec::new();
        let err = sperr
            .compress_stream(
                &raw[..raw.len() / 2],
                &mut out,
                dims,
                Precision::Double,
                Bound::Pwe(1e-3),
            )
            .unwrap_err();
        match err {
            SperrError::Io { stage, kind, .. } => {
                assert_eq!(stage, STAGE_INGEST);
                assert_eq!(kind, std::io::ErrorKind::UnexpectedEof);
            }
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn psnr_bound_rejected_with_typed_error() {
        let sperr = Sperr::new(cfg(2));
        let err = sperr
            .compress_stream(
                &[][..],
                Vec::new(),
                [8, 8, 8],
                Precision::Double,
                Bound::Psnr(60.0),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SperrError::Codec { source: CompressError::Unsupported(_), .. }
        ));
    }

    #[test]
    fn resilient_stream_decode_neutral_fills_corrupt_chunk() {
        let dims = [32usize, 16, 16];
        let field = wavy(dims);
        let sperr = Sperr::new(SperrConfig {
            chunk_dims: [16, 16, 16],
            lossless: false,
            num_threads: 4,
            ..SperrConfig::default()
        });
        let stream = sperr.compress(&field, Bound::Pwe(1e-3)).unwrap();
        let info = sperr.inspect(&stream).unwrap();
        let mut bad = stream.clone();
        bad[1 + info.payload_offset + info.chunk_payload_sizes[0] + 3] ^= 0xFF;

        // Strict streaming fails typed.
        let mut out = Vec::new();
        let err = sperr.decompress_stream(&bad[..], &mut out, None).unwrap_err();
        assert!(matches!(err, SperrError::Codec { .. }), "{err:?}");

        // Resilient streaming matches the in-memory resilient decode.
        let (ref_field, ref_report) = sperr.decompress_resilient(&bad).unwrap();
        let mut out = Vec::new();
        let res = sperr.decompress_stream_resilient(&bad[..], &mut out, None).unwrap();
        assert_eq!(res.statuses, ref_report.statuses);
        assert!(!res.all_ok());
        assert_eq!(out, raw_bytes(&ref_field, ref_field.precision));
    }

    #[test]
    fn single_chunk_volume_streams() {
        let dims = [12usize, 10, 8];
        let field = wavy(dims);
        let raw = raw_bytes(&field, Precision::Double);
        let sperr = Sperr::new(cfg(4));
        let reference = Sperr::new(cfg(1)).compress(&field, Bound::Pwe(1e-3)).unwrap();
        let mut out = Vec::new();
        sperr
            .compress_stream(&raw[..], &mut out, dims, Precision::Double, Bound::Pwe(1e-3))
            .unwrap();
        assert_eq!(out, reference);
        let mut round = Vec::new();
        sperr.decompress_stream(&out[..], &mut round, None).unwrap();
        let rec = sperr.decompress(&reference).unwrap();
        assert_eq!(round, raw_bytes(&rec, rec.precision));
    }
}
