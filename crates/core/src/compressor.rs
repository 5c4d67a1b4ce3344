//! The top-level SPERR compressor: chunking, the embarrassingly parallel
//! driver (§III-D), container assembly and the lossless post-pass (§V).
//! The public read surfaces are thin wrappers over the decode engine
//! (`engine.rs`).

use crate::chunk::{chunk_grid, extract_chunk_into, ChunkSpec};
use crate::container::{
    write_container, ChunkIndexEntry, Header, Mode, VERSION, VERSION_V1, VERSION_V2,
};
use crate::engine::{frame_outer, reframe, Chunks, DecodePlan, Fidelity, OnDamage, ParsedStream};
use crate::pipeline::{
    compress_chunk_bpp_with, compress_chunk_pwe_with, compress_chunk_rmse_with, ChunkEncoding,
    ScratchArena,
};
use crate::pool::{PerWorker, WorkerPool};
use crate::stats::{metric_labels, stage_labels, CompressionStats, StageTimes};
use sperr_compress_api::{Bound, CompressError, Field, FieldOf, LossyCompressor, Precision};
use sperr_simd::Float;
use sperr_telemetry::timed;
use sperr_wavelet::{Kernel, PANEL_W};

/// Amortized per-chunk container overhead charged against the bit budget
/// in size-bounded mode (chunk-table entry + share of the header).
pub(crate) const PER_CHUNK_HEADER_BITS: usize = 26 * 8;

/// Configuration for [`Sperr`].
#[derive(Debug, Clone)]
pub struct SperrConfig {
    /// Chunk extent; the volume is partitioned into chunks of at most this
    /// size. The paper's default is 256³ (§V-B); it need not divide the
    /// volume dimensions.
    pub chunk_dims: [usize; 3],
    /// SPECK quantization step as a multiple of the PWE tolerance:
    /// `q = q_factor · t`. The paper settles on 1.5 (§IV-D).
    pub q_factor: f64,
    /// Wavelet kernel (CDF 9/7 in the paper; others for ablations).
    pub kernel: Kernel,
    /// Apply the lossless post-pass to the final container (§V; on by
    /// default, standing in for ZSTD).
    pub lossless: bool,
    /// Worker threads for chunk-parallel execution; 0 = one per available
    /// core.
    pub num_threads: usize,
    /// Bound on the number of raw chunk buffers the streaming pipeline
    /// ([`Sperr::compress_stream`] / [`Sperr::decompress_stream`]) keeps
    /// in flight at once: it walks the volume in windows of whole chunk
    /// z-layers holding at most this many chunks. 0 = auto (2 × worker
    /// threads). The effective budget is never below the number of chunks
    /// in one z-layer of the chunk grid — a row-major stream cannot
    /// complete any chunk of a layer without buffering the whole layer.
    pub in_flight_chunks: usize,
    /// Container format version to write: 3 (default; carries the chunk
    /// index that makes [`Sperr::decode_region`] seek instead of scan) or
    /// 2 (checksummed but index-free — the layout the conformance goldens
    /// pin). The reader accepts 1–3 regardless of this setting.
    pub container_version: u8,
}

impl Default for SperrConfig {
    fn default() -> Self {
        SperrConfig {
            chunk_dims: [256, 256, 256],
            q_factor: 1.5,
            kernel: Kernel::Cdf97,
            lossless: true,
            num_threads: 0,
            in_flight_chunks: 0,
            container_version: VERSION,
        }
    }
}

/// The SPERR compressor. See the crate docs for the pipeline description.
#[derive(Debug, Clone, Default)]
pub struct Sperr {
    config: SperrConfig,
}

impl Sperr {
    /// Creates a compressor with the given configuration.
    pub fn new(config: SperrConfig) -> Self {
        assert!(config.q_factor > 0.0, "q_factor must be positive");
        assert!(config.chunk_dims.iter().all(|&d| d > 0), "chunk dims must be positive");
        assert!(
            (VERSION_V2..=VERSION).contains(&config.container_version),
            "writable container versions are {VERSION_V2}..={VERSION}"
        );
        Sperr { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SperrConfig {
        &self.config
    }

    /// Worker count for the pool, clamped to the parallelism actually
    /// available in `chunks`. Deliberately *not* clamped to the chunk
    /// count alone — a single-chunk volume still uses every thread
    /// through the intra-chunk (wavelet-panel / elementwise-sweep)
    /// parallelism — but bounded by those inner job counts, so a tiny
    /// volume on a many-core machine does not spawn workers that
    /// outnumber the jobs they would run.
    pub(crate) fn effective_threads(&self, chunks: &[ChunkSpec]) -> usize {
        let t = if self.config.num_threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.config.num_threads
        };
        // Useful-worker ceiling: the outer chunk jobs, or — in the
        // few-chunk regime where the inner levels fan out instead — the
        // strided-pass job count of the largest chunk (lines along the
        // non-transformed axis × panels along x; see `apply_axis_blocked`
        // in `sperr-wavelet`).
        let panel_jobs = chunks
            .iter()
            .map(|c| c.dims[1].max(c.dims[2]) * c.dims[0].div_ceil(PANEL_W))
            .max()
            .unwrap_or(1);
        t.min(chunks.len().max(panel_jobs)).max(1)
    }

    /// The worker-pool size a run over a volume of `dims` would actually
    /// use (thread config clamped to the available parallelism); surfaced
    /// so benchmark artifacts can record it alongside the raw thread
    /// count.
    pub fn effective_workers(&self, dims: [usize; 3]) -> usize {
        self.effective_threads(&chunk_grid(dims, self.config.chunk_dims))
    }

    /// Number of chunks a volume of `dims` partitions into under this
    /// configuration.
    pub fn chunk_count(&self, dims: [usize; 3]) -> usize {
        chunk_grid(dims, self.config.chunk_dims).len()
    }

    /// Compresses and returns the stream together with cost/timing
    /// statistics (the instrumentation behind Figs. 2, 4 and 6).
    pub fn compress_with_stats(
        &self,
        field: &Field,
        bound: Bound,
    ) -> Result<(Vec<u8>, CompressionStats), CompressError> {
        self.compress_impl(field, bound, false)
    }

    /// Compresses an `f32` field through the f32-native pipeline: every
    /// hot-path stage (wavelet, SPECK quantization, outlier scan) runs at
    /// single precision, and the stream is marked f32-native (precision
    /// tag 2) so [`Sperr::decompress_f32`] reconstructs it without an f64
    /// round-trip. The PWE guarantee holds against the f32 samples.
    pub fn compress_f32(
        &self,
        field: &FieldOf<f32>,
        bound: Bound,
    ) -> Result<Vec<u8>, CompressError> {
        self.compress_f32_with_stats(field, bound).map(|(stream, _)| stream)
    }

    /// [`Sperr::compress_f32`] with cost/timing statistics.
    pub fn compress_f32_with_stats(
        &self,
        field: &FieldOf<f32>,
        bound: Bound,
    ) -> Result<(Vec<u8>, CompressionStats), CompressError> {
        self.compress_impl(field, bound, true)
    }

    /// The width-generic compression driver behind both public surfaces.
    /// `native_f32` selects the wire precision tag; the chunk pipeline
    /// itself is monomorphized over `T`, so the `f64` instantiation is
    /// bit-for-bit the pre-generic code path.
    fn compress_impl<T: Float>(
        &self,
        field: &FieldOf<T>,
        bound: Bound,
        native_f32: bool,
    ) -> Result<(Vec<u8>, CompressionStats), CompressError> {
        if field.is_empty() {
            return Err(CompressError::Invalid("empty field".into()));
        }
        let _run = sperr_telemetry::span!("sperr.compress", field.len());
        let _op = sperr_telemetry::OpTimer::new(if native_f32 {
            metric_labels::OP_COMPRESS_F32
        } else {
            metric_labels::OP_COMPRESS_F64
        });
        let (mode, bound_value) = parse_bound(bound)?;
        // PSNR targets translate to an RMSE target over the whole field's
        // range; a zero-range (constant) field quantizes relative to its
        // magnitude.
        let rmse_target = if let Mode::Rmse = mode {
            let range = field.range();
            if range > 0.0 {
                range / 10f64.powf(bound_value / 20.0)
            } else {
                let max_abs = field.data.iter().fold(0.0f64, |m, &v| m.max(v.to_f64().abs()));
                max_abs.max(1.0) * f64::exp2(-40.0)
            }
        } else {
            0.0
        };
        let target = ChunkTarget { mode, bound_value, rmse_target };

        let chunks_spec = chunk_grid(field.dims, self.config.chunk_dims);
        let encoded = self.map_chunks(&chunks_spec, |i, pool, arena, input| {
            extract_chunk_into(&field.data, field.dims, &chunks_spec[i], input);
            self.encode_chunk(input, &chunks_spec[i], target, pool, arena)
        });
        let precision = if native_f32 { Precision::Single } else { field.precision };
        Ok(self.finish_encode(target, field.dims, precision, native_f32, &encoded))
    }

    /// Runs `job(i, pool, arena, input)` for every chunk in `specs` on a
    /// pool sized for them, with one scratch arena and one input buffer
    /// per worker, and returns the results in chunk order. Enough chunks
    /// to saturate the pool parallelize the outer loop (each chunk's inner
    /// stages then run inline); fewer run the outer loop serially so each
    /// chunk's wavelet panels and elementwise sweeps fan out instead.
    pub(crate) fn map_chunks<T: Float, R: Send>(
        &self,
        specs: &[ChunkSpec],
        job: impl Fn(usize, &WorkerPool, &mut ScratchArena<T>, &mut Vec<T>) -> R + Sync,
    ) -> Vec<R> {
        WorkerPool::scoped(self.effective_threads(specs), |pool| {
            let scratch = PerWorker::new(pool.threads(), || (ScratchArena::new(), Vec::new()));
            let run = |i: usize, w: usize| {
                // SAFETY: concurrent jobs see distinct worker slots (pool
                // contract), so each arena/input buffer has one user.
                let (arena, input) = unsafe { scratch.get(w) };
                job(i, pool, arena, input)
            };
            let out = if specs.len() >= pool.threads() {
                pool.map(specs.len(), run)
            } else {
                (0..specs.len()).map(|i| run(i, 0)).collect()
            };
            for w in 0..pool.threads() {
                // SAFETY: all jobs have completed; no concurrent users.
                unsafe { scratch.get(w) }.0.record_footprint();
            }
            out
        })
    }

    /// Compresses one chunk toward `target` — the per-chunk step both
    /// compress drivers (in-memory and streaming) share.
    pub(crate) fn encode_chunk<T: Float>(
        &self,
        data: &[T],
        spec: &ChunkSpec,
        target: ChunkTarget,
        pool: &WorkerPool,
        arena: &mut ScratchArena<T>,
    ) -> ChunkEncoding {
        let ChunkTarget { mode, bound_value, rmse_target } = target;
        let SperrConfig { q_factor, kernel, .. } = self.config;
        match mode {
            Mode::Pwe => {
                compress_chunk_pwe_with(data, spec.dims, bound_value, q_factor, kernel, pool, arena)
            }
            Mode::Bpp => {
                // The raw target minus the amortized chunk-table overhead,
                // so the final container lands at or under the rate.
                let budget = ((bound_value * spec.len() as f64) as usize)
                    .saturating_sub(PER_CHUNK_HEADER_BITS);
                compress_chunk_bpp_with(data, spec.dims, budget, kernel, pool, arena)
            }
            Mode::Rmse => {
                compress_chunk_rmse_with(data, spec.dims, rmse_target, kernel, pool, arena)
            }
        }
    }

    /// The encode tail both compress drivers share: folds the per-chunk
    /// stats, writes the container and the outer framing, and records the
    /// size histograms.
    pub(crate) fn finish_encode(
        &self,
        target: ChunkTarget,
        dims: [usize; 3],
        precision: Precision,
        native_f32: bool,
        encoded: &[ChunkEncoding],
    ) -> (Vec<u8>, CompressionStats) {
        let cfg = &self.config;
        let mut stats = CompressionStats {
            num_points: dims.iter().product(),
            num_chunks: encoded.len(),
            ..CompressionStats::default()
        };
        for enc in encoded {
            sperr_telemetry::record_bytes(
                metric_labels::SIZE_CHUNK_SPECK,
                enc.speck_stream.len() as u64,
            );
            stats.speck_bits += enc.speck_bits;
            stats.outlier_bits += enc.outlier_bits;
            stats.num_outliers += enc.num_outliers as usize;
            stats.stage_times.accumulate(&enc.times);
            stats.coeff_sq_error += enc.coeff_sq_error;
        }
        let header = Header {
            mode: target.mode,
            kernel: cfg.kernel,
            precision,
            native_f32,
            dims,
            chunk_dims: cfg.chunk_dims,
            bound_value: target.bound_value,
            n_chunks: encoded.len(),
        };
        let (container, container_time) = timed(stage_labels::CONTAINER_WRITE, || {
            write_container(&header, encoded, cfg.container_version)
        });
        stats.container_bytes = container.len();
        stats.stage_times.container = container_time;
        let (out, lossless_time) = frame_outer(&container, cfg.lossless);
        stats.stage_times.lossless = lossless_time;
        stats.output_bytes = out.len();
        sperr_telemetry::record_bytes(metric_labels::SIZE_OUTPUT, out.len() as u64);
        (out, stats)
    }

    /// Inspects a SPERR stream without decoding it: dimensions, mode,
    /// chunking and per-chunk stream sizes.
    pub fn inspect(&self, stream: &[u8]) -> Result<StreamInfo, CompressError> {
        let ps = ParsedStream::parse(stream)?;
        let h = &ps.header;
        Ok(StreamInfo {
            dims: h.dims,
            chunk_dims: h.chunk_dims,
            mode: h.mode,
            bound_value: h.bound_value,
            n_chunks: h.n_chunks,
            precision: h.precision,
            native_f32: h.native_f32,
            lossless: ps.lossless,
            speck_bytes: ps.entries.iter().map(|e| e.speck_len).sum(),
            outlier_bytes: ps.entries.iter().map(|e| e.outlier_len).sum(),
            version: ps.version,
            payload_offset: ps.payload_start,
            chunk_payload_sizes: ps.entries.iter().map(|e| e.speck_len + e.outlier_len).collect(),
            chunk_index: ps.index.clone(),
        })
    }

    /// Verifies a v2 stream's integrity checksums without running the
    /// (much more expensive) SPECK decode: the header CRC is checked by
    /// the container parser, then each chunk's payload CRC is recomputed.
    /// v1 streams carry no checksums — the report says so via
    /// [`VerifyReport::checksummed`] and trivially lists no corruption.
    pub fn verify(&self, stream: &[u8]) -> Result<VerifyReport, CompressError> {
        let ps = ParsedStream::parse(stream)?;
        Ok(VerifyReport {
            version: ps.version,
            checksummed: ps.crcs.is_some(),
            n_chunks: ps.header.n_chunks,
            corrupt_chunks: (0..ps.entries.len()).filter(|&i| !ps.crc_ok(i)).collect(),
        })
    }

    /// Best-effort decompression of a damaged stream: chunks whose payload
    /// checksum mismatches (v2) or whose decode fails are skipped and
    /// their region of the volume left neutrally zero-filled, while every
    /// healthy chunk is reconstructed normally. The per-chunk outcome is
    /// returned alongside the field. Header-level damage (bad magic,
    /// unreadable chunk table, failed header CRC, or a corrupted lossless
    /// outer wrapper) still fails outright — without the table there is
    /// nothing to salvage.
    pub fn decompress_resilient(
        &self,
        stream: &[u8],
    ) -> Result<(Field, ResilientReport), CompressError> {
        let ps = ParsedStream::parse(stream)?;
        let plan = DecodePlan { on_damage: OnDamage::Contain, ..DecodePlan::FULL };
        let d = self.decode_plan(&ps, &plan)?;
        Ok((d.field, ResilientReport { statuses: d.statuses }))
    }

    /// Multi-resolution decompression (§VII): reconstructs the field at
    /// `1/2^level` resolution per axis by undoing only the coarser
    /// transform levels. `level = 0` is full resolution (without outlier
    /// corrections applied at `level > 0`, which are full-resolution
    /// data). Requires every chunk to have at least `level` transform
    /// levels on every axis and `chunk_dims` divisible by `2^level`.
    pub fn decompress_multires(
        &self,
        stream: &[u8],
        level: usize,
    ) -> Result<Field, CompressError> {
        if level == 0 {
            return self.decompress(stream);
        }
        let ps = ParsedStream::parse(stream)?;
        let plan = DecodePlan { fidelity: Fidelity::Level(level), ..DecodePlan::FULL };
        Ok(self.decode_plan(&ps, &plan)?.field)
    }

    /// Region-of-interest decompression: reconstructs only the sub-box
    /// `[lo, hi)` of the volume, decoding just the chunks that intersect
    /// it — the practical payoff of SPERR's chunked storage for
    /// explorative analysis. Returns a field of dims `hi - lo`.
    ///
    /// Strict wrapper around [`Sperr::decode_region`]: any intersecting
    /// chunk that fails its checksum or decode fails the whole call.
    pub fn decompress_region(
        &self,
        stream: &[u8],
        lo: [usize; 3],
        hi: [usize; 3],
    ) -> Result<Field, CompressError> {
        let (field, report) = self.decode_region(stream, lo, hi)?;
        for (&id, status) in report.chunk_ids.iter().zip(report.statuses) {
            status.into_result(id)?;
        }
        Ok(field)
    }

    /// Random-access decode of the sub-box `[lo, hi)`: maps the bbox to
    /// the intersecting chunks through the chunk grid, slices their
    /// payloads straight out of the container, decodes only those chunks
    /// in parallel on the worker pool, and assembles the sub-volume.
    /// Damage is contained per chunk, like
    /// [`Sperr::decompress_resilient`]: a chunk failing its CRC or decode
    /// leaves its intersection zero-filled and is reported in the
    /// [`RegionReport`] instead of failing the call. Only the checksums
    /// of *touched* chunks are inspected — corruption elsewhere in the
    /// stream neither slows the query down nor fails it.
    ///
    /// Within the region the output is bit-identical to the same slice of
    /// a full [`Sperr::decompress`] (chunks decode independently, and
    /// skipped outlier corrections are point-local).
    pub fn decode_region(
        &self,
        stream: &[u8],
        lo: [usize; 3],
        hi: [usize; 3],
    ) -> Result<(Field, RegionReport), CompressError> {
        let _run = sperr_telemetry::span!("sperr.decode_region", stream.len());
        let _op = sperr_telemetry::OpTimer::new(metric_labels::OP_DECODE_REGION);
        let ps = ParsedStream::parse(stream)?;
        let used_index = ps.index.is_some();
        let plan = DecodePlan {
            chunks: Chunks::BBox(lo, hi),
            fidelity: Fidelity::Full,
            on_damage: OnDamage::Contain,
        };
        let d = self.decode_plan(&ps, &plan)?;
        sperr_telemetry::counter!("region.chunks_touched", d.chunk_ids.len());
        sperr_telemetry::counter!("region.used_index", used_index as u64);
        let report = RegionReport { chunk_ids: d.chunk_ids, statuses: d.statuses, used_index };
        Ok((d.field, report))
    }

    /// Progressive (preview) decode: reconstructs the full volume with
    /// each chunk's embedded SPECK stream truncated at `budgets[chunk]`
    /// bytes (clamped to the stream's actual length; `usize::MAX` means
    /// "everything"). Truncation is the embedded-coding contract, not
    /// corruption: the SPECK decoder treats budget exhaustion as clean
    /// early exit, so any budget decodes without error to a coarser
    /// field. Outlier corrections are full-fidelity data and are skipped
    /// entirely — previews carry no point-wise error guarantee.
    pub fn decode_at_budgets(
        &self,
        stream: &[u8],
        budgets: &[usize],
    ) -> Result<Field, CompressError> {
        let _run = sperr_telemetry::span!("sperr.decode_at_budgets", stream.len());
        let _op = sperr_telemetry::OpTimer::new(metric_labels::OP_DECODE_PREVIEW);
        self.preview(&ParsedStream::parse(stream)?, budgets)
    }

    /// Progressive (preview) decode at a uniform rate: truncates each
    /// chunk's SPECK stream at the byte budget a `bpp` bits-per-point
    /// target implies (the same per-chunk accounting as
    /// [`Sperr::transcode_to_bpp`], so `decode_at_bpp(s, r)` is
    /// bit-identical to `decompress(transcode_to_bpp(s, r))` without
    /// materializing the transcoded stream). See
    /// [`Sperr::decode_at_budgets`].
    pub fn decode_at_bpp(&self, stream: &[u8], bpp: f64) -> Result<Field, CompressError> {
        check_bpp(bpp)?;
        let _run = sperr_telemetry::span!("sperr.decode_at_budgets", stream.len());
        let _op = sperr_telemetry::OpTimer::new(metric_labels::OP_DECODE_PREVIEW);
        let ps = ParsedStream::parse(stream)?;
        self.preview(&ps, &bpp_budgets(&ps.grid, bpp))
    }

    fn preview(&self, ps: &ParsedStream, budgets: &[usize]) -> Result<Field, CompressError> {
        let plan = DecodePlan { fidelity: Fidelity::Budgets(budgets), ..DecodePlan::FULL };
        let field = self.decode_plan(ps, &plan)?.field;
        let kept: usize = ps.entries.iter().zip(budgets).map(|(e, &b)| e.speck_len.min(b)).sum();
        sperr_telemetry::counter!("preview.kept_speck_bytes", kept);
        Ok(field)
    }

    /// Re-rates an existing SPERR stream to a (lower) size target without
    /// re-encoding, by truncating each chunk's embedded SPECK stream (§VII:
    /// "any prefix of the bitstream can reconstruct a less-accurate
    /// version of the data"). Outlier corrections are dropped — the result
    /// is a size-bounded stream with no error guarantee.
    pub fn transcode_to_bpp(&self, stream: &[u8], bpp: f64) -> Result<Vec<u8>, CompressError> {
        check_bpp(bpp)?;
        let ps = ParsedStream::parse(stream)?;
        let header = Header { mode: Mode::Bpp, bound_value: bpp, ..ps.header.clone() };
        // Keep the source stream's container version (v1 sources stay at
        // v2: the writer no longer emits v1 except via `downgrade_to_v1`).
        let version = ps.version.max(VERSION_V2);
        reframe(&ps, &header, version, Some(&bpp_budgets(&ps.grid, bpp)))
    }

    /// Re-frames a stream as a legacy **container v1** (checksum-free)
    /// stream with byte-identical chunk payloads, preserving the outer
    /// lossless framing. Real v1 streams predate this repo's checksummed
    /// container; this is how the conformance suite regenerates its
    /// committed v1 back-compat fixture without keeping an old encoder
    /// around. The result must always decode to exactly the same field as
    /// the input stream.
    pub fn downgrade_to_v1(&self, stream: &[u8]) -> Result<Vec<u8>, CompressError> {
        let ps = ParsedStream::parse(stream)?;
        reframe(&ps, &ps.header, VERSION_V1, None)
    }

    /// Re-frames a stream as a **container v2** (checksummed, index-free)
    /// stream with byte-identical chunk payloads, preserving the outer
    /// lossless framing. The v3 → v2 downgrade drops only the chunk
    /// index, which is derived data — the result must always decode to
    /// exactly the same field as the input stream. Used by the
    /// conformance suite to prove the v3 fixtures are v2 goldens plus an
    /// index and nothing else.
    pub fn downgrade_to_v2(&self, stream: &[u8]) -> Result<Vec<u8>, CompressError> {
        let ps = ParsedStream::parse(stream)?;
        reframe(&ps, &ps.header, VERSION_V2, None)
    }

    /// Decompresses and returns the field together with per-stage timing
    /// statistics (surfaced by the CLI's `info --verbose`).
    pub fn decompress_with_stats(
        &self,
        stream: &[u8],
    ) -> Result<(Field, CompressionStats), CompressError> {
        let _run = sperr_telemetry::span!("sperr.decompress", stream.len());
        // The op label depends on the stream's width tag, unknown until
        // the container parses — so time manually and record on success.
        let op_t0 = sperr_telemetry::is_recording().then(std::time::Instant::now);
        let ps = ParsedStream::parse(stream)?;
        // Strict mode: any checksummed chunk failing its CRC fails the
        // whole decode (use `decompress_resilient` to salvage the rest).
        // f32-native payloads decode at their native width and widen
        // exactly, so this field carries the values `decompress_f32` would.
        let d = self.decode_plan(&ps, &DecodePlan::FULL)?;
        if let Some(t0) = op_t0 {
            let label = if ps.header.native_f32 {
                metric_labels::OP_DECOMPRESS_F32
            } else {
                metric_labels::OP_DECOMPRESS_F64
            };
            sperr_telemetry::record_ns(label, t0.elapsed().as_nanos() as u64);
        }
        Ok((d.field, decode_stats(&ps, stream.len(), &d.times)))
    }

    /// Reconstructs an f32-native stream (precision tag 2) at its native
    /// width — no f64 materialization anywhere on the chunk hot path.
    /// Streams from the f64 pipeline (tags 0/1) are rejected: narrowing
    /// their decode is lossy, so the caller must opt in explicitly via
    /// [`Sperr::decompress`] + [`Field::narrow_lossy`].
    pub fn decompress_f32(&self, stream: &[u8]) -> Result<FieldOf<f32>, CompressError> {
        self.decompress_f32_with_stats(stream).map(|(field, _)| field)
    }

    /// [`Sperr::decompress_f32`] with per-stage timing statistics.
    pub fn decompress_f32_with_stats(
        &self,
        stream: &[u8],
    ) -> Result<(FieldOf<f32>, CompressionStats), CompressError> {
        let _run = sperr_telemetry::span!("sperr.decompress_f32", stream.len());
        let _op = sperr_telemetry::OpTimer::new(metric_labels::OP_DECOMPRESS_F32);
        let ps = ParsedStream::parse(stream)?;
        if !ps.header.native_f32 {
            return Err(CompressError::Invalid(
                "stream is not f32-native; decode it with decompress() and narrow explicitly"
                    .into(),
            ));
        }
        let d = self.decode_plan(&ps, &DecodePlan::FULL)?;
        Ok((d.field, decode_stats(&ps, stream.len(), &d.times)))
    }
}

/// Per-chunk encode target: the container mode and bound value, plus the
/// RMSE target a PSNR bound resolves to over the whole field.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkTarget {
    pub mode: Mode,
    pub bound_value: f64,
    pub rmse_target: f64,
}

/// Checks a bound and maps it to the container mode and bound value.
pub(crate) fn parse_bound(bound: Bound) -> Result<(Mode, f64), CompressError> {
    let (mode, value, what) = match bound {
        Bound::Pwe(t) => (Mode::Pwe, t, "tolerance"),
        Bound::Bpp(r) => (Mode::Bpp, r, "bitrate"),
        // §VII extension: average-error-targeted compression via the
        // near-orthogonality of the transform.
        Bound::Psnr(p) => (Mode::Rmse, p, "PSNR target"),
    };
    if !(value > 0.0) || !value.is_finite() {
        return Err(CompressError::Invalid(format!("invalid {what} {value}")));
    }
    Ok((mode, value))
}

fn check_bpp(bpp: f64) -> Result<(), CompressError> {
    parse_bound(Bound::Bpp(bpp)).map(|_| ())
}

/// Per-chunk SPECK byte budgets for a uniform `bpp` target, net of the
/// amortized chunk-table overhead (shared by previews and transcodes so
/// the two stay bit-identical).
fn bpp_budgets(grid: &[ChunkSpec], bpp: f64) -> Vec<usize> {
    grid.iter().map(|spec| ((bpp * spec.len() as f64) as usize / 8).saturating_sub(26)).collect()
}

/// Decode-side statistics: stream geometry plus parse and chunk times.
pub(crate) fn decode_stats(
    ps: &ParsedStream,
    stream_len: usize,
    chunk_times: &StageTimes,
) -> CompressionStats {
    let mut stats = CompressionStats {
        num_points: ps.header.dims.iter().product(),
        num_chunks: ps.entries.len(),
        container_bytes: ps.container_len(),
        output_bytes: stream_len,
        stage_times: ps.times,
        ..CompressionStats::default()
    };
    stats.stage_times.accumulate(chunk_times);
    stats
}

/// Outcome of one chunk in [`Sperr::decompress_resilient`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkStatus {
    /// Decoded normally.
    Ok,
    /// The v2 payload checksum failed; the chunk was not decoded.
    ChecksumMismatch,
    /// The payload passed its checksum (or the stream is v1) but the
    /// coders rejected it.
    DecodeFailed(CompressError),
}

impl ChunkStatus {
    /// The outcome a strict caller reports for chunk `id`: `Ok` passes,
    /// a failure becomes its typed error.
    pub(crate) fn into_result(self, id: usize) -> Result<(), CompressError> {
        match self {
            ChunkStatus::Ok => Ok(()),
            ChunkStatus::ChecksumMismatch => {
                Err(CompressError::Corrupt(format!("chunk {id} payload checksum mismatch")))
            }
            ChunkStatus::DecodeFailed(e) => Err(e),
        }
    }
}

/// Per-chunk outcomes of a resilient decode.
#[derive(Debug, Clone)]
pub struct ResilientReport {
    /// One status per chunk, in chunk-grid order.
    pub statuses: Vec<ChunkStatus>,
}

impl ResilientReport {
    /// True when every chunk decoded cleanly.
    pub fn all_ok(&self) -> bool {
        self.statuses.iter().all(|s| matches!(s, ChunkStatus::Ok))
    }

    /// Indices of chunks that failed (either way).
    pub fn failed_chunks(&self) -> Vec<usize> {
        self.statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| !matches!(s, ChunkStatus::Ok))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Per-chunk outcomes of a region decode (see [`Sperr::decode_region`]).
/// Only the chunks intersecting the requested bbox appear; `chunk_ids[i]`
/// names the grid index `statuses[i]` refers to.
#[derive(Debug, Clone)]
pub struct RegionReport {
    /// Grid indices of the chunks that intersect the region, ascending.
    pub chunk_ids: Vec<usize>,
    /// One status per intersecting chunk, parallel to `chunk_ids`.
    pub statuses: Vec<ChunkStatus>,
    /// Whether the stream carried a chunk index (container v3), validated
    /// against the chunk table at parse time. Either way the payload
    /// offsets are the same; v1/v2 streams simply derive them from the
    /// chunk table alone.
    pub used_index: bool,
}

impl RegionReport {
    /// True when every intersecting chunk decoded cleanly.
    pub fn all_ok(&self) -> bool {
        self.statuses.iter().all(|s| matches!(s, ChunkStatus::Ok))
    }
}

/// Result of a checksum-only integrity pass (see [`Sperr::verify`]).
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Container format version (1, 2 or 3).
    pub version: u8,
    /// Whether the stream carries checksums at all (v2 only).
    pub checksummed: bool,
    /// Number of chunks in the stream.
    pub n_chunks: usize,
    /// Indices of chunks whose payload CRC failed.
    pub corrupt_chunks: Vec<usize>,
}

impl VerifyReport {
    /// True when no checksum failed (vacuously true for v1 streams —
    /// check [`Self::checksummed`] to tell the difference).
    pub fn is_ok(&self) -> bool {
        self.corrupt_chunks.is_empty()
    }
}

/// Metadata describing a SPERR stream (see [`Sperr::inspect`]).
#[derive(Debug, Clone)]
pub struct StreamInfo {
    /// Full-resolution volume dimensions.
    pub dims: [usize; 3],
    /// Chunk extent used at compression time.
    pub chunk_dims: [usize; 3],
    /// Termination mode.
    pub mode: Mode,
    /// The bound's value: tolerance (PWE), bits-per-point (BPP) or PSNR
    /// target in dB (RMSE mode).
    pub bound_value: f64,
    /// Number of chunks.
    pub n_chunks: usize,
    /// Source precision recorded in the header.
    pub precision: Precision,
    /// Whether the SPECK payload is f32-native (precision tag 2). When
    /// false with `precision == Single`, the stream is a legacy
    /// widen-at-ingest encode whose payload is f64.
    pub native_f32: bool,
    /// Whether the lossless post-pass was applied.
    pub lossless: bool,
    /// Total SPECK payload bytes across chunks.
    pub speck_bytes: usize,
    /// Total outlier payload bytes across chunks.
    pub outlier_bytes: usize,
    /// Container format version (1 = legacy, 2 = checksummed,
    /// 3 = checksummed + chunk index).
    pub version: u8,
    /// Byte offset of the first chunk payload *within the container*
    /// (add 1 for the outer flag byte when `lossless` is false; for
    /// lossless streams the container is not byte-addressable from the
    /// outside).
    pub payload_offset: usize,
    /// Per-chunk payload sizes (SPECK + outlier bytes), in chunk order.
    pub chunk_payload_sizes: Vec<usize>,
    /// The v3 chunk index (offset, length, grid coordinates, max error
    /// per chunk), validated against the chunk table; `None` for v1/v2.
    pub chunk_index: Option<Vec<ChunkIndexEntry>>,
}

impl LossyCompressor for Sperr {
    fn name(&self) -> &'static str {
        "SPERR"
    }

    fn supports(&self, bound: &Bound) -> bool {
        matches!(bound, Bound::Pwe(_) | Bound::Bpp(_) | Bound::Psnr(_))
    }

    fn compress(&self, field: &Field, bound: Bound) -> Result<Vec<u8>, CompressError> {
        self.compress_with_stats(field, bound).map(|(stream, _)| stream)
    }

    fn decompress(&self, stream: &[u8]) -> Result<Field, CompressError> {
        self.decompress_with_stats(stream).map(|(field, _)| field)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::OUTER_RAW;

    fn test_field(dims: [usize; 3]) -> Field {
        Field::from_fn(dims, |x, y, z| {
            (x as f64 * 0.3).sin() * 20.0 + (y as f64 * 0.2).cos() * 10.0 + z as f64 * 0.5
        })
    }

    fn raw_sperr() -> Sperr {
        Sperr::new(SperrConfig {
            chunk_dims: [16, 16, 16],
            lossless: false,
            ..SperrConfig::default()
        })
    }

    #[test]
    fn v1_stream_decodes_back_compat() {
        // Re-emit a freshly compressed stream in the legacy v1 layout and
        // check the reader still accepts it, byte-identically.
        let field = test_field([16, 16, 16]);
        let sperr = raw_sperr();
        let v2 = sperr.compress(&field, Bound::Pwe(1e-3)).unwrap();
        let legacy = sperr.downgrade_to_v1(&v2).unwrap();
        assert_eq!(legacy[0], OUTER_RAW);
        assert_eq!(crate::container::read_container(&legacy[1..]).unwrap().version, 1);
        assert_eq!(
            sperr.decompress(&legacy).unwrap().data,
            sperr.decompress(&v2).unwrap().data
        );
        assert_eq!(sperr.inspect(&legacy).unwrap().version, 1);
        let report = sperr.verify(&legacy).unwrap();
        assert!(!report.checksummed);
        assert!(report.is_ok());
    }

    #[test]
    fn resilient_decode_isolates_damaged_chunk() {
        // Two chunks; flip a byte inside the second chunk's payload. The
        // strict decoder must reject the stream, verify() must name the
        // chunk, and the resilient decoder must return chunk 0
        // bit-identical with chunk 1 zero-filled.
        let field = test_field([32, 16, 16]);
        let sperr = raw_sperr();
        let stream = sperr.compress(&field, Bound::Pwe(1e-3)).unwrap();
        let info = sperr.inspect(&stream).unwrap();
        assert_eq!(info.n_chunks, 2);
        let clean = sperr.decompress(&stream).unwrap();

        let mut bad = stream.clone();
        let target = 1 + info.payload_offset + info.chunk_payload_sizes[0] + 2;
        bad[target] ^= 0xFF;

        assert!(matches!(sperr.decompress(&bad), Err(CompressError::Corrupt(_))));
        assert_eq!(sperr.verify(&bad).unwrap().corrupt_chunks, vec![1]);

        let (rec, report) = sperr.decompress_resilient(&bad).unwrap();
        assert_eq!(report.statuses[0], ChunkStatus::Ok);
        assert_eq!(report.statuses[1], ChunkStatus::ChecksumMismatch);
        assert_eq!(report.failed_chunks(), vec![1]);
        assert!(!report.all_ok());
        // Chunk 0 spans x in 0..16; chunk 1 spans x in 16..32.
        for z in 0..16 {
            for y in 0..16 {
                for x in 0..32 {
                    let i = x + 32 * (y + 16 * z);
                    if x < 16 {
                        assert_eq!(rec.data[i], clean.data[i], "healthy chunk altered at {i}");
                    } else {
                        assert_eq!(rec.data[i], 0.0, "damaged chunk not neutral at {i}");
                    }
                }
            }
        }
        // An undamaged stream reports all chunks Ok and matches strict.
        let (rec2, report2) = sperr.decompress_resilient(&stream).unwrap();
        assert!(report2.all_ok());
        assert_eq!(rec2.data, clean.data);
    }

    #[test]
    fn stream_bytes_identical_across_thread_counts() {
        // The acceptance bar for the parallel overhaul: the container bytes
        // must not depend on the thread count, for multi-chunk volumes
        // (outer parallelism) and single-chunk volumes (intra-chunk
        // parallelism) alike, in every mode.
        for (dims, bound) in [
            ([32usize, 16, 16], Bound::Pwe(1e-3)), // 2 chunks
            ([20, 20, 20], Bound::Pwe(1e-3)),      // 1 chunk: intra-chunk path
            ([20, 20, 20], Bound::Bpp(2.0)),
            ([20, 20, 20], Bound::Psnr(60.0)),
        ] {
            let field = test_field(dims);
            let streams: Vec<Vec<u8>> = [1usize, 2, 4, 8]
                .iter()
                .map(|&t| {
                    Sperr::new(SperrConfig {
                        chunk_dims: [16, 16, 16],
                        lossless: false,
                        num_threads: t,
                        ..SperrConfig::default()
                    })
                    .compress(&field, bound)
                    .unwrap()
                })
                .collect();
            for (i, s) in streams.iter().enumerate().skip(1) {
                assert_eq!(&streams[0], s, "threads=1 vs threads={}", [1, 2, 4, 8][i]);
            }
            // Every decode surface is thread-count independent too.
            let case = format!("{dims:?} {bound:?}");
            assert_decode_surfaces_thread_independent(&streams[0], &case);
        }
    }

    /// Every f64 decode surface of `stream` at `threads` workers, as raw
    /// bits: strict; resilient on the clean stream and with chunk 1
    /// damaged; multi-resolution level 1; and a half-budget preview.
    fn decode_surfaces(stream: &[u8], threads: usize) -> Vec<Result<Vec<u64>, String>> {
        let sperr = Sperr::new(SperrConfig {
            chunk_dims: [16, 16, 16],
            num_threads: threads,
            lossless: false,
            ..SperrConfig::default()
        });
        let bits = |f: Result<Field, CompressError>| {
            f.map(|f| f.data.iter().map(|v| v.to_bits()).collect()).map_err(|e| e.to_string())
        };
        let info = sperr.inspect(stream).unwrap();
        let mut bad = stream.to_vec();
        bad[1 + info.payload_offset + info.chunk_payload_sizes[0] + 2] ^= 0xFF;
        let (clean, clean_report) = sperr.decompress_resilient(stream).unwrap();
        assert!(clean_report.all_ok());
        let (damaged, report) = sperr.decompress_resilient(&bad).unwrap();
        assert_eq!(report.failed_chunks(), vec![1]);
        let budgets: Vec<usize> = info.chunk_payload_sizes.iter().map(|s| s / 2).collect();
        // Multi-resolution may fail (a boundary chunk too thin for a
        // level); then it must fail the same way at every thread count.
        vec![
            bits(sperr.decompress(stream)),
            bits(Ok(clean)),
            bits(Ok(damaged)),
            bits(sperr.decompress_multires(stream, 1)),
            bits(sperr.decode_at_budgets(stream, &budgets)),
        ]
    }

    fn assert_decode_surfaces_thread_independent(stream: &[u8], case: &str) {
        let reference = decode_surfaces(stream, 1);
        for threads in [2usize, 4, 8] {
            let got = decode_surfaces(stream, threads);
            for (surface, (a, b)) in ["strict", "resilient", "damaged", "multires", "preview"]
                .iter()
                .zip(reference.iter().zip(&got))
            {
                assert!(a == b, "{surface} decode differs at {threads} threads ({case})");
            }
        }
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = SperrConfig::default();
        assert_eq!(cfg.chunk_dims, [256, 256, 256]); // §V-B default
        assert!((cfg.q_factor - 1.5).abs() < 1e-12); // §IV-D choice
        assert_eq!(cfg.kernel, Kernel::Cdf97);
        assert!(cfg.lossless); // §V: ZSTD stage on by default
        assert_eq!(cfg.container_version, 3); // indexed container
    }

    #[test]
    fn v3_index_recorded_and_pwe_max_err_exact() {
        // The default writer emits an indexed v3 stream whose per-chunk
        // max_err is the error a full decode actually shows.
        let field = test_field([32, 16, 16]);
        let sperr = raw_sperr();
        let t = 1e-3;
        let stream = sperr.compress(&field, Bound::Pwe(t)).unwrap();
        let info = sperr.inspect(&stream).unwrap();
        assert_eq!(info.version, 3);
        let index = info.chunk_index.expect("v3 stream must carry an index");
        assert_eq!(index.len(), 2);
        assert_eq!(index[0].coords, [0, 0, 0]);
        assert_eq!(index[1].coords, [1, 0, 0]);
        assert_eq!(index[0].offset, 0);
        assert_eq!(index[0].len as usize, info.chunk_payload_sizes[0]);
        assert_eq!(index[1].offset as usize, info.chunk_payload_sizes[0]);
        let rec = sperr.decompress(&stream).unwrap();
        // Per-chunk measured max error must equal the recorded one; chunk
        // 0 is x in 0..16, chunk 1 is x in 16..32.
        for (chunk, x_range) in [(0usize, 0..16usize), (1, 16..32)] {
            let mut measured = 0.0f64;
            for z in 0..16 {
                for y in 0..16 {
                    for x in x_range.clone() {
                        let i = x + 32 * (y + 16 * z);
                        measured = measured.max((rec.data[i] - field.data[i]).abs());
                    }
                }
            }
            assert_eq!(index[chunk].max_err, measured, "chunk {chunk}");
            assert!(index[chunk].max_err <= t);
        }
    }

    #[test]
    fn decode_region_seeks_v3_and_scans_legacy() {
        // The same bbox query must produce identical bytes from a v3
        // stream, its v2 downgrade and its v1 downgrade (both index-free),
        // with used_index reporting whether the stream carried an index.
        let field = test_field([40, 24, 16]);
        let sperr = raw_sperr();
        let v3 = sperr.compress(&field, Bound::Pwe(1e-3)).unwrap();
        let v2 = sperr.downgrade_to_v2(&v3).unwrap();
        let v1 = sperr.downgrade_to_v1(&v3).unwrap();
        assert_eq!(sperr.inspect(&v2).unwrap().version, 2);
        assert!(sperr.inspect(&v2).unwrap().chunk_index.is_none());
        let (lo, hi) = ([7usize, 3, 2], [25usize, 20, 13]);
        let (r3, rep3) = sperr.decode_region(&v3, lo, hi).unwrap();
        let (r2, rep2) = sperr.decode_region(&v2, lo, hi).unwrap();
        let (r1, rep1) = sperr.decode_region(&v1, lo, hi).unwrap();
        assert!(rep3.used_index);
        assert!(!rep2.used_index);
        assert!(!rep1.used_index);
        assert!(rep3.all_ok() && rep2.all_ok() && rep1.all_ok());
        assert_eq!(r3.data, r2.data);
        assert_eq!(r3.data, r1.data);
        // Bit-identical to the bbox slice of a full decompress.
        let full = sperr.decompress(&v3).unwrap();
        let rdims = [hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]];
        assert_eq!(r3.dims, rdims);
        for z in 0..rdims[2] {
            for y in 0..rdims[1] {
                for x in 0..rdims[0] {
                    let src = (x + lo[0]) + 40 * ((y + lo[1]) + 24 * (z + lo[2]));
                    let dst = x + rdims[0] * (y + rdims[1] * z);
                    assert_eq!(full.data[src].to_bits(), r3.data[dst].to_bits());
                }
            }
        }
        // Only the chunks the bbox touches get decoded.
        assert!(rep3.chunk_ids.len() < sperr.chunk_count([40, 24, 16]));
    }

    #[test]
    fn decode_region_contains_damage_to_touched_chunks() {
        // Damage inside the region: the damaged chunk's intersection is
        // zero-filled and reported; healthy chunks still decode. Damage
        // *outside* the region is invisible to the query.
        let field = test_field([32, 16, 16]);
        let sperr = raw_sperr();
        let stream = sperr.compress(&field, Bound::Pwe(1e-3)).unwrap();
        let info = sperr.inspect(&stream).unwrap();
        let mut bad = stream.clone();
        // Corrupt chunk 1 (x in 16..32).
        bad[1 + info.payload_offset + info.chunk_payload_sizes[0] + 2] ^= 0xFF;

        // Query only chunk 0: unaffected, and strict wrapper succeeds.
        let (r, rep) = sperr.decode_region(&bad, [0, 0, 0], [16, 16, 16]).unwrap();
        assert!(rep.all_ok());
        assert_eq!(rep.chunk_ids, vec![0]);
        assert_eq!(
            r.data,
            sperr.decompress_region(&stream, [0, 0, 0], [16, 16, 16]).unwrap().data
        );
        assert!(sperr.decompress_region(&bad, [0, 0, 0], [16, 16, 16]).is_ok());

        // Query spanning both: chunk 1's slice zero-filled + reported,
        // strict wrapper errors.
        let (r, rep) = sperr.decode_region(&bad, [12, 0, 0], [20, 16, 16]).unwrap();
        assert_eq!(rep.chunk_ids, vec![0, 1]);
        assert_eq!(rep.statuses[0], ChunkStatus::Ok);
        assert_eq!(rep.statuses[1], ChunkStatus::ChecksumMismatch);
        for z in 0..16 {
            for y in 0..16 {
                for x in 16..20 {
                    assert_eq!(r.data[(x - 12) + 8 * (y + 16 * z)], 0.0);
                }
            }
        }
        assert!(matches!(
            sperr.decompress_region(&bad, [12, 0, 0], [20, 16, 16]),
            Err(CompressError::Corrupt(_))
        ));
    }

    #[test]
    fn decode_at_bpp_matches_transcode_then_decompress() {
        // The in-place preview must be bit-identical to materializing the
        // transcoded stream and decoding it — same budget arithmetic, same
        // truncated decode.
        let field = test_field([32, 20, 16]);
        let sperr = raw_sperr();
        let stream = sperr.compress(&field, Bound::Pwe(1e-4)).unwrap();
        for bpp in [0.25, 1.0, 4.0] {
            let preview = sperr.decode_at_bpp(&stream, bpp).unwrap();
            let transcoded = sperr.transcode_to_bpp(&stream, bpp).unwrap();
            let reference = sperr.decompress(&transcoded).unwrap();
            assert_eq!(preview.dims, reference.dims);
            let identical = preview
                .data
                .iter()
                .zip(&reference.data)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(identical, "preview at {bpp} bpp diverges from transcode");
        }
        // Unlimited budgets reproduce the outlier-free reconstruction of
        // every chunk without error — truncation is never "corruption".
        let info = sperr.inspect(&stream).unwrap();
        let full = sperr.decode_at_budgets(&stream, &vec![usize::MAX; info.n_chunks]).unwrap();
        assert_eq!(full.dims, field.dims);
    }

    #[test]
    fn downgrade_to_v2_round_trips() {
        let field = test_field([24, 16, 16]);
        for lossless in [false, true] {
            let sperr = Sperr::new(SperrConfig {
                chunk_dims: [16, 16, 16],
                lossless,
                ..SperrConfig::default()
            });
            let v3 = sperr.compress(&field, Bound::Pwe(1e-3)).unwrap();
            let v2 = sperr.downgrade_to_v2(&v3).unwrap();
            assert_eq!(sperr.inspect(&v2).unwrap().version, 2);
            assert_eq!(sperr.decompress(&v2).unwrap().data, sperr.decompress(&v3).unwrap().data);
            // A v2-configured compressor produces that exact stream.
            let direct = Sperr::new(SperrConfig {
                chunk_dims: [16, 16, 16],
                lossless,
                container_version: 2,
                ..SperrConfig::default()
            })
            .compress(&field, Bound::Pwe(1e-3))
            .unwrap();
            assert_eq!(v2, direct, "downgrade differs from a native v2 encode");
        }
    }

    fn test_field_f32(dims: [usize; 3]) -> FieldOf<f32> {
        FieldOf::<f32>::from_fn(dims, |x, y, z| {
            (x as f64 * 0.3).sin() * 20.0 + (y as f64 * 0.2).cos() * 10.0 + z as f64 * 0.5
        })
    }

    #[test]
    fn f32_native_roundtrip_meets_pwe_bound() {
        let field = test_field_f32([32, 16, 16]);
        let sperr = raw_sperr();
        let t = 1e-3;
        let stream = sperr.compress_f32(&field, Bound::Pwe(t)).unwrap();
        let info = sperr.inspect(&stream).unwrap();
        assert_eq!(info.precision, Precision::Single);
        assert!(info.native_f32);

        let rec = sperr.decompress_f32(&stream).unwrap();
        assert_eq!(rec.dims, field.dims);
        assert_eq!(rec.precision, Precision::Single);
        // f32 arithmetic costs a few ulps on top of the nominal bound; the
        // slack is proportional to tolerance and magnitude (~30 max here).
        let slack = t * 1e-5 + 32.0 * 1e-5;
        for (a, b) in field.data.iter().zip(&rec.data) {
            assert!(
                (a - b).abs() as f64 <= t + slack,
                "PWE violated: {a} vs {b} (t = {t})"
            );
        }
    }

    #[test]
    fn f32_stream_decompresses_to_exact_widening() {
        // decompress() on a tag-2 stream must equal decompress_f32()
        // widened — the f64 surface never re-runs the math at f64.
        let field = test_field_f32([20, 20, 20]);
        let sperr = raw_sperr();
        let stream = sperr.compress_f32(&field, Bound::Pwe(1e-3)).unwrap();
        let narrow = sperr.decompress_f32(&stream).unwrap();
        let wide = sperr.decompress(&stream).unwrap();
        assert_eq!(wide.precision, Precision::Single);
        assert_eq!(wide.data.len(), narrow.data.len());
        for (w, n) in wide.data.iter().zip(&narrow.data) {
            assert_eq!(w.to_bits(), (*n as f64).to_bits());
        }
    }

    #[test]
    fn decompress_f32_rejects_non_native_stream() {
        let field = test_field([16, 16, 16]);
        let sperr = raw_sperr();
        let stream = sperr.compress(&field, Bound::Pwe(1e-3)).unwrap();
        assert!(matches!(
            sperr.decompress_f32(&stream),
            Err(CompressError::Invalid(_))
        ));
    }

    #[test]
    fn f32_stream_bytes_identical_across_thread_counts() {
        // Same determinism bar as the f64 path: container bytes must not
        // depend on the thread count at either sample width.
        for (dims, bound) in [
            ([32usize, 16, 16], Bound::Pwe(1e-3)), // 2 chunks
            ([20, 20, 20], Bound::Pwe(1e-3)),      // 1 chunk: intra-chunk path
            ([20, 20, 20], Bound::Bpp(2.0)),
            ([20, 20, 20], Bound::Psnr(60.0)),
        ] {
            let field = test_field_f32(dims);
            let streams: Vec<Vec<u8>> = [1usize, 2, 4, 8]
                .iter()
                .map(|&t| {
                    Sperr::new(SperrConfig {
                        chunk_dims: [16, 16, 16],
                        num_threads: t,
                        lossless: false,
                        ..SperrConfig::default()
                    })
                    .compress_f32(&field, bound)
                    .unwrap()
                })
                .collect();
            for s in &streams[1..] {
                assert_eq!(s, &streams[0], "f32 stream differs across threads ({dims:?})");
            }
            // Decode determinism too.
            let decodes: Vec<Vec<f32>> = [1usize, 2, 4, 8]
                .iter()
                .map(|&t| {
                    Sperr::new(SperrConfig {
                        chunk_dims: [16, 16, 16],
                        num_threads: t,
                        lossless: false,
                        ..SperrConfig::default()
                    })
                    .decompress_f32(&streams[0])
                    .unwrap()
                    .data
                })
                .collect();
            for d in &decodes[1..] {
                let same = d.iter().zip(&decodes[0]).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "f32 decode differs across threads ({dims:?})");
            }
            let case = format!("f32 {dims:?} {bound:?}");
            assert_decode_surfaces_thread_independent(&streams[0], &case);
        }
    }

    #[test]
    fn f32_stream_supports_all_f64_decode_surfaces() {
        // Region decode, resilient decode, transcode and budget previews
        // all accept tag-2 streams and agree with the widened full decode.
        let field = test_field_f32([32, 20, 16]);
        let sperr = raw_sperr();
        let stream = sperr.compress_f32(&field, Bound::Pwe(1e-4)).unwrap();
        let full = sperr.decompress(&stream).unwrap();

        // Region decode matches the same slice of the full decode.
        let region = sperr.decompress_region(&stream, [4, 2, 1], [20, 18, 9]).unwrap();
        for z in 1..9 {
            for y in 2..18 {
                for x in 4..20 {
                    let fi = x + 32 * (y + 20 * z);
                    let ri = (x - 4) + 16 * ((y - 2) + 16 * (z - 1));
                    assert_eq!(full.data[fi].to_bits(), region.data[ri].to_bits());
                }
            }
        }

        // Resilient decode of an undamaged stream matches strict.
        let (res, report) = sperr.decompress_resilient(&stream).unwrap();
        assert!(report.all_ok());
        assert_eq!(res.data, full.data);

        // Transcode preserves the native-f32 tag; the preview is
        // bit-identical to transcode-then-decompress.
        for bpp in [0.5, 2.0] {
            let transcoded = sperr.transcode_to_bpp(&stream, bpp).unwrap();
            assert!(sperr.inspect(&transcoded).unwrap().native_f32);
            let preview = sperr.decode_at_bpp(&stream, bpp).unwrap();
            let reference = sperr.decompress(&transcoded).unwrap();
            let same = preview
                .data
                .iter()
                .zip(&reference.data)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "tag-2 preview at {bpp} bpp diverges from transcode");
        }
    }

    #[test]
    fn f32_lossless_postpass_roundtrips() {
        let field = test_field_f32([20, 20, 20]);
        let sperr = Sperr::new(SperrConfig {
            chunk_dims: [16, 16, 16],
            lossless: true,
            ..SperrConfig::default()
        });
        let stream = sperr.compress_f32(&field, Bound::Pwe(1e-3)).unwrap();
        assert!(sperr.inspect(&stream).unwrap().native_f32);
        let raw = Sperr::new(SperrConfig {
            chunk_dims: [16, 16, 16],
            lossless: false,
            ..SperrConfig::default()
        })
        .compress_f32(&field, Bound::Pwe(1e-3))
        .unwrap();
        assert_eq!(
            sperr.decompress_f32(&stream).unwrap().data,
            sperr.decompress_f32(&raw).unwrap().data
        );
    }
}
