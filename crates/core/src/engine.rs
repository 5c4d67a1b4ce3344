//! The one decode engine behind every SPERR read (DESIGN.md §17).
//!
//! Chunks decode independently (§III-D), so every read surface — full,
//! region, byte-budget preview, multi-resolution, resilient, streaming —
//! is the same per-chunk decode. Only the chunk set, the fidelity and the
//! damage policy differ. [`ParsedStream`] strips the outer framing and
//! parses the container once; a [`DecodePlan`] names the three axes; and
//! [`Sperr::decode_plan`] runs the plan's chunks on the worker pool at the
//! payload's native width, widening once, at assembly.

use std::borrow::Cow;
use std::time::Duration;

use crate::chunk::{chunk_grid, place_box, ChunkSpec};
use crate::compressor::{ChunkStatus, Sperr};
use crate::container::{
    read_container, write_container, ChunkEntry, ChunkIndexEntry, Header, Mode,
};
use crate::crc32::crc32;
use crate::pipeline::{ChunkDecode, ChunkEncoding, ScratchArena};
use crate::pool::WorkerPool;
use crate::stats::{stage_labels, StageTimes};
use sperr_compress_api::{CompressError, FieldOf};
use sperr_simd::Float;
use sperr_telemetry::timed;
use sperr_wavelet::{coarse_dims, levels_for_dims};

/// Outer stream framing: one flag byte telling whether the container is
/// wrapped by the lossless codec.
pub(crate) const OUTER_RAW: u8 = 0;
pub(crate) const OUTER_LOSSLESS: u8 = 1;

/// A SPERR stream with its outer framing stripped and its container
/// parsed — the one place either happens. Raw-framed input is borrowed,
/// not copied; lossless-framed input is inflated once.
pub(crate) struct ParsedStream<'a> {
    container: Cow<'a, [u8]>,
    /// Whether the lossless outer pass was on.
    pub lossless: bool,
    pub version: u8,
    pub header: Header,
    pub entries: Vec<ChunkEntry>,
    /// Per-chunk payload CRC-32s (v2+ streams).
    pub crcs: Option<Vec<u32>>,
    /// The v3 chunk index, validated against the chunk table.
    pub index: Option<Vec<ChunkIndexEntry>>,
    /// Byte offset of the first payload within the container.
    pub payload_start: usize,
    /// The chunk grid, one spec per chunk-table entry.
    pub grid: Vec<ChunkSpec>,
    offsets: Vec<usize>,
    /// PWE tolerance that scales the outlier thresholds (0 in BPP/RMSE).
    tolerance: f64,
    /// Parse cost: `lossless` (inflate, when framed lossless) and
    /// `container` (container parse).
    pub times: StageTimes,
}

impl<'a> ParsedStream<'a> {
    /// Strips the outer framing and parses the container. Header-level
    /// damage fails here; per-chunk damage is left to the plan's policy.
    pub fn parse(stream: &'a [u8]) -> Result<Self, CompressError> {
        let (&flag, rest) =
            stream.split_first().ok_or_else(|| CompressError::Corrupt("empty stream".into()))?;
        let (container, lossless_time) = timed(stage_labels::LOSSLESS_DECOMPRESS, || match flag {
            OUTER_RAW => Ok(Cow::Borrowed(rest)),
            OUTER_LOSSLESS => Ok(Cow::Owned(sperr_lossless::decompress(rest)?)),
            f => Err(CompressError::Corrupt(format!("unknown outer flag {f}"))),
        });
        let container = container?;
        let (parsed, container_time) =
            timed(stage_labels::CONTAINER_READ, || read_container(&container));
        let parsed = parsed?;
        let header = parsed.header;
        let grid = chunk_grid(header.dims, header.chunk_dims);
        if grid.len() != parsed.entries.len() {
            return Err(CompressError::Corrupt("chunk table size mismatch".into()));
        }
        // Payloads are stored back to back in chunk order; `read_container`
        // has checked they fit and that any v3 index agrees with this sum.
        let offsets = parsed
            .entries
            .iter()
            .scan(parsed.payload_start, |cursor, e| {
                let start = *cursor;
                *cursor += e.speck_len + e.outlier_len;
                Some(start)
            })
            .collect();
        let tolerance = match header.mode {
            Mode::Pwe => header.bound_value,
            Mode::Bpp | Mode::Rmse => 0.0,
        };
        let lossless = flag == OUTER_LOSSLESS;
        Ok(ParsedStream {
            container,
            lossless,
            version: parsed.version,
            header,
            entries: parsed.entries,
            crcs: parsed.chunk_crcs,
            index: parsed.index,
            payload_start: parsed.payload_start,
            grid,
            offsets,
            tolerance,
            times: StageTimes {
                lossless: if lossless { lossless_time } else { Duration::ZERO },
                container: container_time,
                ..StageTimes::default()
            },
        })
    }

    /// Container bytes (after the lossless pass is undone).
    pub fn container_len(&self) -> usize {
        self.container.len()
    }

    /// Chunk `i`'s payload: its SPECK stream followed by its outlier stream.
    pub fn payload(&self, i: usize) -> &[u8] {
        let e = &self.entries[i];
        &self.container[self.offsets[i]..self.offsets[i] + e.speck_len + e.outlier_len]
    }

    /// Whether chunk `i`'s payload matches its CRC (always true for v1
    /// streams, which carry none).
    pub fn crc_ok(&self, i: usize) -> bool {
        self.crcs.as_ref().is_none_or(|crcs| crc32(self.payload(i)) == crcs[i])
    }

    /// Strict integrity check: the first listed chunk failing its CRC
    /// fails the whole call.
    pub fn check_crcs(&self, chunks: impl IntoIterator<Item = usize>) -> Result<(), CompressError> {
        match chunks.into_iter().find(|&i| !self.crc_ok(i)) {
            Some(i) => ChunkStatus::ChecksumMismatch.into_result(i),
            None => Ok(()),
        }
    }

    /// Decodes chunk `i` at width `T`, keeping corrections only inside
    /// `keep` (chunk-local). `Err` carries the chunk's failure status;
    /// with `check_crc` a checksum mismatch skips the decode entirely.
    pub fn decode_chunk<T: Float>(
        &self,
        i: usize,
        fidelity: Fidelity,
        keep: Option<([usize; 3], [usize; 3])>,
        check_crc: bool,
        pool: &WorkerPool,
        arena: &mut ScratchArena<T>,
    ) -> Result<(Vec<T>, StageTimes), ChunkStatus> {
        if check_crc && !self.crc_ok(i) {
            return Err(ChunkStatus::ChecksumMismatch);
        }
        let e = &self.entries[i];
        let (speck, outlier) = self.payload(i).split_at(e.speck_len);
        // Previews truncate the embedded SPECK stream and skip the
        // outlier corrections, which are full-fidelity data.
        let (speck, outlier, level) = match fidelity {
            Fidelity::Full => (speck, outlier, 0),
            Fidelity::Budgets(b) => (&speck[..e.speck_len.min(b[i])], &[][..], 0),
            Fidelity::Level(level) => (speck, outlier, level),
        };
        let chunk = ChunkDecode {
            dims: self.grid[i].dims,
            entry: e,
            tolerance: self.tolerance,
            kernel: self.header.kernel,
            level,
            keep,
        };
        chunk.run(speck, outlier, pool, arena).map_err(ChunkStatus::DecodeFailed)
    }
}

/// Which chunks a plan decodes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Chunks {
    /// The whole volume.
    All,
    /// The chunks intersecting the half-open box `[lo, hi)`; the output
    /// is that box.
    BBox([usize; 3], [usize; 3]),
}

/// How much of each chunk a plan decodes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fidelity<'b> {
    /// Everything, outlier corrections included.
    Full,
    /// Each chunk's SPECK stream cut at its byte budget (one per chunk),
    /// without outlier corrections.
    Budgets(&'b [usize]),
    /// `1/2^level` resolution per axis (§VII); level 0 is `Full`.
    Level(usize),
}

/// What a damaged chunk does to a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OnDamage {
    /// Every planned chunk's CRC is verified before any decode, and the
    /// first failure (CRC, then decode, in chunk order) fails the call.
    Fail,
    /// A failing chunk is zero-filled and reported; the rest decode.
    Contain,
}

/// One read of a parsed stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodePlan<'b> {
    pub chunks: Chunks,
    pub fidelity: Fidelity<'b>,
    pub on_damage: OnDamage,
}

impl DecodePlan<'_> {
    /// The plain strict decode.
    pub const FULL: DecodePlan<'static> =
        DecodePlan { chunks: Chunks::All, fidelity: Fidelity::Full, on_damage: OnDamage::Fail };
}

/// What a plan returns: the assembled field plus per-chunk outcomes for
/// the decoded chunks, in chunk-grid order.
pub(crate) struct Decoded<O: Float> {
    pub field: FieldOf<O>,
    pub chunk_ids: Vec<usize>,
    pub statuses: Vec<ChunkStatus>,
    /// Summed per-chunk stage times, plus the strict CRC pass under
    /// `container`.
    pub times: StageTimes,
}

/// One chunk's share of a plan: which box of its decoded buffer (dims
/// `src_dims`) lands where in the output.
struct Job {
    chunk: usize,
    src_dims: [usize; 3],
    src: [[usize; 3]; 2],
    dst_lo: [usize; 3],
    /// Outlier-correction box for a chunk the region only partly covers.
    keep: Option<([usize; 3], [usize; 3])>,
}

/// Maps a plan's chunk set and resolution onto the grid: the output dims
/// and one job per touched chunk. At full resolution each chunk's box of
/// the region lands at its place in it; at `level > 0` (whole volume
/// only) each chunk's coarse approximation lands at its coarse offset.
fn layout(
    ps: &ParsedStream,
    chunks: Chunks,
    level: usize,
) -> Result<([usize; 3], Vec<Job>), CompressError> {
    let dims = ps.header.dims;
    let (lo, hi) = match chunks {
        Chunks::All => ([0; 3], dims),
        Chunks::BBox(lo, hi) if (0..3).any(|d| lo[d] >= hi[d] || hi[d] > dims[d]) => {
            return Err(CompressError::Invalid(format!(
                "region [{lo:?}, {hi:?}) out of bounds for dims {dims:?}"
            )));
        }
        Chunks::BBox(..) if level > 0 => {
            return Err(CompressError::Unsupported("region decode at a coarse resolution level"));
        }
        Chunks::BBox(lo, hi) => (lo, hi),
    };
    // Offsets are multiples of chunk_dims; they must stay aligned after
    // coarsening (single-chunk streams are always fine).
    let step = 1usize.checked_shl(level as u32).unwrap_or(0);
    let chunk_dims = ps.header.chunk_dims;
    if step == 0 || (ps.grid.len() > 1 && chunk_dims.iter().any(|&d| d % step != 0)) {
        return Err(CompressError::Invalid(format!(
            "chunk dims {chunk_dims:?} not divisible by 2^{level}"
        )));
    }
    let mut jobs = Vec::new();
    for (i, spec) in ps.grid.iter().enumerate() {
        let (o, n) = (spec.offset, spec.dims);
        let c_lo: [usize; 3] = std::array::from_fn(|d| lo[d].max(o[d]) - o[d]);
        let c_hi: [usize; 3] = std::array::from_fn(|d| hi[d].min(o[d] + n[d]).saturating_sub(o[d]));
        if (0..3).any(|d| c_lo[d] >= c_hi[d]) {
            continue; // chunk does not touch the region
        }
        jobs.push(if level == 0 {
            Job {
                chunk: i,
                src_dims: n,
                src: [c_lo, c_hi],
                dst_lo: std::array::from_fn(|d| o[d] + c_lo[d] - lo[d]),
                keep: (c_lo != [0; 3] || c_hi != n).then_some((c_lo, c_hi)),
            }
        } else {
            let cdims = coarse_dims(n, levels_for_dims(n), level);
            Job {
                chunk: i,
                src_dims: cdims,
                src: [[0; 3], cdims],
                dst_lo: o.map(|o| o / step),
                keep: None,
            }
        });
    }
    // Coarse volume geometry: iterated ceil-halving == ceil(n / 2^l).
    Ok((std::array::from_fn(|d| (hi[d] - lo[d]).div_ceil(step)), jobs))
}

impl Sperr {
    /// Runs `plan` over `ps` and assembles the output at width `O`. Chunks
    /// decode at the payload's native width (f32 for tag-2 streams) with
    /// one scratch arena per pool worker.
    pub(crate) fn decode_plan<O: Float>(
        &self,
        ps: &ParsedStream,
        plan: &DecodePlan,
    ) -> Result<Decoded<O>, CompressError> {
        if ps.header.native_f32 {
            self.run_plan::<f32, O>(ps, plan)
        } else {
            self.run_plan::<f64, O>(ps, plan)
        }
    }

    fn run_plan<T: Float, O: Float>(
        &self,
        ps: &ParsedStream,
        plan: &DecodePlan,
    ) -> Result<Decoded<O>, CompressError> {
        let level = match plan.fidelity {
            Fidelity::Level(level) => level,
            Fidelity::Full | Fidelity::Budgets(_) => 0,
        };
        let (out_dims, jobs) = layout(ps, plan.chunks, level)?;
        // Under `Fail`, every touched CRC is checked before any decode.
        let mut times = StageTimes::default();
        if plan.on_damage == OnDamage::Fail {
            let (checked, crc_time) =
                timed(stage_labels::CONTAINER_READ, || ps.check_crcs(jobs.iter().map(|j| j.chunk)));
            checked?;
            times.container = crc_time;
        }
        if let Fidelity::Budgets(budgets) = plan.fidelity {
            if budgets.len() != ps.entries.len() {
                return Err(CompressError::Invalid(format!(
                    "{} budgets for {} chunks",
                    budgets.len(),
                    ps.entries.len()
                )));
            }
        }

        let specs: Vec<ChunkSpec> = jobs.iter().map(|j| ps.grid[j.chunk]).collect();
        let check_crc = plan.on_damage == OnDamage::Contain;
        let decoded = self.map_chunks::<T, _>(&specs, |j, pool, arena, _| {
            let job = &jobs[j];
            ps.decode_chunk(job.chunk, plan.fidelity, job.keep, check_crc, pool, arena)
        });

        let mut data = vec![O::ZERO; out_dims.iter().product()];
        let mut statuses = Vec::with_capacity(jobs.len());
        for (job, result) in jobs.iter().zip(decoded) {
            match result {
                Ok((chunk, t)) => {
                    times.accumulate(&t);
                    place_box(&chunk, job.src_dims, job.src, &mut data, out_dims, job.dst_lo);
                    statuses.push(ChunkStatus::Ok);
                }
                Err(status) if plan.on_damage == OnDamage::Fail => status.into_result(job.chunk)?,
                Err(status) => statuses.push(status),
            }
        }
        Ok(Decoded {
            field: FieldOf::new(out_dims, data).with_precision(ps.header.precision),
            chunk_ids: jobs.iter().map(|j| j.chunk).collect(),
            statuses,
            times,
        })
    }
}

/// Outer framing: one flag byte, then the container — deflated by the
/// lossless pass when `lossless`. Returns the stream and the pass's time.
pub(crate) fn frame_outer(container: &[u8], lossless: bool) -> (Vec<u8>, Duration) {
    let (flag, body, time) = if lossless {
        let (packed, time) =
            timed(stage_labels::LOSSLESS_COMPRESS, || sperr_lossless::compress(container));
        (OUTER_LOSSLESS, Cow::Owned(packed), time)
    } else {
        (OUTER_RAW, Cow::Borrowed(container), Duration::ZERO)
    };
    let mut out = Vec::with_capacity(body.len() + 1);
    out.push(flag);
    out.extend_from_slice(&body);
    (out, time)
}

/// Re-serializes a parsed stream's chunk payloads under `header` at
/// container `version`, keeping its outer framing. With `budgets`, each
/// SPECK stream is cut at its chunk's byte budget and the outlier
/// corrections are dropped (a transcode); without, payloads are copied
/// byte for byte (a downgrade). Damaged input is refused: every CRC is
/// checked first.
pub(crate) fn reframe(
    ps: &ParsedStream,
    header: &Header,
    version: u8,
    budgets: Option<&[usize]>,
) -> Result<Vec<u8>, CompressError> {
    ps.check_crcs(0..ps.entries.len())?;
    let chunks: Vec<ChunkEncoding> = ps
        .entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let (speck, outlier) = ps.payload(i).split_at(e.speck_len);
            let (speck, outlier, max_n, num_outliers) = match budgets {
                Some(b) => (&speck[..e.speck_len.min(b[i])], &[][..], 0, 0),
                None => (speck, outlier, e.max_n, e.num_outliers),
            };
            ChunkEncoding {
                speck_stream: speck.to_vec(),
                outlier_stream: outlier.to_vec(),
                q: e.q,
                num_planes: e.num_planes,
                max_n,
                num_outliers,
                speck_bits: speck.len() * 8,
                outlier_bits: outlier.len() * 8,
                times: StageTimes::default(),
                coeff_sq_error: 0.0,
                // Truncation voids the recorded bound; v1/v2 cannot carry it.
                max_err: f64::NAN,
            }
        })
        .collect();
    Ok(frame_outer(&write_container(header, &chunks, version), ps.lossless).0)
}
