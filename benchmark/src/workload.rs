//! The three workloads: their seeded inputs, the timed closed loop
//! (one client; the next call starts when the previous one returns) and
//! the traced per-layer run.

use crate::job::{Case, Decoded, Job};
use crate::replay::{bit_equal, Bbox, Counts, Queries};
use crate::trace::{OpKind, Tracer};
use crate::util::{beyond, median, peak_rss_mb, quantile, Rng};
use sperr_compress_api::FieldOf;
use sperr_core::{chunk_grid, Sperr};
use sperr_datagen::{qmcpack_stack, SyntheticField};
use std::time::Instant;

/// Tolerance as a share of each field's range (t = 1e-4 · range).
const REL_TOLERANCE: f64 = 1e-4;
/// Preview rate in bits per value.
const PREVIEW_BPP: f64 = 1.0;
/// Region queries per `explore` round, between two previews.
const REGIONS_PER_ROUND: usize = 8;
/// `explore` compresses its field again every this many rounds (the
/// stream must equal the archive), so `compress_mb_s` has enough samples.
const REARCHIVE_EVERY: usize = 4;
/// Region queries and previews per round in `dump` and `stream_f32`,
/// which read their first stream back after writing.
const READBACK_REGIONS: usize = 10;
const READBACK_PREVIEWS: usize = 2;
/// Setups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Dump,
    Explore,
    StreamF32,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Dump, Workload::Explore, Workload::StreamF32];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Dump => "dump",
            Workload::Explore => "explore",
            Workload::StreamF32 => "stream_f32",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: the measured size, or a tiny one for the self-test.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    dump_dims: [usize; 3],
    /// `None` keeps the default 256³ chunks.
    dump_chunk: Option<[usize; 3]>,
    explore_dims: [usize; 3],
    explore_chunk: [usize; 3],
    region_edge: usize,
    orbitals: usize,
    /// Region queries an `explore` run takes at least, so that ten or
    /// more lie beyond p90.
    min_regions: usize,
}

const FULL: Sizes = Sizes {
    dump_dims: [512, 64, 64],
    dump_chunk: None,
    explore_dims: [128, 128, 128],
    explore_chunk: [64, 64, 64],
    region_edge: 16,
    orbitals: 8,
    min_regions: 110,
};

const SMOKE: Sizes = Sizes {
    dump_dims: [32, 16, 16],
    dump_chunk: Some([16, 16, 16]),
    explore_dims: [32, 32, 32],
    explore_chunk: [16, 16, 16],
    region_edge: 8,
    orbitals: 2,
    min_regions: 4,
};

/// Run options, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Opts {
    fn sizes(&self) -> Sizes {
        if self.smoke {
            SMOKE
        } else {
            FULL
        }
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Run description: sample counts and per-case configuration.
    pub notes: Vec<(String, String)>,
    /// Recorded spans (traced run only).
    pub spans: Option<String>,
}

fn metric(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.to_string(),
        value,
        unit,
    });
}

/// One workload's inputs, ready to run: the fields and, for `explore`,
/// the archived stream.
struct Setup {
    jobs: Vec<Box<dyn Job>>,
    sperrs: Vec<Sperr>,
    /// `explore`: the stream compressed during setup.
    archive: Option<Vec<u8>>,
    /// `explore`: seconds the setup compress took.
    archive_secs: f64,
}

/// The generator of the `k`-th field's variant for run seed `seed`.
fn field_rng(seed: u64, k: u64) -> Rng {
    Rng::new(Rng::new(seed ^ k.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64())
}

/// A seeded variant of a `dims` volume: mirrored along a random set of
/// axes and, if `periodic`, rolled cyclically by a random offset along
/// each axis. Range, histogram and spectrum stay those of `data`; every
/// value moves relative to the chunk grid.
fn remap<T: Copy>(data: &[T], dims: [usize; 3], rng: &mut Rng, periodic: bool) -> Vec<T> {
    let mut axes = [(0, false); 3];
    for d in 0..3 {
        let shift = if periodic { rng.below(dims[d]) } else { 0 };
        axes[d] = (shift, rng.below(2) == 1);
    }
    let src = |d: usize, i: usize| {
        let (shift, flip) = axes[d];
        let j = (i + shift) % dims[d];
        if flip {
            dims[d] - 1 - j
        } else {
            j
        }
    };
    let xs: Vec<usize> = (0..dims[0]).map(|x| src(0, x)).collect();
    let mut out = Vec::with_capacity(data.len());
    for z in 0..dims[2] {
        for y in 0..dims[1] {
            let row = dims[0] * (src(1, y) + dims[1] * src(2, z));
            out.extend(xs.iter().map(|&x| data[row + x]));
        }
    }
    out
}

/// Field `k` of a workload: one fixed realization of the generator
/// (its seed is `k`), remapped by the run seed. The generator's fields
/// are periodic when every extent is a power of two, as for all rolled
/// fields here. The byte and accuracy metrics then measure the codec,
/// not the draw: a different realization changes them by a few percent.
fn field(f: SyntheticField, dims: [usize; 3], seed: u64, k: u64) -> FieldOf<f64> {
    let mut v = f.generate(dims, k);
    v.data = remap(&v.data, dims, &mut field_rng(seed, k), true);
    v
}

/// A fixed stack of `n` QMCPACK orbitals (one chunk each), shuffled and
/// each mirrored by the run seed. Orbitals are not periodic, so they are
/// not rolled.
fn orbitals(n: usize, seed: u64, k: u64) -> FieldOf<f64> {
    let stack = qmcpack_stack(n, k);
    let rng = &mut field_rng(seed, k);
    let dims = [stack.dims[0], stack.dims[1], stack.dims[2] / n];
    let per = stack.data.len() / n;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let data = order
        .iter()
        .flat_map(|&o| remap(&stack.data[o * per..(o + 1) * per], dims, rng, false));
    FieldOf {
        data: data.collect(),
        ..stack
    }
}

fn setup(opts: &Opts) -> Result<Setup, String> {
    let sz = opts.sizes();
    let seed = opts.seed;
    let jobs: Vec<Box<dyn Job>> = match opts.workload {
        Workload::Dump => {
            let d = sz.dump_dims;
            let chunk = sz
                .dump_chunk
                .unwrap_or(sperr_core::SperrConfig::default().chunk_dims);
            let gen = |f: SyntheticField, k| field(f, d, seed, k);
            vec![
                Box::new(Case::new(
                    "miranda_pressure",
                    gen(SyntheticField::MirandaPressure, 1),
                    REL_TOLERANCE,
                    chunk,
                    false,
                )),
                Box::new(Case::new(
                    "nyx_density",
                    gen(SyntheticField::NyxDarkMatterDensity, 2).narrow_lossy(),
                    REL_TOLERANCE,
                    chunk,
                    false,
                )),
                Box::new(Case::new(
                    "miranda_viscosity",
                    gen(SyntheticField::MirandaViscosity, 3),
                    REL_TOLERANCE,
                    chunk,
                    false,
                )),
            ]
        }
        Workload::Explore => vec![Box::new(Case::new(
            "miranda_pressure",
            field(SyntheticField::MirandaPressure, sz.explore_dims, seed, 1),
            REL_TOLERANCE,
            sz.explore_chunk,
            false,
        ))],
        Workload::StreamF32 => vec![Box::new(Case::new(
            "qmcpack",
            orbitals(sz.orbitals, seed, 4).narrow_lossy(),
            REL_TOLERANCE,
            [69, 69, 115],
            true,
        ))],
    };
    let sperrs: Vec<Sperr> = jobs.iter().map(|j| j.sperr(0)).collect();
    let (mut archive, mut archive_secs) = (None, 0.0);
    if opts.workload == Workload::Explore {
        let (secs, r) = jobs[0].compress(&sperrs[0]);
        archive = Some(r.map_err(|e| format!("setup compress failed: {e}"))?);
        archive_secs = secs;
    }
    Ok(Setup {
        jobs,
        sperrs,
        archive,
        archive_secs,
    })
}

fn random_box(rng: &mut Rng, dims: [usize; 3], edge: usize) -> Bbox {
    let mut lo = [0; 3];
    let mut hi = [0; 3];
    for d in 0..3 {
        let e = edge.min(dims[d]);
        lo[d] = rng.below(dims[d] - e + 1);
        hi[d] = lo[d] + e;
    }
    (lo, hi)
}

/// A random `edge`³ box inside one random chunk: a read-back query that
/// always decodes exactly one chunk, so its latency has one mode.
fn random_box_in_chunk(
    rng: &mut Rng,
    dims: [usize; 3],
    chunk_dims: [usize; 3],
    edge: usize,
) -> Bbox {
    let grid = chunk_grid(dims, chunk_dims);
    let spec = grid[rng.below(grid.len())];
    let mut lo = [0; 3];
    let mut hi = [0; 3];
    for d in 0..3 {
        let e = edge.min(spec.dims[d]);
        lo[d] = spec.offset[d] + rng.below(spec.dims[d] - e + 1);
        hi[d] = lo[d] + e;
    }
    (lo, hi)
}

/// Operation tallies and latency samples of a timed run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Seconds of each compress and full decompress call, per case.
    compress_s: Vec<Vec<f64>>,
    decompress_s: Vec<Vec<f64>>,
    region_ms: Vec<f64>,
    preview_ms: Vec<f64>,
}

impl Tally {
    /// Counts one operation; a failure is reported and counted, never
    /// dropped.
    fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        if let Err(e) = &r {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("failed {what}: {e}");
            }
        }
        r.ok()
    }

    /// One `decode_region` at a random box, checked bit for bit against
    /// the same box of the stream's full decode.
    fn region(&mut self, job: &dyn Job, s: &Sperr, stream: &[u8], full: &Decoded, bbox: Bbox) {
        let t0 = Instant::now();
        let r = s.decode_region(stream, bbox.0, bbox.1);
        self.region_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let r = r.map_err(|e| e.to_string()).and_then(|(f, report)| {
            if !report.all_ok() {
                Err("chunk statuses not all ok".into())
            } else if !bit_equal(&f.data, &full.cut(job.dims(), bbox)) {
                Err(format!("region {bbox:?} differs from the full decode"))
            } else {
                Ok(())
            }
        });
        self.record(&format!("{} decode_region", job.label()), r);
    }

    /// One `decode_at_bpp` preview, checked for its extent and finite
    /// values (previews carry no error bound).
    fn preview(&mut self, job: &dyn Job, s: &Sperr, stream: &[u8]) -> Option<Vec<f64>> {
        let t0 = Instant::now();
        let r = s.decode_at_bpp(stream, PREVIEW_BPP);
        self.preview_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let r = r.map_err(|e| e.to_string()).and_then(|f| {
            if f.dims != job.dims() || f.data.len() != job.values() {
                Err("preview has the wrong extent".into())
            } else if !f.data.iter().all(|v| v.is_finite()) {
                Err("preview has non-finite values".into())
            } else {
                Ok(f.data)
            }
        });
        self.record(&format!("{} decode_at_bpp", job.label()), r)
    }

    /// A compress and its checked full decompress of case `k`; returns
    /// the stream and the decode when both succeeded.
    fn roundtrip(&mut self, k: usize, job: &dyn Job, s: &Sperr) -> Option<(Vec<u8>, Decoded)> {
        let (secs, r) = job.compress(s);
        self.compress_s[k].push(secs);
        let stream = self.record(&format!("{} compress", job.label()), r)?;
        let decoded = self.decompress(k, job, s, &stream)?;
        Some((stream, decoded))
    }

    /// A checked full decompress of case `k`.
    fn decompress(&mut self, k: usize, job: &dyn Job, s: &Sperr, stream: &[u8]) -> Option<Decoded> {
        let (secs, r) = job.decompress(s, stream);
        self.decompress_s[k].push(secs);
        let decoded = r.and_then(|d| job.check(&d).map(|()| d));
        self.record(&format!("{} decompress", job.label()), decoded)
    }
}

/// MB per second of one pass over every case, each case's call taking
/// its median time: robust to a burst of load hitting one call.
fn rate_mb_s(jobs: &[Box<dyn Job>], secs: &[Vec<f64>]) -> f64 {
    let bytes: usize = jobs.iter().map(|j| j.values() * j.width()).sum();
    let total: f64 = secs
        .iter()
        .map(|s| if s.is_empty() { f64::NAN } else { median(s) })
        .sum();
    bytes as f64 / 1e6 / total
}

/// Compressed bits per value over every case and their mean PSNR, from
/// each case's stream length and PSNR.
fn quality(jobs: &[Box<dyn Job>], cases: &[(usize, f64)]) -> (f64, f64) {
    let bits: usize = cases.iter().map(|&(len, _)| len * 8).sum();
    let values: usize = jobs.iter().map(|j| j.values()).sum();
    let psnr = cases.iter().map(|&(_, p)| p).sum::<f64>() / cases.len() as f64;
    (bits as f64 / values as f64, psnr)
}

fn describe(opts: &Opts, setup: &Setup) -> Result<Vec<(String, String)>, String> {
    let nproc = crate::util::nproc();
    let mut notes = Vec::new();
    for (job, s) in setup.jobs.iter().zip(&setup.sperrs) {
        let cfg = s.config();
        let workers = s.effective_workers(job.dims());
        if cfg.num_threads > nproc || workers > nproc {
            return Err(format!(
                "{}: {workers} workers configured on a {nproc}-core host",
                job.label()
            ));
        }
        notes.push((
            format!("case.{}", job.label()),
            format!(
                "{{\"dims\":{:?},\"chunk_dims\":{:?},\"chunk_count\":{},\"effective_workers\":{},\"num_threads\":{},\"lossless\":{},\"container_version\":{},\"bytes_per_value\":{}}}",
                job.dims(),
                cfg.chunk_dims,
                s.chunk_count(job.dims()),
                workers,
                cfg.num_threads,
                cfg.lossless,
                cfg.container_version,
                job.width()
            ),
        ));
    }
    notes.push(("smoke".into(), opts.smoke.to_string()));
    Ok(notes)
}

/// The timed run: end-to-end metrics.
pub fn timed(opts: &Opts) -> Result<Outcome, String> {
    let sz = opts.sizes();
    let mut setup_secs = Vec::new();
    let mut archive_secs = Vec::new();
    let mut st = None;
    for _ in 0..if opts.smoke { 2 } else { SETUPS } {
        drop(st.take());
        let t0 = Instant::now();
        let s = setup(opts)?;
        setup_secs.push(t0.elapsed().as_secs_f64());
        if s.archive.is_some() {
            archive_secs.push(s.archive_secs);
        }
        st = Some(s);
    }
    let st = st.expect("at least one setup");
    let mut notes = describe(opts, &st)?;
    let mut rng = Rng::new(opts.seed ^ 0x5EED_5EED_5EED_5EED);
    let n_jobs = st.jobs.len();
    let mut tally = Tally {
        compress_s: vec![Vec::new(); n_jobs],
        decompress_s: vec![Vec::new(); n_jobs],
        ..Tally::default()
    };
    let mut rounds = 0usize;
    let mut quality_stats = None;
    let t_start = Instant::now();
    let (first, s0) = (st.jobs[0].as_ref(), &st.sperrs[0]);
    let bbox = |rng: &mut Rng| random_box(rng, first.dims(), sz.region_edge);

    match opts.workload {
        Workload::Dump | Workload::StreamF32 => {
            // Write every case; read the first one back right after its
            // write. Each case's stream and decode are dropped before the
            // next call, so the harness holds one decode at a time.
            while rounds == 0 || t_start.elapsed().as_secs_f64() < opts.seconds {
                let mut cases = Vec::new();
                for k in 0..n_jobs {
                    let (job, s) = (st.jobs[k].as_ref(), &st.sperrs[k]);
                    let Some((stream, decoded)) = tally.roundtrip(k, job, s) else {
                        continue;
                    };
                    if k == 0 {
                        for _ in 0..READBACK_REGIONS {
                            let chunk_dims = s0.config().chunk_dims;
                            let bbox = random_box_in_chunk(
                                &mut rng,
                                first.dims(),
                                chunk_dims,
                                sz.region_edge,
                            );
                            tally.region(first, s0, &stream, &decoded, bbox);
                        }
                        for _ in 0..READBACK_PREVIEWS {
                            tally.preview(first, s0, &stream);
                        }
                    }
                    if quality_stats.is_none() {
                        cases.push((stream.len(), job.psnr(&decoded)));
                    }
                }
                if cases.len() == n_jobs {
                    quality_stats = Some(quality(&st.jobs, &cases));
                }
                rounds += 1;
            }
        }
        Workload::Explore => {
            let archive = st.archive.as_deref().expect("explore archives in setup");
            // The reference every region is checked against; untimed.
            let (_, r) = first.decompress(s0, archive);
            let reference = r.and_then(|d| first.check(&d).map(|()| d))?;
            quality_stats = Some(quality(
                &st.jobs,
                &[(archive.len(), first.psnr(&reference))],
            ));
            while rounds == 0
                || t_start.elapsed().as_secs_f64() < opts.seconds
                || tally.region_ms.len() < sz.min_regions
            {
                for _ in 0..REGIONS_PER_ROUND {
                    tally.region(first, s0, archive, &reference, bbox(&mut rng));
                }
                tally.preview(first, s0, archive);
                tally.decompress(0, first, s0, archive);
                if rounds % REARCHIVE_EVERY == REARCHIVE_EVERY - 1 {
                    let (secs, r) = first.compress(s0);
                    tally.compress_s[0].push(secs);
                    let same = r.and_then(|b| {
                        (b == archive)
                            .then_some(())
                            .ok_or("re-archived stream differs".to_string())
                    });
                    tally.record(&format!("{} compress", first.label()), same);
                }
                rounds += 1;
            }
            tally.compress_s[0].extend(archive_secs);
        }
    }
    let measured = t_start.elapsed().as_secs_f64();
    let (bits_per_value, psnr) = quality_stats.ok_or("no round completed every call")?;
    let mut m = Vec::new();
    let pct = |xs: &[f64], p| {
        if xs.is_empty() {
            f64::NAN
        } else {
            quantile(xs, p)
        }
    };
    metric(&mut m, "setup_s", median(&setup_secs), "s");
    metric(
        &mut m,
        "compress_mb_s",
        rate_mb_s(&st.jobs, &tally.compress_s),
        "MB/s",
    );
    metric(
        &mut m,
        "decompress_mb_s",
        rate_mb_s(&st.jobs, &tally.decompress_s),
        "MB/s",
    );
    metric(&mut m, "region_ms_p50", pct(&tally.region_ms, 0.5), "ms");
    metric(&mut m, "region_ms_p90", pct(&tally.region_ms, 0.9), "ms");
    metric(&mut m, "preview_ms_p50", pct(&tally.preview_ms, 0.5), "ms");
    metric(&mut m, "bits_per_value", bits_per_value, "bit");
    metric(&mut m, "psnr_db", psnr, "dB");
    metric(
        &mut m,
        "peak_rss_mb",
        peak_rss_mb().unwrap_or(f64::NAN),
        "MB",
    );
    notes.push((
        "samples".into(),
        format!(
            "{{\"measured_s\":{measured},\"rounds\":{rounds},\"setups\":{},\"compress_per_case\":{},\"decompress_per_case\":{},\"regions\":{},\"regions_beyond_p90\":{},\"previews\":{}}}",
            setup_secs.len(),
            tally.compress_s[0].len(),
            tally.decompress_s[0].len(),
            tally.region_ms.len(),
            beyond(&tally.region_ms, 0.9),
            tally.preview_ms.len()
        ),
    ));
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        notes,
        spans: None,
    })
}

/// Production outputs of one case in the traced run.
struct Production {
    stream: Vec<u8>,
    full: Decoded,
    previews: Vec<Vec<f64>>,
}

/// Runs a case's operations through `Sperr` with `s`; returns the
/// outputs and the summed seconds of the calls.
fn production(
    job: &dyn Job,
    s: &Sperr,
    q: &Queries,
    tally: &mut Tally,
) -> Result<(Production, f64), String> {
    let (c_secs, stream) = job.compress(s);
    let stream = stream?;
    let (d_secs, full) = job.decompress(s, &stream);
    let full = full.and_then(|d| job.check(&d).map(|()| d))?;
    let mut secs = c_secs + d_secs;
    let (n_regions, n_previews) = (tally.region_ms.len(), tally.preview_ms.len());
    for &bbox in &q.regions {
        tally.region(job, s, &stream, &full, bbox);
    }
    let mut previews = Vec::new();
    for _ in 0..q.previews {
        previews.push(tally.preview(job, s, &stream).ok_or("preview failed")?);
    }
    secs += tally.region_ms[n_regions..]
        .iter()
        .chain(&tally.preview_ms[n_previews..])
        .sum::<f64>()
        / 1e3;
    Ok((
        Production {
            stream,
            full,
            previews,
        },
        secs,
    ))
}

/// The traced run: per-layer metrics.
pub fn traced(opts: &Opts) -> Result<Outcome, String> {
    let sz = opts.sizes();
    let st = setup(opts)?;
    let mut notes = describe(opts, &st)?;
    let mut rng = Rng::new(opts.seed ^ 0x7ACE_7ACE_7ACE_7ACE);
    // Reads replayed per case: enough to cover every read kind without
    // multiplying the replay's run time.
    let (n_regions, n_previews) = match opts.workload {
        Workload::Explore => (16, 2),
        _ => (2, 1),
    };
    let queries: Vec<Queries> = st
        .jobs
        .iter()
        .map(|j| Queries {
            full: true,
            regions: (0..n_regions)
                .map(|_| random_box(&mut rng, j.dims(), sz.region_edge))
                .collect(),
            previews: n_previews,
            preview_bpp: PREVIEW_BPP,
        })
        .collect();

    // Production calls at nproc and at one thread, after one untimed
    // warm-up round that pays the process's cold costs (page faults,
    // allocator growth). Two pairs per case, the first nproc-first and
    // the second 1-thread-first, so neither side always runs warmer.
    // The outputs must not depend on the thread count.
    let mut tally = Tally::default();
    let (mut t_n, mut t_1) = (0.0, 0.0);
    let mut prods = Vec::new();
    for ((job, s), q) in st.jobs.iter().zip(&st.sperrs).zip(&queries) {
        let (p, _) = production(job.as_ref(), s, q, &mut tally)?;
        let one = job.sperr(1);
        for order in [[false, true], [true, false]] {
            for single in order {
                let (p1, secs) =
                    production(job.as_ref(), if single { &one } else { s }, q, &mut tally)?;
                *(if single { &mut t_1 } else { &mut t_n }) += secs;
                if p1.stream != p.stream {
                    return Err(format!(
                        "{}: {}-thread stream differs from the warm-up stream",
                        job.label(),
                        if single {
                            1
                        } else {
                            s.effective_workers(job.dims())
                        }
                    ));
                }
            }
        }
        prods.push(p);
    }
    if tally.failed > 0 {
        return Err(format!("{} production calls failed", tally.failed));
    }
    let inspect_ms: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let r = st.sperrs[0].inspect(&prods[0].stream);
            std::hint::black_box(r.is_ok());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    // Replays: untraced, traced, untraced again (so drift over the run
    // cancels in the overhead figure); the traced one is verified.
    let replay_all = |tr: &mut Tracer| -> Result<(f64, Vec<crate::replay::ReplayOut>), String> {
        let t0 = Instant::now();
        let mut outs = Vec::new();
        for ((job, q), p) in st.jobs.iter().zip(&queries).zip(&prods) {
            outs.push(job.replay(tr, &p.stream, q)?);
        }
        Ok((t0.elapsed().as_secs_f64(), outs))
    };
    let (before, _) = replay_all(&mut Tracer::new(false))?;
    let mut tr = Tracer::new(true);
    let (w_traced, outs) = replay_all(&mut tr)?;
    let (after, _) = replay_all(&mut Tracer::new(false))?;
    let w_untraced = (before + after) / 2.0;
    let mut counts = Counts::default();
    for (((job, q), p), out) in st.jobs.iter().zip(&queries).zip(&prods).zip(&outs) {
        job.verify(&p.stream, q, out, &p.full, &p.previews)?;
        counts.add(&out.counts);
    }
    let simd = st.jobs[0].simd();

    let c = &counts;
    let all: &[OpKind] = &[];
    let secs = |name: &str, kinds: &[OpKind]| tr.total(name, kinds).0;
    let mb_s = |name: &str| {
        let (s, b) = tr.total(name, all);
        b as f64 / 1e6 / s
    };
    let leaves: f64 = tr.leaves().map(|s| s.secs()).sum();
    let compress = &[OpKind::Compress];
    let locate = [
        "speck.reconstruct_quantized",
        "wavelet.inverse_3d",
        "outlier.scan",
    ]
    .iter()
    .map(|n| secs(n, compress))
    .sum();
    let per_layer = [
        (
            "lossless.compress.busy_s",
            secs("lossless.compress", all),
            "s",
        ),
        (
            "lossless.saved_frac",
            1.0 - c.lossless_out as f64 / c.lossless_in as f64,
            "frac",
        ),
        (
            "lossless.decompress.busy_s",
            secs("lossless.decompress", all),
            "s",
        ),
        (
            "lossless.inflated_bytes_per_query",
            c.inflated as f64 / c.reads as f64,
            "bytes",
        ),
        ("speck.encode.mb_s", mb_s("speck.encode"), "MB/s"),
        ("speck.decode.mb_s", mb_s("speck.decode"), "MB/s"),
        ("speck.planes", c.planes as f64 / c.chunks as f64, "count"),
        (
            "speck.bits_per_coeff",
            c.speck_bits as f64 / c.coeffs as f64,
            "bit",
        ),
        (
            "speck.significance_frac",
            c.significance_bits as f64 / c.speck_bits as f64,
            "frac",
        ),
        ("wavelet.forward.mb_s", mb_s("wavelet.forward_3d"), "MB/s"),
        ("wavelet.inverse.mb_s", mb_s("wavelet.inverse_3d"), "MB/s"),
        ("outlier.locate.busy_s", locate, "s"),
        ("outlier.encode.busy_s", secs("outlier.encode", all), "s"),
        ("outlier.decode.busy_s", secs("outlier.decode", all), "s"),
        ("outlier.frac", c.outliers as f64 / c.coeffs as f64, "frac"),
        (
            "outlier.bytes_frac",
            c.outlier_bytes as f64 / (c.speck_bytes + c.outlier_bytes) as f64,
            "frac",
        ),
        ("core.other_s", t_1 - leaves, "s"),
        ("core.inspect_ms", median(&inspect_ms), "ms"),
        (
            "core.region.useful_frac",
            c.region_points as f64 / c.region_chunk_points as f64,
            "frac",
        ),
        ("pool.speedup", t_1 / t_n, "x"),
        ("trace.overhead_frac", w_traced / w_untraced - 1.0, "frac"),
    ];
    let mut m = Vec::new();
    for (name, value, unit) in per_layer {
        metric(&mut m, name, value, unit);
    }
    for k in &simd {
        metric(&mut m, &format!("simd.{}.gb_s", k.name), k.gb_s, "GB/s");
        metric(
            &mut m,
            &format!("simd.{}.vs_scalar", k.name),
            k.vs_scalar,
            "x",
        );
    }
    notes.push((
        "trace".into(),
        format!(
            "{{\"spans\":{},\"ops\":{},\"sperr_nproc_s\":{t_n},\"sperr_1thread_s\":{t_1},\"replay_traced_s\":{w_traced},\"replay_untraced_s\":{w_untraced},\"layer_s\":{leaves}}}",
            tr.spans.len(),
            tr.ops.len()
        ),
    ));
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        notes,
        spans: Some(tr.to_jsonl()),
    })
}
