//! Volume chunking (§III-D): a big input volume is divided into smaller
//! chunks, each processed independently (and in parallel). The chunk size
//! need not divide the volume dimensions — boundary chunks are simply
//! smaller.

use sperr_simd::Float;

/// One chunk: offset and extent within the full volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Offset of the chunk's origin in the volume.
    pub offset: [usize; 3],
    /// Extent of the chunk.
    pub dims: [usize; 3],
}

impl ChunkSpec {
    /// Number of points in the chunk.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True when the chunk is empty (never produced by [`chunk_grid`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Partitions `volume_dims` into a grid of chunks of size at most
/// `chunk_dims`, ordered x-fastest. Always returns at least one chunk for
/// non-empty volumes.
pub fn chunk_grid(volume_dims: [usize; 3], chunk_dims: [usize; 3]) -> Vec<ChunkSpec> {
    assert!(volume_dims.iter().all(|&d| d > 0), "empty volume");
    assert!(chunk_dims.iter().all(|&d| d > 0), "empty chunk dims");
    let counts = [
        volume_dims[0].div_ceil(chunk_dims[0]),
        volume_dims[1].div_ceil(chunk_dims[1]),
        volume_dims[2].div_ceil(chunk_dims[2]),
    ];
    let mut out = Vec::with_capacity(counts.iter().product());
    for cz in 0..counts[2] {
        for cy in 0..counts[1] {
            for cx in 0..counts[0] {
                let offset = [cx * chunk_dims[0], cy * chunk_dims[1], cz * chunk_dims[2]];
                let dims = [
                    chunk_dims[0].min(volume_dims[0] - offset[0]),
                    chunk_dims[1].min(volume_dims[1] - offset[1]),
                    chunk_dims[2].min(volume_dims[2] - offset[2]),
                ];
                out.push(ChunkSpec { offset, dims });
            }
        }
    }
    out
}

/// Copies a chunk out of the row-major volume into a dense buffer.
pub fn extract_chunk<T: Copy>(volume: &[T], volume_dims: [usize; 3], spec: &ChunkSpec) -> Vec<T> {
    let mut out = Vec::with_capacity(spec.len());
    extract_chunk_into(volume, volume_dims, spec, &mut out);
    out
}

/// [`extract_chunk`] into a reusable buffer (cleared first, capacity kept)
/// — the per-chunk hot path extracts into a per-worker buffer instead of
/// allocating.
pub fn extract_chunk_into<T: Copy>(
    volume: &[T],
    volume_dims: [usize; 3],
    spec: &ChunkSpec,
    out: &mut Vec<T>,
) {
    out.clear();
    out.reserve(spec.len());
    for z in 0..spec.dims[2] {
        for y in 0..spec.dims[1] {
            let row_start = spec.offset[0]
                + volume_dims[0] * ((spec.offset[1] + y) + volume_dims[1] * (spec.offset[2] + z));
            out.extend_from_slice(&volume[row_start..row_start + spec.dims[0]]);
        }
    }
}

/// Copies the half-open box `[lo, hi)` of a dense chunk buffer (dims
/// `chunk_dims`) into a row-major volume (dims `volume_dims`) at `dst_lo`,
/// converting each sample to the volume's width — a no-op for equal
/// widths and exact when widening, so decoders assemble straight into
/// their output width.
pub(crate) fn place_box<T: Float, O: Float>(
    chunk: &[T],
    chunk_dims: [usize; 3],
    [lo, hi]: [[usize; 3]; 2],
    volume: &mut [O],
    volume_dims: [usize; 3],
    dst_lo: [usize; 3],
) {
    let len = hi[0] - lo[0];
    for z in 0..hi[2] - lo[2] {
        for y in 0..hi[1] - lo[1] {
            let src = lo[0] + chunk_dims[0] * ((lo[1] + y) + chunk_dims[1] * (lo[2] + z));
            let dst = dst_lo[0]
                + volume_dims[0] * ((dst_lo[1] + y) + volume_dims[1] * (dst_lo[2] + z));
            for (d, &s) in volume[dst..dst + len].iter_mut().zip(&chunk[src..src + len]) {
                *d = O::from_f64(s.to_f64());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        let chunks = chunk_grid([32, 32, 32], [16, 16, 16]);
        assert_eq!(chunks.len(), 8);
        assert!(chunks.iter().all(|c| c.dims == [16, 16, 16]));
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, 32 * 32 * 32);
    }

    #[test]
    fn non_divisible_boundary_chunks() {
        let chunks = chunk_grid([40, 16, 10], [16, 16, 16]);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].dims, [16, 16, 10]);
        assert_eq!(chunks[2].dims, [8, 16, 10]);
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, 40 * 16 * 10);
    }

    #[test]
    fn chunk_larger_than_volume() {
        let chunks = chunk_grid([10, 10, 10], [256, 256, 256]);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].dims, [10, 10, 10]);
    }

    #[test]
    fn extract_insert_roundtrip() {
        let dims = [7usize, 5, 4];
        let volume: Vec<f64> = (0..140).map(|i| i as f64).collect();
        let mut rebuilt = vec![0.0; 140];
        for spec in chunk_grid(dims, [3, 2, 3]) {
            let chunk = extract_chunk(&volume, dims, &spec);
            place_box(&chunk, spec.dims, [[0; 3], spec.dims], &mut rebuilt, dims, spec.offset);
        }
        assert_eq!(volume, rebuilt);
    }

    #[test]
    fn extract_respects_offsets() {
        let dims = [4usize, 4, 1];
        let volume: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let spec = ChunkSpec { offset: [2, 1, 0], dims: [2, 2, 1] };
        assert_eq!(extract_chunk(&volume, dims, &spec), vec![6.0, 7.0, 10.0, 11.0]);
    }
}
