//! A stream whose header declares far more blocks than its bytes can hold
//! must be refused before any buffer is sized from the header.
//!
//! This binary's global allocator refuses every single allocation above
//! 256 MiB, so a decoder that trusts the declared dims aborts here on any
//! host, instead of passing where memory overcommit lets a huge zeroed
//! buffer map lazily.

use std::alloc::{GlobalAlloc, Layout, System};

use sperr_compress_api::{Bound, CompressError, Field, LossyCompressor};
use sperr_zfp_like::ZfpLike;

const CAP: usize = 256 << 20;

struct Capped;

unsafe impl GlobalAlloc for Capped {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > CAP {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Capped = Capped;

/// Header layout: magic (4), mode (1), precision (1), parameter (8), then
/// the three u32 dims.
const DIMS_AT: usize = 14;

#[test]
fn inflated_header_dims_are_truncated_not_allocated() {
    let field = Field::from_fn([16, 16, 16], |x, y, z| {
        (x as f64 * 0.3).sin() * 20.0 + (y as f64 * 0.2).cos() * 10.0 + z as f64 * 0.5
    });
    let zfp = ZfpLike::default();
    let mut stream = zfp.compress(&field, Bound::Pwe(1e-3)).unwrap();
    assert!(zfp.decompress(&stream).is_ok());
    // 16384 × 16383 × 16 points stays under the u32 volume cap, and the
    // z extent (hence the slab table) is unchanged, but each slab now
    // declares millions of blocks against a few hundred bytes.
    stream[DIMS_AT..DIMS_AT + 4].copy_from_slice(&16384u32.to_le_bytes());
    stream[DIMS_AT + 4..DIMS_AT + 8].copy_from_slice(&16383u32.to_le_bytes());
    assert!(matches!(zfp.decompress(&stream), Err(CompressError::Truncated(_))));
}
