//! Explicit AVX2(+FMA) kernels — the x86-64 SIMD backend.
//!
//! Every f32 kernel here preserves the bit-identity contract documented in
//! [`crate::backend`]: an output element accumulates its reduction terms
//! in ascending-`k` order within a single SIMD lane, using [`vmadd`] —
//! whose FMA/mul-add choice is keyed on the *same* `cfg(target_feature =
//! "fma")` as the scalar [`crate::tensor::madd`] — so the result is bit
//! for bit the [`crate::naive`] answer. Vector width only decides how many
//! *independent* output columns advance per instruction; it never reorders
//! any one element's chain.
//!
//! Decode-shaped calls (`m < 8`) are bound by weight traffic, not math,
//! so they get their own kernels that read the weights once, in order:
//! the row-streaming GEMV walks `b` one contiguous row at a time, and the
//! transposed flavour (`matmul_t`, the attention score dot) streams `b` in
//! 8-row blocks transposed in registers — no `k x n` scratch. Both are
//! 256-bit on every host: streaming from memory, wider vectors measured no
//! faster. At `m >= 8` the transposed flavour packs `b^T` one column panel
//! at a time, through the same in-register transposes, into the panel
//! layout the GEMM tiles stream. Half-precision operands widen exactly to
//! f32 (at `m >= 8` one panel at a time, into that same layout) and reuse
//! the f32 tiles; int8 uses a widening 32-bit integer kernel that is exact,
//! so all backends agree bit for bit on every dtype.

#![allow(unsafe_code)] // The one module allowed to: every unsafe fn is
                       // `#[target_feature(enable = "avx2")]` and only
                       // reachable behind runtime AVX2 detection, with
                       // slice bounds asserted in the safe wrappers.

use crate::backend::Backend;
use crate::element::F16;
use crate::workspace::with_scratch;
use core::arch::x86_64::*;

/// The AVX2 backend. Only constructible when the host supports it — use
/// [`SimdBackend::try_new`] (tests) or the process-wide selector in
/// [`crate::backend`].
#[derive(Debug, Clone, Copy)]
pub struct SimdBackend {
    _guard: (),
}

static INSTANCE: SimdBackend = SimdBackend { _guard: () };

/// The shared instance handed out by [`crate::backend::active`]; callers
/// there have already verified AVX2 support.
pub(crate) fn backend_static() -> &'static dyn Backend {
    &INSTANCE
}

impl SimdBackend {
    /// The AVX2 backend, or `None` when this host lacks AVX2. This is the
    /// race-free way for tests to pin a specific backend without touching
    /// the process-wide selection.
    #[must_use]
    pub fn try_new() -> Option<SimdBackend> {
        if std::arch::is_x86_feature_detected!("avx2") {
            Some(INSTANCE)
        } else {
            None
        }
    }
}

/// Eight-lane multiply-accumulate with the same rounding behaviour as the
/// scalar [`crate::tensor::madd`]: fused when the crate is compiled with the `fma` target
/// feature (one rounding), separate multiply + add otherwise — keyed on
/// the identical `cfg`, which is what makes SIMD lanes bit-match scalar
/// chains.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn vmadd(acc: __m256, a: __m256, b: __m256) -> __m256 {
    #[cfg(target_feature = "fma")]
    {
        _mm256_fmadd_ps(a, b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        _mm256_add_ps(acc, _mm256_mul_ps(a, b))
    }
}

/// Sixteen-lane multiply-accumulate, same rounding contract as [`vmadd`]
/// and the scalar [`crate::tensor::madd`] — keyed on the identical `fma` `cfg`.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn vmadd512(acc: __m512, a: __m512, b: __m512) -> __m512 {
    #[cfg(target_feature = "fma")]
    {
        _mm512_fmadd_ps(a, b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        _mm512_add_ps(acc, _mm512_mul_ps(a, b))
    }
}

/// Fused pack-and-compute GEMM over the leading `n16` (multiple of 16)
/// columns of `b`. Identical arithmetic (and therefore identical bits) to
/// the scalar kernels: every output element keeps its ascending-`p` chain.
///
/// The motivation is cache behaviour: for typical layer widths `b_stride`
/// is a 2 KiB stride, so walking a column panel of `b` conflict-misses L1
/// on every reduction step and caps the kernel well below FMA throughput.
/// Each 16-column panel is therefore staged once into contiguous
/// panel-major scratch (`bp[j0*k + p*16 ..][.. 16]`) and all subsequent
/// row tiles stream it at 64 sequential bytes per step.
///
/// The staging is *fused*: the first 4-row tile of each panel has to read
/// the strided panel anyway, so it stores each 16-wide slab to scratch as
/// a side effect — packing costs only stores, never a separate read pass
/// over `b`. Later tiles read the packed panel with a 2-step reduction
/// unroll (`(acc + x_p*b_p) + x_{p+1}*b_{p+1}` — still the ascending
/// chain, just fewer loop-carried dependencies per iteration).
///
/// # Safety
///
/// Requires AVX2 (guaranteed by the caller); `m >= 4` (the packing tile
/// must exist); `a` must cover `(m-1)*a_stride + k`, `b` must cover
/// `(k-1)*b_stride + n16`, `out` must cover `(m-1)*out_stride + n16`, and
/// `bp` must hold at least `k * n16` elements.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn gemm_avx2_packing(
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    b_stride: usize,
    bp: *mut f32,
    out: *mut f32,
    out_stride: usize,
    m: usize,
    k: usize,
    n16: usize,
    accumulate: bool,
) {
    debug_assert!(m >= 4, "fused packing needs a full first row tile");
    let mut j = 0usize;
    while j < n16 {
        let panel = bp.add(j * k);
        // Tile 0 (rows 0..4): compute *and* pack the panel.
        {
            let a0 = a;
            let a1 = a.add(a_stride);
            let a2 = a.add(2 * a_stride);
            let a3 = a.add(3 * a_stride);
            let o0 = out.add(j);
            let o1 = out.add(out_stride + j);
            let o2 = out.add(2 * out_stride + j);
            let o3 = out.add(3 * out_stride + j);
            let (mut c00, mut c01, mut c10, mut c11, mut c20, mut c21, mut c30, mut c31) =
                if accumulate {
                    (
                        _mm256_loadu_ps(o0),
                        _mm256_loadu_ps(o0.add(8)),
                        _mm256_loadu_ps(o1),
                        _mm256_loadu_ps(o1.add(8)),
                        _mm256_loadu_ps(o2),
                        _mm256_loadu_ps(o2.add(8)),
                        _mm256_loadu_ps(o3),
                        _mm256_loadu_ps(o3.add(8)),
                    )
                } else {
                    let z = _mm256_setzero_ps();
                    (z, z, z, z, z, z, z, z)
                };
            let mut pdst = panel;
            for p in 0..k {
                let src = b.add(p * b_stride + j);
                let b0 = _mm256_loadu_ps(src);
                let b1 = _mm256_loadu_ps(src.add(8));
                _mm256_storeu_ps(pdst, b0);
                _mm256_storeu_ps(pdst.add(8), b1);
                pdst = pdst.add(16);
                let x0 = _mm256_set1_ps(*a0.add(p));
                c00 = vmadd(c00, x0, b0);
                c01 = vmadd(c01, x0, b1);
                let x1 = _mm256_set1_ps(*a1.add(p));
                c10 = vmadd(c10, x1, b0);
                c11 = vmadd(c11, x1, b1);
                let x2 = _mm256_set1_ps(*a2.add(p));
                c20 = vmadd(c20, x2, b0);
                c21 = vmadd(c21, x2, b1);
                let x3 = _mm256_set1_ps(*a3.add(p));
                c30 = vmadd(c30, x3, b0);
                c31 = vmadd(c31, x3, b1);
            }
            _mm256_storeu_ps(o0, c00);
            _mm256_storeu_ps(o0.add(8), c01);
            _mm256_storeu_ps(o1, c10);
            _mm256_storeu_ps(o1.add(8), c11);
            _mm256_storeu_ps(o2, c20);
            _mm256_storeu_ps(o2.add(8), c21);
            _mm256_storeu_ps(o3, c30);
            _mm256_storeu_ps(o3.add(8), c31);
        }
        panel_rows_avx2(a, a_stride, panel, out.add(j), out_stride, 4, m, k, accumulate);
        j += 16;
    }
}

/// AVX-512 flavour of [`gemm_avx2_packing`]: 32-column panels, 4x32
/// register tiles (8 `zmm` accumulators). Same fused first-tile packing,
/// same bit-identity argument — a `zmm` lane is still one output column's
/// ascending-`p` chain, and [`vmadd512`] is keyed on the same `fma` `cfg`
/// as the scalar [`crate::tensor::madd`]. Doubling the lane count matters on cores with
/// two 512-bit FMA pipes, where the 256-bit kernel leaves half the peak
/// on the table.
///
/// # Safety
///
/// Requires AVX-512F (runtime-detected by the caller); `m >= 4`; same
/// bounds contract as [`gemm_avx2_packing`] with `n32` a multiple of 32.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_avx512_packing(
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    b_stride: usize,
    bp: *mut f32,
    out: *mut f32,
    out_stride: usize,
    m: usize,
    k: usize,
    n32: usize,
    accumulate: bool,
) {
    debug_assert!(m >= 4, "fused packing needs a full first row tile");
    let mut j = 0usize;
    while j < n32 {
        let panel = bp.add(j * k);
        // Tile 0 (rows 0..4): compute *and* pack the panel.
        {
            let a0 = a;
            let a1 = a.add(a_stride);
            let a2 = a.add(2 * a_stride);
            let a3 = a.add(3 * a_stride);
            let o0 = out.add(j);
            let o1 = out.add(out_stride + j);
            let o2 = out.add(2 * out_stride + j);
            let o3 = out.add(3 * out_stride + j);
            let (mut c00, mut c01, mut c10, mut c11, mut c20, mut c21, mut c30, mut c31) =
                if accumulate {
                    (
                        _mm512_loadu_ps(o0),
                        _mm512_loadu_ps(o0.add(16)),
                        _mm512_loadu_ps(o1),
                        _mm512_loadu_ps(o1.add(16)),
                        _mm512_loadu_ps(o2),
                        _mm512_loadu_ps(o2.add(16)),
                        _mm512_loadu_ps(o3),
                        _mm512_loadu_ps(o3.add(16)),
                    )
                } else {
                    let z = _mm512_setzero_ps();
                    (z, z, z, z, z, z, z, z)
                };
            let mut pdst = panel;
            for p in 0..k {
                let src = b.add(p * b_stride + j);
                let b0 = _mm512_loadu_ps(src);
                let b1 = _mm512_loadu_ps(src.add(16));
                _mm512_storeu_ps(pdst, b0);
                _mm512_storeu_ps(pdst.add(16), b1);
                pdst = pdst.add(32);
                let x0 = _mm512_set1_ps(*a0.add(p));
                c00 = vmadd512(c00, x0, b0);
                c01 = vmadd512(c01, x0, b1);
                let x1 = _mm512_set1_ps(*a1.add(p));
                c10 = vmadd512(c10, x1, b0);
                c11 = vmadd512(c11, x1, b1);
                let x2 = _mm512_set1_ps(*a2.add(p));
                c20 = vmadd512(c20, x2, b0);
                c21 = vmadd512(c21, x2, b1);
                let x3 = _mm512_set1_ps(*a3.add(p));
                c30 = vmadd512(c30, x3, b0);
                c31 = vmadd512(c31, x3, b1);
            }
            _mm512_storeu_ps(o0, c00);
            _mm512_storeu_ps(o0.add(16), c01);
            _mm512_storeu_ps(o1, c10);
            _mm512_storeu_ps(o1.add(16), c11);
            _mm512_storeu_ps(o2, c20);
            _mm512_storeu_ps(o2.add(16), c21);
            _mm512_storeu_ps(o3, c30);
            _mm512_storeu_ps(o3.add(16), c31);
        }
        panel_rows_avx512(a, a_stride, panel, out.add(j), out_stride, 4, m, k, accumulate);
        j += 32;
    }
}

/// Rows `i0..m` of one packed 16-column panel: `out[i, ..16] (+)=
/// a[i, ..k] · panel`, where `panel[p*16 ..][..16]` is row `p` of the
/// panel (the layout [`gemm_avx2_packing`] stages and
/// [`pack_t_panel`] transposes into). 4x16 register tiles with a
/// 2-step reduction unroll (`(acc + x_p*b_p) + x_{p+1}*b_{p+1}` — still
/// the ascending chain, just fewer loop-carried dependencies per
/// iteration), then 1x16 rows.
///
/// # Safety
///
/// Requires AVX2; `a` covers rows `i0..m` at `a_stride`, `panel` holds
/// `k * 16` elements, and `out` (offset to the panel's first column)
/// covers `(m-1)*out_stride + 16`.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn panel_rows_avx2(
    a: *const f32,
    a_stride: usize,
    panel: *const f32,
    out: *mut f32,
    out_stride: usize,
    i0: usize,
    m: usize,
    k: usize,
    accumulate: bool,
) {
    let mut i = i0;
    while i + 4 <= m {
        let a0 = a.add(i * a_stride);
        let a1 = a.add((i + 1) * a_stride);
        let a2 = a.add((i + 2) * a_stride);
        let a3 = a.add((i + 3) * a_stride);
        let o0 = out.add(i * out_stride);
        let o1 = out.add((i + 1) * out_stride);
        let o2 = out.add((i + 2) * out_stride);
        let o3 = out.add((i + 3) * out_stride);
        let (mut c00, mut c01, mut c10, mut c11, mut c20, mut c21, mut c30, mut c31) = if accumulate
        {
            (
                _mm256_loadu_ps(o0),
                _mm256_loadu_ps(o0.add(8)),
                _mm256_loadu_ps(o1),
                _mm256_loadu_ps(o1.add(8)),
                _mm256_loadu_ps(o2),
                _mm256_loadu_ps(o2.add(8)),
                _mm256_loadu_ps(o3),
                _mm256_loadu_ps(o3.add(8)),
            )
        } else {
            let z = _mm256_setzero_ps();
            (z, z, z, z, z, z, z, z)
        };
        let mut bpr = panel;
        let mut p = 0usize;
        while p + 2 <= k {
            let b0 = _mm256_loadu_ps(bpr);
            let b1 = _mm256_loadu_ps(bpr.add(8));
            let b2 = _mm256_loadu_ps(bpr.add(16));
            let b3 = _mm256_loadu_ps(bpr.add(24));
            let x0 = _mm256_set1_ps(*a0.add(p));
            let y0 = _mm256_set1_ps(*a0.add(p + 1));
            c00 = vmadd(vmadd(c00, x0, b0), y0, b2);
            c01 = vmadd(vmadd(c01, x0, b1), y0, b3);
            let x1 = _mm256_set1_ps(*a1.add(p));
            let y1 = _mm256_set1_ps(*a1.add(p + 1));
            c10 = vmadd(vmadd(c10, x1, b0), y1, b2);
            c11 = vmadd(vmadd(c11, x1, b1), y1, b3);
            let x2 = _mm256_set1_ps(*a2.add(p));
            let y2 = _mm256_set1_ps(*a2.add(p + 1));
            c20 = vmadd(vmadd(c20, x2, b0), y2, b2);
            c21 = vmadd(vmadd(c21, x2, b1), y2, b3);
            let x3 = _mm256_set1_ps(*a3.add(p));
            let y3 = _mm256_set1_ps(*a3.add(p + 1));
            c30 = vmadd(vmadd(c30, x3, b0), y3, b2);
            c31 = vmadd(vmadd(c31, x3, b1), y3, b3);
            bpr = bpr.add(32);
            p += 2;
        }
        if p < k {
            let b0 = _mm256_loadu_ps(bpr);
            let b1 = _mm256_loadu_ps(bpr.add(8));
            let x0 = _mm256_set1_ps(*a0.add(p));
            c00 = vmadd(c00, x0, b0);
            c01 = vmadd(c01, x0, b1);
            let x1 = _mm256_set1_ps(*a1.add(p));
            c10 = vmadd(c10, x1, b0);
            c11 = vmadd(c11, x1, b1);
            let x2 = _mm256_set1_ps(*a2.add(p));
            c20 = vmadd(c20, x2, b0);
            c21 = vmadd(c21, x2, b1);
            let x3 = _mm256_set1_ps(*a3.add(p));
            c30 = vmadd(c30, x3, b0);
            c31 = vmadd(c31, x3, b1);
        }
        _mm256_storeu_ps(o0, c00);
        _mm256_storeu_ps(o0.add(8), c01);
        _mm256_storeu_ps(o1, c10);
        _mm256_storeu_ps(o1.add(8), c11);
        _mm256_storeu_ps(o2, c20);
        _mm256_storeu_ps(o2.add(8), c21);
        _mm256_storeu_ps(o3, c30);
        _mm256_storeu_ps(o3.add(8), c31);
        i += 4;
    }
    while i < m {
        let ar = a.add(i * a_stride);
        let o = out.add(i * out_stride);
        let (mut c0, mut c1) = if accumulate {
            (_mm256_loadu_ps(o), _mm256_loadu_ps(o.add(8)))
        } else {
            (_mm256_setzero_ps(), _mm256_setzero_ps())
        };
        let mut bpr = panel;
        for p in 0..k {
            let x = _mm256_set1_ps(*ar.add(p));
            c0 = vmadd(c0, x, _mm256_loadu_ps(bpr));
            c1 = vmadd(c1, x, _mm256_loadu_ps(bpr.add(8)));
            bpr = bpr.add(16);
        }
        _mm256_storeu_ps(o, c0);
        _mm256_storeu_ps(o.add(8), c1);
        i += 1;
    }
}

/// AVX-512 flavour of [`panel_rows_avx2`] over a 32-column panel
/// (`panel[p*32 ..][..32]`): 4x32 tiles, then 1x32 rows.
///
/// # Safety
///
/// Requires AVX-512F; same contract as [`panel_rows_avx2`] with a
/// `k * 32` panel and 32 output columns.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
unsafe fn panel_rows_avx512(
    a: *const f32,
    a_stride: usize,
    panel: *const f32,
    out: *mut f32,
    out_stride: usize,
    i0: usize,
    m: usize,
    k: usize,
    accumulate: bool,
) {
    let mut i = i0;
    while i + 4 <= m {
        let a0 = a.add(i * a_stride);
        let a1 = a.add((i + 1) * a_stride);
        let a2 = a.add((i + 2) * a_stride);
        let a3 = a.add((i + 3) * a_stride);
        let o0 = out.add(i * out_stride);
        let o1 = out.add((i + 1) * out_stride);
        let o2 = out.add((i + 2) * out_stride);
        let o3 = out.add((i + 3) * out_stride);
        let (mut c00, mut c01, mut c10, mut c11, mut c20, mut c21, mut c30, mut c31) = if accumulate
        {
            (
                _mm512_loadu_ps(o0),
                _mm512_loadu_ps(o0.add(16)),
                _mm512_loadu_ps(o1),
                _mm512_loadu_ps(o1.add(16)),
                _mm512_loadu_ps(o2),
                _mm512_loadu_ps(o2.add(16)),
                _mm512_loadu_ps(o3),
                _mm512_loadu_ps(o3.add(16)),
            )
        } else {
            let z = _mm512_setzero_ps();
            (z, z, z, z, z, z, z, z)
        };
        let mut bpr = panel;
        for p in 0..k {
            let b0 = _mm512_loadu_ps(bpr);
            let b1 = _mm512_loadu_ps(bpr.add(16));
            let x0 = _mm512_set1_ps(*a0.add(p));
            c00 = vmadd512(c00, x0, b0);
            c01 = vmadd512(c01, x0, b1);
            let x1 = _mm512_set1_ps(*a1.add(p));
            c10 = vmadd512(c10, x1, b0);
            c11 = vmadd512(c11, x1, b1);
            let x2 = _mm512_set1_ps(*a2.add(p));
            c20 = vmadd512(c20, x2, b0);
            c21 = vmadd512(c21, x2, b1);
            let x3 = _mm512_set1_ps(*a3.add(p));
            c30 = vmadd512(c30, x3, b0);
            c31 = vmadd512(c31, x3, b1);
            bpr = bpr.add(32);
        }
        _mm512_storeu_ps(o0, c00);
        _mm512_storeu_ps(o0.add(16), c01);
        _mm512_storeu_ps(o1, c10);
        _mm512_storeu_ps(o1.add(16), c11);
        _mm512_storeu_ps(o2, c20);
        _mm512_storeu_ps(o2.add(16), c21);
        _mm512_storeu_ps(o3, c30);
        _mm512_storeu_ps(o3.add(16), c31);
        i += 4;
    }
    while i < m {
        let ar = a.add(i * a_stride);
        let o = out.add(i * out_stride);
        let (mut c0, mut c1) = if accumulate {
            (_mm512_loadu_ps(o), _mm512_loadu_ps(o.add(16)))
        } else {
            (_mm512_setzero_ps(), _mm512_setzero_ps())
        };
        let mut bpr = panel;
        for p in 0..k {
            let x = _mm512_set1_ps(*ar.add(p));
            c0 = vmadd512(c0, x, _mm512_loadu_ps(bpr));
            c1 = vmadd512(c1, x, _mm512_loadu_ps(bpr.add(16)));
            bpr = bpr.add(32);
        }
        _mm512_storeu_ps(o, c0);
        _mm512_storeu_ps(o.add(16), c1);
        i += 1;
    }
}

/// Output columns per block of the row-streaming GEMVs, divided by the row
/// count: the `m` output row blocks (at most 8 KiB together) stay in L1
/// while four rows of `b` stream past them.
const GEMV_BLOCK: usize = 2048;

/// Lane mask selecting the first `len` (< 8 is the interesting case) of
/// eight `f32` lanes, for the AVX2 masked loads/stores.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn lanes8(len: usize) -> __m256i {
    _mm256_cmpgt_epi32(
        _mm256_set1_epi32(len.min(8) as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    )
}

/// Row-streaming strided GEMM for the shapes packing cannot amortize —
/// small `m` (the decode matvec regime) and the sub-panel column tail of
/// a larger product: `out[i,j] (+)= sum_p a[i,p] * b[p,j]`, with row `i`
/// of `a` at `a_stride * i` (and so on for `b`, `out`). `b` is read one
/// contiguous row at a time, in order, never as column panels walked down
/// at a stride of `b_stride`. Output columns go in L1-resident blocks of
/// [`GEMV_BLOCK`]`/m`; each step folds four rows of `b` into every output
/// row of the block (`(((o + x_p*b_p) + x_{p+1}*b_{p+1}) + ..)` — each
/// element still one ascending-`p` chain, starting from zero or, when
/// `accumulate` is set, from its existing value). A weight matrix is thus
/// fetched as sequential streams at memory bandwidth, which is what bounds
/// a matvec — so eight columns per vector suffice on AVX-512 hosts too (a
/// 512-bit flavour measured the same GB/s once the weights come from DRAM).
///
/// # Safety
///
/// Requires AVX2; `m >= 1`; the slices must cover `(rows-1)*stride +
/// row_len` elements for their respective `(m|k) x (k|n)` shapes —
/// asserted by the safe wrapper.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn gemv_avx2(
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    b_stride: usize,
    out: *mut f32,
    out_stride: usize,
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    let block = (GEMV_BLOCK / m).max(8) & !7;
    let mut j0 = 0usize;
    while j0 < n {
        let w = block.min(n - j0);
        let w8 = w - w % 8;
        let tail = lanes8(w % 8);
        if !accumulate {
            for i in 0..m {
                core::ptr::write_bytes(out.add(i * out_stride + j0), 0, w);
            }
        }
        let mut p = 0usize;
        while p + 4 <= k {
            let b0 = b.add(p * b_stride + j0);
            let (b1, b2, b3) = (b0.add(b_stride), b0.add(2 * b_stride), b0.add(3 * b_stride));
            for i in 0..m {
                let ar = a.add(i * a_stride + p);
                let x0 = _mm256_set1_ps(*ar);
                let x1 = _mm256_set1_ps(*ar.add(1));
                let x2 = _mm256_set1_ps(*ar.add(2));
                let x3 = _mm256_set1_ps(*ar.add(3));
                let o = out.add(i * out_stride + j0);
                let mut j = 0usize;
                while j < w8 {
                    let mut v = _mm256_loadu_ps(o.add(j));
                    v = vmadd(v, x0, _mm256_loadu_ps(b0.add(j)));
                    v = vmadd(v, x1, _mm256_loadu_ps(b1.add(j)));
                    v = vmadd(v, x2, _mm256_loadu_ps(b2.add(j)));
                    v = vmadd(v, x3, _mm256_loadu_ps(b3.add(j)));
                    _mm256_storeu_ps(o.add(j), v);
                    j += 8;
                }
                if j < w {
                    let mut v = _mm256_maskload_ps(o.add(j), tail);
                    v = vmadd(v, x0, _mm256_maskload_ps(b0.add(j), tail));
                    v = vmadd(v, x1, _mm256_maskload_ps(b1.add(j), tail));
                    v = vmadd(v, x2, _mm256_maskload_ps(b2.add(j), tail));
                    v = vmadd(v, x3, _mm256_maskload_ps(b3.add(j), tail));
                    _mm256_maskstore_ps(o.add(j), tail, v);
                }
            }
            p += 4;
        }
        while p < k {
            let br = b.add(p * b_stride + j0);
            for i in 0..m {
                let x = _mm256_set1_ps(*a.add(i * a_stride + p));
                let o = out.add(i * out_stride + j0);
                let mut j = 0usize;
                while j < w8 {
                    let v = vmadd(_mm256_loadu_ps(o.add(j)), x, _mm256_loadu_ps(br.add(j)));
                    _mm256_storeu_ps(o.add(j), v);
                    j += 8;
                }
                if j < w {
                    let v = vmadd(
                        _mm256_maskload_ps(o.add(j), tail),
                        x,
                        _mm256_maskload_ps(br.add(j), tail),
                    );
                    _mm256_maskstore_ps(o.add(j), tail, v);
                }
            }
            p += 1;
        }
        j0 += w;
    }
}

/// In-register 8x8 transpose: on return `r[c]` lane `w` holds what was
/// `r[w]` lane `c`. Three shuffle stages (pairs, quads, 128-bit halves) —
/// 24 shuffles, no memory traffic.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn transpose8(r: &mut [__m256; 8]) {
    let mut t = [_mm256_setzero_ps(); 8];
    for q in 0..4 {
        t[2 * q] = _mm256_unpacklo_ps(r[2 * q], r[2 * q + 1]);
        t[2 * q + 1] = _mm256_unpackhi_ps(r[2 * q], r[2 * q + 1]);
    }
    let mut u = [_mm256_setzero_ps(); 8];
    for g in 0..2 {
        u[4 * g] = _mm256_shuffle_ps::<0x44>(t[4 * g], t[4 * g + 2]);
        u[4 * g + 1] = _mm256_shuffle_ps::<0xEE>(t[4 * g], t[4 * g + 2]);
        u[4 * g + 2] = _mm256_shuffle_ps::<0x44>(t[4 * g + 1], t[4 * g + 3]);
        u[4 * g + 3] = _mm256_shuffle_ps::<0xEE>(t[4 * g + 1], t[4 * g + 3]);
    }
    for c in 0..4 {
        r[c] = _mm256_permute2f128_ps::<0x20>(u[c], u[4 + c]);
        r[c + 4] = _mm256_permute2f128_ps::<0x31>(u[c], u[4 + c]);
    }
}

/// Loads the `rows x cols` block of `b` whose top-left element is `b[p0]`
/// (row stride `b_stride`) and returns it transposed: `t[c]` lane `w` is
/// `b[w*b_stride + p0 + c]`. Rows at or past `rows` and columns at or past
/// `cols` read as zero and are never addressed.
///
/// # Safety
///
/// Requires AVX2; rows `0..rows` of `b` must cover columns `p0..p0 +
/// cols`; `rows, cols <= 8`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load_t8(
    b: *const f32,
    b_stride: usize,
    rows: usize,
    p0: usize,
    cols: usize,
) -> [__m256; 8] {
    let mask = lanes8(cols);
    let mut r = [_mm256_setzero_ps(); 8];
    for (w, row) in r.iter_mut().enumerate() {
        if w < rows {
            *row = _mm256_maskload_ps(b.add(w * b_stride + p0), mask);
        }
    }
    transpose8(&mut r);
    r
}

/// Small-`m` transposed product over `M` (1..=7) rows: `out[i, j] =
/// dot(a_i, b_j)` with `b` row-major `[n x k]` (row stride `b_stride`).
/// `b` streams in blocks of 8 rows; each 8x8 tile is transposed in
/// registers ([`load_t8`]) so lane `w` of column vector `c` is
/// `b[j + w, p0 + c]`, and the `M` row accumulators take it in ascending
/// `p` — every element one ascending chain from zero, no scratch. This is
/// the decode LM head and attention-score path; it reads `b` once, in
/// order, at memory bandwidth (see [`gemm_t`] for why it is not the panel
/// path with one row).
///
/// # Safety
///
/// Requires AVX2; `a` covers `(M-1)*a_stride + k`, `b` covers
/// `(n-1)*b_stride + k`, `out` covers `(M-1)*out_stride + n`.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn dot_t_avx2<const M: usize>(
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    b_stride: usize,
    out: *mut f32,
    out_stride: usize,
    k: usize,
    n: usize,
) {
    let mut j = 0usize;
    while j < n {
        let rows = (n - j).min(8);
        let bj = b.add(j * b_stride);
        let mut acc = [_mm256_setzero_ps(); M];
        let mut p0 = 0usize;
        while p0 < k {
            let cols = (k - p0).min(8);
            for w in 8..16 {
                _mm_prefetch::<_MM_HINT_T0>(bj.wrapping_add(w * b_stride + p0).cast::<i8>());
            }
            let t = load_t8(bj, b_stride, rows, p0, cols);
            for (c, &tc) in t.iter().enumerate() {
                if c < cols {
                    for (i, acc_i) in acc.iter_mut().enumerate() {
                        *acc_i = vmadd(*acc_i, _mm256_set1_ps(*a.add(i * a_stride + p0 + c)), tc);
                    }
                }
            }
            p0 += 8;
        }
        let mask = lanes8(rows);
        for (i, &acc_i) in acc.iter().enumerate() {
            _mm256_maskstore_ps(out.add(i * out_stride + j), mask, acc_i);
        }
        j += 8;
    }
}

/// The whole transposed product `out[i, j] = dot(a_i, b_j)` (`out`
/// contiguous `m x n`). Small-`m` calls (the decode LM head and attention
/// scores) go to [`dot_t_avx2`]; from `m = 8` up, [`gemm_panels`] packs
/// `b^T` one column panel at a time straight from `b` ([`pack_t_panel`])
/// and runs the GEMM row tiles over it.
///
/// Packing a panel and running one row over it is the slower way to do a
/// matvec: on a 2-vCPU AVX-512 Xeon the 1x512x32000 LM head took 8.4 ms
/// that way against 4.6 ms in [`dot_t_avx2`] (the single-row tile is a
/// latency-bound pair of FMA chains behind a pack that has no reuse), and
/// a 1x64x128 attention score 1.6 us against 1.3 us.
///
/// # Safety
///
/// Requires AVX2, and AVX-512F when `avx512` is set; `a` covers
/// `(m-1)*a_stride + k`, `b` covers `(n-1)*b_stride + k`, `out` covers
/// `m * n`; `m, n >= 1`.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn gemm_t(
    avx512: bool,
    a: *const f32,
    a_stride: usize,
    b: *const f32,
    b_stride: usize,
    out: *mut f32,
    m: usize,
    k: usize,
    n: usize,
) {
    macro_rules! small {
        ($($rows:literal)*) => {
            match m {
                $($rows => dot_t_avx2::<$rows>(a, a_stride, b, b_stride, out, n, k, n),)*
                _ => gemm_panels(avx512, a, a_stride, out, m, k, n, |j, rows, panel, w| {
                    // SAFETY: rows `j..j + rows` of `b` lie inside the
                    // caller's `n x k` bound; `panel` holds `k * w`.
                    unsafe { pack_t_panel(b.add(j * b_stride), b_stride, rows, panel, w, k) }
                }),
            }
        };
    }
    small!(1 2 3 4 5 6 7);
}

/// `out = a · B` over `m` rows of `a`, `out` contiguous `m x n`, with `B`
/// (`k x n`) delivered one panel at a time by `pack(j, cols, panel, w)`:
/// it must fill `panel[p*w + c]` with `B[p, j + c]` for `c < cols` and
/// with zero for `cols <= c < w`. Panels are 32 columns wide for the
/// AVX-512 row tiles, 16 otherwise; the one scratch panel (`k * w`) is
/// refilled for each. A short last panel runs into an `m x w` scratch
/// tile whose first `cols` columns are then copied out, so `n` needs no
/// padding. Chains are the row tiles' — ascending `p` from zero.
///
/// # Safety
///
/// Requires AVX2, and AVX-512F when `avx512` is set; `a` covers
/// `(m-1)*a_stride + k`, `out` covers `m * n`.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn gemm_panels(
    avx512: bool,
    a: *const f32,
    a_stride: usize,
    out: *mut f32,
    m: usize,
    k: usize,
    n: usize,
    mut pack: impl FnMut(usize, usize, *mut f32, usize),
) {
    let w = if avx512 { 32 } else { 16 };
    with_scratch(k * w, |panel| {
        let panel = panel.as_mut_ptr();
        let mut j = 0usize;
        while j < n {
            let cols = (n - j).min(w);
            pack(j, cols, panel, w);
            let run = |o: *mut f32, o_stride: usize| {
                // SAFETY: AVX-512F when `avx512`; `panel` holds `k * w`
                // and `o` covers `m` rows of `w` columns at `o_stride`.
                unsafe {
                    if avx512 {
                        panel_rows_avx512(a, a_stride, panel, o, o_stride, 0, m, k, false);
                    } else {
                        panel_rows_avx2(a, a_stride, panel, o, o_stride, 0, m, k, false);
                    }
                }
            };
            if cols == w {
                run(out.add(j), n);
            } else {
                with_scratch(m * w, |tile| {
                    run(tile.as_mut_ptr(), w);
                    for (i, row) in tile.chunks_exact(w).enumerate() {
                        // SAFETY: row `i`, columns `j..n` of `out`.
                        unsafe {
                            core::ptr::copy_nonoverlapping(row.as_ptr(), out.add(i * n + j), cols)
                        };
                    }
                });
            }
            j += w;
        }
    });
}

/// Packs rows `0..rows` (`rows <= w`, `w` a multiple of 8) of a row-major
/// `[n x k]` `b` as a transposed `w`-column panel, `panel[p*w + r] =
/// b[r*b_stride + p]`, zero in lanes `rows..w` — the layout the GEMM row
/// tiles stream — through 8x8 in-register transposes, so `b^T` never
/// materializes in full. Each 8-column step of `p` fills whole panel rows
/// before moving on. (16x16 AVX-512 transposes packed no faster: within
/// 2% on 64x512x512 and 8x512x2048 products.)
///
/// # Safety
///
/// Requires AVX2; rows `0..rows` of `b` cover `k` columns, `panel` holds
/// `k * w`.
#[target_feature(enable = "avx2")]
unsafe fn pack_t_panel(
    b: *const f32,
    b_stride: usize,
    rows: usize,
    panel: *mut f32,
    w: usize,
    k: usize,
) {
    let mut p0 = 0usize;
    while p0 < k {
        let cols = (k - p0).min(8);
        for q in 0..w / 8 {
            let t = load_t8(
                b.wrapping_add(8 * q * b_stride),
                b_stride,
                rows.saturating_sub(8 * q).min(8),
                p0,
                cols,
            );
            for (c, &tc) in t.iter().enumerate().take(cols) {
                _mm256_storeu_ps(panel.add((p0 + c) * w + 8 * q), tc);
            }
        }
        p0 += 8;
    }
}

/// Half-precision `out = a · b` (`m x k` times `k x n`, contiguous) by
/// exact widening to f32 — identical ascending-`p` chains to the scalar
/// f16 kernel. `a` widens whole into `m * k` scratch. From `m = 8` up, `b`
/// widens one zero-padded column panel at a time straight into the layout
/// the row tiles stream ([`gemm_panels`]), so no `k x n` copy of it is
/// ever live; a small-`m` product has no row tiles to share a panel
/// between and widens `b` whole for the row-streaming [`gemv_avx2`].
///
/// # Safety
///
/// Requires AVX2, and AVX-512F when `avx512` is set; `a`, `b`, `out` hold
/// at least `m * k`, `k * n`, `m * n` elements; `m, n >= 1`.
#[target_feature(enable = "avx2")]
unsafe fn matmul_f16_widening(
    avx512: bool,
    a: &[F16],
    b: &[F16],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    with_scratch(m * k, |a32| {
        for (dst, src) in a32.iter_mut().zip(a) {
            *dst = src.to_f32();
        }
        let (a32, out) = (a32.as_ptr(), out.as_mut_ptr());
        if m >= 8 {
            let widen_panel = |j: usize, cols: usize, panel: *mut f32, w: usize| {
                for p in 0..k {
                    // SAFETY: `panel` holds `k * w`.
                    let dst = unsafe { core::slice::from_raw_parts_mut(panel.add(p * w), w) };
                    let (dst, pad) = dst.split_at_mut(cols);
                    for (d, s) in dst.iter_mut().zip(&b[p * n + j..][..cols]) {
                        *d = s.to_f32();
                    }
                    pad.fill(0.0);
                }
            };
            // SAFETY: the caller's bounds cover `a32` and `out`.
            unsafe { gemm_panels(avx512, a32, k, out, m, k, n, widen_panel) };
        } else {
            with_scratch(k * n, |b32| {
                for (dst, src) in b32.iter_mut().zip(b) {
                    *dst = src.to_f32();
                }
                // SAFETY: AVX2; `b32` is `k x n`, the rest as above.
                unsafe { gemv_avx2(a32, k, b32.as_ptr(), n, out, n, m, k, n, false) };
            });
        }
    });
}

/// `row *= scale` — one correctly-rounded multiply per element, matching
/// the scalar path's final `acc * scale`.
///
/// # Safety
///
/// Requires AVX2.
#[target_feature(enable = "avx2")]
unsafe fn scale_inplace_avx2(row: &mut [f32], scale: f32) {
    let s = _mm256_set1_ps(scale);
    let p = row.as_mut_ptr();
    let len = row.len();
    let mut i = 0usize;
    while i + 8 <= len {
        _mm256_storeu_ps(p.add(i), _mm256_mul_ps(_mm256_loadu_ps(p.add(i)), s));
        i += 8;
    }
    while i < len {
        *p.add(i) *= scale;
        i += 1;
    }
}

/// Widening int8 matmul: exact i32 accumulation, eight columns per step.
///
/// # Safety
///
/// Requires AVX2; slice bounds are asserted by the safe wrapper.
#[target_feature(enable = "avx2")]
unsafe fn matmul_i8_avx2(a: *const i8, b: *const i8, out: *mut i32, m: usize, k: usize, n: usize) {
    for i in 0..m {
        let o_row = out.add(i * n);
        core::ptr::write_bytes(o_row, 0, n);
        for p in 0..k {
            let x = i32::from(*a.add(i * k + p));
            if x == 0 {
                continue; // exact: adding zero terms is a no-op for integers
            }
            let xv = _mm256_set1_epi32(x);
            let b_row = b.add(p * n);
            let mut j = 0usize;
            while j + 8 <= n {
                let b8 = _mm_loadl_epi64(b_row.add(j).cast::<__m128i>());
                let bv = _mm256_cvtepi8_epi32(b8);
                let o = o_row.add(j).cast::<__m256i>();
                let sum = _mm256_add_epi32(_mm256_loadu_si256(o), _mm256_mullo_epi32(xv, bv));
                _mm256_storeu_si256(o, sum);
                j += 8;
            }
            while j < n {
                *o_row.add(j) += x * i32::from(*b_row.add(j));
                j += 1;
            }
        }
    }
}

/// Vectorized max-reduction. Max over finite values is associative and
/// commutative, so lane order does not affect the result the softmax
/// subtracts.
///
/// # Safety
///
/// Requires AVX2.
#[target_feature(enable = "avx2")]
unsafe fn row_max_avx2(row: &[f32]) -> f32 {
    let len = row.len();
    let p = row.as_ptr();
    let mut best = f32::NEG_INFINITY;
    let mut i = 0usize;
    if len >= 8 {
        let mut acc = _mm256_loadu_ps(p);
        i = 8;
        while i + 8 <= len {
            acc = _mm256_max_ps(acc, _mm256_loadu_ps(p.add(i)));
            i += 8;
        }
        let mut lanes = [0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        best = lanes.iter().copied().fold(best, f32::max);
    }
    while i < len {
        best = best.max(*p.add(i));
        i += 1;
    }
    best
}

/// `row /= denom` — one IEEE divide per element.
///
/// # Safety
///
/// Requires AVX2.
#[target_feature(enable = "avx2")]
unsafe fn div_inplace_avx2(row: &mut [f32], denom: f32) {
    let d = _mm256_set1_ps(denom);
    let p = row.as_mut_ptr();
    let len = row.len();
    let mut i = 0usize;
    while i + 8 <= len {
        _mm256_storeu_ps(p.add(i), _mm256_div_ps(_mm256_loadu_ps(p.add(i)), d));
        i += 8;
    }
    while i < len {
        *p.add(i) /= denom;
        i += 1;
    }
}

/// LayerNorm apply: `v = (v - mean) * inv_std * gamma + beta` with the
/// scalar operation order — explicit sub/mul/mul/add, deliberately *not*
/// fused, because the scalar expression rounds after each step.
///
/// # Safety
///
/// Requires AVX2; `gamma`/`beta` at least as long as `row` (asserted by
/// the wrapper).
#[target_feature(enable = "avx2")]
unsafe fn norm_apply_avx2(row: &mut [f32], mean: f32, inv_std: f32, gamma: &[f32], beta: &[f32]) {
    let mv = _mm256_set1_ps(mean);
    let iv = _mm256_set1_ps(inv_std);
    let p = row.as_mut_ptr();
    let g = gamma.as_ptr();
    let bt = beta.as_ptr();
    let len = row.len();
    let mut i = 0usize;
    while i + 8 <= len {
        let x = _mm256_sub_ps(_mm256_loadu_ps(p.add(i)), mv);
        let scaled = _mm256_mul_ps(_mm256_mul_ps(x, iv), _mm256_loadu_ps(g.add(i)));
        _mm256_storeu_ps(p.add(i), _mm256_add_ps(scaled, _mm256_loadu_ps(bt.add(i))));
        i += 8;
    }
    while i < len {
        *p.add(i) = (*p.add(i) - mean) * inv_std * *g.add(i) + *bt.add(i);
        i += 1;
    }
}

/// RMSNorm apply: `v = v * inv_rms * gamma`, two multiplies per element in
/// scalar order.
///
/// # Safety
///
/// Requires AVX2; `gamma` at least as long as `row`.
#[target_feature(enable = "avx2")]
unsafe fn rms_apply_avx2(row: &mut [f32], inv_rms: f32, gamma: &[f32]) {
    let iv = _mm256_set1_ps(inv_rms);
    let p = row.as_mut_ptr();
    let g = gamma.as_ptr();
    let len = row.len();
    let mut i = 0usize;
    while i + 8 <= len {
        let x = _mm256_mul_ps(_mm256_loadu_ps(p.add(i)), iv);
        _mm256_storeu_ps(p.add(i), _mm256_mul_ps(x, _mm256_loadu_ps(g.add(i))));
        i += 8;
    }
    while i < len {
        *p.add(i) = *p.add(i) * inv_rms * *g.add(i);
        i += 1;
    }
}

// The argument list mirrors `Backend::gemm_strided`'s (slice, stride)
// pairs; bundling them into a struct would obscure the 1:1 mapping.
#[allow(clippy::too_many_arguments)]
fn check_gemm_bounds(
    a_len: usize,
    a_stride: usize,
    b_len: usize,
    b_stride: usize,
    out_len: usize,
    out_stride: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(a_stride >= k && b_stride >= n && out_stride >= n, "gemm strides below row widths");
    assert!(
        a_len >= (m - 1) * a_stride + k
            && (k == 0 || b_len >= (k - 1) * b_stride + n)
            && out_len >= (m - 1) * out_stride + n,
        "gemm operand slices too short for {m}x{k}x{n}"
    );
}

impl Backend for SimdBackend {
    fn name(&self) -> &'static str {
        "avx2"
    }

    fn matmul_f32(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        self.gemm_strided(a, k, b, n, out, n, m, k, n, false);
    }

    fn matmul_t_f32(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        self.scaled_dot_t(a, k, b, k, 1.0, out, m, k, n);
    }

    fn gemm_strided(
        &self,
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        b_stride: usize,
        out: &mut [f32],
        out_stride: usize,
        m: usize,
        k: usize,
        n: usize,
        accumulate: bool,
    ) {
        check_gemm_bounds(a.len(), a_stride, b.len(), b_stride, out.len(), out_stride, m, k, n);
        if m == 0 || n == 0 {
            return;
        }
        let avx512 = std::arch::is_x86_feature_detected!("avx512f");
        // With enough output rows to amortize the O(k*n) copy, pack `b`
        // into panel-major scratch so the hot loop streams it sequentially
        // (identical chains, identical bits — only the addressing order of
        // loads changes). Leading 32-column panels go to the AVX-512 tile
        // when the host has it (the detection macro caches after first use).
        let n16 = if m >= 8 && k > 0 { n - n % 16 } else { 0 };
        let n32 = if avx512 { n16 - n16 % 32 } else { 0 };
        if n32 > 0 {
            with_scratch(k * n32, |bpack| {
                // SAFETY: AVX-512F detected above; bounds asserted above,
                // `bpack` is exactly `k * n32`, and `m >= 8 >= 4`.
                unsafe {
                    gemm_avx512_packing(
                        a.as_ptr(),
                        a_stride,
                        b.as_ptr(),
                        b_stride,
                        bpack.as_mut_ptr(),
                        out.as_mut_ptr(),
                        out_stride,
                        m,
                        k,
                        n32,
                        accumulate,
                    );
                }
            });
        }
        if n32 < n16 {
            with_scratch(k * (n16 - n32), |bpack| {
                // SAFETY: AVX2 by construction; bounds asserted above,
                // `bpack` is exactly `k * (n16 - n32)`, and `m >= 8 >= 4`.
                // The column-offset views stay inside the asserted bounds.
                unsafe {
                    gemm_avx2_packing(
                        a.as_ptr(),
                        a_stride,
                        b.as_ptr().add(n32),
                        b_stride,
                        bpack.as_mut_ptr(),
                        out.as_mut_ptr().add(n32),
                        out_stride,
                        m,
                        k,
                        n16 - n32,
                        accumulate,
                    );
                }
            });
        }
        // Small-m calls (the decode matvec path) get no reuse out of
        // packing, and neither does a sub-panel column tail: they stream
        // `b` row by row.
        if n16 < n {
            let (b, out) = (b.as_ptr().wrapping_add(n16), out.as_mut_ptr().wrapping_add(n16));
            // SAFETY: AVX2 by construction; columns `n16..n` stay inside
            // the bounds asserted above.
            unsafe {
                gemv_avx2(
                    a.as_ptr(),
                    a_stride,
                    b,
                    b_stride,
                    out,
                    out_stride,
                    m,
                    k,
                    n - n16,
                    accumulate,
                )
            };
        }
    }

    fn scaled_dot_t(
        &self,
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        b_stride: usize,
        scale: f32,
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        if m == 0 || n == 0 {
            return;
        }
        assert!(a_stride >= k && b_stride >= k, "scaled_dot_t strides below k");
        assert!(
            a.len() >= (m - 1) * a_stride + k
                && b.len() >= (n - 1) * b_stride + k
                && out.len() >= m * n,
            "scaled_dot_t operand slices too short for {m}x{k}x{n}"
        );
        // SAFETY: AVX2 by construction, AVX-512F detected; the asserts
        // above bound every address the kernels form.
        unsafe {
            gemm_t(
                std::arch::is_x86_feature_detected!("avx512f"),
                a.as_ptr(),
                a_stride,
                b.as_ptr(),
                b_stride,
                out.as_mut_ptr(),
                m,
                k,
                n,
            );
        }
        if scale != 1.0 {
            // SAFETY: AVX2 by construction.
            unsafe { scale_inplace_avx2(&mut out[..m * n], scale) };
        }
    }

    fn matmul_f16(&self, a: &[F16], b: &[F16], out: &mut [f32], m: usize, k: usize, n: usize) {
        assert!(
            a.len() >= m * k && b.len() >= k * n && out.len() >= m * n,
            "f16 matmul operand slices too short for {m}x{k}x{n}"
        );
        if m == 0 || n == 0 {
            return;
        }
        // SAFETY: AVX2 by construction, AVX-512F detected; bounds asserted
        // above.
        unsafe {
            matmul_f16_widening(std::arch::is_x86_feature_detected!("avx512f"), a, b, out, m, k, n);
        }
    }

    fn matmul_i8_i32(&self, a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
        assert!(
            a.len() >= m * k && b.len() >= k * n && out.len() >= m * n,
            "i8 matmul operand slices too short for {m}x{k}x{n}"
        );
        // SAFETY: AVX2 by construction; bounds asserted above.
        unsafe {
            matmul_i8_avx2(a.as_ptr(), b.as_ptr(), out.as_mut_ptr(), m, k, n);
        }
    }

    fn row_max(&self, row: &[f32]) -> f32 {
        // SAFETY: AVX2 by construction; operates on the slice directly.
        unsafe { row_max_avx2(row) }
    }

    fn div_inplace(&self, row: &mut [f32], denom: f32) {
        // SAFETY: AVX2 by construction.
        unsafe { div_inplace_avx2(row, denom) }
    }

    fn norm_apply(&self, row: &mut [f32], mean: f32, inv_std: f32, gamma: &[f32], beta: &[f32]) {
        assert!(
            gamma.len() >= row.len() && beta.len() >= row.len(),
            "norm params shorter than row"
        );
        // SAFETY: AVX2 by construction; param bounds asserted above.
        unsafe { norm_apply_avx2(row, mean, inv_std, gamma, beta) }
    }

    fn rms_apply(&self, row: &mut [f32], inv_rms: f32, gamma: &[f32]) {
        assert!(gamma.len() >= row.len(), "rms gamma shorter than row");
        // SAFETY: AVX2 by construction; param bounds asserted above.
        unsafe { rms_apply_avx2(row, inv_rms, gamma) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ScalarBackend;

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Deterministic, sign-mixed, magnitude-varied values.
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2_654_435_761).wrapping_add(seed);
                (x as f32 / u32::MAX as f32 - 0.5) * (1.0 + (i % 7) as f32)
            })
            .collect()
    }

    // Edge-heavy size set: exercises 32/16-column panels, the 8-panel
    // tail, masked and scalar column tails, 4-row/1-row boundaries, every
    // small-m row count (1..=7, the decode kernels) including multi-block
    // GEMV rows, n >> k, and k = 0.
    const SIZES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 0, 5),
        (3, 7, 5),
        (4, 8, 8),
        (5, 16, 17),
        (8, 32, 16),
        (2, 5, 23),
        (7, 33, 40),
        (9, 12, 31),
        (16, 24, 64),
        (12, 10, 55),
        (8, 17, 96),
        (1, 40, 47),
        (1, 17, 33),
        (1, 9, 2100),
        (2, 40, 1000),
        (3, 0, 17),
        (3, 6, 700),
        (4, 23, 48),
        (5, 9, 79),
        (6, 31, 16),
        (7, 64, 97),
        (7, 5, 600),
        (8, 0, 40),
        (10, 19, 49),
        (11, 33, 113),
    ];

    #[test]
    #[ignore = "manual perf probe"]
    fn perf_probe() {
        let Some(simd) = SimdBackend::try_new() else { return };
        let (m, k, n) = (64usize, 512usize, 512usize);
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let mut out = vec![0.0f32; m * n];
        let mut bpack = vec![0.0f32; k * n];
        let reps = 50;
        let gmac = (m * k * n) as f64 / 1e9;
        // Best-of-N: robust against contention spikes on shared hosts.
        let best = |mut f: Box<dyn FnMut() + '_>| {
            let mut lo = f64::INFINITY;
            for _ in 0..reps {
                let t0 = std::time::Instant::now();
                f();
                lo = lo.min(t0.elapsed().as_secs_f64() * 1e6);
            }
            lo
        };

        let (ap, bp, op, bpp) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr(), bpack.as_mut_ptr());
        let fused_us = best(Box::new(|| unsafe {
            gemm_avx2_packing(ap, k, bp, n, bpp, op, n, m, k, n, false);
        }));
        let full_us = best(Box::new(|| simd.matmul_f32(&a, &b, &mut out, m, k, n)));

        println!(
            "fused gemm {fused_us:.0}us ({:.1} GMAC/s) | full {full_us:.0}us",
            gmac / (fused_us / 1e6),
        );

        // Decode shapes: weight-streaming GB/s is the figure of merit.
        let x = fill(512, 3);
        for (name, k, n, transposed) in [
            ("gemv 1x512x2048", 512, 2048, false),
            // Same bytes as the LM head, streamed in order: its roofline.
            ("gemv 1x512x32000", 512, 32000, false),
            ("lm head 1x512x32000", 512, 32000, true),
        ] {
            let w = fill(k * n, 4);
            let mut o = vec![0.0f32; n];
            let us = best(Box::new(|| {
                if transposed {
                    simd.matmul_t_f32(&x, &w, &mut o, 1, k, n);
                } else {
                    simd.matmul_f32(&x, &w, &mut o, 1, k, n);
                }
            }));
            println!("{name}: {us:.0}us ({:.1} GB/s of weights)", (k * n * 4) as f64 / us / 1e3);
        }

        // Why the small-m transposed product keeps its own kernel: the same
        // shapes through the `m >= 8` panel path (pack one panel, run one
        // row tile over it) are slower on the LM head, and no faster on the
        // attention-score shapes.
        for (m, k, n) in [
            (1usize, 512usize, 32000usize),
            (2, 512, 32000),
            (4, 512, 32000),
            (1, 64, 128),
            (4, 64, 128),
            (7, 64, 128),
        ] {
            let a = fill(m * k, 5);
            let bt = fill(n * k, 6);
            let mut o = vec![0.0f32; m * n];
            let avx512 = std::arch::is_x86_feature_detected!("avx512f");
            let (ap, bp, op) = (a.as_ptr(), bt.as_ptr(), o.as_mut_ptr());
            let small_us = best(Box::new(|| simd.matmul_t_f32(&a, &bt, &mut o, m, k, n)));
            let panels_us = best(Box::new(|| unsafe {
                gemm_panels(avx512, ap, k, op, m, k, n, |j, rows, panel, w| {
                    pack_t_panel(bp.add(j * k), k, rows, panel, w, k);
                });
            }));
            println!(
                "matmul_t {m}x{k}x{n}: {small_us:.1}us small-m kernel | {panels_us:.1}us panels"
            );
        }
    }

    #[test]
    fn simd_matmul_bit_identical_to_scalar() {
        let Some(simd) = SimdBackend::try_new() else { return };
        let scalar = ScalarBackend;
        for &(m, k, n) in SIZES {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut want = vec![0.0f32; m * n];
            let mut got = vec![9.0f32; m * n];
            scalar.matmul_f32(&a, &b, &mut want, m, k, n);
            simd.matmul_f32(&a, &b, &mut got, m, k, n);
            assert_eq!(got, want, "matmul {m}x{k}x{n}");

            let bt = fill(n * k, 3);
            let mut want_t = vec![0.0f32; m * n];
            let mut got_t = vec![9.0f32; m * n];
            scalar.matmul_t_f32(&a, &bt, &mut want_t, m, k, n);
            simd.matmul_t_f32(&a, &bt, &mut got_t, m, k, n);
            assert_eq!(got_t, want_t, "matmul_t {m}x{k}x{n}");
        }
    }

    #[test]
    fn simd_strided_gemm_and_scaled_dot_bit_identical_to_scalar() {
        let Some(simd) = SimdBackend::try_new() else { return };
        let scalar = ScalarBackend;
        for &(m, k, n) in SIZES {
            // Embed operands in wider slabs to exercise real strides.
            let (a_stride, b_stride, o_stride) = (k + 3, n + 5, n + 2);
            let a = fill(m.max(1) * a_stride, 4);
            let b = fill(k.max(1) * b_stride, 5);
            let base = fill(m.max(1) * o_stride, 6);
            for accumulate in [false, true] {
                let mut want = base.clone();
                let mut got = base.clone();
                scalar.gemm_strided(
                    &a, a_stride, &b, b_stride, &mut want, o_stride, m, k, n, accumulate,
                );
                simd.gemm_strided(
                    &a, a_stride, &b, b_stride, &mut got, o_stride, m, k, n, accumulate,
                );
                assert_eq!(got, want, "gemm_strided {m}x{k}x{n} acc={accumulate}");
            }

            let bt = fill(n.max(1) * (k + 2), 7);
            let mut want = vec![0.0f32; m * n];
            let mut got = vec![0.0f32; m * n];
            scalar.scaled_dot_t(&a, a_stride, &bt, k + 2, 0.125, &mut want, m, k, n);
            simd.scaled_dot_t(&a, a_stride, &bt, k + 2, 0.125, &mut got, m, k, n);
            assert_eq!(got, want, "scaled_dot_t {m}x{k}x{n}");
        }
    }

    /// The row-streaming GEMV called directly on strided slabs in both
    /// `accumulate` modes, and the two panel-driven products (the whole
    /// transposed product and the widening f16 GEMM) in both row-tile
    /// flavours, so the 16-column AVX2 tiles are pinned on AVX-512 hosts
    /// too — every size in [`SIZES`].
    #[test]
    fn decode_kernels_both_flavours_bit_identical_to_scalar() {
        let Some(_) = SimdBackend::try_new() else { return };
        let scalar = ScalarBackend;
        let flavours: &[bool] =
            if std::arch::is_x86_feature_detected!("avx512f") { &[false, true] } else { &[false] };
        for &(m, k, n) in SIZES {
            let (a_stride, b_stride, o_stride, bt_stride) = (k + 3, n + 5, n + 2, k + 2);
            let a = fill(m * a_stride, 15);
            let b = fill(k.max(1) * b_stride, 16);
            let bt = fill(n * bt_stride, 17);
            let base = fill(m * o_stride, 18);
            for accumulate in [false, true] {
                let mut want = base.clone();
                scalar.gemm_strided(
                    &a, a_stride, &b, b_stride, &mut want, o_stride, m, k, n, accumulate,
                );
                let mut got = base.clone();
                // SAFETY: AVX2 checked above; the slabs cover the strided
                // shapes (the bounds `check_gemm_bounds` asserts).
                unsafe {
                    gemv_avx2(
                        a.as_ptr(),
                        a_stride,
                        b.as_ptr(),
                        b_stride,
                        got.as_mut_ptr(),
                        o_stride,
                        m,
                        k,
                        n,
                        accumulate,
                    );
                }
                assert_eq!(got, want, "gemv {m}x{k}x{n} acc={accumulate}");
            }
            let mut want_t = vec![0.0f32; m * n];
            scalar.scaled_dot_t(&a, a_stride, &bt, bt_stride, 1.0, &mut want_t, m, k, n);
            let a16: Vec<F16> = fill(m * k, 19).into_iter().map(F16::from_f32).collect();
            let b16: Vec<F16> = fill(k * n, 20).into_iter().map(F16::from_f32).collect();
            let mut want_16 = vec![0.0f32; m * n];
            scalar.matmul_f16(&a16, &b16, &mut want_16, m, k, n);
            for &avx512 in flavours {
                let mut got_t = vec![9.0f32; m * n];
                let mut got_16 = vec![9.0f32; m * n];
                // SAFETY: AVX2 checked above, AVX-512F when `avx512`; `a`
                // covers `m` strided rows, `bt` `n`, the outputs `m * n`,
                // the f16 operands `m * k` and `k * n`.
                unsafe {
                    gemm_t(
                        avx512,
                        a.as_ptr(),
                        a_stride,
                        bt.as_ptr(),
                        bt_stride,
                        got_t.as_mut_ptr(),
                        m,
                        k,
                        n,
                    );
                    matmul_f16_widening(avx512, &a16, &b16, &mut got_16, m, k, n);
                }
                assert_eq!(got_t, want_t, "gemm_t avx512={avx512} {m}x{k}x{n}");
                assert_eq!(got_16, want_16, "f16 avx512={avx512} {m}x{k}x{n}");
            }
        }
    }

    /// From `m = 8` up the f16 GEMM widens `b` panel by panel: after a
    /// 64x512x512 product the pool holds the widened `a` (`m * k`) and one
    /// `k x 32` panel, never a widened copy of `b`.
    #[test]
    fn f16_matmul_scratch_stays_panel_sized() {
        let Some(simd) = SimdBackend::try_new() else { return };
        let (m, k, n) = (64, 512, 512);
        let a: Vec<F16> = fill(m * k, 21).into_iter().map(F16::from_f32).collect();
        let b: Vec<F16> = fill(k * n, 22).into_iter().map(F16::from_f32).collect();
        let mut out = vec![0.0f32; m * n];
        crate::workspace::reset_thread_workspace();
        simd.matmul_f16(&a, &b, &mut out, m, k, n);
        let stats = crate::workspace::thread_workspace_stats();
        assert_eq!(stats.pooled, 2, "{stats:?}");
        assert!(stats.largest <= (m * k).max(k * 32), "{stats:?}");
    }

    #[test]
    fn simd_f16_and_i8_matmul_bit_identical_to_scalar() {
        let Some(simd) = SimdBackend::try_new() else { return };
        let scalar = ScalarBackend;
        for &(m, k, n) in SIZES {
            let a16: Vec<F16> = fill(m * k, 8).into_iter().map(F16::from_f32).collect();
            let b16: Vec<F16> = fill(k * n, 9).into_iter().map(F16::from_f32).collect();
            let mut want = vec![0.0f32; m * n];
            let mut got = vec![9.0f32; m * n];
            scalar.matmul_f16(&a16, &b16, &mut want, m, k, n);
            simd.matmul_f16(&a16, &b16, &mut got, m, k, n);
            assert_eq!(got, want, "f16 matmul {m}x{k}x{n}");

            let a8: Vec<i8> = fill(m * k, 10).iter().map(|v| (v * 40.0) as i8).collect();
            let b8: Vec<i8> = fill(k * n, 11).iter().map(|v| (v * 40.0) as i8).collect();
            let mut want_i = vec![0i32; m * n];
            let mut got_i = vec![7i32; m * n];
            scalar.matmul_i8_i32(&a8, &b8, &mut want_i, m, k, n);
            simd.matmul_i8_i32(&a8, &b8, &mut got_i, m, k, n);
            assert_eq!(got_i, want_i, "i8 matmul {m}x{k}x{n}");
        }
    }

    #[test]
    fn simd_elementwise_helpers_bit_identical_to_scalar() {
        let Some(simd) = SimdBackend::try_new() else { return };
        let scalar = ScalarBackend;
        for len in [0usize, 1, 7, 8, 9, 31, 64, 100] {
            let base = fill(len, 12);
            let gamma = fill(len, 13);
            let beta = fill(len, 14);

            assert_eq!(simd.row_max(&base), scalar.row_max(&base), "row_max len={len}");

            let mut a = base.clone();
            let mut b = base.clone();
            scalar.div_inplace(&mut a, 3.7);
            simd.div_inplace(&mut b, 3.7);
            assert_eq!(a, b, "div len={len}");

            let mut a = base.clone();
            let mut b = base.clone();
            scalar.norm_apply(&mut a, 0.21, 1.9, &gamma, &beta);
            simd.norm_apply(&mut b, 0.21, 1.9, &gamma, &beta);
            assert_eq!(a, b, "norm len={len}");

            let mut a = base.clone();
            let mut b = base;
            scalar.rms_apply(&mut a, 0.83, &gamma);
            simd.rms_apply(&mut b, 0.83, &gamma);
            assert_eq!(a, b, "rms len={len}");
        }
    }
}
