//! Lockstep and error-bound suite for the backend/dtype layer (PR 8):
//!
//! 1. **Backend bit-identity** — every available [`mtp::tensor::Backend`]
//!    (the scalar fallback, and the SIMD backend where the host supports
//!    it) produces bit-identical f32 GEMM results to the retained naive
//!    triple loops, over arbitrary shapes including the vector-width tail
//!    mixes.
//! 2. **f16 error bounds** — the half-precision matmul is bit-identical
//!    to an f32 matmul of the *rounded* operands (widening is exact and
//!    the accumulation chains are shared), and its deviation from the
//!    unrounded f32 product stays inside the analytic representation
//!    bound, asserted per output element.
//! 3. **int8 error bounds** — symmetric quantization round-trips within
//!    half a quantization step, saturates exactly at the ±127 codes, and
//!    the i32-accumulated integer matmul lands within the analytic
//!    quantization-noise bound of the f32 product.
//! 4. **Workspace alias/reuse** — over arbitrary acquire/release
//!    interleavings no two live scratch buffers overlap, and in steady
//!    state (a warmed pool seeing a repeating size mix) the allocation
//!    count is pinned while acquisitions keep climbing — including when
//!    driven through the real backend-dispatched kernels — and the
//!    transposed kernels never leave more than one `k x 32` panel of
//!    scratch behind, even for a 32000-row LM head.
//! 5. **Decode shapes** — the small-`m` kernels (every row count 1..=7,
//!    column counts straddling the 16/32-lane tails, `n >> k`, `k = 0`)
//!    on strided slabs, in both `accumulate` modes, bit-match the naive
//!    chains on every backend.

use mtp::tensor::{
    dequantize, madd, naive, quantize_symmetric, reset_thread_workspace, thread_workspace_stats,
    Backend, ScalarBackend, Shape, Tensor, Workspace,
};
use proptest::prelude::*;

/// Deterministic pseudo-random matrix in [-1, 1] with exact zeros
/// sprinkled in (same generator family as `perf_lockstep.rs`).
fn tensor_with_zeros(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::from_fn(Shape::mat(rows, cols), |(r, c)| {
        let mut z =
            seed.wrapping_add(r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(c as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        if z.is_multiple_of(7) {
            0.0
        } else {
            ((z >> 40) as f32 / (1 << 24) as f32) * 2.0 - 1.0
        }
    })
}

/// Every backend reachable on this host, with its name for diagnostics.
fn all_backends() -> Vec<(&'static str, Box<dyn Backend>)> {
    let mut backends: Vec<(&'static str, Box<dyn Backend>)> =
        vec![("scalar", Box::new(ScalarBackend))];
    #[cfg(target_arch = "x86_64")]
    if let Some(simd) = mtp::tensor::SimdBackend::try_new() {
        backends.push(("simd", Box::new(simd)));
    }
    backends
}

/// Deterministic sign-mixed slab of `len` values (for raw-slice shapes
/// `Tensor` cannot hold, such as `k = 0`).
fn slab(len: usize, seed: u64) -> Vec<f32> {
    tensor_with_zeros(1, len.max(1), seed).as_slice()[..len].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Decode shapes on strided slabs: `gemm_strided` (both `accumulate`
    /// modes) and `scaled_dot_t` equal the naive ascending-`p` `madd`
    /// chains, bit for bit, on every backend.
    #[test]
    fn prop_decode_shapes_every_backend_bit_matches_naive(
        m in 1usize..8,
        k in 0usize..48,
        n in prop::sample::select(vec![1usize, 7, 15, 16, 17, 31, 32, 33, 48, 63, 65, 97, 1000]),
        pad in 0usize..4,
        accumulate in prop::sample::select(vec![false, true]),
        seed in 0u64..10_000,
    ) {
        let (a_stride, b_stride, o_stride, bt_stride) = (k + pad, n + pad, n + 2 * pad, k + 1);
        let a = slab(m * a_stride, seed);
        let b = slab(k * b_stride, seed.wrapping_add(1));
        let bt = slab(n * bt_stride, seed.wrapping_add(2));
        let base = slab(m * o_stride, seed.wrapping_add(3));
        let mut want = base.clone();
        let mut want_t = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = if accumulate { want[i * o_stride + j] } else { 0.0 };
                let mut dot = 0.0f32;
                for p in 0..k {
                    acc = madd(acc, a[i * a_stride + p], b[p * b_stride + j]);
                    dot = madd(dot, a[i * a_stride + p], bt[j * bt_stride + p]);
                }
                want[i * o_stride + j] = acc;
                want_t[i * n + j] = dot * 0.125;
            }
        }
        for (name, be) in all_backends() {
            let mut got = base.clone();
            be.gemm_strided(&a, a_stride, &b, b_stride, &mut got, o_stride, m, k, n, accumulate);
            for (i, (x, y)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} gemm_strided elem {}", name, i);
            }
            let mut got_t = vec![f32::NAN; m * n];
            be.scaled_dot_t(&a, a_stride, &bt, bt_stride, 0.125, &mut got_t, m, k, n);
            for (i, (x, y)) in got_t.iter().zip(&want_t).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} scaled_dot_t elem {}", name, i);
            }
        }
    }

    /// f32 GEMM bit-identity: every backend == naive, for matmul and
    /// matmul_t, across shapes covering zmm/ymm panels and scalar tails.
    #[test]
    fn prop_every_backend_bit_matches_naive(
        m in 1usize..20,
        k in 1usize..40,
        n in 1usize..70,
        seed in 0u64..10_000,
    ) {
        let a = tensor_with_zeros(m, k, seed);
        let b = tensor_with_zeros(k, n, seed.wrapping_add(1));
        let bt = tensor_with_zeros(n, k, seed.wrapping_add(2));
        let golden = naive::matmul(&a, &b).unwrap();
        let golden_t = naive::matmul_t(&a, &bt).unwrap();
        for (name, be) in all_backends() {
            let mut out = vec![f32::NAN; m * n];
            be.matmul_f32(a.as_slice(), b.as_slice(), &mut out, m, k, n);
            for (i, (x, y)) in out.iter().zip(golden.as_slice()).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} matmul elem {}", name, i);
            }
            let mut out_t = vec![f32::NAN; m * n];
            be.matmul_t_f32(a.as_slice(), bt.as_slice(), &mut out_t, m, k, n);
            for (i, (x, y)) in out_t.iter().zip(golden_t.as_slice()).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} matmul_t elem {}", name, i);
            }
        }
    }

    /// f16 matmul: bit-identical to the f32 product of the rounded
    /// operands, and within the analytic representation bound of the
    /// unrounded product.
    #[test]
    fn prop_f16_matmul_bit_exact_on_rounded_and_bounded_vs_f32(
        m in 1usize..12,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..10_000,
    ) {
        let a = tensor_with_zeros(m, k, seed);
        let b = tensor_with_zeros(k, n, seed.wrapping_add(3));
        let (ah, bh) = (a.to_f16(), b.to_f16());
        let half = ah.try_matmul(&bh).unwrap();
        // Bit-identity leg: widening is exact, so the f16 matmul must
        // equal the f32 matmul of the widened (rounded) operands bit for
        // bit — same kernels, same chains.
        let rounded = naive::matmul(&ah.to_f32_tensor(), &bh.to_f32_tensor()).unwrap();
        for (i, (x, y)) in half.as_slice().iter().zip(rounded.as_slice()).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "f16 vs rounded-f32 elem {}", i);
        }
        // Error-bound leg: each operand rounds with relative error at
        // most 2^-11, so each product term errs by ~2*2^-11 relative;
        // bound the output error by that factor of the absolute-value
        // product (plus f32 accumulation slack).
        let exact = naive::matmul(&a, &b).unwrap();
        let abs_a = Tensor::from_fn(a.shape(), |(r, c)| a.at(r, c).abs());
        let abs_b = Tensor::from_fn(b.shape(), |(r, c)| b.at(r, c).abs());
        let abs_dot = naive::matmul(&abs_a, &abs_b).unwrap();
        for (i, (x, y)) in half.as_slice().iter().zip(exact.as_slice()).enumerate() {
            let bound = 2.5e-3 * abs_dot.as_slice()[i] + 1e-5;
            prop_assert!(
                (x - y).abs() <= bound,
                "f16 elem {} err {} exceeds bound {}",
                i,
                (x - y).abs(),
                bound
            );
        }
    }

    /// Symmetric int8 quantization: round-trip within half a step, codes
    /// saturate exactly at ±127, and the max-magnitude element uses the
    /// extreme code.
    #[test]
    fn prop_quant_roundtrip_bounded_and_saturating(
        rows in 1usize..10,
        cols in 1usize..24,
        scale_mille in 1000u32..50_000,
        seed in 0u64..10_000,
    ) {
        let t = tensor_with_zeros(rows, cols, seed).scaled(scale_mille as f32 / 1000.0);
        let q = quantize_symmetric(&t);
        let step = q.quantization().scale;
        let back = dequantize(&q);
        prop_assert!(t.max_abs_diff(&back).unwrap() <= step * 0.5 + step * 1e-4);
        prop_assert!(q.as_slice().iter().all(|&v| (-127..=127).contains(&v)),
            "a code escaped the symmetric range");
        if t.max_abs() > 0.0 {
            prop_assert!(q.as_slice().iter().any(|&v| v.abs() == 127),
                "the max-magnitude element must map to the extreme code");
        }
    }

    /// Integer matmul with i32 accumulation: exact in integers (all
    /// backends agree bit for bit) and within the analytic
    /// quantization-noise bound of the f32 product.
    #[test]
    fn prop_int8_matmul_error_bounded(
        m in 1usize..10,
        k in 1usize..32,
        n in 1usize..24,
        seed in 0u64..10_000,
    ) {
        let a = tensor_with_zeros(m, k, seed);
        let b = tensor_with_zeros(k, n, seed.wrapping_add(4));
        let (qa, qb) = (quantize_symmetric(&a), quantize_symmetric(&b));
        let (acc, shape, scale) = qa.matmul_i32(&qb).unwrap();
        // Integer exactness: the scalar backend must reproduce the active
        // backend's accumulators exactly.
        let mut scalar_acc = vec![0i32; m * n];
        ScalarBackend.matmul_i8_i32(qa.as_slice(), qb.as_slice(), &mut scalar_acc, m, k, n);
        prop_assert_eq!(&acc, &scalar_acc, "integer sums must be backend-independent");
        // Error bound: |a - sa*qa| <= sa/2 per element (no saturation for
        // scales derived from max_abs), so each output errs by at most
        // sum_k |a|*sb/2 + |b|*sa/2 + sa*sb/4.
        let (sa, sb) = (qa.quantization().scale, qb.quantization().scale);
        let exact = naive::matmul(&a, &b).unwrap();
        let approx = Tensor::from_vec(shape, acc.iter().map(|&v| v as f32 * scale).collect()).unwrap();
        for i in 0..m {
            let row_abs: f32 = (0..k).map(|p| a.at(i, p).abs()).sum();
            for j in 0..n {
                let col_abs: f32 = (0..k).map(|p| b.at(p, j).abs()).sum();
                let bound = 0.5 * sb * row_abs + 0.5 * sa * col_abs
                    + 0.25 * sa * sb * k as f32 + 1e-4;
                let err = (exact.at(i, j) - approx.at(i, j)).abs();
                prop_assert!(err <= bound, "({},{}) err {} exceeds bound {}", i, j, err, bound);
            }
        }
    }

    /// Workspace alias safety: over arbitrary acquire/release
    /// interleavings, the address ranges of live buffers never overlap.
    #[test]
    fn prop_workspace_live_buffers_never_alias(
        n_ops in 1usize..40,
        seed in 0u64..10_000,
    ) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut w = Workspace::new();
        let mut live: Vec<Vec<f32>> = Vec::new();
        for _ in 0..n_ops {
            let (op, len) = (next() % 2, (next() % 511 + 1) as usize);
            if op == 0 || live.is_empty() {
                live.push(w.acquire(len));
            } else {
                let buf = live.remove(len % live.len());
                w.release(buf);
            }
            // Pairwise non-overlap of every live buffer's address range.
            for i in 0..live.len() {
                for j in (i + 1)..live.len() {
                    let (ai, ni) = (live[i].as_ptr() as usize, live[i].capacity() * 4);
                    let (aj, nj) = (live[j].as_ptr() as usize, live[j].capacity() * 4);
                    prop_assert!(
                        ai + ni <= aj || aj + nj <= ai,
                        "live buffers {} and {} overlap",
                        i,
                        j
                    );
                }
            }
        }
        for buf in live {
            w.release(buf);
        }
    }

    /// Workspace steady state: once the pool has seen one round of a
    /// repeating size mix, further rounds acquire without allocating.
    #[test]
    fn prop_workspace_steady_state_allocation_free(
        n_sizes in 1usize..8,
        rounds in 2usize..6,
        seed in 0u64..10_000,
    ) {
        let mut state = seed.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let sizes: Vec<usize> = (0..n_sizes).map(|_| (next() % 1023 + 1) as usize).collect();
        let mut w = Workspace::new();
        let run_round = |w: &mut Workspace| {
            let held: Vec<Vec<f32>> = sizes.iter().map(|&s| w.acquire(s)).collect();
            for buf in held {
                w.release(buf);
            }
        };
        run_round(&mut w);
        let warm = w.stats().allocations;
        for _ in 0..rounds {
            run_round(&mut w);
        }
        let s = w.stats();
        prop_assert_eq!(s.allocations, warm, "steady state allocated");
        prop_assert_eq!(s.acquisitions, (rounds as u64 + 1) * sizes.len() as u64);
    }
}

/// The real dispatched kernels hold the steady-state property end to
/// end: after one warm pass, repeated matmul/matmul_t calls on the same
/// shapes draw every packing buffer from the pool.
#[test]
fn kernel_scratch_is_allocation_free_in_steady_state() {
    let a = tensor_with_zeros(16, 96, 1);
    let b = tensor_with_zeros(96, 64, 2);
    let bt = tensor_with_zeros(64, 96, 3);
    let mut out = Tensor::default();
    let mut out_t = Tensor::default();
    reset_thread_workspace();
    a.matmul_into(&b, &mut out).unwrap();
    a.matmul_t_into(&bt, &mut out_t).unwrap();
    let warm = thread_workspace_stats();
    for _ in 0..10 {
        a.matmul_into(&b, &mut out).unwrap();
        a.matmul_t_into(&bt, &mut out_t).unwrap();
    }
    let steady = thread_workspace_stats();
    assert_eq!(
        steady.allocations, warm.allocations,
        "steady-state kernels allocated fresh scratch"
    );
    assert!(steady.acquisitions >= warm.acquisitions, "acquisition counter must be monotone");
    reset_thread_workspace();
}

/// The transposed kernels keep at most one `k x 32` panel of scratch: an
/// LM-head-shaped `matmul_t` (1x512 · (32000x512)^T) and a prefill-shaped
/// one leave no larger buffer in the thread's pool, so the tied LM head
/// never stages a `k x n` transpose (65 MB at this shape).
#[test]
fn matmul_t_scratch_stays_panel_sized() {
    let k = 512;
    let table = tensor_with_zeros(32_000, k, 5);
    let hidden = tensor_with_zeros(1, k, 6);
    let prompt = tensor_with_zeros(24, k, 7);
    let mut out = Tensor::default();
    reset_thread_workspace();
    hidden.matmul_t_into(&table, &mut out).unwrap();
    let lm_head = thread_workspace_stats().largest;
    assert!(lm_head <= k * 32, "LM head left a {lm_head}-float scratch buffer");
    let golden = naive::matmul_t(&hidden, &table).unwrap();
    assert!(
        out.as_slice().iter().zip(golden.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits()),
        "LM head logits differ from naive"
    );
    prompt.matmul_t_into(&table, &mut out).unwrap();
    let prefill = thread_workspace_stats().largest;
    assert!(prefill <= k * 32, "prefill matmul_t left a {prefill}-float scratch buffer");
    reset_thread_workspace();
}
