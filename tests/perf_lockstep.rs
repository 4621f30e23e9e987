//! Lockstep suite for the hot-path rewrite (see DESIGN.md §8): the
//! optimized implementations must be *indistinguishable* from their
//! retained references.
//!
//! 1. **Kernel bit-identity** — the blocked `matmul`/`matmul_t` kernels
//!    and their `_into` scratch variants produce bit-identical results to
//!    the naive triple loops retained in `mtp_tensor::naive`, across
//!    arbitrary shapes (including unroll-tail shapes and exact zeros,
//!    which the old kernel special-cased).
//! 2. **Attention bit-identity** — the strided zero-alloc attention path
//!    equals the split/concat formulation it replaced, bit for bit.
//! 3. **Sink equivalence** — aggregate-only runs ([`mtp::sim::MakespanOnly`])
//!    report exactly the same makespan, per-chip breakdowns, and byte
//!    counters as full-trace runs, on arbitrary well-formed program sets.
//! 4. **Stream equivalence** — one `Instr::DmaStream` behaves exactly
//!    like the per-tile `Instr::Dma` run it stands for: the same
//!    `RunStats`, the same traced events, and the same errors, under
//!    random stall/slow/flap/fail-stop plans whose events fall mid-stream.

use mtp::kernels::Kernel;
use mtp::model::reference::{self, AttnMask};
use mtp::sim::{ChipSpec, FaultEvent, FaultPlan, Instr, Machine, MakespanOnly, MemPath, Program};
use mtp::tensor::{naive, Shape, Tensor};
use proptest::prelude::*;

/// Deterministic pseudo-random matrix with exact zeros sprinkled in
/// (about 1 in 7 entries), so the lockstep also covers the inputs the
/// old kernel's `a == 0.0` skip special-cased.
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

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.shape(), b.shape(), "{}: shape mismatch", what);
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{}: bit mismatch at {} ({} vs {})",
            what,
            i,
            x,
            y
        );
    }
    Ok(())
}

/// A random blocking stream: either engine, a tile of 0 (read as 1), 7,
/// 256 or 4096 bytes, and a byte count that is zero, below one tile, an
/// exact multiple of the tile, or anything up to 40 tiles. Zero-byte
/// streams are pushed raw (`Program::push_stream` drops them).
fn random_stream(next: &mut impl FnMut() -> u64) -> Instr {
    let path = if next().is_multiple_of(3) { MemPath::L2ToL1 } else { MemPath::L3ToL2 };
    let tile = [0, 7, 256, 4096][(next() % 4) as usize];
    let t = tile.max(1);
    let bytes = match next() % 4 {
        0 => 0,
        1 => next() % t,
        2 => t * (next() % 40 + 1),
        _ => next() % (40 * t + 1),
    };
    Instr::DmaStream { path, bytes, tile }
}

/// `programs` with every stream expanded into its per-tile blocking
/// `Dma`s: the reference a stream must be indistinguishable from.
fn expand_streams(programs: &[Program]) -> Vec<Program> {
    programs
        .iter()
        .map(|p| {
            let mut out = Program::new();
            for &instr in p.instrs() {
                match instr {
                    Instr::DmaStream { path, bytes, tile } => {
                        let tile = tile.max(1);
                        let mut left = bytes;
                        while left > 0 {
                            let chunk = left.min(tile);
                            out.push(Instr::Dma { path, bytes: chunk });
                            left -= chunk;
                        }
                    }
                    other => out.push(other),
                }
            }
            out
        })
        .collect()
}

/// Ring-exchange program set (same generator family as
/// `simulator_properties.rs`), exercising compute, both DMA engines,
/// blocking streams, async DMA with end-of-program drains, syncs, and
/// sends/recvs.
fn program_set(n_chips: usize, seed: u64) -> Vec<Program> {
    let mut programs = Vec::with_capacity(n_chips);
    for c in 0..n_chips {
        let mut p = Program::new();
        let mut state = seed.wrapping_add(c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..(next() % 7 + 1) {
            match next() % 6 {
                0 => p.push(Instr::compute(Kernel::gemv(
                    (next() % 256 + 1) as usize,
                    (next() % 256 + 1) as usize,
                ))),
                1 => p.push(Instr::Dma { path: MemPath::L2ToL1, bytes: next() % 100_000 }),
                2 => p.push(Instr::Dma { path: MemPath::L3ToL2, bytes: next() % 100_000 }),
                3 => {
                    // Async transfer, sometimes left in flight at program
                    // end (the deterministic-drain path).
                    let tag = mtp::sim::DmaTag(i as u32);
                    let path = if next() % 2 == 0 { MemPath::L3ToL2 } else { MemPath::L2ToL1 };
                    p.push(Instr::DmaAsync { path, bytes: next() % 500_000 + 1, tag });
                    if next() % 2 == 0 {
                        p.push(Instr::DmaWait(tag));
                    }
                }
                4 => p.push(random_stream(&mut next)),
                _ => p.push(Instr::Sync((next() % 3) as u32)),
            }
        }
        if n_chips > 1 {
            p.push(Instr::send((c + 1) % n_chips, c as u64, next() % 10_000 + 1));
            p.push(Instr::recv((c + n_chips - 1) % n_chips, ((c + n_chips - 1) % n_chips) as u64));
        }
        programs.push(p);
    }
    programs
}

/// A random fault plan whose events fall mid-stream: each event cycle is
/// either one of `edges` (busy-interval ends of the fault-free run, so it
/// lands exactly on a tile boundary) or uniform in `[0, max edge]`. Three
/// stalls, a slowdown and a link flap per chip, and in about a third of
/// the plans one fail-stop.
fn random_plan(n_chips: usize, edges: &[u64], seed: u64) -> FaultPlan {
    let mut state = seed.wrapping_mul(0xd134_2543_de82_ef95).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let span = edges.iter().max().map_or(1, |&m| m + 1);
    let mut at = || match edges.len() {
        0 => 0,
        n if next() % 2 == 0 => edges[(next() % n as u64) as usize],
        _ => next() % span,
    };
    let mut events = Vec::new();
    for chip in 0..n_chips {
        for k in 0..3 {
            events.push(FaultEvent::Stall { chip, at: at(), cycles: 1 + 977 * k });
        }
        let (from, until) = (at(), at());
        let cycles = until.saturating_sub(from).max(1);
        events.push(FaultEvent::Slow { chip, from, cycles, factor_pct: 150 });
        events.push(FaultEvent::Flap { chip, from: until, cycles, factor_pct: 300 });
    }
    let fail_at = at();
    if fail_at.is_multiple_of(3) {
        events.push(FaultEvent::FailStop { chip: fail_at as usize % n_chips, at: fail_at });
    }
    FaultPlan::explicit(events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Blocked matmul == naive matmul, bit for bit, arbitrary shapes.
    #[test]
    fn prop_matmul_lockstep(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..48,
        seed in 0u64..10_000,
    ) {
        let a = tensor_with_zeros(m, k, seed);
        let b = tensor_with_zeros(k, n, seed.wrapping_add(1));
        let golden = naive::matmul(&a, &b).unwrap();
        let blocked = a.try_matmul(&b).unwrap();
        assert_bits_eq(&blocked, &golden, "try_matmul")?;
        // The scratch variant must agree even when the buffer starts with
        // stale shape and contents.
        let mut out = tensor_with_zeros(3, 5, seed.wrapping_add(2));
        a.matmul_into(&b, &mut out).unwrap();
        assert_bits_eq(&out, &golden, "matmul_into")?;
    }

    /// Blocked matmul_t == naive matmul_t, bit for bit, arbitrary shapes.
    #[test]
    fn prop_matmul_t_lockstep(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..48,
        seed in 0u64..10_000,
    ) {
        let a = tensor_with_zeros(m, k, seed);
        let bt = tensor_with_zeros(n, k, seed.wrapping_add(3));
        let golden = naive::matmul_t(&a, &bt).unwrap();
        let blocked = a.try_matmul_t(&bt).unwrap();
        assert_bits_eq(&blocked, &golden, "try_matmul_t")?;
        let mut out = tensor_with_zeros(2, 9, seed.wrapping_add(4));
        a.matmul_t_into(&bt, &mut out).unwrap();
        assert_bits_eq(&out, &golden, "matmul_t_into")?;
    }

    /// Decode-shaped (m = 1..7) matmul and matmul_t == naive, bit for
    /// bit, with column counts straddling the 16/32-lane tails and
    /// n >> k — the row-streaming GEMV and transposing LM-head paths.
    #[test]
    fn prop_decode_matmul_lockstep(
        m in 1usize..8,
        k in 1usize..48,
        n in prop::sample::select(vec![1usize, 15, 16, 17, 31, 32, 33, 64, 65, 100, 1000]),
        seed in 0u64..10_000,
    ) {
        let a = tensor_with_zeros(m, k, seed);
        let b = tensor_with_zeros(k, n, seed.wrapping_add(1));
        let bt = tensor_with_zeros(n, k, seed.wrapping_add(2));
        let mut out = Tensor::default();
        a.matmul_into(&b, &mut out).unwrap();
        assert_bits_eq(&out, &naive::matmul(&a, &b).unwrap(), "decode matmul_into")?;
        a.matmul_t_into(&bt, &mut out).unwrap();
        assert_bits_eq(&out, &naive::matmul_t(&a, &bt).unwrap(), "decode matmul_t_into")?;
    }

    /// The strided zero-alloc attention equals the split/concat
    /// formulation it replaced, bit for bit (including grouped-query
    /// configurations and causal masks).
    #[test]
    fn prop_attention_lockstep(
        sq in 1usize..9,
        skv_extra in 0usize..8,
        head_dim in prop::sample::select(vec![2usize, 4, 8]),
        n_kv in prop::sample::select(vec![1usize, 2, 4]),
        group in prop::sample::select(vec![1usize, 2]),
        causal in prop::sample::select(vec![false, true]),
        seed in 0u64..10_000,
    ) {
        let n_heads = n_kv * group;
        let skv = sq + skv_extra;
        let q = tensor_with_zeros(sq, n_heads * head_dim, seed);
        let k = tensor_with_zeros(skv, n_kv * head_dim, seed.wrapping_add(5));
        let v = tensor_with_zeros(skv, n_kv * head_dim, seed.wrapping_add(6));
        let mask = if causal { AttnMask::Causal { q_offset: skv - sq } } else { AttnMask::None };
        let fast = reference::attention_heads(&q, &k, &v, head_dim, mask).unwrap();
        // Reference formulation: per-head split, dense kernels, concat.
        let qs = q.split_cols(n_heads).unwrap();
        let ks = k.split_cols(n_kv).unwrap();
        let vs = v.split_cols(n_kv).unwrap();
        let scale = 1.0 / (head_dim as f32).sqrt();
        let mut outs = Vec::new();
        for (h, qh) in qs.iter().enumerate() {
            let mut scores = qh.try_matmul_t(&ks[h / group]).unwrap().scaled(scale);
            if let AttnMask::Causal { q_offset } = mask {
                for i in 0..sq {
                    for j in (q_offset + i + 1)..skv {
                        scores.set(i, j, f32::NEG_INFINITY);
                    }
                }
            }
            let probs = mtp::kernels::softmax_rows(&scores);
            outs.push(probs.try_matmul(&vs[h / group]).unwrap());
        }
        let golden = Tensor::concat_cols(&outs).unwrap();
        assert_bits_eq(&fast, &golden, "attention_heads")?;
    }

    /// MakespanOnly runs report identical makespan, per-chip breakdowns,
    /// and byte counters to full-trace runs.
    #[test]
    fn prop_makespan_only_matches_full_trace(
        n_chips in 1usize..8,
        seed in 0u64..10_000,
    ) {
        let machine = Machine::homogeneous(ChipSpec::siracusa(), n_chips);
        let programs = program_set(n_chips, seed);
        let plain = machine.run(&programs).unwrap();
        let (traced, _) = machine.run_traced(&programs).unwrap();
        prop_assert_eq!(&plain, &traced, "sink choice must not change aggregates");
        let (with_sink, _) = machine.run_with_sink(&programs, MakespanOnly).unwrap();
        prop_assert_eq!(&plain, &with_sink);
    }

    /// A program with streams gives the same `RunStats`, traced events
    /// and errors as the same program with each stream expanded into
    /// per-tile `Dma`s — fault-free and under random fault plans whose
    /// events fall mid-stream, on both sinks.
    #[test]
    fn prop_streams_match_per_tile_dma(
        n_chips in 1usize..6,
        seed in 0u64..10_000,
        plan_seed in 0u64..10_000,
    ) {
        let programs = program_set(n_chips, seed);
        let expanded = expand_streams(&programs);
        let bare = Machine::homogeneous(ChipSpec::siracusa(), n_chips);
        let (_, trace) = bare.run_traced(&expanded).unwrap();
        let edges: Vec<u64> = trace.events().iter().map(|e| e.end).collect();
        for plan in [FaultPlan::none(), random_plan(n_chips, &edges, plan_seed)] {
            let machine = bare.clone().with_faults(plan);
            prop_assert_eq!(machine.run(&programs), machine.run(&expanded));
            prop_assert_eq!(machine.run_traced(&programs), machine.run_traced(&expanded));
        }
    }
}
