//! Cycle-cost model for SPMD kernels on an octa-core MCU cluster.
//!
//! The model is deliberately analytical — the same level of fidelity the
//! paper extracts from GVSoC: per-kernel cycle counts that capture (a) the
//! ideal MAC throughput of the cluster, (b) fixed per-invocation overhead
//! (SPMD fork/join, loop prologue, DMA descriptor setup), and (c) the
//! utilization roll-off when tiles shrink, which is what makes very wide
//! partitioning lose energy efficiency in the paper's MobileBERT result.

use crate::Kernel;

/// Tunable parameters of the cluster cost model.
///
/// Defaults ([`CostParams::siracusa`]) model the 8-core Siracusa cluster at
/// 500 MHz executing int8 kernels with XpulpNN-style SIMD MACs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Number of worker cores in the cluster.
    pub cores: usize,
    /// Peak MACs per core per cycle for GEMM-shaped (data-reuse friendly)
    /// kernels. int8 SIMD dot-product units reach >1.
    pub gemm_macs_per_core_cycle: f64,
    /// Peak MACs per core per cycle for GEMV-shaped (streaming, no reuse)
    /// kernels; bounded by L1 load bandwidth per core.
    pub gemv_macs_per_core_cycle: f64,
    /// Elements per core per cycle for element-wise kernels.
    pub elemwise_per_core_cycle: f64,
    /// Cycles per element for softmax rows (exp evaluation dominates).
    pub softmax_cycles_per_elem: f64,
    /// Cycles per element for normalization kernels (two passes).
    pub norm_cycles_per_elem: f64,
    /// Fixed cycles per kernel invocation: SPMD fork/join barrier, loop
    /// prologue/epilogue, pointer setup.
    pub kernel_setup_cycles: u64,
    /// Saturation constant for the inner (reduction) dimension: utilization
    /// on the k-loop is `k / (k + inner_half)`.
    pub inner_dim_half: f64,
    /// Saturation constant for per-core output work: utilization on the
    /// output loop is `w / (w + output_half)` where `w` is output elements
    /// per core.
    pub output_half: f64,
    /// L1 TCDM capacity in bytes. Matmuls whose working set (operands at
    /// `elem_bytes`, accumulators at 4 bytes) exceeds L1 pay a tiling
    /// penalty: operand re-fetch passes and tight double-buffering stalls.
    pub l1_bytes: usize,
    /// Strength of the L1-overflow penalty: utilization is divided by
    /// `1 + l1_spill_penalty * max(0, working_set/l1_bytes - 0.5)`.
    pub l1_spill_penalty: f64,
    /// Bytes per operand element (1 for the int8 deployment).
    pub elem_bytes: usize,
}

impl CostParams {
    /// Parameters matching the Siracusa cluster the paper deploys on.
    #[must_use]
    pub const fn siracusa() -> Self {
        CostParams {
            cores: 8,
            gemm_macs_per_core_cycle: 1.0,
            gemv_macs_per_core_cycle: 1.0,
            elemwise_per_core_cycle: 1.0,
            softmax_cycles_per_elem: 8.0,
            norm_cycles_per_elem: 4.0,
            kernel_setup_cycles: 400,
            inner_dim_half: 24.0,
            output_half: 8.0,
            l1_bytes: 256 * 1024,
            l1_spill_penalty: 0.15,
            elem_bytes: 1,
        }
    }
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams::siracusa()
    }
}

/// Cycle-cost model of one cluster, derived from [`CostParams`].
///
/// ```
/// use mtp_kernels::{ClusterCostModel, Kernel};
/// let m = ClusterCostModel::siracusa();
/// assert!(m.cycles(&Kernel::gemv(512, 512)) > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterCostModel {
    params: CostParams,
}

impl ClusterCostModel {
    /// Builds a model from explicit parameters.
    #[must_use]
    pub const fn new(params: CostParams) -> Self {
        ClusterCostModel { params }
    }

    /// The default Siracusa-calibrated model.
    #[must_use]
    pub const fn siracusa() -> Self {
        ClusterCostModel::new(CostParams::siracusa())
    }

    /// The underlying parameters.
    #[must_use]
    pub const fn params(&self) -> &CostParams {
        &self.params
    }

    /// Cluster-level utilization for a matmul-shaped kernel of shape
    /// `[m x k] @ [k x n]`.
    ///
    /// Three effects compose:
    ///
    /// - long k-loops amortize per-iteration overhead
    ///   (`k / (k + inner_dim_half)`);
    /// - many output elements per core amortize the per-row prologue
    ///   (`w / (w + output_half)`) — this is the sub-linear small-kernel
    ///   scaling the paper observes at high chip counts;
    /// - kernels whose working set overflows the 256 KiB L1 TCDM pay a
    ///   tiling penalty (operand re-fetch passes, double-buffer stalls) —
    ///   this is why a single chip running full-width `512x512` GEMMs is
    ///   *less* efficient per MAC than a chip running a quarter slice.
    #[must_use]
    pub fn matmul_utilization(&self, m: usize, k: usize, n: usize) -> f64 {
        let p = &self.params;
        let out_elems = m * n;
        let per_core = (out_elems as f64 / p.cores as f64).max(1.0);
        let eta_k = k as f64 / (k as f64 + p.inner_dim_half);
        let eta_w = per_core / (per_core + p.output_half);
        let ws = ((m * k + k * n) * p.elem_bytes + out_elems * 4) as f64;
        let overflow = (ws / p.l1_bytes as f64 - 0.5).max(0.0);
        let eta_l1 = 1.0 / (1.0 + p.l1_spill_penalty * overflow);
        (eta_k * eta_w * eta_l1).clamp(1e-3, 1.0)
    }

    /// Cycles the cluster spends executing `kernel`.
    #[must_use]
    pub fn cycles(&self, kernel: &Kernel) -> u64 {
        let p = &self.params;
        let cores = p.cores as f64;
        let setup = p.kernel_setup_cycles;
        let busy = match *kernel {
            Kernel::Gemm { m, k, n } => {
                let eta = self.matmul_utilization(m, k, n);
                (m * k * n) as f64 / (cores * p.gemm_macs_per_core_cycle * eta)
            }
            Kernel::Gemv { k, n } => {
                let eta = self.matmul_utilization(1, k, n);
                (k * n) as f64 / (cores * p.gemv_macs_per_core_cycle * eta)
            }
            Kernel::Softmax { rows, cols } => {
                (rows * cols) as f64 * p.softmax_cycles_per_elem / cores
            }
            Kernel::LayerNorm { rows, cols } | Kernel::RmsNorm { rows, cols } => {
                (rows * cols) as f64 * p.norm_cycles_per_elem / cores
            }
            Kernel::Gelu { n } | Kernel::Silu { n } => {
                // Activation functions need a few extra ops per element.
                n as f64 * 4.0 / (cores * p.elemwise_per_core_cycle)
            }
            Kernel::Rope { seq, dim } => {
                (seq * dim) as f64 * 3.0 / (cores * p.elemwise_per_core_cycle)
            }
            Kernel::Add { n } | Kernel::Requant { n } => {
                n as f64 / (cores * p.elemwise_per_core_cycle)
            }
        };
        setup + busy.ceil() as u64
    }

    /// Sum of [`ClusterCostModel::cycles`] over a kernel sequence.
    #[must_use]
    pub fn total_cycles<'a>(&self, kernels: impl IntoIterator<Item = &'a Kernel>) -> u64 {
        kernels.into_iter().map(|k| self.cycles(k)).sum()
    }
}

impl Default for ClusterCostModel {
    fn default() -> Self {
        ClusterCostModel::siracusa()
    }
}

/// Broad operation class a [`Kernel`] falls into for calibration: kernels
/// in one class share a host throughput (ns per work unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// GEMM-shaped (data-reuse friendly) matmuls; unit = one MAC.
    Gemm,
    /// GEMV-shaped streaming matmuls; unit = one MAC.
    Gemv,
    /// Softmax rows; unit = one element.
    Softmax,
    /// Normalization kernels; unit = one element.
    Norm,
    /// Element-wise kernels (activations, adds, rope, requant); unit = one
    /// element.
    Elemwise,
}

impl OpClass {
    /// The class of a kernel descriptor.
    #[must_use]
    pub const fn of(kernel: &Kernel) -> OpClass {
        match *kernel {
            Kernel::Gemm { .. } => OpClass::Gemm,
            Kernel::Gemv { .. } => OpClass::Gemv,
            Kernel::Softmax { .. } => OpClass::Softmax,
            Kernel::LayerNorm { .. } | Kernel::RmsNorm { .. } => OpClass::Norm,
            Kernel::Gelu { .. }
            | Kernel::Silu { .. }
            | Kernel::Rope { .. }
            | Kernel::Add { .. }
            | Kernel::Requant { .. } => OpClass::Elemwise,
        }
    }

    /// Work units of `kernel` under this class's unit definition (MACs for
    /// matmul classes, elements otherwise).
    #[must_use]
    pub fn units(kernel: &Kernel) -> u64 {
        match OpClass::of(kernel) {
            OpClass::Gemm | OpClass::Gemv => kernel.macs(),
            _ => kernel.output_elems(),
        }
    }
}

/// One measured host timing: `kernel` took `host_ns` nanoseconds end to
/// end on the measurement machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationSample {
    /// The kernel shape that was timed.
    pub kernel: Kernel,
    /// Wall-clock nanoseconds for one invocation (best-of-N).
    pub host_ns: f64,
}

/// A cost model whose per-op throughputs come from *measured* host kernel
/// timings instead of the analytical roofline — the optional calibrated
/// [`CostSource`].
///
/// Host nanoseconds are mapped to cluster cycles through `clock_hz`: the
/// model assumes the target executes one host work unit in the same
/// *relative* time, so only ratios between op classes survive calibration
/// — which is exactly what partitioning decisions consume. The default
/// simulator path keeps the deterministic [`ClusterCostModel`]; calibration
/// is opt-in (`mtp bench --calibrate`) because measured timings vary by
/// host and would break reproducible sweep outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibratedCostModel {
    gemm_ns_per_mac: f64,
    gemv_ns_per_mac: f64,
    softmax_ns_per_elem: f64,
    norm_ns_per_elem: f64,
    elemwise_ns_per_elem: f64,
    setup_ns: f64,
    clock_hz: f64,
}

impl CalibratedCostModel {
    /// Fits per-class throughputs from measured samples.
    ///
    /// Each class's ns-per-unit is the work-weighted mean over its samples
    /// (total ns / total units); classes with no sample fall back to the
    /// analytic Siracusa model's implied throughput at `clock_hz`.
    /// `setup_ns` is taken from the smallest-work sample as an upper bound
    /// on fixed overhead, or the analytic setup cost when no samples exist.
    #[must_use]
    pub fn from_samples(samples: &[CalibrationSample], clock_hz: f64) -> Self {
        let cycle_ns = 1e9 / clock_hz;
        let analytic = CostParams::siracusa();
        let fit = |class: OpClass, fallback_ns: f64| -> f64 {
            let (mut ns, mut units) = (0.0f64, 0u64);
            for s in samples.iter().filter(|s| OpClass::of(&s.kernel) == class) {
                ns += s.host_ns;
                units += OpClass::units(&s.kernel);
            }
            if units > 0 {
                ns / units as f64
            } else {
                fallback_ns
            }
        };
        let cores = analytic.cores as f64;
        let setup_ns = samples
            .iter()
            .filter(|s| OpClass::units(&s.kernel) > 0)
            .min_by(|a, b| OpClass::units(&a.kernel).cmp(&OpClass::units(&b.kernel)))
            .map_or(analytic.kernel_setup_cycles as f64 * cycle_ns, |s| s.host_ns);
        CalibratedCostModel {
            gemm_ns_per_mac: fit(
                OpClass::Gemm,
                cycle_ns / (cores * analytic.gemm_macs_per_core_cycle),
            ),
            gemv_ns_per_mac: fit(
                OpClass::Gemv,
                cycle_ns / (cores * analytic.gemv_macs_per_core_cycle),
            ),
            softmax_ns_per_elem: fit(
                OpClass::Softmax,
                analytic.softmax_cycles_per_elem * cycle_ns / cores,
            ),
            norm_ns_per_elem: fit(OpClass::Norm, analytic.norm_cycles_per_elem * cycle_ns / cores),
            elemwise_ns_per_elem: fit(
                OpClass::Elemwise,
                cycle_ns / (cores * analytic.elemwise_per_core_cycle),
            ),
            setup_ns,
            clock_hz,
        }
    }

    /// Measures this host's kernel throughputs (best-of-`reps` wall-clock
    /// per probe, via the functional kernels and the active tensor
    /// backend) and fits a model at `clock_hz`.
    #[must_use]
    pub fn measure(clock_hz: f64, reps: usize) -> Self {
        use mtp_tensor::{Shape, Tensor};
        let reps = reps.max(1);
        let best_ns = |f: &mut dyn FnMut()| -> f64 {
            let mut lo = f64::INFINITY;
            for _ in 0..reps {
                let t0 = std::time::Instant::now();
                f();
                lo = lo.min(t0.elapsed().as_secs_f64() * 1e9);
            }
            lo
        };
        let a = Tensor::from_fn(Shape::mat(32, 256), |(r, c)| ((r + 2 * c) as f32).sin());
        let b = Tensor::from_fn(Shape::mat(256, 256), |(r, c)| ((2 * r + c) as f32).cos());
        let mut out = Tensor::zeros(Shape::mat(32, 256));
        let v = Tensor::from_fn(Shape::mat(1, 256), |(_, c)| (c as f32).sin());
        let mut vout = Tensor::zeros(Shape::mat(1, 256));
        let mut act = Tensor::from_fn(Shape::mat(64, 512), |(r, c)| ((r * 31 + c) as f32).sin());
        let gamma = vec![1.0f32; 512];
        let beta = vec![0.0f32; 512];
        let mut samples = vec![
            CalibrationSample {
                kernel: Kernel::gemm(32, 256, 256),
                host_ns: best_ns(&mut || a.matmul_into(&b, &mut out).unwrap()),
            },
            CalibrationSample {
                kernel: Kernel::gemv(256, 256),
                host_ns: best_ns(&mut || v.matmul_into(&b, &mut vout).unwrap()),
            },
            CalibrationSample {
                kernel: Kernel::Softmax { rows: 64, cols: 512 },
                host_ns: best_ns(&mut || crate::ops::softmax_rows_inplace(&mut act)),
            },
            CalibrationSample {
                kernel: Kernel::LayerNorm { rows: 64, cols: 512 },
                host_ns: best_ns(&mut || {
                    crate::ops::layer_norm_inplace(&mut act, &gamma, &beta, 1e-5);
                }),
            },
            CalibrationSample {
                kernel: Kernel::Gelu { n: 64 * 512 },
                host_ns: best_ns(&mut || crate::ops::gelu_inplace(&mut act)),
            },
        ];
        // Fixed-overhead probe: a kernel too small for its units to matter.
        let t1 = Tensor::from_fn(Shape::mat(1, 1), |_| 1.0);
        let mut t1o = Tensor::zeros(Shape::mat(1, 1));
        samples.push(CalibrationSample {
            kernel: Kernel::gemm(1, 1, 1),
            host_ns: best_ns(&mut || t1.matmul_into(&t1, &mut t1o).unwrap()),
        });
        CalibratedCostModel::from_samples(&samples, clock_hz)
    }

    /// Measured host nanoseconds this kernel is predicted to take.
    #[must_use]
    pub fn host_ns(&self, kernel: &Kernel) -> f64 {
        let units = OpClass::units(kernel) as f64;
        let per_unit = match OpClass::of(kernel) {
            OpClass::Gemm => self.gemm_ns_per_mac,
            OpClass::Gemv => self.gemv_ns_per_mac,
            OpClass::Softmax => self.softmax_ns_per_elem,
            OpClass::Norm => self.norm_ns_per_elem,
            OpClass::Elemwise => self.elemwise_ns_per_elem,
        };
        self.setup_ns + units * per_unit
    }

    /// Predicted cluster cycles at the calibrated clock.
    #[must_use]
    pub fn cycles(&self, kernel: &Kernel) -> u64 {
        (self.host_ns(kernel) * self.clock_hz / 1e9).ceil() as u64
    }

    /// The clock the model maps host time onto.
    #[must_use]
    pub const fn clock_hz(&self) -> f64 {
        self.clock_hz
    }
}

/// Where per-kernel cycle estimates come from.
///
/// The simulator's default is [`CostSource::Analytic`] — deterministic,
/// host-independent, reproducible sweep checksums. [`CostSource::Calibrated`]
/// swaps in measured host throughputs for what-if analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostSource {
    /// The analytical roofline model (the default everywhere).
    Analytic(ClusterCostModel),
    /// Measured host timings mapped to cluster cycles.
    Calibrated(CalibratedCostModel),
}

impl CostSource {
    /// Cycles `kernel` costs under this source.
    #[must_use]
    pub fn cycles(&self, kernel: &Kernel) -> u64 {
        match self {
            CostSource::Analytic(m) => m.cycles(kernel),
            CostSource::Calibrated(m) => m.cycles(kernel),
        }
    }

    /// Sum of [`CostSource::cycles`] over a kernel sequence.
    #[must_use]
    pub fn total_cycles<'a>(&self, kernels: impl IntoIterator<Item = &'a Kernel>) -> u64 {
        kernels.into_iter().map(|k| self.cycles(k)).sum()
    }
}

impl Default for CostSource {
    fn default() -> Self {
        CostSource::Analytic(ClusterCostModel::siracusa())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_gemm_approaches_peak_throughput() {
        let m = ClusterCostModel::siracusa();
        // Large enough to amortize overheads, small enough to fit L1.
        let kernel = Kernel::gemm(64, 256, 128);
        let cycles = m.cycles(&kernel) as f64;
        let p = m.params();
        let peak = kernel.macs() as f64 / (p.cores as f64 * p.gemm_macs_per_core_cycle);
        // Within 1.5x of the ideal roofline for an L1-friendly kernel.
        assert!(cycles < peak * 1.5, "cycles={cycles} peak={peak}");
        assert!(cycles >= peak);
    }

    #[test]
    fn small_kernels_lose_efficiency() {
        let m = ClusterCostModel::siracusa();
        // Same total MACs, split 8 ways along n (both fit L1): 8 small
        // calls must cost more than 1 big call.
        let big = m.cycles(&Kernel::gemm(16, 128, 128));
        let small = 8 * m.cycles(&Kernel::gemm(16, 128, 16));
        assert!(small > big, "small={small} big={big}");
    }

    #[test]
    fn gemv_slower_than_gemm_per_mac() {
        let m = ClusterCostModel::siracusa();
        let gemm = m.cycles(&Kernel::gemm(64, 512, 512)) as f64 / (64.0 * 512.0 * 512.0);
        let gemv = m.cycles(&Kernel::gemv(512, 512)) as f64 / (512.0 * 512.0);
        assert!(gemv > gemm);
    }

    #[test]
    fn setup_dominates_tiny_kernels() {
        let m = ClusterCostModel::siracusa();
        let c = m.cycles(&Kernel::Add { n: 8 });
        assert!(c >= m.params().kernel_setup_cycles);
        assert!(c < m.params().kernel_setup_cycles + 16);
    }

    #[test]
    fn utilization_monotone_in_k() {
        let m = ClusterCostModel::siracusa();
        let lo = m.matmul_utilization(8, 16, 512);
        let hi = m.matmul_utilization(8, 512, 512);
        assert!(hi > lo);
        assert!(hi <= 1.0);
    }

    #[test]
    fn l1_overflow_penalizes_large_kernels() {
        // A full-width 268x512x512 GEMM (MobileBERT on one chip) overflows
        // L1 and must be less efficient per MAC than the 268x512x128
        // quarter slice a 4-chip system runs.
        let m = ClusterCostModel::siracusa();
        let full = m.matmul_utilization(268, 512, 512);
        let quarter = m.matmul_utilization(268, 512, 128);
        assert!(quarter > full, "quarter={quarter} full={full}");
    }

    #[test]
    fn total_cycles_sums() {
        let m = ClusterCostModel::siracusa();
        let ks = [Kernel::gemv(64, 64), Kernel::Add { n: 64 }];
        assert_eq!(m.total_cycles(&ks), m.cycles(&ks[0]) + m.cycles(&ks[1]));
    }

    #[test]
    fn calibrated_model_fits_samples_exactly() {
        // One sample per class: the fit must reproduce each sample's
        // throughput, so predicting the sample's own kernel returns its
        // measured time plus the (smallest-sample) setup estimate.
        let samples = [
            CalibrationSample { kernel: Kernel::gemm(8, 16, 16), host_ns: 2048.0 },
            CalibrationSample { kernel: Kernel::gemv(16, 16), host_ns: 512.0 },
            CalibrationSample { kernel: Kernel::Softmax { rows: 4, cols: 32 }, host_ns: 640.0 },
        ];
        let m = CalibratedCostModel::from_samples(&samples, 500e6);
        // Smallest-unit sample is the softmax (128 elems): setup_ns = 640.
        let gemm_ns = m.host_ns(&Kernel::gemm(8, 16, 16));
        assert!((gemm_ns - (640.0 + 2048.0)).abs() < 1e-6, "gemm_ns={gemm_ns}");
        // 500 MHz = 0.5 cycles per ns.
        assert_eq!(m.cycles(&Kernel::gemm(8, 16, 16)), (gemm_ns * 0.5).ceil() as u64);
        // Unsampled classes fall back to analytic throughput (finite, >0).
        assert!(m.cycles(&Kernel::LayerNorm { rows: 2, cols: 8 }) > 0);
    }

    #[test]
    fn calibrated_measure_orders_like_workload_size() {
        let m = CalibratedCostModel::measure(500e6, 3);
        let small = m.cycles(&Kernel::gemm(8, 64, 64));
        let big = m.cycles(&Kernel::gemm(64, 512, 512));
        assert!(big > small, "big={big} small={small}");
        assert!(m.clock_hz() == 500e6);
    }

    #[test]
    fn cost_source_dispatches_both_flavours() {
        let analytic = CostSource::default();
        let k = Kernel::gemm(16, 128, 128);
        assert_eq!(analytic.cycles(&k), ClusterCostModel::siracusa().cycles(&k));
        let calibrated = CostSource::Calibrated(CalibratedCostModel::from_samples(&[], 500e6));
        assert!(calibrated.cycles(&k) > 0);
        let ks = [Kernel::gemv(32, 32), Kernel::Add { n: 16 }];
        assert_eq!(
            calibrated.total_cycles(&ks),
            calibrated.cycles(&ks[0]) + calibrated.cycles(&ks[1])
        );
    }
}
