//! The host a result was measured on: CPU fingerprint, resident memory,
//! and an FMA-throughput peak that kernel figures are a share of.

use std::hint::black_box;
use std::time::Instant;

/// CPU model and features, thread count, tensor backend, compiler and
/// codegen flags — enough to attribute a tensor number to its host.
pub fn fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
        .map_or("unknown", |(_, v)| v.trim());
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("flags").and_then(|r| r.split_once(':')))
        .map_or(Vec::new(), |(_, v)| v.split_whitespace().collect());
    let features: Vec<&str> =
        ["avx2", "avx512f", "fma"].into_iter().filter(|f| flags.contains(f)).collect();
    let flags = env!("PERFBENCH_RUSTFLAGS");
    format!(
        "cpu=\"{model}\" features={} nproc={} backend={} rustc=\"{}\" target_cpu_native={}",
        if features.is_empty() { "none".to_owned() } else { features.join(",") },
        nproc(),
        mtp_tensor::active_kind(),
        env!("PERFBENCH_RUSTC"),
        flags.contains("target-cpu=native"),
    )
}

/// A reading of both host clocks: wall time, and this process's CPU
/// time over all its threads. On a virtual machine the CPU clock leaves
/// out the time the hypervisor ran other guests on this machine's vCPUs
/// (steal), which reached a fifth of wall time on a shared host.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu_s: f64,
}

impl Stamp {
    pub fn now() -> Self {
        Stamp { wall: Instant::now(), cpu_s: process_cpu_s() }
    }

    /// `(wall, cpu)` milliseconds from `self` to `later`.
    pub fn ms_to(self, later: Stamp) -> (f64, f64) {
        ((later.wall - self.wall).as_secs_f64() * 1e3, (later.cpu_s - self.cpu_s) * 1e3)
    }

    /// `(wall, cpu)` milliseconds since `self`.
    pub fn elapsed_ms(self) -> (f64, f64) {
        self.ms_to(Stamp::now())
    }
}

/// CPU time of this process (all threads, live and exited) in seconds.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) into `ts`, which is valid and exclusively
    // borrowed for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Independent accumulator chains: enough to cover FMA latency times
/// the FMA ports of current x86 cores, so the loop is bound by issue
/// rate, not latency.
const CHAINS: usize = 12;

/// Single-thread fused multiply-add throughput in GFLOP/s, at the widest
/// vector width the host supports (AVX-512, else AVX2 + FMA, else
/// scalar): the best of five timed repetitions. Returns the ISA used.
pub fn fma_peak_gflops() -> (f64, &'static str) {
    let iters = 2_000_000u64;
    let (isa, lanes, kernel): (&str, usize, fn(u64) -> f32) = select();
    let mut best = 0.0f64;
    for _ in 0..5 {
        let started = Instant::now();
        black_box(kernel(black_box(iters)));
        let secs = started.elapsed().as_secs_f64();
        let flops = 2.0 * (lanes * CHAINS) as f64 * iters as f64;
        best = best.max(flops / secs / 1e9);
    }
    (best, isa)
}

#[cfg(target_arch = "x86_64")]
fn select() -> (&'static str, usize, fn(u64) -> f32) {
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: the feature was detected at run time.
        ("avx512f", 16, |n| unsafe { x86::chains_512(n) })
    } else if std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
    {
        // SAFETY: the features were detected at run time.
        ("avx2+fma", 8, |n| unsafe { x86::chains_256(n) })
    } else {
        ("scalar", 1, chains_scalar)
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn select() -> (&'static str, usize, fn(u64) -> f32) {
    ("scalar", 1, chains_scalar)
}

fn chains_scalar(iters: u64) -> f32 {
    let mut acc = [1.0f32; CHAINS];
    let (a, b) = (black_box(0.999_999f32), black_box(1.0e-7f32));
    for _ in 0..iters {
        for v in &mut acc {
            *v = *v * a + b;
        }
    }
    acc.iter().sum()
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::CHAINS;
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn chains_512(iters: u64) -> f32 {
        let (a, b) = (_mm512_set1_ps(0.999_999), _mm512_set1_ps(1.0e-7));
        let mut acc = [_mm512_set1_ps(1.0); CHAINS];
        for _ in 0..iters {
            for v in &mut acc {
                *v = _mm512_fmadd_ps(*v, a, b);
            }
        }
        acc.iter().map(|&v| _mm512_reduce_add_ps(v)).sum()
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn chains_256(iters: u64) -> f32 {
        let (a, b) = (_mm256_set1_ps(0.999_999), _mm256_set1_ps(1.0e-7));
        let mut acc = [_mm256_set1_ps(1.0); CHAINS];
        for _ in 0..iters {
            for v in &mut acc {
                *v = _mm256_fmadd_ps(*v, a, b);
            }
        }
        let mut lanes = [0.0f32; 8];
        acc.iter()
            .map(|&v| {
                _mm256_storeu_ps(lanes.as_mut_ptr(), v);
                lanes.iter().sum::<f32>()
            })
            .sum()
    }
}
