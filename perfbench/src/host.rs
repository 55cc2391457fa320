//! Host-speed readings recorded in every run, none of which calls
//! repository code: a fixed reference kernel, the thread's run-queue
//! wait, and the process's peak resident set.

use std::hint::black_box;
use std::time::Instant;

/// Entries of the pointer-chase ring (256 KiB of `u32`, about one core's
/// L2 cache).
const RING: usize = 1 << 16;
/// Hops per kernel run.
const HOPS: usize = 60_000;
/// Side of the dense matrix of the arithmetic part.
const DIM: usize = 96;
/// Matrix-vector products per kernel run: enough that the arithmetic
/// takes about as long as the pointer chase.
const PRODUCTS: usize = 100;

/// A typical reading of the reference kernel, in milliseconds, on the
/// host the benchmark was written on (a 2-vCPU x86-64 KVM guest).
/// Host-normalized times are scaled to a host that runs the kernel in
/// exactly this time.
pub const NOMINAL_REFERENCE_MS: f64 = 0.80;

/// `wall_s` rescaled to a host running the reference kernel in
/// [`NOMINAL_REFERENCE_MS`], given the kernel's time `reference_ms`
/// measured around it.
pub fn normalized(wall_s: f64, reference_ms: f64) -> f64 {
    if reference_ms > 0.0 {
        wall_s * NOMINAL_REFERENCE_MS / reference_ms
    } else {
        wall_s
    }
}

/// A fixed CPU kernel that mixes the two kinds of work the scheduler
/// does — dependent loads through a cache-sized structure (tree and
/// simulator state) and dense `f64` arithmetic (the policy network) —
/// timed between jobs so each run records how fast the host was while it
/// ran.
#[derive(Debug, Clone)]
pub struct ReferenceKernel {
    ring: Vec<u32>,
    matrix: Vec<f64>,
    vector: Vec<f64>,
}

impl Default for ReferenceKernel {
    fn default() -> Self {
        Self::new()
    }
}

/// A single-cycle permutation of `0..n` (Sattolo's algorithm).
fn ring(n: usize, next: &mut impl FnMut() -> u64) -> Vec<u32> {
    let mut ring: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (next() % i as u64) as usize;
        ring.swap(i, j);
    }
    ring
}

impl ReferenceKernel {
    /// Builds the kernel's fixed inputs from an xorshift stream.
    pub fn new() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let ring = ring(RING, &mut next);
        let matrix = (0..DIM * DIM)
            .map(|_| (next() % 1000) as f64 / 1000.0 - 0.5)
            .collect();
        ReferenceKernel {
            ring,
            matrix,
            vector: vec![1.0; DIM],
        }
    }

    /// One host-speed reading in milliseconds: the median of three
    /// kernel runs, so the run that pays for whatever the preceding job
    /// left in the caches does not decide it.
    pub fn sample_ms(&mut self) -> f64 {
        let mut runs = [self.run_ms(), self.run_ms(), self.run_ms()];
        runs.sort_by(f64::total_cmp);
        runs[1]
    }

    /// Runs the kernel once and returns its wall time in milliseconds.
    pub fn run_ms(&mut self) -> f64 {
        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..HOPS {
            at = self.ring[at as usize];
        }
        black_box(at);
        let mut out = vec![0.0; DIM];
        for _ in 0..PRODUCTS {
            for (row, o) in self.matrix.chunks_exact(DIM).zip(out.iter_mut()) {
                *o = row
                    .iter()
                    .zip(&self.vector)
                    .map(|(a, b)| a * b)
                    .sum::<f64>();
            }
            let norm = out.iter().map(|v| v.abs()).sum::<f64>().max(1e-12);
            for (v, o) in self.vector.iter_mut().zip(&out) {
                *v = o / norm;
            }
        }
        black_box(&self.vector);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// The calling thread's cumulative on-CPU and run-queue wait times in
/// nanoseconds, from `/proc/thread-self/schedstat`; `None` where the
/// kernel does not expose it.
pub fn schedstat() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    let on_cpu = fields.next()?.ok()?;
    let waiting = fields.next()?.ok()?;
    Some((on_cpu, waiting))
}

/// Share of `wall_s` seconds the thread spent runnable but waiting for a
/// CPU, between two [`schedstat`] readings.
pub fn runq_wait_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>, wall_s: f64) -> f64 {
    match (before, after) {
        (Some((_, w0)), Some((_, w1))) if wall_s > 0.0 => {
            w1.saturating_sub(w0) as f64 * 1e-9 / wall_s
        }
        _ => 0.0,
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_kernel_takes_measurable_time() {
        let mut kernel = ReferenceKernel::new();
        assert!(kernel.sample_ms() > 0.0);
        assert!(kernel.vector.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn ring_is_one_cycle() {
        let kernel = ReferenceKernel::new();
        let mut at = 0u32;
        for step in 1..=RING {
            at = kernel.ring[at as usize];
            if at == 0 {
                assert_eq!(step, RING);
            }
        }
        assert_eq!(at, 0);
    }
}
