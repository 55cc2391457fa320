//! Summary statistics and CDFs over traces (Fig. 9(a)/(b)).

use serde::{Deserialize, Serialize};

use crate::Trace;

/// Median of a `u64` sample (mean of the middle pair for even sizes).
/// Returns 0 for an empty sample.
pub fn median_u64(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2] as f64
    } else {
        (u128::from(sorted[n / 2 - 1]) + u128::from(sorted[n / 2])) as f64 / 2.0
    }
}

/// The empirical CDF of a sample: sorted `(value, fraction ≤ value)`
/// points, one per observation.
pub fn cdf_points(values: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = sorted.len() as f64;
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n))
        .collect()
}

/// The summary statistics of a trace that the paper reports (§V-A, §V-C,
/// Fig. 9(a)/(b)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of jobs.
    pub jobs: usize,
    /// Median number of map tasks (paper: 14).
    pub median_map_tasks: f64,
    /// Median number of reduce tasks (paper: 17).
    pub median_reduce_tasks: f64,
    /// Maximum number of map tasks (paper: 29).
    pub max_map_tasks: usize,
    /// Maximum number of reduce tasks (paper: 38).
    pub max_reduce_tasks: usize,
    /// Median of per-job mean map runtime (paper Fig. 9(b): 73).
    pub median_map_runtime: f64,
    /// Median of per-job mean reduce runtime (paper Fig. 9(b): 32).
    pub median_reduce_runtime: f64,
}

impl TraceStats {
    /// Computes the statistics of `trace`.
    pub fn compute(trace: &Trace) -> Self {
        let map_counts: Vec<u64> = trace.jobs.iter().map(|j| j.num_map() as u64).collect();
        let reduce_counts: Vec<u64> = trace.jobs.iter().map(|j| j.num_reduce() as u64).collect();
        let map_means: Vec<u64> = trace
            .jobs
            .iter()
            .map(|j| j.mean_map_runtime().round() as u64)
            .collect();
        let reduce_means: Vec<u64> = trace
            .jobs
            .iter()
            .map(|j| j.mean_reduce_runtime().round() as u64)
            .collect();
        TraceStats {
            jobs: trace.jobs.len(),
            median_map_tasks: median_u64(&map_counts),
            median_reduce_tasks: median_u64(&reduce_counts),
            max_map_tasks: map_counts.iter().max().copied().unwrap_or(0) as usize,
            max_reduce_tasks: reduce_counts.iter().max().copied().unwrap_or(0) as usize,
            median_map_runtime: median_u64(&map_means),
            median_reduce_runtime: median_u64(&reduce_means),
        }
    }

    /// CDF of map-task counts (Fig. 9(a), map series).
    pub fn map_count_cdf(trace: &Trace) -> Vec<(f64, f64)> {
        cdf_points(
            &trace
                .jobs
                .iter()
                .map(|j| j.num_map() as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// CDF of reduce-task counts (Fig. 9(a), reduce series).
    pub fn reduce_count_cdf(trace: &Trace) -> Vec<(f64, f64)> {
        cdf_points(
            &trace
                .jobs
                .iter()
                .map(|j| j.num_reduce() as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// CDF of per-job mean map runtimes (Fig. 9(b), map series).
    pub fn map_runtime_cdf(trace: &Trace) -> Vec<(f64, f64)> {
        cdf_points(
            &trace
                .jobs
                .iter()
                .map(|j| j.mean_map_runtime())
                .collect::<Vec<_>>(),
        )
    }

    /// CDF of per-job mean reduce runtimes (Fig. 9(b), reduce series).
    pub fn reduce_runtime_cdf(trace: &Trace) -> Vec<(f64, f64)> {
        cdf_points(
            &trace
                .jobs
                .iter()
                .map(|j| j.mean_reduce_runtime())
                .collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceJob;
    use spear_dag::ResourceVec;

    fn job(maps: usize, reduces: usize, map_rt: u64, reduce_rt: u64) -> TraceJob {
        TraceJob {
            id: "j".into(),
            map_runtimes: vec![map_rt; maps],
            reduce_runtimes: vec![reduce_rt; reduces],
            map_demands: vec![ResourceVec::from_slice(&[0.1]); maps],
            reduce_demands: vec![ResourceVec::from_slice(&[0.2]); reduces],
        }
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median_u64(&[3, 1, 2]), 2.0);
        assert_eq!(median_u64(&[4, 1, 2, 3]), 2.5);
        assert_eq!(median_u64(&[]), 0.0);
    }

    #[test]
    fn median_of_a_huge_middle_pair_does_not_overflow() {
        assert_eq!(median_u64(&[3, u64::MAX]), 2f64.powi(63));
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let pts = cdf_points(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(pts.len(), 4);
        assert_eq!(pts.last().unwrap().1, 1.0);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn stats_of_known_trace() {
        let trace = Trace {
            jobs: vec![
                job(10, 20, 50, 30),
                job(14, 16, 73, 32),
                job(20, 18, 90, 40),
            ],
        };
        let s = TraceStats::compute(&trace);
        assert_eq!(s.jobs, 3);
        assert_eq!(s.median_map_tasks, 14.0);
        assert_eq!(s.median_reduce_tasks, 18.0);
        assert_eq!(s.max_map_tasks, 20);
        assert_eq!(s.max_reduce_tasks, 20);
        assert_eq!(s.median_map_runtime, 73.0);
        assert_eq!(s.median_reduce_runtime, 32.0);
    }

    #[test]
    fn cdf_accessors_cover_all_jobs() {
        let trace = Trace {
            jobs: vec![job(6, 7, 10, 10), job(8, 9, 20, 20)],
        };
        assert_eq!(TraceStats::map_count_cdf(&trace).len(), 2);
        assert_eq!(TraceStats::reduce_count_cdf(&trace).len(), 2);
        assert_eq!(TraceStats::map_runtime_cdf(&trace).len(), 2);
        assert_eq!(TraceStats::reduce_runtime_cdf(&trace).len(), 2);
    }
}
