//! The untraced run: end-to-end metrics of a closed loop with one client.

use std::error::Error;
use std::time::Instant;

use crate::host::{normalized, peak_rss_mb, runq_wait_share, schedstat, ReferenceKernel};
use crate::metrics::Report;
use crate::stats::{median, ratio};
use crate::workload::{
    check, jct_vs_tetris, run_job, same_output, warm_up, Output, Prepared, Scale, Workload,
};

/// Runs `workload` untraced: set-up (repeated), one untimed warm-up job,
/// then the seeded jobs in order — the next submitted when the previous
/// one returns, cycling through them — until `seconds` have passed and
/// every job has run at least once. Every output is checked; a repeat of
/// a job must reproduce its first output exactly.
///
/// The timing metrics are host-normalized: each job's wall time is scaled
/// by [`NOMINAL_REFERENCE_MS`](crate::host::NOMINAL_REFERENCE_MS) over the
/// reference kernel's mean time just before and just after the job, and
/// each set-up's by the reading just before it. The raw wall-clock
/// figures are printed on stderr next to the readings.
///
/// # Errors
///
/// Fails if set-up fails; a failing job is counted, not returned.
pub fn run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
) -> Result<Report, Box<dyn Error>> {
    let mut report = Report::new();
    let mut kernel = ReferenceKernel::new();
    let (mut prepared, setups) = Prepared::repeated(workload, scale, seed, &mut kernel)?;
    warm_up(&mut prepared, seed)?;

    let pool = prepared.inputs.len();
    let mut first: Vec<Option<Output>> = (0..pool).map(|_| None).collect();
    let mut walls = Vec::new();
    let mut references = vec![kernel.sample_ms()];
    let sched_before = schedstat();
    let loop_start = Instant::now();
    let mut index = 0;
    // After the first pass, start a job only if it is expected to end
    // nearer the deadline than not.
    while index < pool || {
        let mean_wall = walls.iter().sum::<f64>() / walls.len() as f64;
        loop_start.elapsed().as_secs_f64() + 0.5 * mean_wall < seconds
    } {
        let job = index % pool;
        index += 1;
        let start = Instant::now();
        let output = run_job(&mut prepared, job);
        walls.push(start.elapsed().as_secs_f64());
        references.push(kernel.sample_ms());
        let output = match output {
            Ok(output) => output,
            Err(e) => {
                report.job(Some(format!("job {job}: {e}")));
                continue;
            }
        };
        let problem = check(&prepared.inputs, job, &output).or_else(|| match &first[job] {
            Some(earlier) if !same_output(earlier, &output) => {
                Some(format!("job {job} gave a different output on a repeat"))
            }
            _ => None,
        });
        report.job(problem);
        if first[job].is_none() {
            first[job] = Some(output);
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    let runq = runq_wait_share(sched_before, schedstat(), loop_s);

    let outputs: Vec<Output> = first.into_iter().flatten().collect();
    let quality = if outputs.len() == pool {
        jct_vs_tetris(&prepared.inputs, &outputs)?
    } else {
        report.fail("some jobs never produced an output");
        0.0
    };
    let scaled: Vec<f64> = walls
        .iter()
        .zip(references.windows(2))
        .map(|(&wall, around)| normalized(wall, 0.5 * (around[0] + around[1])))
        .collect();
    report.set("setup_s", median(&setups.normalized_s));
    report.set(
        "jobs_per_s",
        ratio(scaled.len() as f64, scaled.iter().sum()),
    );
    report.set("jct_vs_tetris", quality);
    report.set("peak_rss_mb", peak_rss_mb());
    eprintln!(
        "[perfbench] {} seed {seed}: {} jobs in {:.2} s of a {:.2} s loop; wall clock: \
         jobs_per_s {:.4}, job_s {:.4}, setup_s {:.6} ({} set-ups); \
         host.reference_ms {:.4} (min {:.4}), host.runq_wait_share {:.4}",
        workload.name(),
        walls.len(),
        walls.iter().sum::<f64>(),
        loop_s,
        ratio(walls.len() as f64, walls.iter().sum()),
        median(&walls),
        median(&setups.wall_s),
        setups.wall_s.len(),
        median(&references),
        references.iter().copied().fold(f64::INFINITY, f64::min),
        runq
    );
    eprintln!("[perfbench] samples {{\"walls\": {walls:?}, \"refs\": {references:?}}}");
    Ok(report)
}
