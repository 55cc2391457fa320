//! Per-scheduler decision-latency instrumentation.
//!
//! [`ObservedScheduler`] wraps any [`Scheduler`] and records how long each
//! schedule call takes into the `sched.<name>.schedule_ns` histogram,
//! plus a `sched.<name>.schedules` call counter and the resulting
//! makespan as `sched.<name>.makespan`. The wrapper never changes the
//! wrapped scheduler's output — it only times the call — so it is safe to
//! drop into any experiment without perturbing results.

use spear_cluster::{ClusterSpec, JobQueue, Schedule, SpearError};
use spear_obs::{Counter, Gauge, Histogram, Obs};

use crate::Scheduler;

/// Instrument handles for one wrapped scheduler, keyed by its name.
#[derive(Debug, Clone)]
struct SchedObs {
    schedules: Counter,
    schedule_ns: Histogram,
    makespan: Gauge,
}

impl SchedObs {
    fn new(obs: &Obs, name: &str) -> Self {
        SchedObs {
            schedules: obs.counter(&format!("sched.{name}.schedules")),
            schedule_ns: obs.histogram(&format!("sched.{name}.schedule_ns")),
            makespan: obs.gauge(&format!("sched.{name}.makespan")),
        }
    }
}

/// Wraps a [`Scheduler`], recording per-call latency and makespan into a
/// metric sink (see the module docs for the metric names).
///
/// ```
/// use spear_obs::{MetricsRegistry, Obs};
/// use spear_sched::{ObservedScheduler, Scheduler, TetrisScheduler};
/// use spear_dag::generator::LayeredDagSpec;
/// use spear_cluster::ClusterSpec;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), spear_cluster::SpearError> {
/// let registry = MetricsRegistry::new();
/// let dag = LayeredDagSpec::paper_training()
///     .generate(&mut rand::rngs::StdRng::seed_from_u64(1));
/// let mut sched =
///     ObservedScheduler::new(TetrisScheduler::new(), &registry.sink("baselines"));
/// let schedule = sched.schedule(&dag, &ClusterSpec::unit(2))?;
/// let snapshot = registry.snapshot();
/// if spear_obs::compiled() {
///     assert_eq!(snapshot.counter_value("sched.tetris.schedules"), Some(1));
///     assert_eq!(
///         snapshot.gauge_last("sched.tetris.makespan"),
///         Some(schedule.makespan() as f64),
///     );
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ObservedScheduler<S> {
    inner: S,
    sched_obs: Option<SchedObs>,
}

impl<S: Scheduler> ObservedScheduler<S> {
    /// Wraps `inner`, registering its instruments in `obs` (named after
    /// `inner.name()`). With a [`Obs::noop`] sink — or in a build without
    /// the `obs` feature — the wrapper is inert and adds only the cost of
    /// a skipped branch per call.
    pub fn new(inner: S, obs: &Obs) -> Self {
        let sched_obs =
            (spear_obs::compiled() && obs.is_enabled()).then(|| SchedObs::new(obs, inner.name()));
        ObservedScheduler { inner, sched_obs }
    }
}

impl<S: Scheduler> Scheduler for ObservedScheduler<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule_multi(
        &mut self,
        queue: &JobQueue,
        spec: &ClusterSpec,
    ) -> Result<Schedule, SpearError> {
        let span = if spear_obs::compiled() {
            self.sched_obs
                .as_ref()
                .map(|so| so.schedule_ns.start_span())
        } else {
            None
        };
        let result = self.inner.schedule_multi(queue, spec);
        drop(span);
        if spear_obs::compiled() {
            if let (Some(so), Ok(schedule)) = (&self.sched_obs, &result) {
                so.schedules.incr();
                so.makespan.set(schedule.makespan() as f64);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpScheduler, TetrisScheduler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spear_dag::generator::LayeredDagSpec;
    use spear_dag::Dag;
    use spear_obs::MetricsRegistry;

    fn dag() -> Dag {
        LayeredDagSpec {
            num_tasks: 16,
            ..LayeredDagSpec::paper_training()
        }
        .generate(&mut StdRng::seed_from_u64(7))
    }

    #[test]
    fn wrapper_is_transparent() {
        let dag = dag();
        let spec = ClusterSpec::unit(2);
        let plain = TetrisScheduler::new().schedule(&dag, &spec).unwrap();
        let registry = MetricsRegistry::new();
        let mut wrapped = ObservedScheduler::new(TetrisScheduler::new(), &registry.sink("t"));
        let observed = wrapped.schedule(&dag, &spec).unwrap();
        assert_eq!(plain, observed, "instrumentation changed the schedule");
        assert_eq!(wrapped.name(), "tetris");
    }

    #[test]
    fn records_per_scheduler_latency() {
        if !spear_obs::compiled() {
            return;
        }
        let dag = dag();
        let spec = ClusterSpec::unit(2);
        let registry = MetricsRegistry::new();
        let sink = registry.sink("baselines");
        let mut tetris = ObservedScheduler::new(TetrisScheduler::new(), &sink);
        let mut cp = ObservedScheduler::new(CpScheduler::new(), &sink);
        tetris.schedule(&dag, &spec).unwrap();
        tetris.schedule(&dag, &spec).unwrap();
        cp.schedule(&dag, &spec).unwrap();
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter_value("sched.tetris.schedules"), Some(2));
        assert_eq!(snapshot.counter_value("sched.cp.schedules"), Some(1));
        assert_eq!(
            snapshot.histogram_count("sched.tetris.schedule_ns"),
            Some(2)
        );
        assert!(snapshot.gauge_last("sched.cp.makespan").unwrap() > 0.0);
    }

    #[test]
    fn noop_sink_is_inert() {
        let dag = dag();
        let spec = ClusterSpec::unit(2);
        let mut wrapped = ObservedScheduler::new(CpScheduler::new(), &spear_obs::Obs::noop());
        let s = wrapped.schedule(&dag, &spec).unwrap();
        s.validate(&dag, &spec).unwrap();
        assert!(wrapped.sched_obs.is_none());
    }
}
