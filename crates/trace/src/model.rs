//! The trace data model and JSON I/O.

use std::io::{Read, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};
use spear_dag::{Dag, DagBuilder, ResourceVec, Task};

use crate::TraceError;

/// One MapReduce job from a (real or synthetic) production trace:
/// per-task runtimes *and* per-task multi-resource demands for both
/// stages. Real production tasks differ in both (§II-C), and that
/// heterogeneity is exactly what multi-resource packing exploits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceJob {
    /// Job identifier (e.g. the Hive query id).
    pub id: String,
    /// Runtime of every map task, in time slots (seconds in the paper).
    pub map_runtimes: Vec<u64>,
    /// Runtime of every reduce task.
    pub reduce_runtimes: Vec<u64>,
    /// Resource demand of each map task (aligned with `map_runtimes`).
    pub map_demands: Vec<ResourceVec>,
    /// Resource demand of each reduce task (typically higher — §II-C).
    pub reduce_demands: Vec<ResourceVec>,
}

impl TraceJob {
    /// Number of map tasks.
    pub fn num_map(&self) -> usize {
        self.map_runtimes.len()
    }

    /// Number of reduce tasks.
    pub fn num_reduce(&self) -> usize {
        self.reduce_runtimes.len()
    }

    /// Mean map-task runtime.
    pub fn mean_map_runtime(&self) -> f64 {
        mean(&self.map_runtimes)
    }

    /// Mean reduce-task runtime.
    pub fn mean_reduce_runtime(&self) -> f64 {
        mean(&self.reduce_runtimes)
    }

    /// Builds the two-stage DAG: map tasks first (ids `0..num_map`), then
    /// reduce tasks, with a full map→reduce shuffle edge set.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if either stage is empty, the demand vectors
    /// are not aligned with the runtimes, or the demands disagree on
    /// resource dimensions.
    pub fn to_dag(&self) -> Result<Dag, TraceError> {
        if self.num_map() == 0 || self.num_reduce() == 0 {
            return Err(TraceError::EmptyStage {
                job: self.id.clone(),
            });
        }
        if self.map_demands.len() != self.num_map() {
            return Err(TraceError::MisalignedDemands {
                job: self.id.clone(),
                stage: "map",
                runtimes: self.num_map(),
                demands: self.map_demands.len(),
            });
        }
        if self.reduce_demands.len() != self.num_reduce() {
            return Err(TraceError::MisalignedDemands {
                job: self.id.clone(),
                stage: "reduce",
                runtimes: self.num_reduce(),
                demands: self.reduce_demands.len(),
            });
        }
        let dims = self.map_demands[0].dims();
        let mut b = DagBuilder::new(dims);
        let maps: Vec<_> = self
            .map_runtimes
            .iter()
            .zip(&self.map_demands)
            .enumerate()
            .map(|(i, (&rt, demand))| {
                b.add_task(Task::new(rt.max(1), demand.clone()).with_name(format!("map-{i}")))
            })
            .collect();
        let reduces: Vec<_> = self
            .reduce_runtimes
            .iter()
            .zip(&self.reduce_demands)
            .enumerate()
            .map(|(i, (&rt, demand))| {
                b.add_task(Task::new(rt.max(1), demand.clone()).with_name(format!("reduce-{i}")))
            })
            .collect();
        for &m in &maps {
            for &r in &reduces {
                b.add_edge(m, r)?;
            }
        }
        Ok(b.build()?)
    }
}

/// Mean of `values`, summed in `u128` so no trace's runtimes overflow it.
fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| u128::from(v)).sum::<u128>() as f64 / values.len() as f64
}

/// A collection of trace jobs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Trace {
    /// The jobs, in trace order.
    pub jobs: Vec<TraceJob>,
}

impl Trace {
    /// Applies the paper's filter: keeps only jobs with *more than*
    /// `min_tasks` map tasks and more than `min_tasks` reduce tasks
    /// (the paper uses 5).
    pub fn filtered(self, min_tasks: usize) -> Trace {
        Trace {
            jobs: self
                .jobs
                .into_iter()
                .filter(|j| j.num_map() > min_tasks && j.num_reduce() > min_tasks)
                .collect(),
        }
    }

    /// Serializes the trace as JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O errors.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), Box<dyn std::error::Error>> {
        serde_json::to_writer_pretty(writer, self)?;
        Ok(())
    }

    /// Deserializes a trace saved with [`Trace::save`].
    ///
    /// # Errors
    ///
    /// Propagates deserialization and I/O errors.
    pub fn load<R: Read>(reader: R) -> Result<Self, Box<dyn std::error::Error>> {
        Ok(serde_json::from_reader(reader)?)
    }

    /// Saves to a file path.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O errors.
    pub fn save_to_path<P: AsRef<Path>>(&self, path: P) -> Result<(), Box<dyn std::error::Error>> {
        self.save(std::io::BufWriter::new(std::fs::File::create(path)?))
    }

    /// Loads from a file path.
    ///
    /// # Errors
    ///
    /// Propagates deserialization and I/O errors.
    pub fn load_from_path<P: AsRef<Path>>(path: P) -> Result<Self, Box<dyn std::error::Error>> {
        Self::load(std::io::BufReader::new(std::fs::File::open(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(maps: usize, reduces: usize) -> TraceJob {
        TraceJob {
            id: format!("job-{maps}-{reduces}"),
            map_runtimes: vec![10; maps],
            reduce_runtimes: vec![20; reduces],
            map_demands: vec![ResourceVec::from_slice(&[0.1, 0.1]); maps],
            reduce_demands: vec![ResourceVec::from_slice(&[0.2, 0.2]); reduces],
        }
    }

    #[test]
    fn mean_of_huge_runtimes_does_not_overflow() {
        assert_eq!(mean(&[u64::MAX, u64::MAX]), u64::MAX as f64);
    }

    #[test]
    fn job_accessors() {
        let j = job(3, 2);
        assert_eq!(j.num_map(), 3);
        assert_eq!(j.num_reduce(), 2);
        assert_eq!(j.mean_map_runtime(), 10.0);
        assert_eq!(j.mean_reduce_runtime(), 20.0);
    }

    #[test]
    fn to_dag_builds_shuffle() {
        let dag = job(4, 3).to_dag().unwrap();
        assert_eq!(dag.len(), 7);
        assert_eq!(dag.edges().len(), 12);
        assert_eq!(dag.critical_path_length(), 30);
    }

    #[test]
    fn to_dag_rejects_empty_and_misaligned_stages() {
        let mut empty = job(3, 2);
        empty.reduce_runtimes.clear();
        empty.reduce_demands.clear();
        assert!(matches!(empty.to_dag(), Err(TraceError::EmptyStage { .. })));

        let mut skewed = job(3, 2);
        skewed.map_demands.pop();
        assert!(matches!(
            skewed.to_dag(),
            Err(TraceError::MisalignedDemands { stage: "map", .. })
        ));
    }

    #[test]
    fn filter_drops_small_jobs() {
        let trace = Trace {
            jobs: vec![job(6, 6), job(5, 10), job(10, 5), job(7, 9)],
        };
        let kept = trace.filtered(5);
        assert_eq!(kept.jobs.len(), 2);
        assert!(kept
            .jobs
            .iter()
            .all(|j| j.num_map() > 5 && j.num_reduce() > 5));
    }

    #[test]
    fn json_roundtrip() {
        let trace = Trace {
            jobs: vec![job(6, 7), job(8, 9)],
        };
        let mut buf = Vec::new();
        trace.save(&mut buf).unwrap();
        let back = Trace::load(buf.as_slice()).unwrap();
        assert_eq!(trace, back);
    }
}
