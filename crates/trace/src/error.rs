//! Typed errors for trace validation and DAG conversion.

use spear_dag::DagError;

/// Errors raised while turning trace jobs into schedulable DAGs.
///
/// `spear-trace` depends on `spear-cluster` (machine profiles build
/// machine sets), so [`spear_cluster::SpearError`] cannot name trace
/// errors without a dependency cycle: this is the trace layer's own error
/// type, and it wraps a [`spear_cluster::ClusterError`] where it needs
/// one. Callers that mix the two go through `Box<dyn Error>` or wrap at
/// the call site.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceError {
    /// A job has no map tasks or no reduce tasks; the two-stage shuffle
    /// DAG needs at least one of each.
    EmptyStage {
        /// The offending job id.
        job: String,
    },
    /// A stage's demand vector count does not match its runtime count.
    MisalignedDemands {
        /// The offending job id.
        job: String,
        /// `"map"` or `"reduce"`.
        stage: &'static str,
        /// Number of runtimes in the stage.
        runtimes: usize,
        /// Number of demand vectors in the stage.
        demands: usize,
    },
    /// Building the DAG failed (e.g. mismatched resource dimensions
    /// between map and reduce demands).
    Dag(DagError),
    /// A machine-set profile described an invalid cluster (zero
    /// machines, dimensions, bandwidth or payload bound).
    Cluster(spear_cluster::ClusterError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::EmptyStage { job } => {
                write!(f, "job {job}: a two-stage job needs map and reduce tasks")
            }
            TraceError::MisalignedDemands {
                job,
                stage,
                runtimes,
                demands,
            } => write!(
                f,
                "job {job}: {stage} stage has {runtimes} runtimes but {demands} demand vectors"
            ),
            TraceError::Dag(e) => write!(f, "building the two-stage DAG: {e}"),
            TraceError::Cluster(e) => write!(f, "building the machine set: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Dag(e) => Some(e),
            TraceError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DagError> for TraceError {
    fn from(e: DagError) -> Self {
        TraceError::Dag(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_job() {
        let e = TraceError::EmptyStage { job: "q1".into() };
        assert!(e.to_string().contains("q1"));
        let e = TraceError::MisalignedDemands {
            job: "q2".into(),
            stage: "map",
            runtimes: 3,
            demands: 2,
        };
        let s = e.to_string();
        assert!(s.contains("q2") && s.contains("map") && s.contains('3') && s.contains('2'));
    }

    #[test]
    fn dag_errors_are_chained() {
        use std::error::Error;
        let e = TraceError::from(DagError::Cycle);
        assert!(e.source().is_some());
    }
}
