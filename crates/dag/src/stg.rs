//! Import of Standard Task Graph (STG) files.
//!
//! STG is the benchmark format of the classic DAG-scheduling literature
//! (Tobita & Kasahara's STG suite), which the paper's related work
//! (references \[8\]\[9\]\[10\] of the paper) evaluates on. The format is
//! line-oriented:
//!
//! ```text
//! 5            # number of tasks (excluding the dummy entry/exit)
//! 0 0 0        # id, processing time, #predecessors
//! 1 3 1 0      # id, time, 1 predecessor: task 0
//! 2 4 1 0
//! 3 2 2 1 2
//! 4 0 1 3      # dummy exit
//! ```
//!
//! Comments start with `#`; blank lines are ignored. Tasks with zero
//! processing time (STG's dummy entry/exit nodes) are kept but clamped to
//! runtime 1, since the simulator requires positive runtimes; pass
//! `drop_dummies = true` to [`parse_stg`] to remove zero-time sources and
//! sinks instead (edges through them are transitively reconnected — the
//! usual treatment in the literature).
//!
//! STG carries no resource demands, so the caller supplies a
//! [`DemandModel`] that assigns each task its demand vector.

use rand::Rng;

use crate::{Dag, DagBuilder, DagError, ResourceVec, Task, TaskId};

/// How to assign resource demands to STG tasks (the format has none).
#[derive(Debug, Clone)]
pub enum DemandModel {
    /// Every task gets the same demand vector.
    Uniform(ResourceVec),
    /// Demands drawn from clipped normals per dimension:
    /// `(dims, mean, std_dev, min, max)` — the simulation workload's
    /// distribution applied to an external topology.
    Normal {
        /// Resource dimensions.
        dims: usize,
        /// Mean demand per dimension.
        mean: f64,
        /// Standard deviation.
        std_dev: f64,
        /// Lower clip.
        min: f64,
        /// Upper clip.
        max: f64,
    },
}

impl DemandModel {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> ResourceVec {
        match self {
            DemandModel::Uniform(d) => d.clone(),
            DemandModel::Normal {
                dims,
                mean,
                std_dev,
                min,
                max,
            } => (0..*dims)
                .map(|_| crate::generator::clipped_normal(rng, *mean, *std_dev, *min, *max))
                .collect(),
        }
    }

    fn dims(&self) -> usize {
        match self {
            DemandModel::Uniform(d) => d.dims(),
            DemandModel::Normal { dims, .. } => *dims,
        }
    }
}

/// Errors from STG parsing.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StgError {
    /// The file is empty or the task-count header is missing/invalid.
    MissingHeader,
    /// A task line is malformed (wrong field count or non-numeric).
    BadTaskLine {
        /// 1-based line number in the input.
        line: usize,
    },
    /// A task line's id is out of order or out of range.
    BadTaskId {
        /// 1-based line number in the input.
        line: usize,
    },
    /// Fewer task lines than the header announced.
    TruncatedFile,
    /// The resulting graph failed validation.
    Graph(DagError),
}

impl std::fmt::Display for StgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StgError::MissingHeader => write!(f, "missing or invalid task-count header"),
            StgError::BadTaskLine { line } => write!(f, "malformed task line {line}"),
            StgError::BadTaskId { line } => write!(f, "unexpected task id on line {line}"),
            StgError::TruncatedFile => write!(f, "fewer task lines than the header announced"),
            StgError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for StgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StgError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DagError> for StgError {
    fn from(e: DagError) -> Self {
        StgError::Graph(e)
    }
}

/// One parsed STG task record.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StgTask {
    time: u64,
    preds: Vec<usize>,
}

/// Parses STG text into a [`Dag`], assigning demands via `demands` (driven
/// by `rng` for the stochastic models).
///
/// With `drop_dummies`, zero-time tasks that are pure sources or sinks
/// (STG's dummy entry/exit) are removed and their edges reconnected.
///
/// # Errors
///
/// Returns [`StgError`] for malformed input or an invalid resulting graph.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use spear_dag::stg::{parse_stg, DemandModel};
/// use spear_dag::ResourceVec;
///
/// let text = "3\n0 2 0\n1 4 1 0\n2 3 1 0\n";
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let dag = parse_stg(
///     text,
///     &DemandModel::Uniform(ResourceVec::from_slice(&[0.5, 0.5])),
///     false,
///     &mut rng,
/// ).unwrap();
/// assert_eq!(dag.len(), 3);
/// assert_eq!(dag.critical_path_length(), 6);
/// ```
pub fn parse_stg<R: Rng + ?Sized>(
    text: &str,
    demands: &DemandModel,
    drop_dummies: bool,
    rng: &mut R,
) -> Result<Dag, StgError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.split('#').next().unwrap_or("").trim()))
        .filter(|(_, l)| !l.is_empty());

    let (_, header) = lines.next().ok_or(StgError::MissingHeader)?;
    let count: usize = header
        .split_whitespace()
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or(StgError::MissingHeader)?;

    // Grown line by line: `count` is untrusted input, so it must not size
    // an allocation up front.
    let mut tasks: Vec<StgTask> = Vec::new();
    for _ in 0..count {
        let (line_no, line) = lines.next().ok_or(StgError::TruncatedFile)?;
        let fields: Vec<u64> = line
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|_| StgError::BadTaskLine { line: line_no })?;
        if fields.len() < 3 {
            return Err(StgError::BadTaskLine { line: line_no });
        }
        let (id, time, npred) = (fields[0] as usize, fields[1], fields[2] as usize);
        if id != tasks.len() {
            return Err(StgError::BadTaskId { line: line_no });
        }
        if fields.len() - 3 != npred {
            return Err(StgError::BadTaskLine { line: line_no });
        }
        let preds: Vec<usize> = fields[3..].iter().map(|&p| p as usize).collect();
        if preds.iter().any(|&p| p >= count) {
            return Err(StgError::BadTaskLine { line: line_no });
        }
        tasks.push(StgTask { time, preds });
    }

    // Successor lists for dummy reconnection.
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); tasks.len()];
    for (i, t) in tasks.iter().enumerate() {
        for &p in &t.preds {
            succs[p].push(i);
        }
    }

    let is_dummy = |i: usize| {
        drop_dummies && tasks[i].time == 0 && (tasks[i].preds.is_empty() || succs[i].is_empty())
    };

    // Map retained STG ids to dense new ids.
    let mut new_id = vec![usize::MAX; tasks.len()];
    let mut kept = 0usize;
    for (i, id) in new_id.iter_mut().enumerate() {
        if !is_dummy(i) {
            *id = kept;
            kept += 1;
        }
    }
    if kept == 0 {
        return Err(StgError::Graph(DagError::Empty));
    }

    let mut builder = DagBuilder::new(demands.dims());
    for (i, t) in tasks.iter().enumerate() {
        if new_id[i] == usize::MAX {
            continue;
        }
        builder
            .add_task(Task::new(t.time.max(1), demands.sample(rng)).with_name(format!("stg-{i}")));
    }
    // Edges: skip through dropped dummies (entry dummies have no preds to
    // forward; exit dummies have no succs — so only direct edges between
    // retained tasks remain, plus edges *through* a dropped middle node
    // cannot exist because dummies are sources/sinks by definition).
    let mut add_edge = |from: usize, to: usize| -> Result<(), StgError> {
        match builder.add_edge(TaskId::new(new_id[from]), TaskId::new(new_id[to])) {
            Ok(()) | Err(DagError::DuplicateEdge(_, _)) => Ok(()),
            Err(e) => Err(e.into()),
        }
    };
    for (i, t) in tasks.iter().enumerate() {
        if new_id[i] == usize::MAX {
            continue;
        }
        for &p in &t.preds {
            if new_id[p] != usize::MAX {
                add_edge(p, i)?;
            }
        }
    }
    Ok(builder.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform() -> DemandModel {
        DemandModel::Uniform(ResourceVec::from_slice(&[0.4, 0.3]))
    }

    const DIAMOND: &str = "\
# a diamond with dummy entry/exit
6
0 0 0        # dummy entry
1 3 1 0
2 5 1 0
3 2 2 1 2
4 4 1 3
5 0 1 4      # dummy exit
";

    #[test]
    fn parses_diamond_keeping_dummies() {
        let mut rng = StdRng::seed_from_u64(0);
        let dag = parse_stg(DIAMOND, &uniform(), false, &mut rng).unwrap();
        assert_eq!(dag.len(), 6);
        // Zero-time dummies clamp to runtime 1.
        assert_eq!(dag.task(TaskId::new(0)).runtime(), 1);
        assert_eq!(dag.task(TaskId::new(5)).runtime(), 1);
        // CP: 1 + 5 + 2 + 4 + 1 = 13.
        assert_eq!(dag.critical_path_length(), 13);
    }

    #[test]
    fn drops_dummy_entry_and_exit() {
        let mut rng = StdRng::seed_from_u64(0);
        let dag = parse_stg(DIAMOND, &uniform(), true, &mut rng).unwrap();
        assert_eq!(dag.len(), 4);
        assert_eq!(dag.sources().len(), 2); // tasks 1 and 2
        assert_eq!(dag.sinks().len(), 1); // task 4
        assert_eq!(dag.critical_path_length(), 11);
        assert_eq!(dag.task(TaskId::new(0)).name(), Some("stg-1"));
    }

    #[test]
    fn normal_demand_model_respects_bounds() {
        let model = DemandModel::Normal {
            dims: 2,
            mean: 0.4,
            std_dev: 0.3,
            min: 0.1,
            max: 0.9,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let dag = parse_stg(DIAMOND, &model, false, &mut rng).unwrap();
        for t in dag.tasks() {
            for r in 0..2 {
                assert!((0.1..=0.9).contains(&t.demand()[r]));
            }
        }
    }

    #[test]
    fn rejects_malformed_input() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            parse_stg("", &uniform(), false, &mut rng).unwrap_err(),
            StgError::MissingHeader
        );
        assert_eq!(
            parse_stg("two\n", &uniform(), false, &mut rng).unwrap_err(),
            StgError::MissingHeader
        );
        assert_eq!(
            parse_stg("2\n0 1 0\n", &uniform(), false, &mut rng).unwrap_err(),
            StgError::TruncatedFile
        );
        assert_eq!(
            parse_stg("1\n0 1\n", &uniform(), false, &mut rng).unwrap_err(),
            StgError::BadTaskLine { line: 2 }
        );
        assert_eq!(
            parse_stg("1\n5 1 0\n", &uniform(), false, &mut rng).unwrap_err(),
            StgError::BadTaskId { line: 2 }
        );
        // Predecessor count disagrees with the listed ids.
        assert_eq!(
            parse_stg("2\n0 1 0\n1 1 2 0\n", &uniform(), false, &mut rng).unwrap_err(),
            StgError::BadTaskLine { line: 3 }
        );
        // Predecessor id out of range.
        assert_eq!(
            parse_stg("2\n0 1 0\n1 1 1 7\n", &uniform(), false, &mut rng).unwrap_err(),
            StgError::BadTaskLine { line: 3 }
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# header comment\n2\n\n0 2 0  # entry\n1 3 1 0\n";
        let mut rng = StdRng::seed_from_u64(0);
        let dag = parse_stg(text, &uniform(), false, &mut rng).unwrap();
        assert_eq!(dag.len(), 2);
        assert_eq!(dag.edges().len(), 1);
    }

    #[test]
    fn huge_headers_and_runtimes_fail_typed() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            parse_stg("999999999999\n0 1 0\n", &uniform(), false, &mut rng).unwrap_err(),
            StgError::TruncatedFile
        );
        assert_eq!(
            parse_stg(
                "2\n0 18446744073709551615 0\n1 4 1 0\n",
                &uniform(),
                false,
                &mut rng
            )
            .unwrap_err(),
            StgError::Graph(DagError::RuntimeOverflow)
        );
        // A predecessor count of u64::MAX must not overflow the field
        // count check.
        assert_eq!(
            parse_stg("1\n0 1 18446744073709551615\n", &uniform(), false, &mut rng).unwrap_err(),
            StgError::BadTaskLine { line: 2 }
        );
    }

    /// Tokens the random streams below are drawn from: small ids, times
    /// and counts (repeated, so that some streams parse), and values that
    /// overflow a count, a `u64` or an allocation.
    const TOKENS: [&str; 18] = [
        "0",
        "0",
        "1",
        "1",
        "1",
        "2",
        "2",
        "3",
        "4",
        "#",
        "x",
        "-1",
        "1.5",
        "4294967296",
        "999999999999",
        "9007199254740993",
        "18446744073709551615",
        "18446744073709551616",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Random token streams either parse into a DAG within the runtime
        /// ceiling or fail with a typed [`StgError`]; they never panic or
        /// abort.
        #[test]
        fn random_token_streams_parse_or_fail_typed(
            lines in proptest::prop::collection::vec(
                proptest::prop::collection::vec(0usize..TOKENS.len(), 0..7),
                0..8,
            ),
            drop_dummies in proptest::any::<bool>(),
        ) {
            let text: String = lines
                .iter()
                .map(|line| {
                    let tokens: Vec<&str> = line.iter().map(|&t| TOKENS[t]).collect();
                    tokens.join(" ") + "\n"
                })
                .collect();
            let mut rng = StdRng::seed_from_u64(0);
            if let Ok(dag) = parse_stg(&text, &uniform(), drop_dummies, &mut rng) {
                proptest::prop_assert!(dag.total_work() <= crate::MAX_TOTAL_RUNTIME);
            }
        }
    }

    #[test]
    fn parsed_graph_is_schedulable() {
        use crate::analysis::GraphFeatures;
        let mut rng = StdRng::seed_from_u64(3);
        let dag = parse_stg(DIAMOND, &uniform(), true, &mut rng).unwrap();
        let f = GraphFeatures::compute(&dag);
        assert!(f.critical_path() > 0);
        // Every retained task got a demand of the model's dimensionality.
        assert_eq!(dag.dims(), 2);
    }
}
