//! The metric catalog and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; the benchmark's tests check that the two agree.

use serde_json::Value;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("jct_vs_tetris", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
/// Layers a workload does not exercise report `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mcts.decision_ms_p50", "ms"),
    ("mcts.decision_ms_p99", "ms"),
    ("mcts.decisions_per_job", "count"),
    ("mcts.iterations_per_s", "1/s"),
    ("mcts.rollout_steps_per_job", "count"),
    ("mcts.tree_nodes_per_job", "count"),
    ("mcts.self_share", "ratio"),
    ("cluster.step_ns", "ns"),
    ("cluster.clone_ns", "ns"),
    ("cluster.fingerprint_ns", "ns"),
    ("cluster.self_share", "ratio"),
    ("rl.policy_call_ns", "ns"),
    ("rl.featurize_ns", "ns"),
    ("rl.cache_hit_rate", "ratio"),
    ("rl.cache_evictions", "count"),
    ("rl.inference_skip_ratio", "ratio"),
    ("rl.expert_dataset_ms", "ms"),
    ("rl.pretrain_epoch_ms", "ms"),
    ("rl.reinforce_epoch_ms", "ms"),
    ("rl.self_share", "ratio"),
    ("nn.forward_ns", "ns"),
    ("nn.forward_fast_ns", "ns"),
    ("nn.forwards_per_job", "count"),
    ("nn.train_step_us", "us"),
    ("nn.load_ms", "ms"),
    ("nn.self_share", "ratio"),
    ("sched.estimate_ms", "ms"),
    ("sched.self_share", "ratio"),
    ("dag.graph_features_us", "us"),
    ("dag.self_share", "ratio"),
    ("trace.stream_gen_ms", "ms"),
    ("ledger.unattributed_share", "ratio"),
    ("ledger.trace_overhead", "ratio"),
    ("host.reference_ms", "ms"),
    ("host.runq_wait_share", "ratio"),
];

/// The outcome of one run: correctness, job counts and named metrics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every output checked out.
    pub correct: bool,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs whose scheduler returned an error or whose output failed a
    /// check.
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// An empty report with nothing attempted yet.
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Records one job's outcome; `problem` is `Some` when it failed.
    pub fn job(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            self.fail(&problem);
        }
    }

    /// Marks the run incorrect without counting a job.
    pub fn fail(&mut self, problem: &str) {
        eprintln!("[perfbench] check failed: {problem}");
        self.correct = false;
    }

    /// Sets a metric by catalog name.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from both catalogs — a benchmark bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not in the catalog"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// `catalog`'s metrics with their units, in catalog order.
    ///
    /// # Panics
    ///
    /// Panics if a catalog metric was never set — a benchmark bug.
    pub fn to_json(&self, catalog: &[(&'static str, &'static str)]) -> String {
        let metrics = catalog
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric `{name}` was never recorded"));
                (
                    name.to_owned(),
                    Value::Obj(vec![
                        ("value".to_owned(), Value::Num(value)),
                        ("unit".to_owned(), Value::Str(unit.to_owned())),
                    ]),
                )
            })
            .collect();
        let line = Value::Obj(vec![
            ("correct".to_owned(), Value::Bool(self.correct)),
            ("attempted".to_owned(), Value::Num(self.attempted as f64)),
            ("failed".to_owned(), Value::Num(self.failed as f64)),
            ("metrics".to_owned(), Value::Obj(metrics)),
        ]);
        serde_json::to_string(&line).expect("a Value tree always renders")
    }
}

/// The unit a catalog metric is reported in.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}
