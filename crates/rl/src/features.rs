//! State featurization: cluster image + ready-task slots + globals.

use serde::{Deserialize, Serialize};
use spear_cluster::{Action, ClusterSpec, SimState};
use spear_dag::analysis::GraphFeatures;
use spear_dag::{Dag, TaskId};

/// Shape parameters of the featurizer / policy input.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureConfig {
    /// Resource dimensions (must match the DAG and cluster).
    pub dims: usize,
    /// Time horizon of the cluster occupancy image, in slots (paper: 20).
    pub horizon: usize,
    /// Maximum ready tasks visible to the network (paper: 15); additional
    /// ready tasks wait in a backlog the network only sees as a count.
    pub max_ready: usize,
}

impl FeatureConfig {
    /// The paper's configuration: horizon 20, up to 15 ready tasks.
    pub fn paper(dims: usize) -> Self {
        FeatureConfig {
            dims,
            horizon: 20,
            max_ready: 15,
        }
    }

    /// A reduced configuration for fast tests and examples.
    pub fn small(dims: usize) -> Self {
        FeatureConfig {
            dims,
            horizon: 8,
            max_ready: 5,
        }
    }

    /// Number of features per ready-task slot: presence flag, normalized
    /// runtime, demand per dimension, b-level, child count, b-load per
    /// dimension.
    pub fn per_task_features(&self) -> usize {
        1 + 1 + self.dims + 1 + 1 + self.dims
    }

    /// Total input width of the policy network.
    pub fn input_dim(&self) -> usize {
        // Cluster image + task slots + globals (backlog, running fraction,
        // completed fraction).
        self.dims * self.horizon + self.max_ready * self.per_task_features() + 3
    }

    /// Output width: one logit per visible ready slot plus the process
    /// action (the paper's `n + 1` action space, truncated at `max_ready`).
    pub fn action_dim(&self) -> usize {
        self.max_ready + 1
    }

    /// The index of the *process* action in the output layer.
    pub fn process_action(&self) -> usize {
        self.max_ready
    }
}

/// The featurized view of one simulation state: the network input, the
/// tasks occupying each visible slot, and the action legality mask.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateView {
    /// Flat feature vector of length [`FeatureConfig::input_dim`].
    pub features: Vec<f64>,
    /// Task in each visible slot (`None` = empty slot).
    pub slot_tasks: Vec<Option<TaskId>>,
    /// Legality mask of length [`FeatureConfig::action_dim`]: slot actions
    /// are legal when the slot holds a task that can start on some
    /// machine now; the process action is legal when the cluster is
    /// non-empty or no slot action is.
    pub mask: Vec<bool>,
}

impl StateView {
    /// The simulator action for network action `index`, in the state the
    /// view was taken of: `Process` past the last slot, otherwise the
    /// slot's task on the first machine it can start on now. The network
    /// scores tasks, so the machine is chosen here.
    ///
    /// # Panics
    ///
    /// Panics if `index` names an empty slot or a task that cannot start
    /// now (the mask rules both out).
    pub fn action(&self, index: usize, dag: &Dag, state: &SimState) -> Action {
        let Some(slot) = self.slot_tasks.get(index) else {
            return Action::Process;
        };
        let task = slot.expect("masked sampling never picks an empty slot");
        let machine = (0..state.num_machines() as u32)
            .find(|&m| state.can_schedule_on(dag, task, m))
            .expect("a legal slot's task can start on some machine");
        Action::Place(task, machine)
    }
}

/// Renders [`SimState`]s into policy-network inputs.
///
/// Ready tasks are assigned to slots in descending b-level order (ties by
/// descending child count, then id), so the most critical work is always
/// visible even when the frontier exceeds `max_ready` — the overflow
/// forms the paper's backlog.
#[derive(Debug, Clone)]
pub struct Featurizer {
    config: FeatureConfig,
}

impl Featurizer {
    /// Creates a featurizer.
    pub fn new(config: FeatureConfig) -> Self {
        Featurizer { config }
    }

    /// The shape parameters.
    pub fn config(&self) -> &FeatureConfig {
        &self.config
    }

    /// Orders the ready set by descending b-level, breaking ties by
    /// descending child count then ascending id (the CP ordering), and
    /// truncates to the visible window.
    pub fn visible_ready(&self, state: &SimState, features: &GraphFeatures) -> Vec<TaskId> {
        let mut ready = Vec::new();
        self.visible_ready_into(state, features, &mut ready);
        ready
    }

    /// [`Featurizer::visible_ready`] into a caller-owned buffer (cleared
    /// first).
    ///
    /// The CP order is a total order fixed per DAG
    /// ([`GraphFeatures::cp_order`]), so the ready set sorted by it is a
    /// subsequence of it: one bit per ready task at its CP rank, read
    /// from the lowest rank up, gives the window without comparing a
    /// single key. That is `O(|ready| + n / 64)` per call. The bitset
    /// lives on the stack for DAGs of up to 256 tasks (a 10 × 20 stream's
    /// union included) and on the heap beyond.
    pub fn visible_ready_into(
        &self,
        state: &SimState,
        features: &GraphFeatures,
        out: &mut Vec<TaskId>,
    ) {
        const STACK_WORDS: usize = 4;
        out.clear();
        let rank = features.cp_rank();
        let order = features.cp_order();
        let len = rank.len().div_ceil(64);
        let mut stack = [0u64; STACK_WORDS];
        let mut heap = Vec::new();
        let words = if len <= STACK_WORDS {
            &mut stack[..len]
        } else {
            heap.resize(len, 0u64);
            &mut heap[..]
        };
        for &t in state.ready() {
            let r = rank[t.index()] as usize;
            words[r / 64] |= 1 << (r % 64);
        }
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                if out.len() == self.config.max_ready {
                    return;
                }
                out.push(order[w * 64 + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
    }

    /// Featurizes one state.
    ///
    /// # Panics
    ///
    /// Panics if the DAG/cluster dimensionality disagrees with the config.
    pub fn featurize(
        &self,
        dag: &Dag,
        spec: &ClusterSpec,
        state: &SimState,
        features: &GraphFeatures,
    ) -> StateView {
        let mut view = StateView::default();
        let mut ready = Vec::new();
        self.featurize_into(dag, spec, state, features, &mut ready, &mut view);
        view
    }

    /// [`Featurizer::featurize`] into caller-owned buffers: the view's
    /// vectors and a ready-ordering scratch are cleared and refilled, so a
    /// caller that reuses them featurizes without heap allocations. The
    /// pushed values are bit-identical to [`Featurizer::featurize`] — in
    /// particular the occupancy image accumulates running tasks per pixel
    /// in the same order, just task-outer instead of pixel-outer.
    ///
    /// # Panics
    ///
    /// Panics if the DAG/cluster dimensionality disagrees with the config.
    pub fn featurize_into(
        &self,
        dag: &Dag,
        spec: &ClusterSpec,
        state: &SimState,
        features: &GraphFeatures,
        ready_scratch: &mut Vec<TaskId>,
        view: &mut StateView,
    ) {
        assert_eq!(dag.dims(), self.config.dims, "dimension mismatch");
        assert_eq!(spec.dims(), self.config.dims, "dimension mismatch");
        let cfg = &self.config;
        let out = &mut view.features;
        out.clear();
        out.reserve(cfg.input_dim());

        // --- Cluster occupancy image over [clock, clock + horizon). ---
        // out[r * horizon + h] = fraction of capacity r occupied at
        // clock + h. A task running until `finish` covers the first
        // `finish - clock` pixels of its row.
        let clock = state.clock();
        out.resize(cfg.dims * cfg.horizon, 0.0);
        for run in state.running() {
            let span = run.finish.saturating_sub(clock).min(cfg.horizon as u64) as usize;
            if span == 0 {
                continue;
            }
            let demand = dag.task(run.task).demand();
            for r in 0..cfg.dims {
                let d = demand[r];
                for v in &mut out[r * cfg.horizon..r * cfg.horizon + span] {
                    *v += d;
                }
            }
        }
        for r in 0..cfg.dims {
            let cap = spec.capacity()[r];
            for v in &mut out[r * cfg.horizon..(r + 1) * cfg.horizon] {
                *v = (*v / cap).min(1.0);
            }
        }

        // --- Ready-task slots. ---
        self.visible_ready_into(state, features, ready_scratch);
        let max_rt = dag.max_runtime().max(1) as f64;
        let cp = features.critical_path().max(1) as f64;
        let max_children = features.max_children().max(1) as f64;
        view.slot_tasks.clear();
        view.slot_tasks.resize(cfg.max_ready, None);
        for (slot, &task) in ready_scratch.iter().enumerate() {
            view.slot_tasks[slot] = Some(task);
        }
        for slot_task in &view.slot_tasks {
            match *slot_task {
                Some(task) => {
                    let t = dag.task(task);
                    let f = features.task(task);
                    out.push(1.0);
                    out.push(t.runtime() as f64 / max_rt);
                    for r in 0..cfg.dims {
                        out.push(t.demand()[r] / spec.capacity()[r]);
                    }
                    out.push(f.b_level as f64 / cp);
                    out.push(f.children as f64 / max_children);
                    for r in 0..cfg.dims {
                        let max_load = features.max_b_load()[r].max(f64::MIN_POSITIVE);
                        out.push(f.b_load[r] / max_load);
                    }
                }
                None => out.extend(std::iter::repeat_n(0.0, cfg.per_task_features())),
            }
        }

        // --- Globals. ---
        let n = dag.len() as f64;
        let backlog = state.ready().len().saturating_sub(cfg.max_ready) as f64;
        out.push(backlog / n);
        out.push(state.running().len() as f64 / n);
        out.push(state.completed() as f64 / n);

        debug_assert_eq!(out.len(), cfg.input_dim());

        // --- Legality mask. ---
        view.mask.clear();
        view.mask.resize(cfg.action_dim(), false);
        let mut any_slot = false;
        for (slot, task) in view.slot_tasks.iter().enumerate() {
            if let Some(t) = *task {
                // Slot tasks are ready by construction; route the fit
                // through the simulator's own admission rule so the mask
                // can never disagree with `SimState::legal_actions`.
                view.mask[slot] = state.fits_somewhere(dag, t);
                any_slot |= view.mask[slot];
            }
        }
        // With no slot legal and nothing running, a transfer or an
        // arrival is pending, and waiting for it is the way forward.
        view.mask[cfg.process_action()] = !state.running().is_empty() || !any_slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_cluster::Action;
    use spear_dag::{DagBuilder, ResourceVec, Task};

    fn small_dag() -> Dag {
        // 0 -> 2, 1 -> 2; runtimes 4, 2, 6.
        let mut b = DagBuilder::new(2);
        let a = b.add_task(Task::new(4, ResourceVec::from_slice(&[0.5, 0.2])));
        let c = b.add_task(Task::new(2, ResourceVec::from_slice(&[0.3, 0.3])));
        let d = b.add_task(Task::new(6, ResourceVec::from_slice(&[0.8, 0.8])));
        b.add_edge(a, d).unwrap();
        b.add_edge(c, d).unwrap();
        b.build().unwrap()
    }

    fn setup() -> (Dag, ClusterSpec, GraphFeatures, Featurizer) {
        let dag = small_dag();
        let spec = ClusterSpec::unit(2);
        let gf = GraphFeatures::compute(&dag);
        let f = Featurizer::new(FeatureConfig::small(2));
        (dag, spec, gf, f)
    }

    #[test]
    fn input_dim_formula() {
        let cfg = FeatureConfig::paper(2);
        // 2*20 + 15*(1+1+2+1+1+2) + 3 = 40 + 120 + 3 = 163.
        assert_eq!(cfg.input_dim(), 163);
        assert_eq!(cfg.action_dim(), 16);
        assert_eq!(cfg.process_action(), 15);
    }

    #[test]
    fn featurize_initial_state() {
        let (dag, spec, gf, f) = setup();
        let state = SimState::new(&dag, &spec).unwrap();
        let view = f.featurize(&dag, &spec, &state, &gf);
        assert_eq!(view.features.len(), f.config().input_dim());
        // Empty cluster: occupancy image all zeros.
        let image_len = 2 * f.config().horizon;
        assert!(view.features[..image_len].iter().all(|&v| v == 0.0));
        // Two ready tasks occupy the first two slots; the rest are empty.
        assert_eq!(view.slot_tasks.iter().filter(|t| t.is_some()).count(), 2);
        // Process illegal (nothing running); both task slots legal.
        assert!(!view.mask[f.config().process_action()]);
        assert!(view.mask[0] && view.mask[1]);
        // All features are finite and in a sane range.
        assert!(view.features.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn slots_are_ordered_by_b_level() {
        let (dag, spec, gf, f) = setup();
        let state = SimState::new(&dag, &spec).unwrap();
        let view = f.featurize(&dag, &spec, &state, &gf);
        // Task 0 has b-level 10, task 1 has 8: task 0 first.
        assert_eq!(view.slot_tasks[0], Some(TaskId::new(0)));
        assert_eq!(view.slot_tasks[1], Some(TaskId::new(1)));
    }

    #[test]
    fn occupancy_image_reflects_running_tasks() {
        let (dag, spec, gf, f) = setup();
        let mut state = SimState::new(&dag, &spec).unwrap();
        state.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
        let view = f.featurize(&dag, &spec, &state, &gf);
        let h = f.config().horizon;
        // Dimension 0 occupied at 0.5 for the first 4 slots, then free.
        for i in 0..4 {
            assert!((view.features[i] - 0.5).abs() < 1e-9);
        }
        for i in 4..h {
            assert_eq!(view.features[i], 0.0);
        }
        // Dimension 1 occupied at 0.2 for the first 4 slots.
        for i in 0..4 {
            assert!((view.features[h + i] - 0.2).abs() < 1e-9);
        }
    }

    #[test]
    fn mask_reflects_fit() {
        let (dag, spec, gf, f) = setup();
        let mut state = SimState::new(&dag, &spec).unwrap();
        // Schedule task 0 (0.5, 0.2): task 1 (0.3,0.3) still fits.
        state.apply(&dag, Action::Place(TaskId::new(0), 0)).unwrap();
        let view = f.featurize(&dag, &spec, &state, &gf);
        assert_eq!(view.slot_tasks[0], Some(TaskId::new(1)));
        assert!(view.mask[0]);
        assert!(view.mask[f.config().process_action()]);
    }

    #[test]
    fn backlog_counts_overflow() {
        // 8 independent tasks with max_ready = 5.
        let mut b = DagBuilder::new(2);
        for _ in 0..8 {
            b.add_task(Task::new(2, ResourceVec::from_slice(&[0.1, 0.1])));
        }
        let dag = b.build().unwrap();
        let spec = ClusterSpec::unit(2);
        let gf = GraphFeatures::compute(&dag);
        let f = Featurizer::new(FeatureConfig::small(2));
        let state = SimState::new(&dag, &spec).unwrap();
        let view = f.featurize(&dag, &spec, &state, &gf);
        assert_eq!(view.slot_tasks.iter().filter(|t| t.is_some()).count(), 5);
        // Backlog global = 3/8.
        let backlog_idx = f.config().input_dim() - 3;
        assert!((view.features[backlog_idx] - 3.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn featurize_into_reused_buffers_match_fresh_featurize() {
        let (dag, spec, gf, f) = setup();
        let mut state = SimState::new(&dag, &spec).unwrap();
        let mut ready = Vec::new();
        let mut view = StateView::default();
        // Drive a whole episode through the same buffers; every refill must
        // equal a from-scratch featurization bit for bit.
        while !state.is_terminal(&dag) {
            f.featurize_into(&dag, &spec, &state, &gf, &mut ready, &mut view);
            assert_eq!(view, f.featurize(&dag, &spec, &state, &gf));
            let legal = state.legal_actions(&dag);
            state.apply(&dag, legal[0]).unwrap();
        }
    }

    #[test]
    fn at_least_one_action_is_always_legal() {
        let (dag, spec, gf, f) = setup();
        let mut state = SimState::new(&dag, &spec).unwrap();
        while !state.is_terminal(&dag) {
            let view = f.featurize(&dag, &spec, &state, &gf);
            assert!(view.mask.iter().any(|&m| m), "no legal network action");
            let legal = state.legal_actions(&dag);
            state.apply(&dag, legal[0]).unwrap();
        }
    }
}
