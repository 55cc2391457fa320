//! The core search: selection, expansion, simulation, backpropagation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spear_cluster::env::{EpisodeDriver, SimEnv};
use spear_cluster::{Action, ClusterSpec, SimState, SpearError};
use spear_dag::analysis::GraphFeatures;
use spear_dag::Dag;

use crate::policies::RolloutAdapter;
use crate::tree::{Node, NodeId, Tree};
use crate::{PolicyContext, SearchPolicy};

/// Reusable buffers for the rollout hot loop. The search owns one scratch
/// and `clone_from`s the root environment into it, so steady-state rollouts
/// do zero heap allocations: the state's interior vectors and the
/// legal-action buffer keep their capacity across rollouts.
#[derive(Default)]
struct RolloutScratch<'a> {
    env: Option<SimEnv<'a>>,
    legal: Vec<Action>,
}

/// Entries in the precomputed `ln` table used by UCB selection. Selection
/// evaluates `ln(visits)` once per node on every descent; a table lookup
/// replaces the libm call for all but astronomically visited nodes and is
/// bit-identical to computing `(k as f64).ln()` directly.
const LN_TABLE_SIZE: usize = 4096;

fn ln_table() -> Vec<f64> {
    (0..LN_TABLE_SIZE as u64)
        .map(|k| (k.max(1) as f64).ln())
        .collect()
}

/// Strictly-greater comparison of a `(primary, tiebreak)` selection key
/// under [`f64::total_cmp`]. IEEE `>` is always false when either side is
/// NaN, so a NaN key (e.g. from a NaN exploration constant, which the
/// public [`MctsConfig::exploration_coeff`](crate::MctsConfig) admits)
/// would silently freeze an argmax on whichever candidate came first;
/// `total_cmp` imposes a total order instead, keeping selection
/// deterministic. For the finite keys produced by healthy searches the
/// result is identical to tuple `>`.
fn key_gt(a: (f64, f64), b: (f64, f64)) -> bool {
    match a.0.total_cmp(&b.0) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => a.1.total_cmp(&b.1) == std::cmp::Ordering::Greater,
    }
}

/// A Monte Carlo tree search over scheduling states of one DAG.
///
/// The search is built once per job and driven decision by decision:
/// [`MctsSearch::run_iteration`] grows the tree, [`MctsSearch::best_action`]
/// reads off the best root move, and [`MctsSearch::advance`] commits it,
/// re-rooting the tree at the chosen child so earlier search effort is
/// reused (the paper: "the selected action will point to a child node which
/// will become the new root node").
pub struct MctsSearch<'a, P: SearchPolicy + ?Sized> {
    dag: &'a Dag,
    spec: &'a ClusterSpec,
    features: &'a GraphFeatures,
    policy: &'a mut P,
    tree: Tree,
    root: NodeId,
    root_env: SimEnv<'a>,
    exploration: f64,
    max_value_mode: bool,
    rng: StdRng,
    scratch: RolloutScratch<'a>,
    ln_table: Vec<f64>,
    iterations: u64,
    rollout_steps: u64,
    max_depth: u64,
}

impl<'a, P: SearchPolicy + ?Sized> MctsSearch<'a, P> {
    /// Creates a search rooted at the initial state of `dag` on `spec`.
    ///
    /// `exploration` is the absolute UCB constant `c`; callers scale it to
    /// the makespan magnitude (see [`MctsConfig`](crate::MctsConfig)).
    ///
    /// # Errors
    ///
    /// Fails if the DAG cannot run on the cluster.
    pub fn new(
        dag: &'a Dag,
        spec: &'a ClusterSpec,
        features: &'a GraphFeatures,
        policy: &'a mut P,
        exploration: f64,
        seed: u64,
    ) -> Result<Self, SpearError> {
        let root_state = SimState::new(dag, spec)?;
        Self::from_root_state(dag, spec, features, policy, exploration, seed, root_state)
    }

    /// Creates a search rooted at an arbitrary simulation state of `dag`
    /// — e.g. a job stream's state built with
    /// [`SimState::new_multi`](spear_cluster::SimState::new_multi), whose
    /// arrival gating every rollout then inherits through state cloning.
    ///
    /// # Errors
    ///
    /// Fails if the DAG cannot run on the cluster.
    pub fn from_root_state(
        dag: &'a Dag,
        spec: &'a ClusterSpec,
        features: &'a GraphFeatures,
        policy: &'a mut P,
        exploration: f64,
        seed: u64,
        root_state: SimState,
    ) -> Result<Self, SpearError> {
        spec.validate_dag(dag)?;
        let root_env = SimEnv::from_state(dag, spec, root_state);
        // A new search is a new episode: cached policies drop entries
        // computed under a previous DAG/spec. Within this episode they
        // retain entries across decisions (same DAG, same weights — a
        // fingerprint-keyed entry cannot go stale until the episode
        // ends).
        policy.on_episode_start();
        let mut tree = Tree::new();
        let untried = root_env.observe().legal_actions(dag);
        let terminal = untried.is_empty();
        let terminal_value = if terminal {
            -(root_env.makespan().unwrap_or(0) as f64)
        } else {
            0.0
        };
        let root = tree.push(Node::fresh(None, None, untried, terminal, terminal_value));
        Ok(MctsSearch {
            dag,
            spec,
            features,
            policy,
            tree,
            root,
            root_env,
            exploration,
            max_value_mode: true,
            rng: StdRng::seed_from_u64(seed),
            scratch: RolloutScratch::default(),
            ln_table: ln_table(),
            iterations: 0,
            rollout_steps: 0,
            max_depth: 0,
        })
    }

    /// Switches between max-value exploitation (paper Eq. 5, the default)
    /// and classic mean-value UCB (the backpropagation ablation).
    pub fn set_max_value_mode(&mut self, enabled: bool) {
        self.max_value_mode = enabled;
    }

    /// The exploitation value of a node under the current mode.
    fn exploit_value(&self, node: &Node) -> f64 {
        if self.max_value_mode {
            node.max_value
        } else {
            node.mean_value()
        }
    }

    /// The current root state.
    pub fn root_state(&self) -> &SimState {
        self.root_env.observe()
    }

    /// Whether the committed schedule is complete.
    pub fn is_terminal(&self) -> bool {
        self.tree.node(self.root).terminal
    }

    /// Total iterations run so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Total simulated rollout steps so far.
    pub fn rollout_steps(&self) -> u64 {
        self.rollout_steps
    }

    /// Deepest node reached below the *current* root (selection replay
    /// plus the expanded child) since the last [`MctsSearch::advance`] —
    /// how far ahead of the committed schedule the search is looking.
    pub fn max_depth(&self) -> u64 {
        self.max_depth
    }

    /// Cumulative policy-network forward passes of the guiding policy.
    pub fn policy_inferences(&self) -> u64 {
        self.policy.inferences()
    }

    /// Hit/miss/evict counters of the guiding policy's inference cache.
    pub fn policy_cache_stats(&self) -> spear_rl::EvalCacheStats {
        self.policy.cache_stats()
    }

    /// Inferences the guiding policy skipped on forced (singleton)
    /// decisions.
    pub fn policy_inference_skips(&self) -> u64 {
        self.policy.inference_skips()
    }

    /// Nodes allocated so far.
    pub fn tree_size(&self) -> usize {
        self.tree.len()
    }

    fn ctx(&self) -> PolicyContext<'a> {
        PolicyContext {
            dag: self.dag,
            spec: self.spec,
            features: self.features,
        }
    }

    /// One MCTS iteration: select a leaf by UCB, expand one action
    /// (policy-guided), simulate to termination (policy-guided), and
    /// backpropagate the return.
    pub fn run_iteration(&mut self) {
        self.iterations += 1;
        // The whole iteration runs inside the reusable scratch: the root
        // environment is `clone_from`ed in, selection replays each chosen
        // action, and the rollout continues from wherever the replay
        // stopped. In steady state nothing here allocates except the new
        // node itself.
        let RolloutScratch { env, mut legal } = std::mem::take(&mut self.scratch);
        let mut env = match env {
            Some(mut e) => {
                e.clone_from(&self.root_env);
                e
            }
            None => self.root_env.clone(),
        };
        // --- Selection (replaying the path into the scratch env). ---
        let mut id = self.root;
        let mut depth = 0u64;
        while self.tree.node(id).fully_expanded() && !self.tree.node(id).terminal {
            let (action, child) = self.select_child(id);
            env.step_trusted(action);
            id = child;
            depth += 1;
        }
        self.max_depth = self.max_depth.max(depth);
        // Terminal leaf: its value is exact; just reinforce it.
        if self.tree.node(id).terminal {
            let value = self.tree.node(id).terminal_value;
            self.tree.backpropagate_to(id, self.root, value);
            self.scratch = RolloutScratch {
                env: Some(env),
                legal,
            };
            return;
        }
        // --- Expansion (policy-guided instead of random, §III-C). ---
        let child = {
            let ctx = self.ctx();
            let node = self.tree.node(id);
            let pick =
                self.policy
                    .choose_expansion(&ctx, env.observe(), &node.untried, &mut self.rng);
            let action = self.tree.node_mut(id).untried.swap_remove(pick);
            env.step_trusted(action);
            let untried = env.observe().legal_actions(self.dag);
            let terminal = untried.is_empty();
            let terminal_value = if terminal {
                -(env.makespan().unwrap_or(0) as f64)
            } else {
                0.0
            };
            let child = self.tree.push(Node::fresh(
                Some(id),
                Some(action),
                untried,
                terminal,
                terminal_value,
            ));
            self.tree.node_mut(id).children.push((action, child));
            child
        };
        self.max_depth = self.max_depth.max(depth + 1);
        // --- Simulation (continues in the scratch env). ---
        let value = self.rollout(&mut env, &mut legal);
        // --- Backpropagation (stops at the current root: ancestors above
        // it are never read again after re-rooting). ---
        self.tree.backpropagate_to(child, self.root, value);
        self.scratch = RolloutScratch {
            env: Some(env),
            legal,
        };
    }

    /// UCB child selection (paper Eq. 5): exploit the max rollout return
    /// (or the mean, in the ablation mode), explore by visit counts,
    /// tie-break with the mean return.
    fn select_child(&self, id: NodeId) -> (Action, NodeId) {
        let node = self.tree.node(id);
        debug_assert!(!node.children.is_empty());
        // With one child there is nothing to compare; skip the UCB math.
        // Single-child nodes are common on deep exploit chains (states
        // where only `process` is legal), so this fast path matters.
        if node.children.len() == 1 {
            return node.children[0];
        }
        let ln_n = match self.ln_table.get(node.visits as usize) {
            Some(&ln) => ln,
            None => (node.visits.max(1) as f64).ln(),
        };
        let mut best = node.children[0];
        let mut best_key = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for &(action, child_id) in &node.children {
            let child = self.tree.node(child_id);
            let ucb = if child.visits == 0 {
                f64::INFINITY
            } else {
                self.exploit_value(child) + self.exploration * (ln_n / child.visits as f64).sqrt()
            };
            let key = (ucb, child.mean_value());
            if key_gt(key, best_key) {
                best_key = key;
                best = (action, child_id);
            }
        }
        best
    }

    /// Simulates `env` (the freshly expanded child, already replayed into
    /// the scratch) to completion with the rollout policy; returns the
    /// negative makespan.
    ///
    /// `env` and `legal` are the search's [`RolloutScratch`] buffers. The
    /// step loop is the shared [`EpisodeDriver`] in trusted mode, around a
    /// [`RolloutAdapter`] that enumerates each decision's actions into the
    /// scratch legal buffer, so the hot path stays allocation-free once
    /// the buffers have warmed up: actions are applied with
    /// [`SimEnv::step_trusted`].
    fn rollout(&mut self, env: &mut SimEnv<'a>, legal: &mut Vec<Action>) -> f64 {
        let adapter = RolloutAdapter {
            policy: &mut *self.policy,
            features: self.features,
            legal,
        };
        let outcome = EpisodeDriver::new(adapter).drive_trusted(env, &mut self.rng);
        self.rollout_steps += outcome.steps();
        -(env.makespan().expect("rollouts run to the terminal state") as f64)
    }

    /// The best root action by exploitation only: maximum value first,
    /// mean value as the tiebreaker (paper §III-C "we then choose the next
    /// move based on the exploitation score").
    ///
    /// # Panics
    ///
    /// Panics if no iteration has run yet (the root has no children).
    pub fn best_action(&self) -> Action {
        let node = self.tree.node(self.root);
        assert!(
            !node.children.is_empty(),
            "best_action requires at least one iteration"
        );
        let mut best: Option<(Action, (f64, f64))> = None;
        for &(action, child_id) in &node.children {
            let child = self.tree.node(child_id);
            let key = (self.exploit_value(child), child.mean_value());
            if best.is_none_or(|(_, bk)| key_gt(key, bk)) {
                best = Some((action, key));
            }
        }
        best.expect("children checked non-empty").0
    }

    /// Commits `action`: re-roots the tree at the corresponding child
    /// (creating it if the action was never expanded).
    ///
    /// # Errors
    ///
    /// Returns [`SpearError`] if `action` is illegal in the root state;
    /// the search is left unchanged.
    pub fn advance(&mut self, action: Action) -> Result<(), SpearError> {
        self.root_env.step(action)?;
        let existing = self
            .tree
            .node(self.root)
            .children
            .iter()
            .find(|(a, _)| *a == action)
            .map(|&(_, id)| id);
        let child = match existing {
            Some(id) => id,
            None => {
                let untried = self.root_env.observe().legal_actions(self.dag);
                let terminal = untried.is_empty();
                let terminal_value = if terminal {
                    -(self.root_env.makespan().unwrap_or(0) as f64)
                } else {
                    0.0
                };
                let id = self.tree.push(Node::fresh(
                    Some(self.root),
                    Some(action),
                    untried,
                    terminal,
                    terminal_value,
                ));
                self.tree.node_mut(self.root).children.push((action, id));
                id
            }
        };
        self.root = child;
        // Depth is measured from the current root; re-rooting starts a
        // fresh decision window.
        self.max_depth = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomPolicy;
    use spear_dag::{DagBuilder, ResourceVec, Task, TaskId};

    fn two_task_dag() -> Dag {
        let mut b = DagBuilder::new(1);
        b.add_task(Task::new(2, ResourceVec::from_slice(&[0.6])));
        b.add_task(Task::new(3, ResourceVec::from_slice(&[0.6])));
        b.build().unwrap()
    }

    #[test]
    fn iterations_grow_the_tree() {
        let dag = two_task_dag();
        let spec = ClusterSpec::unit(1);
        let features = GraphFeatures::compute(&dag);
        let mut policy = RandomPolicy;
        let mut search = MctsSearch::new(&dag, &spec, &features, &mut policy, 5.0, 1).unwrap();
        assert_eq!(search.tree_size(), 1);
        for _ in 0..20 {
            search.run_iteration();
        }
        assert!(search.tree_size() > 1);
        assert_eq!(search.iterations(), 20);
        assert!(search.rollout_steps() > 0);
    }

    #[test]
    fn best_action_is_a_legal_root_action() {
        let dag = two_task_dag();
        let spec = ClusterSpec::unit(1);
        let features = GraphFeatures::compute(&dag);
        let mut policy = RandomPolicy;
        let mut search = MctsSearch::new(&dag, &spec, &features, &mut policy, 5.0, 2).unwrap();
        for _ in 0..10 {
            search.run_iteration();
        }
        let action = search.best_action();
        assert!(search.root_state().legal_actions(&dag).contains(&action));
    }

    #[test]
    #[should_panic(expected = "requires at least one iteration")]
    fn best_action_without_iterations_panics() {
        let dag = two_task_dag();
        let spec = ClusterSpec::unit(1);
        let features = GraphFeatures::compute(&dag);
        let mut policy = RandomPolicy;
        let search = MctsSearch::new(&dag, &spec, &features, &mut policy, 5.0, 3).unwrap();
        let _ = search.best_action();
    }

    #[test]
    fn advancing_to_terminal_completes_schedule() {
        let dag = two_task_dag();
        let spec = ClusterSpec::unit(1);
        let features = GraphFeatures::compute(&dag);
        let mut policy = RandomPolicy;
        let mut search = MctsSearch::new(&dag, &spec, &features, &mut policy, 5.0, 4).unwrap();
        while !search.is_terminal() {
            for _ in 0..5 {
                search.run_iteration();
            }
            let a = search.best_action();
            search.advance(a).unwrap();
        }
        let makespan = search.root_state().makespan().unwrap();
        // Tight capacity: tasks must serialize, makespan = 5 regardless of
        // order.
        assert_eq!(makespan, 5);
    }

    #[test]
    fn advance_reuses_expanded_children() {
        let dag = two_task_dag();
        let spec = ClusterSpec::unit(1);
        let features = GraphFeatures::compute(&dag);
        let mut policy = RandomPolicy;
        let mut search = MctsSearch::new(&dag, &spec, &features, &mut policy, 5.0, 5).unwrap();
        for _ in 0..10 {
            search.run_iteration();
        }
        let size_before = search.tree_size();
        search.advance(Action::Place(TaskId::new(0), 0)).unwrap();
        // The child existed (both root actions were expanded in 10
        // iterations), so no node was allocated.
        assert_eq!(search.tree_size(), size_before);
    }

    #[test]
    fn advance_creates_missing_children() {
        let dag = two_task_dag();
        let spec = ClusterSpec::unit(1);
        let features = GraphFeatures::compute(&dag);
        let mut policy = RandomPolicy;
        let mut search = MctsSearch::new(&dag, &spec, &features, &mut policy, 5.0, 6).unwrap();
        // No iterations: advancing must create the child on demand.
        let size_before = search.tree_size();
        search.advance(Action::Place(TaskId::new(1), 0)).unwrap();
        assert_eq!(search.tree_size(), size_before + 1);
        assert_eq!(search.root_state().start_of(TaskId::new(1)), Some(0));
    }

    #[test]
    fn key_gt_matches_tuple_gt_on_finite_keys_and_totals_nan() {
        // Finite keys: identical to the tuple `>` it replaced.
        assert!(key_gt((2.0, 0.0), (1.0, 9.0)));
        assert!(!key_gt((1.0, 9.0), (2.0, 0.0)));
        assert!(key_gt((1.0, 1.0), (1.0, 0.0)));
        assert!(!key_gt((1.0, 0.0), (1.0, 0.0)));
        assert!(key_gt((f64::INFINITY, 0.0), (1e308, 0.0)));
        assert!(!key_gt((f64::INFINITY, 0.0), (f64::INFINITY, 0.0)));
        // NaN keys: totally ordered (positive NaN above +inf) instead of
        // incomparable, so exactly one direction is "greater" and repeated
        // argmax scans stay deterministic.
        assert!(key_gt((f64::NAN, 0.0), (f64::INFINITY, 0.0)));
        assert!(!key_gt((f64::INFINITY, 0.0), (f64::NAN, 0.0)));
        assert!(!key_gt((f64::NAN, 0.0), (f64::NAN, 0.0)));
        assert!(key_gt((1.0, f64::NAN), (1.0, f64::INFINITY)));
    }

    /// With IEEE `>` a NaN key could never win a comparison, so selection
    /// silently froze on the first child. A NaN exploration constant makes
    /// the UCB key of every visited child NaN; under `total_cmp` the search
    /// stays deterministic and completes.
    #[test]
    fn nan_rollout_values_do_not_break_determinism() {
        let run = |seed: u64| {
            let dag = two_task_dag();
            let spec = ClusterSpec::unit(1);
            let features = GraphFeatures::compute(&dag);
            let mut policy = RandomPolicy;
            let mut search =
                MctsSearch::new(&dag, &spec, &features, &mut policy, f64::NAN, seed).unwrap();
            let mut actions = Vec::new();
            while !search.is_terminal() {
                for _ in 0..8 {
                    search.run_iteration();
                }
                let a = search.best_action();
                actions.push(a);
                search.advance(a).unwrap();
            }
            (actions, search.root_state().makespan().unwrap())
        };
        let (actions_a, makespan_a) = run(11);
        let (actions_b, makespan_b) = run(11);
        assert_eq!(actions_a, actions_b, "NaN keys broke determinism");
        assert_eq!(makespan_a, makespan_b);
        assert_eq!(makespan_a, 5); // schedule is still complete and valid
    }

    /// On a DAG where one root choice is clearly better, sufficient budget
    /// finds it. Two tasks: a long one (8) and a short one (1) with
    /// demands such that they cannot co-run; a third task (runtime 8,
    /// gated on the short one) can co-run with the long one. Starting the
    /// long task first wastes no time: makespan 9 vs 17.
    #[test]
    fn search_finds_the_better_first_move() {
        let mut b = DagBuilder::new(1);
        let _long = b.add_task(Task::new(8, ResourceVec::from_slice(&[0.5])));
        let short = b.add_task(Task::new(1, ResourceVec::from_slice(&[0.6])));
        let gated = b.add_task(Task::new(8, ResourceVec::from_slice(&[0.4])));
        b.add_edge(short, gated).unwrap();
        let dag = b.build().unwrap();
        let spec = ClusterSpec::unit(1);
        let features = GraphFeatures::compute(&dag);
        let mut policy = RandomPolicy;
        let mut search = MctsSearch::new(&dag, &spec, &features, &mut policy, 10.0, 7).unwrap();
        while !search.is_terminal() {
            for _ in 0..60 {
                search.run_iteration();
            }
            let a = search.best_action();
            search.advance(a).unwrap();
        }
        // Optimal: schedule short (t=0..1), then long and gated co-run.
        // long 1..9? No: long fits with short? 0.5+0.6 > 1 — they cannot
        // co-run. Optimal order: short at 0, at t=1 long + gated co-run
        // (0.5+0.4 fits) => makespan 9.
        assert_eq!(search.root_state().makespan().unwrap(), 9);
    }
}
