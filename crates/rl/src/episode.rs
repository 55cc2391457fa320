//! Full-episode rollouts of the policy on the simulator.
//!
//! Every rollout of a [`PolicyNetwork`] — an evaluation episode
//! ([`run_episode`]) or one of the REINFORCE trainer's — goes through a
//! [`RolloutTable`]: each distinct state the rollouts reach is featurized
//! and run through the network once, and every decision is the state's
//! entry plus the chosen action index.

use std::collections::HashMap;

use rand::Rng;
use spear_cluster::env::{DecisionPolicy, EpisodeDriver, SimEnv};
use spear_cluster::{Action, ClusterSpec, SpearError};
use spear_dag::analysis::GraphFeatures;
use spear_dag::{Dag, TaskId};
use spear_nn::{softmax_masked_into, ForwardScratch};

use crate::policy::{argmax, sample_index};
use crate::{PolicyNetwork, StateView};

/// Whether the policy samples from its distribution (training) or takes
/// the argmax (evaluation / MCTS guidance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionMode {
    /// Sample from the masked softmax, as REINFORCE's rollouts do:
    /// exploration comes from the stochastic policy itself.
    Sample,
    /// Always take the most probable action.
    Greedy,
}

/// One recorded decision of an episode.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// The network input at the decision point.
    pub features: Vec<f64>,
    /// The action index the policy chose.
    pub action: usize,
    /// The legality mask at the decision point.
    pub mask: Vec<bool>,
}

/// The outcome of one rollout.
#[derive(Debug, Clone, PartialEq)]
pub struct Episode {
    /// Recorded decisions (empty when recording was disabled).
    pub steps: Vec<StepRecord>,
    /// Final makespan of the produced schedule.
    pub makespan: u64,
}

impl Episode {
    /// The REINFORCE return of the episode: the negative makespan (the
    /// paper's cumulative reward of −1 per processed time slot telescopes
    /// to exactly this).
    pub fn ret(&self) -> f64 {
        -(self.makespan as f64)
    }
}

/// Rolls the policy out on `dag` from the initial state to completion.
///
/// With `record = true` every decision's features, action and mask are
/// kept; evaluation rollouts pass `false` to skip the bookkeeping. The
/// episode runs through a rollout table of its own (the REINFORCE
/// trainer's), so a revisited state is not featurized again; the decisions, the RNG draws (one per
/// sampled decision, none when greedy) and the episode are those of
/// featurizing and running the network at every step.
///
/// # Errors
///
/// Propagates simulator errors (impossible for a well-formed policy, since
/// the choice is restricted to the legality mask).
pub fn run_episode<R: Rng + ?Sized>(
    policy: &mut PolicyNetwork,
    dag: &Dag,
    spec: &ClusterSpec,
    mode: SelectionMode,
    record: bool,
    rng: &mut R,
) -> Result<Episode, SpearError> {
    let features = GraphFeatures::compute(dag);
    let mut table = RolloutTable::default();
    let rollout = table.roll_out(policy, dag, spec, &features, mode, rng)?;
    let steps = if record {
        rollout
            .steps
            .iter()
            .map(|&(e, action)| {
                let view = &table.entries()[e].view;
                StepRecord {
                    features: view.features.clone(),
                    action,
                    mask: view.mask.clone(),
                }
            })
            .collect()
    } else {
        Vec::new()
    };
    Ok(Episode {
        steps,
        makespan: rollout.makespan,
    })
}

/// One distinct state of a table's rollouts: its featurized input,
/// slot → task assignment and legality mask, and the masked distribution
/// the network gives it.
#[derive(Debug, Default)]
pub(crate) struct TableEntry {
    pub(crate) view: StateView,
    pub(crate) probs: Vec<f64>,
}

/// A rollout table: an entry per distinct state its rollouts reach,
/// keyed by [`SimState::frontier_fingerprint`](spear_cluster::SimState::frontier_fingerprint).
///
/// Equal frontier keys featurize bit-identically (the key's contract).
/// The table is valid while the DAG, the cluster and the weights stand
/// still: [`run_episode`] builds one per episode, and the REINFORCE
/// trainer clears its table when an example starts and updates the
/// weights after the example's last rollout. So a hit returns exactly
/// the bits that featurize → [`spear_nn::Mlp::forward_one_into`] →
/// [`softmax_masked_into`] would, with no DAG key and no generation.
/// Nothing is evicted, so the trainer's update reads every decision's
/// input and mask back from the table.
#[derive(Debug, Default)]
pub(crate) struct RolloutTable {
    /// Frontier key → index into `entries`.
    index: HashMap<u64, usize>,
    /// The entries, in the order their states were first reached.
    entries: Vec<TableEntry>,
    /// The featurizer's and the forward pass's scratch, for misses.
    ready: Vec<TaskId>,
    scratch: ForwardScratch,
    /// Decisions served from an entry, and decisions that computed one,
    /// since the table was built.
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl RolloutTable {
    /// The entries, indexed by a rollout's steps.
    pub(crate) fn entries(&self) -> &[TableEntry] {
        &self.entries
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.entries.clear();
    }

    /// The entry of `env`'s state, computed on the first visit of its key
    /// since the last [`RolloutTable::clear`].
    fn entry(
        &mut self,
        policy: &PolicyNetwork,
        env: &SimEnv<'_>,
        features: &GraphFeatures,
    ) -> usize {
        let state = env.observe();
        let next = self.entries.len();
        let e = *self
            .index
            .entry(state.frontier_fingerprint())
            .or_insert(next);
        if e < next {
            self.hits += 1;
            return e;
        }
        self.misses += 1;
        let mut entry = TableEntry::default();
        policy.featurizer().featurize_into(
            env.dag(),
            env.spec(),
            state,
            features,
            &mut self.ready,
            &mut entry.view,
        );
        let logits = policy
            .net()
            .forward_one_into(&entry.view.features, &mut self.scratch);
        softmax_masked_into(logits, &entry.view.mask, &mut entry.probs);
        self.entries.push(entry);
        e
    }

    /// Rolls the policy out on `dag` once, choosing every decision from
    /// its state's entry by `mode`.
    pub(crate) fn roll_out<R: Rng + ?Sized>(
        &mut self,
        policy: &PolicyNetwork,
        dag: &Dag,
        spec: &ClusterSpec,
        features: &GraphFeatures,
        mode: SelectionMode,
        rng: &mut R,
    ) -> Result<Rollout, SpearError> {
        let mut steps = Vec::new();
        let mut env = SimEnv::new(dag, spec)?;
        let outcome = EpisodeDriver::new(TablePolicy {
            table: self,
            policy,
            features,
            mode,
            steps: &mut steps,
        })
        .drive(&mut env, rng)?;
        debug_assert!(outcome.is_terminal());
        let makespan = env.makespan().ok_or(SpearError::IncompleteEpisode)?;
        Ok(Rollout { steps, makespan })
    }
}

/// One rollout as a [`RolloutTable`] records it: each decision's table
/// entry and chosen action index, in order, and the makespan.
#[derive(Debug)]
pub(crate) struct Rollout {
    pub(crate) steps: Vec<(usize, usize)>,
    pub(crate) makespan: u64,
}

impl Rollout {
    /// The REINFORCE return: the negative makespan.
    pub(crate) fn ret(&self) -> f64 {
        -(self.makespan as f64)
    }
}

/// The network's rollout policy on the environment layer: chooses each
/// decision from its state's [`RolloutTable`] entry and records it.
struct TablePolicy<'a> {
    table: &'a mut RolloutTable,
    policy: &'a PolicyNetwork,
    features: &'a GraphFeatures,
    mode: SelectionMode,
    steps: &'a mut Vec<(usize, usize)>,
}

impl<R: Rng + ?Sized> DecisionPolicy<R> for TablePolicy<'_> {
    fn decide(&mut self, env: &SimEnv<'_>, rng: &mut R) -> Action {
        let e = self.table.entry(self.policy, env, self.features);
        let entry = &self.table.entries[e];
        let action = match self.mode {
            SelectionMode::Sample => sample_index(&entry.probs, rng),
            SelectionMode::Greedy => argmax(&entry.probs),
        };
        self.steps.push((e, action));
        entry.view.action(action, env.dag(), env.observe())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::FeatureConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spear_cluster::{MachineSet, SimState, TransferMode};
    use spear_dag::generator::LayeredDagSpec;
    use spear_dag::ResourceVec;

    /// Three machines with one-slot transfers, each with the unit box's
    /// capacity.
    pub(crate) fn three_machines() -> ClusterSpec {
        let ones = ResourceVec::from_slice(&[1.0, 1.0]);
        let machines = MachineSet::uniform(3, ones, 1, TransferMode::Direct, 5, 4).unwrap();
        ClusterSpec::hetero(machines).unwrap()
    }

    fn setup() -> (Dag, ClusterSpec, PolicyNetwork) {
        let mut rng = StdRng::seed_from_u64(7);
        let dag = LayeredDagSpec {
            num_tasks: 12,
            ..LayeredDagSpec::paper_training()
        }
        .generate(&mut rng);
        let spec = ClusterSpec::unit(2);
        let policy = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[16], &mut rng);
        (dag, spec, policy)
    }

    #[test]
    fn episode_completes_and_is_bounded() {
        let (dag, spec, mut policy) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let ep = run_episode(
            &mut policy,
            &dag,
            &spec,
            SelectionMode::Sample,
            true,
            &mut rng,
        )
        .unwrap();
        assert!(ep.makespan >= dag.critical_path_length());
        assert!(ep.makespan <= dag.total_work());
        assert_eq!(ep.ret(), -(ep.makespan as f64));
    }

    #[test]
    fn recording_captures_every_decision() {
        let (dag, spec, mut policy) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let ep = run_episode(
            &mut policy,
            &dag,
            &spec,
            SelectionMode::Sample,
            true,
            &mut rng,
        )
        .unwrap();
        // At least one schedule decision per task plus at least one
        // process decision.
        assert!(ep.steps.len() > dag.len());
        for step in &ep.steps {
            assert!(step.mask[step.action], "recorded an illegal action");
            assert_eq!(step.features.len(), policy.feature_config().input_dim());
        }
    }

    #[test]
    fn unrecorded_episode_has_no_steps() {
        let (dag, spec, mut policy) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let ep = run_episode(
            &mut policy,
            &dag,
            &spec,
            SelectionMode::Sample,
            false,
            &mut rng,
        )
        .unwrap();
        assert!(ep.steps.is_empty());
        assert!(ep.makespan > 0);
    }

    #[test]
    fn greedy_episodes_are_reproducible() {
        let (dag, spec, mut policy) = setup();
        let a = run_episode(
            &mut policy,
            &dag,
            &spec,
            SelectionMode::Greedy,
            false,
            &mut StdRng::seed_from_u64(10),
        )
        .unwrap();
        let b = run_episode(
            &mut policy,
            &dag,
            &spec,
            SelectionMode::Greedy,
            false,
            &mut StdRng::seed_from_u64(20),
        )
        .unwrap();
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn sampled_episodes_vary_with_seed() {
        let (dag, spec, mut policy) = setup();
        let runs: Vec<u64> = (0..8)
            .map(|s| {
                run_episode(
                    &mut policy,
                    &dag,
                    &spec,
                    SelectionMode::Sample,
                    false,
                    &mut StdRng::seed_from_u64(s),
                )
                .unwrap()
                .makespan
            })
            .collect();
        // A fresh random policy explores: not every rollout is identical.
        assert!(runs.iter().any(|&m| m != runs[0]));
    }

    /// `run_episode` without a table: every decision featurizes, runs
    /// `forward_one_into` and `softmax_masked_into`, and chooses by
    /// `mode`.
    fn per_step_reference(
        policy: &PolicyNetwork,
        dag: &Dag,
        spec: &ClusterSpec,
        mode: SelectionMode,
        rng: &mut StdRng,
    ) -> Episode {
        let features = GraphFeatures::compute(dag);
        let mut state = SimState::new(dag, spec).unwrap();
        let (mut ready, mut scratch, mut probs) = (Vec::new(), ForwardScratch::default(), vec![]);
        let mut steps = Vec::new();
        while !state.is_terminal(dag) {
            let mut view = StateView::default();
            policy
                .featurizer()
                .featurize_into(dag, spec, &state, &features, &mut ready, &mut view);
            let logits = policy.net().forward_one_into(&view.features, &mut scratch);
            softmax_masked_into(logits, &view.mask, &mut probs);
            let action = match mode {
                SelectionMode::Sample => sample_index(&probs, rng),
                SelectionMode::Greedy => argmax(&probs),
            };
            state.apply(dag, view.action(action, dag, &state)).unwrap();
            steps.push(StepRecord {
                features: view.features,
                action,
                mask: view.mask,
            });
        }
        let makespan = state.makespan().unwrap();
        Episode { steps, makespan }
    }

    /// A table-driven episode is the per-step one: the same recorded
    /// decisions, the same makespan and the same RNG position, sampled
    /// and greedy, on the unit box and on three machines.
    #[test]
    fn run_episode_equals_per_step_inference() {
        let (dag, _, mut policy) = setup();
        for spec in [ClusterSpec::unit(2), three_machines()] {
            for mode in [SelectionMode::Sample, SelectionMode::Greedy] {
                let mut rng = StdRng::seed_from_u64(12);
                let episode = run_episode(&mut policy, &dag, &spec, mode, true, &mut rng).unwrap();
                let mut reference_rng = StdRng::seed_from_u64(12);
                let reference = per_step_reference(&policy, &dag, &spec, mode, &mut reference_rng);
                assert_eq!(episode, reference);
                assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>());
            }
        }
    }
}
