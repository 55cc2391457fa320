//! Full-episode rollouts of the policy on the simulator.

use rand::Rng;
use spear_cluster::env::{DecisionPolicy, EnvContext, EpisodeDriver, SimEnv};
use spear_cluster::{Action, ClusterSpec, SimState, SpearError};
use spear_dag::analysis::GraphFeatures;
use spear_dag::Dag;

use crate::PolicyNetwork;

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
/// kept; evaluation rollouts pass `false` to skip the bookkeeping.
///
/// # Errors
///
/// Propagates simulator errors (impossible for a well-formed policy, since
/// sampling is restricted to the legality mask).
pub fn run_episode<R: Rng + ?Sized>(
    policy: &mut PolicyNetwork,
    dag: &Dag,
    spec: &ClusterSpec,
    mode: SelectionMode,
    record: bool,
    rng: &mut R,
) -> Result<Episode, SpearError> {
    let features = GraphFeatures::compute(dag);
    let mut steps = Vec::new();
    let mut env = SimEnv::new(dag, spec)?;
    let mut driver = EpisodeDriver::new(NetworkPolicy {
        policy,
        features: &features,
        greedy: mode == SelectionMode::Greedy,
        record: record.then_some(&mut steps),
    });
    let outcome = driver.drive(&mut env, rng)?;
    debug_assert!(outcome.is_terminal());
    drop(driver);
    let makespan = env.makespan().ok_or(SpearError::IncompleteEpisode)?;
    Ok(Episode { steps, makespan })
}

/// [`PolicyNetwork`] adapted to the environment layer's
/// [`DecisionPolicy`]: each decision featurizes the state, runs one
/// masked forward pass, and (optionally) records the decision.
struct NetworkPolicy<'a, 'b> {
    policy: &'a mut PolicyNetwork,
    features: &'a GraphFeatures,
    greedy: bool,
    record: Option<&'b mut Vec<StepRecord>>,
}

impl<R: Rng + ?Sized> DecisionPolicy<R> for NetworkPolicy<'_, '_> {
    fn decide(
        &mut self,
        ctx: &EnvContext<'_>,
        state: &SimState,
        _legal: &[Action],
        rng: &mut R,
    ) -> Action {
        let (idx, view) = self.policy.choose_action_index(
            ctx.dag,
            ctx.spec,
            state,
            self.features,
            self.greedy,
            rng,
        );
        let action = view.action(idx, ctx.dag, state);
        if let Some(steps) = self.record.as_deref_mut() {
            steps.push(StepRecord {
                features: view.features,
                action: idx,
                mask: view.mask,
            });
        }
        action
    }

    fn name(&self) -> &str {
        "policy-network"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spear_dag::generator::LayeredDagSpec;

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
}
