//! Supervised pre-training: imitate the critical-path expert.
//!
//! §IV of the paper: "Prior to reinforcement learning training, we
//! initialize our network by using supervised training … to imitate a
//! greedy heuristic approach such as the critical path algorithm".

use rand::seq::SliceRandom;
use rand::Rng;
use spear_cluster::{ClusterSpec, SpearError};
use spear_dag::Dag;
use spear_nn::{loss, Matrix, Optimizer};
use spear_obs::Obs;

use crate::{collect_expert_dataset, ExpertDataset, PolicyNetwork};

/// Hyper-parameters of the supervised phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PretrainConfig {
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig {
            epochs: 20,
            batch_size: 64,
        }
    }
}

/// Collects the expert dataset over all `dags` (each scheduled once).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn build_dataset(
    policy: &PolicyNetwork,
    dags: &[Dag],
    spec: &ClusterSpec,
) -> Result<ExpertDataset, SpearError> {
    let mut data = ExpertDataset::default();
    for dag in dags {
        let (d, _) = collect_expert_dataset(policy.featurizer(), dag, spec)?;
        data.extend(d);
    }
    Ok(data)
}

/// Trains the policy to match the expert with mini-batch cross-entropy.
/// Returns the mean loss of each epoch (monotone-ish decreasing when the
/// learning rate is sane).
pub fn train<O: Optimizer, R: Rng + ?Sized>(
    policy: &mut PolicyNetwork,
    data: &ExpertDataset,
    optimizer: &mut O,
    config: &PretrainConfig,
    rng: &mut R,
) -> Vec<f64> {
    train_observed(policy, data, optimizer, config, rng, &Obs::noop())
}

/// [`train`] with a metric sink: records `rl.pretrain_epochs` and the
/// per-epoch mean cross-entropy as the `rl.pretrain_loss` gauge (so a
/// snapshot carries the final loss plus its min/max over the run). The
/// returned history is identical to [`train`]'s.
pub fn train_observed<O: Optimizer, R: Rng + ?Sized>(
    policy: &mut PolicyNetwork,
    data: &ExpertDataset,
    optimizer: &mut O,
    config: &PretrainConfig,
    rng: &mut R,
    obs: &Obs,
) -> Vec<f64> {
    assert!(!data.is_empty(), "empty pre-training dataset");
    let n = data.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut history = Vec::with_capacity(config.epochs);
    for _ in 0..config.epochs {
        order.shuffle(rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(config.batch_size.max(1)) {
            let rows: Vec<&[f64]> = chunk.iter().map(|&i| data.features[i].as_slice()).collect();
            let x = Matrix::from_rows(&rows);
            let targets: Vec<usize> = chunk.iter().map(|&i| data.actions[i]).collect();
            let masks: Vec<Vec<bool>> = chunk.iter().map(|&i| data.masks[i].clone()).collect();
            let logits = policy.net_mut().forward(&x);
            let (l, d) = loss::softmax_cross_entropy(&logits, &targets, Some(&masks));
            policy.net_mut().zero_grad();
            policy.net_mut().backward(&d);
            optimizer.step(policy.net_mut());
            policy.net_mut().zero_grad();
            epoch_loss += l;
            batches += 1;
        }
        let mean_loss = epoch_loss / batches as f64;
        if spear_obs::compiled() && obs.is_enabled() {
            obs.counter("rl.pretrain_epochs").incr();
            obs.gauge("rl.pretrain_loss").set(mean_loss);
        }
        history.push(mean_loss);
    }
    history
}

/// Rows per [`Mlp::forward_batch`](spear_nn::Mlp::forward_batch) call in
/// [`accuracy`]: large enough to amortize the per-pass weight streaming,
/// small enough to bound the activation matrices.
const ACCURACY_CHUNK: usize = 256;

/// Fraction of dataset rows on which the policy's argmax agrees with the
/// expert — the imitation accuracy. Evaluates the network in batched
/// matrix-matrix passes (no gradient caching), so it is cheap to call
/// between epochs.
pub fn accuracy(policy: &PolicyNetwork, data: &ExpertDataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut probs = Vec::new();
    let mut correct = 0usize;
    for chunk_start in (0..data.len()).step_by(ACCURACY_CHUNK) {
        let chunk = chunk_start..(chunk_start + ACCURACY_CHUNK).min(data.len());
        let rows: Vec<&[f64]> = chunk.clone().map(|i| data.features[i].as_slice()).collect();
        let logits = policy.net().forward_batch(&Matrix::from_rows(&rows));
        for (r, i) in chunk.enumerate() {
            spear_nn::softmax_masked_into(logits.row(r), &data.masks[i], &mut probs);
            let argmax = probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probabilities"))
                .map(|(i, _)| i)
                .expect("non-empty action space");
            if argmax == data.actions[i] {
                correct += 1;
            }
        }
    }
    correct as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spear_dag::generator::LayeredDagSpec;
    use spear_nn::RmsProp;

    #[test]
    fn pretraining_reduces_loss_and_improves_accuracy() {
        let mut rng = StdRng::seed_from_u64(21);
        let dags: Vec<Dag> = (0..4)
            .map(|_| {
                LayeredDagSpec {
                    num_tasks: 12,
                    ..LayeredDagSpec::paper_training()
                }
                .generate(&mut rng)
            })
            .collect();
        let spec = ClusterSpec::unit(2);
        let mut policy = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[32], &mut rng);
        let data = build_dataset(&policy, &dags, &spec).unwrap();
        assert!(data.len() > 40);

        let acc_before = accuracy(&policy, &data);
        let mut opt = RmsProp::new(1e-3, 0.9, 1e-9);
        let history = train(
            &mut policy,
            &data,
            &mut opt,
            &PretrainConfig {
                epochs: 30,
                batch_size: 32,
            },
            &mut rng,
        );
        let acc_after = accuracy(&policy, &data);
        assert!(
            history.last().unwrap() < history.first().unwrap(),
            "loss did not decrease: {history:?}"
        );
        assert!(
            acc_after > acc_before,
            "accuracy did not improve: {acc_before} -> {acc_after}"
        );
        assert!(acc_after > 0.5, "accuracy too low: {acc_after}");
    }

    #[test]
    #[should_panic(expected = "empty pre-training dataset")]
    fn empty_dataset_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut policy = PolicyNetwork::with_hidden(FeatureConfig::small(2), &[8], &mut rng);
        let mut opt = RmsProp::default_paper();
        let _ = train(
            &mut policy,
            &ExpertDataset::default(),
            &mut opt,
            &PretrainConfig::default(),
            &mut rng,
        );
    }
}
