//! The benchmark's own tests: seeded inputs, traced ≡ untraced schedules,
//! output checks, and the printed metrics against `BENCHMARK.json`.

use serde_json::Value;
use spear::mcts::{DrlPolicy, RandomPolicy};
use spear::{MctsScheduler, Scheduler};
use spear_perfbench::metrics::{END_TO_END, PER_LAYER};
use spear_perfbench::traced::{drive, TracingPolicy};
use spear_perfbench::workload::{
    check, cluster, load_policy, search_config, Inputs, Output, DEFAULT_SEED, HELD_OUT_SEED,
};
use spear_perfbench::{run, Scale, Workload};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn items(value: &Value, key: &str) -> Vec<Value> {
    match value.get_field(key) {
        Some(Value::Arr(items)) => items.clone(),
        other => panic!("`{key}` is not a list: {other:?}"),
    }
}

fn name_unit_pairs(value: &Value, key: &str) -> Vec<(String, String)> {
    items(value, key)
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get_field(f)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn catalog(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

fn same_inputs(a: &Inputs, b: &Inputs) -> bool {
    match (a, b) {
        (Inputs::Dags(a), Inputs::Dags(b)) => a == b,
        (Inputs::Streams(a), Inputs::Streams(b)) => a == b,
        (
            Inputs::Train {
                config: ca,
                examples: ea,
            },
            Inputs::Train {
                config: cb,
                examples: eb,
            },
        ) => ca.seed == cb.seed && ea == eb,
        _ => false,
    }
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    for workload in Workload::ALL {
        let a = Inputs::generate(workload, Scale::Full, DEFAULT_SEED).unwrap();
        let b = Inputs::generate(workload, Scale::Full, DEFAULT_SEED).unwrap();
        let held_out = Inputs::generate(workload, Scale::Full, HELD_OUT_SEED).unwrap();
        assert!(
            same_inputs(&a, &b),
            "{} is not seed-deterministic",
            workload.name()
        );
        assert!(
            !same_inputs(&a, &held_out),
            "{} ignores its seed",
            workload.name()
        );
    }
}

#[test]
fn the_dag_workloads_share_their_dags() {
    let spear = Inputs::generate(Workload::SpearDag100, Scale::Full, 7).unwrap();
    let mcts = Inputs::generate(Workload::MctsDag100, Scale::Full, 7).unwrap();
    let (Inputs::Dags(spear), Inputs::Dags(mcts)) = (spear, mcts) else {
        panic!("DAG workloads generate DAGs");
    };
    let shared = spear.len().min(mcts.len());
    assert_eq!(spear[..shared], mcts[..shared]);
}

#[test]
fn traced_and_untraced_searches_agree_on_a_small_case() {
    let spec = cluster();
    let policy = load_policy().unwrap();
    for workload in [
        Workload::SpearDag100,
        Workload::MctsDag100,
        Workload::SpearStream,
    ] {
        let config = search_config(workload, Scale::Test);
        let inputs = Inputs::generate(workload, Scale::Test, 3).unwrap();
        let mut untraced = match workload {
            Workload::MctsDag100 => MctsScheduler::pure(config.clone()),
            _ => MctsScheduler::drl(config.clone(), policy.clone()),
        };
        let inner =
            DrlPolicy::with_cache_precision(policy.clone(), config.eval_cache, config.nn_precision);
        let mut timed = TracingPolicy::new(inner, true);
        let mut sampled = TracingPolicy::new(RandomPolicy, false);
        let (expected, stats, traced) = match (&inputs, workload) {
            (Inputs::Dags(dags), Workload::MctsDag100) => {
                let (s, stats) = untraced.schedule_with_stats(&dags[0], &spec).unwrap();
                (
                    s,
                    stats,
                    drive(&mut sampled, &config, &dags[0], &spec, None).unwrap(),
                )
            }
            (Inputs::Dags(dags), _) => {
                let (s, stats) = untraced.schedule_with_stats(&dags[0], &spec).unwrap();
                (
                    s,
                    stats,
                    drive(&mut timed, &config, &dags[0], &spec, None).unwrap(),
                )
            }
            (Inputs::Streams(streams), _) => {
                let queue = &streams[0];
                let (s, stats) = untraced.schedule_multi_with_stats(queue, &spec).unwrap();
                let dag = queue.union_dag();
                (
                    s,
                    stats,
                    drive(&mut timed, &config, dag, &spec, Some(queue)).unwrap(),
                )
            }
            _ => unreachable!(),
        };
        let (schedule, trace) = traced;
        assert_eq!(
            schedule,
            expected,
            "{}: traced schedule differs",
            workload.name()
        );
        assert_eq!(trace.stats.rollout_steps, stats.rollout_steps);
        assert_eq!(trace.stats.tree_nodes, stats.tree_nodes);
        assert_eq!(trace.stats.policy_inferences, stats.policy_inferences);
        assert_eq!(trace.stats.cache_hits, stats.cache_hits);
        assert_eq!(trace.decisions_ms.len() as u64, stats.decisions);
        // The untraced library call is what the end-to-end run times.
        let again = match &inputs {
            Inputs::Dags(dags) => untraced.schedule(&dags[0], &spec).unwrap(),
            Inputs::Streams(streams) => untraced.schedule_multi(&streams[0], &spec).unwrap(),
            Inputs::Train { .. } => unreachable!(),
        };
        assert_eq!(
            again,
            expected,
            "{}: search is not deterministic",
            workload.name()
        );
    }
}

#[test]
fn an_invalid_schedule_fails_its_check() {
    let spec = cluster();
    let inputs = Inputs::generate(Workload::MctsDag100, Scale::Test, 5).unwrap();
    let Inputs::Dags(dags) = &inputs else {
        panic!("DAG workload");
    };
    let schedule = spear::TetrisScheduler::new()
        .schedule(&dags[0], &spec)
        .unwrap();
    assert_eq!(check(&inputs, 0, &Output::Schedule(schedule.clone())), None);
    // Job 1 is another DAG: job 0's schedule must not validate against it.
    assert!(check(&inputs, 1, &Output::Schedule(schedule)).is_some());
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let bench = benchmark_json();
    assert_eq!(name_unit_pairs(&bench, "end_to_end"), catalog(END_TO_END));
    assert_eq!(name_unit_pairs(&bench, "per_layer"), catalog(PER_LAYER));
    for workload in items(&bench, "workloads") {
        let name = workload.get_field("name").and_then(Value::as_str).unwrap();
        let workload = Workload::parse(name).unwrap_or_else(|| panic!("unknown workload `{name}`"));
        for (trace, expected) in [(false, END_TO_END), (true, PER_LAYER)] {
            let line = run(workload, Scale::Test, DEFAULT_SEED, 0.01, trace).unwrap();
            let result: Value = serde_json::from_str(&line).unwrap();
            let keys: Vec<&str> = match &result {
                Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("result is not an object"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get_field("correct"),
                Some(&Value::Bool(true)),
                "{name}: {line}"
            );
            assert!(
                result
                    .get_field("attempted")
                    .and_then(Value::as_f64)
                    .unwrap()
                    >= 1.0
            );
            assert_eq!(
                result.get_field("failed").and_then(Value::as_f64),
                Some(0.0)
            );
            let Some(Value::Obj(metrics)) = result.get_field("metrics") else {
                panic!("metrics is not an object");
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    assert!(
                        v.get_field("value").and_then(Value::as_f64).is_some(),
                        "{k} has no value"
                    );
                    (
                        k.clone(),
                        v.get_field("unit")
                            .and_then(Value::as_str)
                            .unwrap()
                            .to_owned(),
                    )
                })
                .collect();
            assert_eq!(printed, catalog(expected), "{name} (trace {trace})");
        }
    }
}
