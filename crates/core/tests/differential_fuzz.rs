//! Differential schedule fuzzing (tier-1 slice).
//!
//! Runs a seeded `LayeredDagSpec` × scheduler-roster corpus — single DAGs
//! and job streams, on one box and on multi-machine clusters — through the
//! three-way checker of [`spear::diffcheck`] and verifies every committed
//! regression fixture under `tests/fixtures/`. The CI fuzz job
//! (`fuzz_differential` in `spear-bench`) runs the same harness over a
//! much larger corpus in release; this debug slice keeps the harness
//! itself honest on every `cargo test` — with the invariant auditor on,
//! since debug builds audit all `EpisodeDriver` episodes.

use std::fs;
use std::path::PathBuf;

use spear::diffcheck::{corpus, shrink_queue, CaseSpec, Fixture, SchedulerKind};
use spear::Scheduler;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

/// The tier-1 corpus: small but crossing the full roster and all four
/// families, both plain and epsilon-jittered. The CI job runs 320 cases;
/// this slice must stay fast enough for debug builds.
#[test]
fn seeded_corpus_has_no_three_way_disagreements() {
    let mut failures = Vec::new();
    for case in corpus(32, 0xD1FF) {
        match case.run() {
            Ok(Some(tri)) if tri.all_ok() => {}
            other => failures.push(format!("{}: {other:?}", case.label())),
        }
    }
    assert!(
        failures.is_empty(),
        "differential failures:\n{}",
        failures.join("\n")
    );
}

/// Every committed fixture must (a) parse, (b) re-run its scheduler, and
/// (c) now pass all three judges — a fixture that fails again means a
/// fixed bug regressed.
#[test]
fn committed_fixtures_all_pass_three_ways() {
    let dir = fixtures_dir();
    let mut seen = 0;
    for entry in fs::read_dir(&dir).expect("tests/fixtures must exist") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        seen += 1;
        let raw = fs::read_to_string(&path).unwrap();
        let fixture =
            Fixture::from_json(&raw).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let tri = fixture.verify();
        assert!(
            tri.all_ok(),
            "fixture {} regressed: {}",
            fixture.name,
            tri.summary()
        );
    }
    assert!(seen >= 1, "no fixtures found in {}", dir.display());
}

/// The epsilon-admission region specifically: jittered demands across many
/// seeds on the cheap schedulers, where the drift bug used to live.
#[test]
fn epsilon_boundary_sweep_stays_consistent() {
    let mut failures = Vec::new();
    for seed in 0..12u64 {
        for scheduler in [SchedulerKind::Tetris, SchedulerKind::Sjf, SchedulerKind::Cp] {
            let case = CaseSpec {
                epsilon_jitter: true,
                ..CaseSpec::single(seed, 14, 1, scheduler)
            };
            match case.run() {
                Ok(Some(tri)) if tri.all_ok() => {}
                other => failures.push(format!("{}: {other:?}", case.label())),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "epsilon sweep failures:\n{}",
        failures.join("\n")
    );
}

/// The MCTS sub-matrix (pure, heuristic-guided, DRL with the cache on
/// and off): every variant must pass all three judges, and the inference
/// cache must be a pure optimization — cache-on and cache-off DRL
/// schedules are bit-identical.
#[test]
fn mcts_matrix_passes_three_ways_and_cache_is_transparent() {
    let (cached, uncached) = (SchedulerKind::MctsDrl, SchedulerKind::MctsDrlNoCache);
    for seed in [3u64, 19] {
        let mk = |scheduler| CaseSpec::single(seed, 12, 2, scheduler);
        for kind in [
            SchedulerKind::MctsPure,
            SchedulerKind::MctsHeuristic,
            cached,
            uncached,
        ] {
            let case = mk(kind);
            let tri = case.run().unwrap().unwrap();
            assert!(tri.all_ok(), "{}: {}", case.label(), tri.summary());
        }
        let case = mk(cached);
        let (queue, spec) = (case.queue(), case.cluster());
        let on = cached.build(seed, 2).schedule_multi(&queue, &spec).unwrap();
        let off = uncached
            .build(seed, 2)
            .schedule_multi(&queue, &spec)
            .unwrap();
        assert_eq!(on, off, "cache changed the DRL schedule at seed {seed}");
    }
}

/// End-to-end shrink: a synthetic failure predicate minimizes to a small
/// witness that still round-trips through the fixture format.
#[test]
fn shrunk_witness_round_trips_as_fixture() {
    let case = CaseSpec::single(5, 20, 2, SchedulerKind::Tetris);
    // Synthetic "bug": the DAG contains an edge (shrinks to 2 tasks).
    let small = shrink_queue(&case.queue(), |q| !q.union_dag().edges().is_empty());
    let dag = small.union_dag();
    assert!(dag.len() <= 3, "shrunk to {} tasks", dag.len());
    assert!(!dag.edges().is_empty());
    let fixture = Fixture::from_parts(
        "shrunk-witness",
        "synthetic shrink round-trip",
        case.scheduler,
        case.seed,
        &small,
        &case.cluster(),
    );
    let parsed = Fixture::from_json(&fixture.to_json()).unwrap();
    assert_eq!(parsed.dag().len(), dag.len());
    assert_eq!(parsed.dag().edges(), dag.edges());
}
