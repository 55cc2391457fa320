//! The differential schedule fuzzer — CI entry point.
//!
//! Runs the seeded scheduler-roster corpus (see `spear::diffcheck::corpus`:
//! single DAGs and Poisson job streams, on one box and on seeded 2–3-machine
//! clusters, plain and epsilon-jittered) and re-verifies every produced
//! schedule three independent ways: `Schedule::validate` with arrival
//! gating and per-job JCT accounting, an audited replay through a fresh
//! arrival-aware `SimState`, and replay onto `ResourceTimeline` grids. Any
//! disagreement is a bookkeeping bug in one of the three cores; the
//! offending case is shrunk — machines first, then the workload — to a
//! minimal witness and written as a fixture JSON for triage (move it under
//! `tests/fixtures/` once the bug is fixed, so it becomes a permanent
//! regression test).
//!
//! Usage:
//!
//! * `fuzz_differential` — the CI configuration: 320 corpus cases (200
//!   single DAGs, 40 job streams, 40 single DAGs on multi-machine clusters
//!   and 40 job streams on multi-machine clusters) plus 40 fault-injection
//!   cases, seed `0xD1FF5EED`, exit code 1 on any failure.
//! * `fuzz_differential --cases N --fault-cases F --seed S` — custom sizes;
//!   the corpus interleaves its four families five:one:one:one.
//! * `fuzz_differential --out DIR` — where to write shrunk witnesses
//!   (default `tests/fuzz_failures/` at the repository root).
//!
//! An unknown flag or an unparsable value is a one-line `error:` and exit
//! code 2.
//!
//! The fault pass executes every roster scheduler's fault-free plan under
//! seeded failure/straggler plans and applies the fault-aware judges
//! (`spear::diffcheck::check_faulty_run`): declarative re-derivation from
//! the plan's draws, audited bit-identical re-execution, and the occupancy
//! grid over failed *and* final attempts. Deterministic retry exhaustion is
//! legal; nondeterministic exhaustion or any judge failure is a finding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use spear::diffcheck::{corpus, fault_corpus, shrink_queue, CaseSpec, Fixture};
use spear::JobQueue;

/// CI defaults: the corpus sizes the workflow's budget is sized for.
const DEFAULT_CASES: usize = 320;
const DEFAULT_FAULT_CASES: usize = 40;
const DEFAULT_SEED: u64 = 0xD1FF_5EED;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The fuzzer's settings.
struct Options {
    cases: usize,
    fault_cases: usize,
    seed: u64,
    out: PathBuf,
}

/// Parses `--flag value` pairs; any other argument is an error.
fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        cases: DEFAULT_CASES,
        fault_cases: DEFAULT_FAULT_CASES,
        seed: DEFAULT_SEED,
        out: repo_root().join("tests/fuzz_failures"),
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let invalid = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--cases" => options.cases = value.parse().map_err(|e| invalid(&e))?,
            "--fault-cases" => options.fault_cases = value.parse().map_err(|e| invalid(&e))?,
            "--seed" => options.seed = value.parse().map_err(|e| invalid(&e))?,
            "--out" => options.out = PathBuf::from(value),
            other => {
                return Err(format!(
                    "unknown flag {other} (--cases, --fault-cases, --seed, --out)"
                ))
            }
        }
    }
    Ok(options)
}

/// Shrinks a failing case to a minimal witness fixture: first to the
/// fewest machines that still reproduce the disagreement (one machine is
/// the single box), then to a minimal workload on that cluster.
fn shrink_case(case: &CaseSpec, why: &str) -> Fixture {
    // A scheduler error on a smaller workload is a different failure
    // mode; keep the shrink focused on the original disagreement.
    let fails = |c: &CaseSpec, q: &JobQueue| c.run_on(q).is_ok_and(|tri| !tri.all_ok());
    let queue = case.queue();
    let mut small_case = *case;
    while small_case.machines > 1 {
        let candidate = CaseSpec {
            machines: small_case.machines - 1,
            ..small_case
        };
        if !fails(&candidate, &queue) {
            break;
        }
        small_case = candidate;
    }
    let small = shrink_queue(&queue, |q| fails(&small_case, q));
    Fixture::from_parts(
        &format!("fuzz_{}", small_case.label().replace('/', "_")),
        &format!("shrunk witness of a three-way disagreement: {why}"),
        small_case.scheduler,
        small_case.seed,
        &small,
        &small_case.cluster(),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = options.seed;

    let matrix = corpus(options.cases, seed);
    eprintln!(
        "[fuzz_differential] {} cases, base seed {seed:#x}",
        matrix.len()
    );
    let start = Instant::now();
    let mut failures = 0usize;
    for (i, case) in matrix.iter().enumerate() {
        let why = match case.run() {
            Ok(tri) if tri.all_ok() => {
                if (i + 1) % 50 == 0 {
                    eprintln!(
                        "[fuzz_differential] {}/{} ok ({:.1}s)",
                        i + 1,
                        matrix.len(),
                        start.elapsed().as_secs_f64()
                    );
                }
                continue;
            }
            Ok(tri) => tri.summary(),
            Err(e) => format!("scheduler error: {e}"),
        };
        failures += 1;
        println!("FAIL {}: {why}", case.label());
        let fixture = shrink_case(case, &why);
        std::fs::create_dir_all(&options.out).expect("cannot create witness dir");
        let path = options.out.join(format!("{}.json", fixture.name));
        std::fs::write(&path, fixture.to_json()).expect("cannot write witness");
        println!(
            "  shrunk witness ({} tasks) written to {}",
            fixture.tasks.len(),
            path.display()
        );
    }

    // Fault pass: fault-free plans executed under seeded fault plans,
    // judged by the fault-aware tri-check. `Ok(None)` is deterministic
    // retry exhaustion — legal, counted separately.
    let fault_matrix = fault_corpus(options.fault_cases, seed);
    eprintln!(
        "[fuzz_differential] {} fault cases, base seed {seed:#x}",
        fault_matrix.len()
    );
    let mut exhausted = 0usize;
    for (i, case) in fault_matrix.iter().enumerate() {
        let why = match case.run_faulty() {
            Ok(Some(tri)) if tri.all_ok() => {
                if (i + 1) % 20 == 0 {
                    eprintln!(
                        "[fuzz_differential] faults {}/{} ok ({:.1}s)",
                        i + 1,
                        fault_matrix.len(),
                        start.elapsed().as_secs_f64()
                    );
                }
                continue;
            }
            Ok(None) => {
                exhausted += 1;
                continue;
            }
            Ok(Some(tri)) => tri.summary(),
            Err(e) => format!("fault case error: {e}"),
        };
        failures += 1;
        println!("FAIL {}: {why}", case.label());
    }
    if exhausted > 0 {
        eprintln!(
            "[fuzz_differential] {exhausted} fault cases ended in deterministic retry \
             exhaustion (legal)"
        );
    }

    let total = matrix.len() + fault_matrix.len();
    let elapsed = start.elapsed().as_secs_f64();
    if failures == 0 {
        println!("fuzz_differential: {total} cases, 0 disagreements ({elapsed:.1}s)");
        ExitCode::SUCCESS
    } else {
        println!("fuzz_differential: {failures} of {total} cases FAILED ({elapsed:.1}s)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_options(&args.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn bad_flags_are_one_line_errors() {
        for (args, want) in [
            (&["--cases", "3x"][..], "--cases 3x: invalid digit"),
            (&["--multi-cases", "0"][..], "unknown flag --multi-cases"),
            (&["--hetero-cases", "0"][..], "unknown flag --hetero-cases"),
            (&["--fault-cases"][..], "--fault-cases needs a value"),
            (&["--seed", "-1"][..], "--seed -1: invalid digit"),
        ] {
            let err = parse(args)
                .err()
                .unwrap_or_else(|| panic!("{args:?} parsed"));
            assert!(err.contains(want), "{args:?}: got `{err}`, want `{want}`");
            assert!(!err.contains('\n'), "{args:?}: multi-line error `{err}`");
        }
    }

    #[test]
    fn flags_override_the_defaults() {
        let options = parse(&["--cases", "16", "--fault-cases", "0", "--seed", "7"]).unwrap();
        assert_eq!(
            (options.cases, options.fault_cases, options.seed),
            (16, 0, 7)
        );
        let defaults = parse(&[]).unwrap();
        assert_eq!(
            (defaults.cases, defaults.fault_cases, defaults.seed),
            (DEFAULT_CASES, DEFAULT_FAULT_CASES, DEFAULT_SEED)
        );
    }
}
