//! The differential schedule fuzzer — CI entry point.
//!
//! Runs the seeded scheduler-roster corpus (see `spear::diffcheck::corpus`:
//! single DAGs and Poisson job streams, on one box and on seeded 2–3-machine
//! clusters, plain and epsilon-jittered) and the seeded fault corpus
//! (`spear::diffcheck::fault_corpus`: the roster's plans under seeded
//! failure/straggler plans) through one loop. Each case plans its workload
//! fault-free, executes the plan under its fault plan (the null plan in the
//! main corpus) and judges the plan and the realized run three independent
//! ways (`spear::diffcheck::check_faulty_run`): declaratively
//! (`Schedule::validate` with arrival gating and per-job JCT accounting,
//! and a re-derivation of the run from the fault draws), operationally (an
//! audited re-execution that must reproduce the run, start no attempt
//! before its planned start and, under the null plan, reproduce the plan)
//! and by occupancy (`ResourceTimeline` grids with re-derived transfer
//! windows). Any disagreement is a bookkeeping bug in one of the three
//! cores; a failing fault-free case is shrunk — machines first, then the
//! workload — to a minimal witness and written as a fixture JSON for
//! triage (move it under `tests/fixtures/` once the bug is fixed, so it
//! becomes a permanent regression test). A failing fault case is reported
//! by its label, from which `fault_corpus` rebuilds it. Deterministic retry
//! exhaustion is legal; nondeterministic exhaustion is a finding.
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
    let fails = |c: &CaseSpec, q: &JobQueue| matches!(c.run_on(q), Ok(Some(tri)) if !tri.all_ok());
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

    let mut matrix = corpus(options.cases, seed);
    matrix.extend(fault_corpus(options.fault_cases, seed));
    eprintln!(
        "[fuzz_differential] {} cases ({} with faults), base seed {seed:#x}",
        matrix.len(),
        options.fault_cases
    );
    let start = Instant::now();
    let (mut failures, mut exhausted) = (0usize, 0usize);
    for (i, case) in matrix.iter().enumerate() {
        if (i + 1) % 50 == 0 {
            eprintln!(
                "[fuzz_differential] {}/{} ({:.1}s)",
                i + 1,
                matrix.len(),
                start.elapsed().as_secs_f64()
            );
        }
        let why = match case.run() {
            Ok(Some(tri)) if tri.all_ok() => continue,
            Ok(None) => {
                exhausted += 1;
                continue;
            }
            Ok(Some(tri)) => tri.summary(),
            Err(e) => format!("case error: {e}"),
        };
        failures += 1;
        println!("FAIL {}: {why}", case.label());
        if !case.faults.is_none() {
            continue;
        }
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
    if exhausted > 0 {
        eprintln!(
            "[fuzz_differential] {exhausted} fault cases ended in deterministic retry \
             exhaustion (legal)"
        );
    }

    let total = matrix.len();
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
