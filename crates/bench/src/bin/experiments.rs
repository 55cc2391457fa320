//! The experiment runner: regenerates the tables and figures of the
//! Spear paper's evaluation (§V), the design ablations and the fault
//! sweep.
//!
//! Usage: `experiments [NAME…] [--paper]`. Each named experiment runs
//! once, prints its tables and writes its artifacts (listed in the crate
//! docs) to `results/`; `--paper` selects the paper's full parameters
//! instead of the quick scale. With no names every experiment runs, in
//! [`EXPERIMENTS`] order, and the printed tables are also collected in
//! `results/experiments_<scale>.md`. The trained policy is obtained once
//! per process, and only when a selected experiment needs it. An unknown
//! name is a one-line `error:` listing the known names, and exit code 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::process::ExitCode;
use std::time::Instant;

use serde::Serialize;
use spear::PolicyNetwork;
use spear_bench::experiments::{ablations, fault_sweep, fig6, fig7, fig8, fig9, table1};
use spear_bench::report::{self, Table};
use spear_bench::{policy, workload, Scale};

/// How an experiment runs: on its own, or with the trained policy.
#[derive(Clone, Copy)]
enum Run {
    Plain(fn(&mut Output)),
    WithPolicy(fn(&mut Output, PolicyNetwork)),
}

/// Every experiment by name, in the order a run without names runs them.
const EXPERIMENTS: [(&str, Run); 9] = [
    ("fig6", Run::WithPolicy(run_fig6)),
    ("fig7", Run::Plain(run_fig7)),
    ("table1", Run::Plain(run_table1)),
    ("fig8a", Run::WithPolicy(run_fig8a)),
    ("fig8b", Run::Plain(run_fig8b)),
    ("fig9ab", Run::Plain(run_fig9ab)),
    ("fig9c", Run::WithPolicy(run_fig9c)),
    ("ablations", Run::WithPolicy(run_ablations)),
    ("fault_sweep", Run::Plain(run_fault_sweep)),
];

/// What the experiments of one invocation print and write.
struct Output {
    scale: Scale,
    /// Every printed block, in order: the combined report.
    printed: String,
}

impl Output {
    fn print(&mut self, block: String) {
        println!("{block}");
        self.printed.push_str(&block);
        self.printed.push('\n');
    }

    /// Prints `table` and writes it as `<stem>_<scale>.csv`.
    fn table(&mut self, stem: &str, table: &Table) {
        self.print(table.render());
        report::write_text(&format!("{stem}_{}.csv", self.scale.tag()), &table.to_csv());
    }

    /// Writes `value` as `<stem>_<scale>.json`.
    fn json<T: Serialize>(&self, stem: &str, value: &T) {
        report::write_json(&format!("{stem}_{}", self.scale.tag()), value);
    }
}

/// Fig. 6(a) makespans and Fig. 6(b) scheduler runtimes, from one run:
/// `fig6a_<s>.{json,csv}` and `fig6b_<s>.csv`.
fn run_fig6(out: &mut Output, trained: PolicyNetwork) {
    let outcome = fig6::run(&fig6::Config::for_scale(out.scale), trained);
    out.table("fig6a", &fig6::makespan_table(&outcome));
    out.print(format!(
        "spear ≤ graphene on {:.0}% of DAGs (paper: 90%)\n",
        100.0 * outcome.spear_beats_graphene
    ));
    out.table("fig6b", &fig6::runtime_table(&outcome));
    out.json("fig6a", &outcome);
}

/// Fig. 7(a) pure-MCTS makespan and Fig. 7(b) win rate over Tetris per
/// budget, from one sweep: `fig7_<s>.json` and `fig7{a,b}_<s>.csv`.
fn run_fig7(out: &mut Output) {
    let outcome = fig7::run(&fig7::Config::for_scale(out.scale));
    out.table("fig7a", &fig7::makespan_table(&outcome));
    out.table("fig7b", &fig7::winrate_table(&outcome));
    out.json("fig7", &outcome);
}

/// Table I, MCTS runtime across graph sizes and budgets:
/// `table1_<s>.{json,csv}`.
fn run_table1(out: &mut Output) {
    let config = table1::Config::for_scale(out.scale);
    let outcome = table1::run(&config);
    out.table("table1", &table1::table(&outcome, &config));
    out.json("table1", &outcome);
}

/// Fig. 8(a), Spear at a tenth of the budget vs pure MCTS and the greedy
/// baselines: `fig8a_<s>.{json,csv}`.
fn run_fig8a(out: &mut Output, trained: PolicyNetwork) {
    let config = fig8::Config::for_scale(out.scale);
    let outcome = fig8::run(&config, trained);
    out.table("fig8a", &fig8::table(&outcome, &config));
    out.json("fig8a", &outcome);
}

/// Fig. 8(b), the DRL learning curve with Tetris/SJF reference lines:
/// `fig8b_<s>.{json,csv}`.
fn run_fig8b(out: &mut Output) {
    let outcome = fig8::run_curve(out.scale);
    out.table("fig8b", &fig8::curve_table(&outcome));
    out.json("fig8b", &outcome);
}

/// Fig. 9(a)/(b), the trace's task-count and mean-runtime distributions:
/// `fig9{a,b}_<s>.csv` and the trace itself as `fig9_trace_<s>.json`.
fn run_fig9ab(out: &mut Output) {
    let trace = fig9::trace(fig9::Config::for_scale(out.scale).seed);
    out.table("fig9a", &fig9::task_count_table(&trace));
    out.table("fig9b", &fig9::runtime_table(&trace));
    out.json("fig9_trace", &trace);
}

/// Fig. 9(c), the makespan reduction of Spear over Graphene on the trace
/// jobs: `fig9c_<s>.{json,csv}`.
fn run_fig9c(out: &mut Output, trained: PolicyNetwork) {
    let outcome = fig9::run_reduction(&fig9::Config::for_scale(out.scale), trained);
    out.table("fig9c", &fig9::reduction_table(&outcome));
    out.json("fig9c", &outcome);
}

/// The design-choice ablations of DESIGN.md §5: `ablations_<s>.json`.
fn run_ablations(out: &mut Output, trained: PolicyNetwork) {
    let config = ablations::Config::for_scale(out.scale);
    let mut outcome = ablations::run(&config, trained.clone());
    outcome.training = ablations::run_training_levels(&config, trained, 12345);
    for table in ablations::tables(&outcome) {
        out.print(table.render());
    }
    out.json("ablations", &outcome);
}

/// The EXPERIMENTS.md fault matrix, the scheduler roster under seeded
/// failure/straggler injection at rates 0-20%: `fault_sweep_<s>.{json,csv}`.
fn run_fault_sweep(out: &mut Output) {
    let config = fault_sweep::Config::for_scale(out.scale);
    let outcome = fault_sweep::run(&config);
    out.table("fault_sweep", &fault_sweep::table(&outcome, &config));
    out.json("fault_sweep", &outcome);
}

/// Parses `[NAME…] [--paper]` into the scale and the named experiments
/// (empty: all of them).
fn parse_args(args: &[String]) -> Result<(Scale, Vec<&'static str>), String> {
    let mut scale = Scale::Quick;
    let mut names = Vec::new();
    for arg in args {
        if arg == "--paper" {
            scale = Scale::Paper;
        } else if let Some(&(name, _)) = EXPERIMENTS.iter().find(|(name, _)| name == arg) {
            names.push(name);
        } else {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
            return Err(format!(
                "unknown experiment `{arg}` (known: {}; flag: --paper)",
                known.join(", ")
            ));
        }
    }
    Ok((scale, names))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, names) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let selected: Vec<(&str, Run)> = EXPERIMENTS
        .into_iter()
        .filter(|(name, _)| names.is_empty() || names.contains(name))
        .collect();
    let trained = selected
        .iter()
        .any(|(_, run)| matches!(run, Run::WithPolicy(_)))
        .then(|| policy::obtain(scale, &workload::cluster()));
    let mut out = Output {
        scale,
        printed: String::new(),
    };
    for (name, run) in selected {
        eprintln!("== {name} ==");
        match run {
            Run::Plain(run) => run(&mut out),
            Run::WithPolicy(run) => run(
                &mut out,
                trained
                    .clone()
                    .expect("the policy is obtained when a selected experiment needs it"),
            ),
        }
    }
    if names.is_empty() {
        let path = report::write_text(&format!("experiments_{}.md", scale.tag()), &out.printed);
        eprintln!("combined report at {}", path.display());
    }
    eprintln!("done in {:.0?}", started.elapsed());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_the_paper_flag_parse_in_any_order() {
        let parse =
            |args: &[&str]| parse_args(&args.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>());
        assert_eq!(parse(&[]).unwrap(), (Scale::Quick, vec![]));
        assert_eq!(
            parse(&["fig7", "--paper", "fault_sweep"]).unwrap(),
            (Scale::Paper, vec!["fig7", "fault_sweep"])
        );
    }
}
