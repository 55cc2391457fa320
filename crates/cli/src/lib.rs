//! Implementation of the `spear-cli` command-line tool.
//!
//! Subcommands:
//!
//! * `generate` — emit a random layered DAG (or a full synthetic trace) as
//!   JSON;
//! * `schedule` — schedule a DAG JSON file with any of the implemented
//!   algorithms, optionally rendering an ASCII Gantt chart;
//! * `train` — run the pre-train → REINFORCE pipeline and save the policy
//!   network;
//! * `evaluate` — compare every scheduler on a workload and print a table;
//! * `stats` — summarize a DAG or trace file.
//!
//! The argument parser is deliberately dependency-free: `--key value`
//! flags only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

use std::error::Error;

/// Entry point shared by the binary and the tests: dispatches on the
/// first positional argument.
///
/// # Errors
///
/// Returns a human-readable error for unknown commands, bad flags or I/O
/// failures.
pub fn run(argv: &[String]) -> Result<(), Box<dyn Error>> {
    let (command, rest) = argv.split_first().ok_or(
        "usage: spear-cli <generate|schedule|train|evaluate|stats> [--flag value]…\n\
         run `spear-cli help` for details",
    )?;
    type Command = fn(&args::Args) -> Result<(), Box<dyn Error>>;
    let (run, flags): (Command, &[&str]) = match command.as_str() {
        "generate" => (commands::generate, commands::GENERATE_FLAGS),
        "schedule" => (commands::schedule, commands::SCHEDULE_FLAGS),
        "train" => (commands::train, commands::TRAIN_FLAGS),
        "evaluate" => (commands::evaluate, commands::EVALUATE_FLAGS),
        "stats" => (commands::stats, commands::STATS_FLAGS),
        "help" | "--help" | "-h" => {
            println!("{}", commands::HELP);
            return Ok(());
        }
        other => return Err(format!("unknown command `{other}`; run `spear-cli help`").into()),
    };
    let args = args::Args::parse(rest)?;
    args.reject_unknown(command, flags)?;
    run(&args)
}
