//! The experiment harness: regenerates every table and figure of the
//! Spear paper's evaluation section (§V), the design ablations and the
//! fault sweep.
//!
//! One binary, `experiments`, runs them: `experiments [NAME…] [--paper]`
//! runs each named experiment once (all of them when none is named),
//! prints its tables and writes its artifacts to `results/`. Every
//! experiment is a module of [`experiments`]; the quick scale, the
//! default, is a laptop-scale configuration that preserves the
//! qualitative shape (who wins, by roughly what factor) at a fraction of
//! the wall-clock, and `--paper` selects the paper's full parameters.
//! A run without names also writes the printed tables to
//! `results/experiments_<s>.md`, where `<s>` is `quick` or `paper`.
//!
//! | name | paper result reproduced | artifacts |
//! |---|---|---|
//! | `fig6` | Fig. 6(a) per-DAG makespans, Spear vs 4 baselines; Fig. 6(b) scheduler runtimes | `fig6a_<s>.{json,csv}`, `fig6b_<s>.csv` |
//! | `fig7` | Fig. 7(a) pure-MCTS makespan vs budget; Fig. 7(b) % of jobs MCTS beats Tetris | `fig7_<s>.json`, `fig7{a,b}_<s>.csv` |
//! | `table1` | Table I, MCTS runtime vs graph size × budget | `table1_<s>.{json,csv}` |
//! | `fig8a` | Fig. 8(a), Spear@100 ≈ MCTS@1000 > Tetris/CP/SJF | `fig8a_<s>.{json,csv}` |
//! | `fig8b` | Fig. 8(b), the DRL learning curve | `fig8b_<s>.{json,csv}` |
//! | `fig9ab` | Fig. 9(a,b), trace task-count / runtime CDFs | `fig9{a,b}_<s>.csv`, `fig9_trace_<s>.json` |
//! | `fig9c` | Fig. 9(c), makespan reduction vs Graphene CDF | `fig9c_<s>.{json,csv}` |
//! | `ablations` | design-choice ablations (DESIGN.md §5) | `ablations_<s>.json` |
//! | `fault_sweep` | the roster under seeded faults at rates 0–20% (EXPERIMENTS.md) | `fault_sweep_<s>.{json,csv}` |
//!
//! `fig6`, `fig8a`, `fig9c` and `ablations` need the trained policy,
//! which [`policy::obtain`] caches as `results/policy_<s>.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod policy;
pub mod report;
pub mod workload;

/// Experiment scale selection, shared by every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop-scale defaults: minutes of wall-clock, same qualitative
    /// shapes.
    Quick,
    /// The paper's full parameters (hours on one core).
    Paper,
}

impl Scale {
    /// A short tag for artifact names.
    pub fn tag(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }
}
