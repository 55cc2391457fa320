//! The command line of the `experiments` binary.

use std::process::Command;

/// An unknown name (a removed binary's name or flag included) fails
/// before any experiment runs: exit 2, one `error:` line naming every
/// known experiment, and no results directory created.
#[test]
fn an_unknown_name_lists_the_known_ones_and_writes_nothing() {
    let results =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("experiments_unknown_name");
    for unknown in ["no_such_experiment", "fig6a", "run_all", "--quick"] {
        let _ = std::fs::remove_dir_all(&results);
        let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["fig7", unknown])
            .env("SPEAR_RESULTS_DIR", &results)
            .output()
            .expect("the experiments binary starts");
        assert_eq!(output.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.starts_with(&format!("error: unknown experiment `{unknown}`")),
            "{stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        for name in [
            "fig6",
            "fig7",
            "table1",
            "fig8a",
            "fig8b",
            "fig9ab",
            "fig9c",
            "ablations",
            "fault_sweep",
        ] {
            assert!(stderr.contains(name), "stderr omits {name}: {stderr}");
        }
        assert!(output.stdout.is_empty());
        assert!(
            !results.exists(),
            "an unknown name created {}",
            results.display()
        );
    }
}
