//! Library results must not depend on `PM_LP_*` environment variables: the
//! engine, pivot budget and chaos injection are set only through the API
//! (and `fig11`'s own flags), and `PM_LP_STATS` only prints to stderr. Runs
//! the realized smoke sweep once with every `PM_LP_*` variable removed and
//! once with values that would change the results if any library still read
//! them, then compares the artifacts.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty scratch directory for one run's artifacts.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pm-bench-env-independence-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `fig11 --smoke --realize` into `dir` with no inherited `PM_LP_*`
/// variable and the given extra ones; returns the (JSON, CSV) artifacts.
fn smoke_run(dir: &Path, env: &[(&str, &str)]) -> (String, String) {
    let json = dir.join("fig11_smoke.json");
    let csv = dir.join("fig11_smoke.csv");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig11"));
    cmd.args(["--smoke", "--realize", "--json"])
        .arg(&json)
        .arg("--csv")
        .arg(&csv);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PM_LP_") {
            cmd.env_remove(key);
        }
    }
    cmd.envs(env.iter().copied());
    let out = cmd.output().expect("run fig11");
    assert!(
        out.status.success(),
        "fig11 failed with {env:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let read = |p: &Path| std::fs::read_to_string(p).expect("read fig11 artifact");
    (read(&json), read(&csv))
}

/// Drops the wall-clock `"solve_ms"` lines, the artifacts' only
/// nondeterministic bytes.
fn without_wall_time(json: &str) -> String {
    json.lines()
        .filter(|line| !line.contains("\"solve_ms\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn smoke_sweep_ignores_pm_lp_env_vars() {
    let clean_dir = scratch_dir("clean");
    let noisy_dir = scratch_dir("noisy");
    let (clean_json, clean_csv) = smoke_run(&clean_dir, &[]);
    let (noisy_json, noisy_csv) = smoke_run(
        &noisy_dir,
        &[
            ("PM_LP_BUDGET", "3"),
            ("PM_LP_SOLVER", "dense"),
            ("PM_LP_CHAOS", "all:7"),
            ("PM_LP_PRESOLVE", "1"),
        ],
    );
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&noisy_dir);
    assert!(clean_csv.lines().count() > 1, "smoke CSV has no rows");
    assert_eq!(clean_csv, noisy_csv, "PM_LP_* changed the smoke CSV");
    assert_eq!(
        without_wall_time(&clean_json),
        without_wall_time(&noisy_json),
        "PM_LP_* changed the smoke JSON"
    );
}
