//! Standardized output paths for the bench binaries.
//!
//! Every bin writes machine-readable artifacts through these helpers so
//! the destinations stay uniform regardless of the invocation CWD:
//!
//! * [`write_root_artifact`] — `BENCH_*.json` / `BENCH_*.csv` trajectory
//!   dumps at the repository root. Gitignored: these are per-run
//!   scratch outputs for local before/after comparisons and CI logs.
//! * [`write_results_artifact`] — files under `results/`, the committed
//!   record of seeded, default-scale runs (tables in `.txt`, summaries
//!   in `.json`); a run at any other scale writes nothing there.
//!
//! Both write atomically enough for our purposes (single `write` call)
//! and panic with a clear message on IO failure — a bench that cannot
//! record its results has failed.

use crate::args::Scale;
use std::path::PathBuf;

/// The repository root, resolved from this crate's manifest directory
/// (`crates/bench` → two levels up), independent of the CWD the bin was
/// launched from.
pub(crate) fn repo_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // repo root
    p
}

/// Write a gitignored trajectory artifact (`BENCH_*.json`, `BENCH_*.csv`)
/// at the repository root. `name` must carry the `BENCH_` prefix so the
/// ignore rule and the naming convention stay in one place; returns the
/// full path written.
pub fn write_root_artifact(name: &str, contents: &str) -> PathBuf {
    assert!(
        name.starts_with("BENCH_"),
        "root artifacts are trajectory dumps and must be named BENCH_* (got `{name}`)"
    );
    let path = repo_root().join(name);
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
    path
}

/// Write a committed artifact under `results/` at the repository root
/// (created if missing); returns the full path written. `results/` holds
/// default-scale runs only, so at any other scale this writes nothing
/// and returns `None` — a smoke run never overwrites the record.
pub fn write_results_artifact(scale: Scale, name: &str, contents: &str) -> Option<PathBuf> {
    if scale != Scale::Default {
        return None;
    }
    let dir = repo_root().join("results");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("mkdir {}: {e}", dir.display()));
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repo_root_holds_the_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").is_file());
        assert!(repo_root().join("crates/bench/Cargo.toml").is_file());
    }

    #[test]
    #[should_panic(expected = "must be named BENCH_")]
    fn root_artifacts_enforce_the_prefix() {
        write_root_artifact("pipeline.json", "{}");
    }

    #[test]
    fn results_artifacts_are_written_only_at_default_scale() {
        let name = "non_default_scale_probe.json";
        for scale in [Scale::Smoke, Scale::Full] {
            assert_eq!(write_results_artifact(scale, name, "{}"), None);
        }
        assert!(!repo_root().join("results").join(name).exists());
    }
}
