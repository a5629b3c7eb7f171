//! Keeps the public surface to what a caller uses.
//!
//! Every `pub fn NAME` in a library crate's `crates/*/src` must be named
//! — as a whole word, outside comments — by some `.rs` file outside that
//! library's own sources: another crate, a `src/bin/` target, a
//! `crates/*/tests` or `tests/` file, or the benchmark's `benchmark/src`.
//! A function with no such caller belongs at `pub(crate)` (or
//! `#[cfg(test)]`), or deleted, unless it is on [`ALLOWLIST`] with a
//! reason. An allowlist entry that no longer names an uncalled `pub fn`
//! fails the test too, so the list cannot go stale.
//!
//! The rule works on names, so it is a lower bound on what the compiler
//! would narrow: a method that shares its name with one used elsewhere
//! (`len`, `new`, `is_empty`, …) is masked by it. Narrowing every
//! `pub fn` and re-widening only those rustc reports as used from
//! another crate is the exact check; this scan is the cheap guard that
//! runs with every `cargo test`. The only `pub fn`s that sweep could still
//! narrow are the `is_empty` methods beside a public `len`, which clippy's
//! `len_without_is_empty` requires to be public too.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// `(crate directory under crates/, function name, why it stays public)`.
const ALLOWLIST: &[(&str, &str, &str)] = &[];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The source with `//` comments (doc comments included) removed.
fn strip_comments(src: &str) -> String {
    src.lines().map(|l| l.find("//").map_or(l, |i| &l[..i])).collect::<Vec<_>>().join("\n")
}

fn words(src: &str) -> impl Iterator<Item = &str> {
    src.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).filter(|w| !w.is_empty())
}

/// Name of the function a `pub fn` line declares, if the line is one.
fn pub_fn_name(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = rest.strip_prefix("fn ")?;
    words(rest).next()
}

#[test]
fn every_pub_fn_has_a_caller_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "tests", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    // This file names allowlisted functions; that is not a call.
    files.retain(|f| f != &root.join(file!()));
    // A library's own sources: crates/<name>/src, minus its bin targets.
    let library_of = |path: &Path| -> Option<String> {
        let rel = path.strip_prefix(root.join("crates")).ok()?;
        let mut parts = rel.iter().map(|p| p.to_str().unwrap());
        let krate = parts.next()?;
        (parts.next() == Some("src") && parts.next() != Some("bin")).then(|| krate.to_owned())
    };

    // (crate, name) -> first declaration, and per crate the words every
    // file outside that crate's library sources uses.
    let mut declared: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut texts: Vec<(Option<String>, String)> = Vec::new();
    for path in &files {
        let src = fs::read_to_string(path).unwrap();
        let owner = library_of(path);
        if let Some(krate) = &owner {
            for (i, line) in src.lines().enumerate() {
                if let Some(name) = pub_fn_name(line) {
                    let at = format!("{}:{}", path.strip_prefix(root).unwrap().display(), i + 1);
                    declared.entry((krate.clone(), name.to_owned())).or_insert(at);
                }
            }
        }
        texts.push((owner, strip_comments(&src)));
    }
    let crates: BTreeSet<&String> = declared.keys().map(|(k, _)| k).collect();
    let used_outside: BTreeMap<&String, BTreeSet<&str>> = crates
        .iter()
        .map(|&k| {
            let outside = texts.iter().filter(|(owner, _)| owner.as_ref() != Some(k));
            (k, outside.flat_map(|(_, text)| words(text)).collect())
        })
        .collect();

    let allowed: BTreeMap<(&str, &str), &str> =
        ALLOWLIST.iter().map(|&(k, n, why)| ((k, n), why)).collect();
    let mut problems = Vec::new();
    let mut flagged = BTreeSet::new();
    for ((krate, name), at) in &declared {
        if !used_outside[krate].contains(name.as_str()) {
            flagged.insert((krate.as_str(), name.as_str()));
            if !allowed.contains_key(&(krate.as_str(), name.as_str())) {
                problems.push(format!(
                    "{at}: `pub fn {name}` has no caller outside crates/{krate}/src — \
                     narrow it to pub(crate), delete it, or allowlist it with a reason"
                ));
            }
        }
    }
    for (&(krate, name), why) in &allowed {
        assert!(!why.trim().is_empty(), "allowlist entry {krate}::{name} needs a reason");
        if !flagged.contains(&(krate, name)) {
            problems.push(format!(
                "allowlist entry {krate}::{name} is stale: it is no longer an uncalled \
                 `pub fn` in crates/{krate}/src — remove it"
            ));
        }
    }
    assert!(problems.is_empty(), "public surface:\n{}", problems.join("\n"));
}
