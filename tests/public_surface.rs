//! Keeps the public surface to what a caller uses.
//!
//! Every public item a library crate's `crates/*/src` declares — `pub
//! fn`, `struct`, `enum`, `trait`, `type`, `const`, `static` and `union`
//! — must be used outside that library's own sources: by another crate, a
//! `src/bin/` target, a `crates/*/tests` or `tests/` file, the root
//! `src/` or the benchmark's `benchmark/src`. A function is used when
//! such a file names it, as a whole word outside comments. Any other item
//! is used when such a file names it, or when it appears in the
//! declaration of a used item of its crate: a caller reaches a type
//! through the signature of a `pub fn` it calls, the `pub` fields of a
//! struct it reads, a type alias, enum or trait it names, or the
//! associated types of a trait impl for a type it uses. An item with no use
//! belongs at `pub(crate)` (or `#[cfg(test)]`), or deleted, unless it is
//! on [`ALLOWLIST`] with a reason. An allowlist entry that no longer
//! names an unused public item fails the test too, so the list cannot go
//! stale.
//!
//! A second rule keeps out code that only tests reach. A used public item
//! must also be used, in the same sense, by production source: `crates/*/src`
//! (its own crate and bin targets included), the root `src/` and
//! `benchmark/src`, each outside `#[cfg(test)]` items. An item's own
//! declaration is not a use of it, nor is an `impl` header. An item that
//! only `tests/`, `crates/*/tests` or `#[cfg(test)]` code names is deleted
//! when a test can reach the same behaviour through public code, or kept
//! on [`TEST_HOOKS`] with the reason a test needs it: a reference the
//! production path is compared against, a fake a test substitutes, or
//! an introspection hook for a named property. A hook that production
//! starts to use, or one without a reason, fails the test as a stale
//! allowlist entry does.
//!
//! The rules work on names, so they are a lower bound on what the compiler
//! would narrow: an item that shares its name with one used elsewhere
//! (`len`, `new`, `Error`, …) is masked by it. Narrowing every public
//! item and re-widening only what rustc reports as used from another
//! crate is the exact check; this scan is the cheap guard that runs with
//! every `cargo test`. A `pub` item in a private module, which no name
//! scan can tell from a reachable one, is clippy's `unreachable_pub`.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// `(crate directory under crates/, item name, why it stays public)`.
const ALLOWLIST: &[(&str, &str, &str)] = &[];

/// `(crate directory under crates/, item name, why only tests need it)`.
const TEST_HOOKS: &[(&str, &str, &str)] = &[
    ("cache", "frequency_of", "introspection for prop_lfu_victim_has_minimum_frequency"),
    ("cache", "priority_of", "introspection for prop_mad_victim_has_minimum_priority_above_floor"),
    ("cache", "segment_of", "introspection for prop_slru_hits_promote_to_protected"),
    ("cache", "is_visited", "introspection for prop_sieve_visited_bit_semantics"),
    ("constellation", "from_dead", "fake: a named outage set; runs sample theirs"),
    ("constellation", "link_used", "introspection for the capacity_ledger balance checks"),
    ("io", "seeded", "fake: the write-side fault plan io_torture substitutes for a disk"),
    ("io", "single", "fake: the one-fault plan of the keep_last >= 2 restorability test"),
    ("io", "crash_only", "fake: the crash-point plan of the io_torture crash sweeps"),
    ("io", "read_faults", "fake: the read-side fault plan of the io_torture resume tests"),
    ("orbit", "elevation_and_range", "reference: the asin per satellite the sine ranking matches"),
    ("orbit", "position_of", "introspection: one satellite's position for the propagator oracles"),
    ("sim", "read_binary_path_io", "fake seam: io_torture's faulty disk under the log decoder"),
    ("sim", "schedule_epoch_with", "reference: the whole-fleet scan lazy scheduling is held to"),
    (
        "spacegen",
        "shared_fraction",
        "introspection for cross_location_overlap_structure_survives_generation",
    ),
];

/// One `.rs` file: its path for messages, the library crate whose
/// sources it belongs to (`None` for anything else), whether it is
/// production source and its text.
struct Source {
    path: String,
    owner: Option<String>,
    production: bool,
    text: String,
}

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

/// The source with `//` comments (doc comments included) removed; line
/// numbers are kept.
fn strip_comments(src: &str) -> String {
    src.lines().map(|l| l.find("//").map_or(l, |i| &l[..i])).collect::<Vec<_>>().join("\n")
}

/// The source with every `#[cfg(test)]` item blanked out; line numbers
/// are kept.
fn strip_test_items(src: &str) -> String {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::with_capacity(lines.len());
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim_start().starts_with("#[cfg(test)]") {
            // The attribute's brackets balance, so the item runs from here.
            let n = item_lines(&lines[i..], "item").len();
            out.extend(std::iter::repeat_n("", n));
            i += n;
        } else {
            out.push(lines[i]);
            i += 1;
        }
    }
    out.join("\n")
}

fn words(src: &str) -> impl Iterator<Item = &str> {
    src.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).filter(|w| !w.is_empty())
}

/// `(kind, name)` of the item a `pub` line declares, if the line is one.
fn pub_item(line: &str) -> Option<(&'static str, &str)> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = rest.strip_prefix("unsafe ").unwrap_or(rest);
    let rest = match rest.strip_prefix("const ") {
        Some(after) if !after.starts_with("fn ") => return Some(("const", words(after).next()?)),
        Some(after) => after,
        None => rest,
    };
    let kinds = ["fn", "struct", "enum", "trait", "type", "static", "union"];
    let kind = kinds.into_iter().find(|k| rest.starts_with(&format!("{k} ")))?;
    let rest = &rest[kind.len() + 1..];
    let rest = if kind == "static" { rest.strip_prefix("mut ").unwrap_or(rest) } else { rest };
    Some((kind, words(rest).next()?))
}

/// The lines of the item that starts at `lines[0]`: up to its `;`, or
/// up to the `}` that closes its first `{` (a function: up to that `{`).
fn item_lines<'a>(lines: &[&'a str], kind: &str) -> Vec<&'a str> {
    let mut depth = 0i32;
    let mut braced = false;
    for (n, line) in lines.iter().enumerate() {
        for (i, c) in line.char_indices() {
            match c {
                '{' if kind == "fn" && depth == 0 => {
                    let mut out = lines[..n].to_vec();
                    out.push(&line[..i]);
                    return out;
                }
                '{' | '(' | '[' => {
                    braced |= c == '{';
                    depth += 1;
                }
                '}' | ')' | ']' => depth -= 1,
                ';' if depth == 0 => return lines[..=n].to_vec(),
                _ => {}
            }
        }
        if braced && depth == 0 {
            return lines[..=n].to_vec();
        }
    }
    lines.to_vec()
}

/// The words of what a caller of a public item sees: a function's
/// signature, a struct's header and `pub` fields, the whole of an enum,
/// trait or union, and a type alias's, constant's or static's line(s).
fn declaration<'a>(lines: &[&'a str], kind: &str) -> BTreeSet<&'a str> {
    let item = item_lines(lines, kind);
    let braced_struct = kind == "struct" && item.len() > 1;
    let seen = item
        .iter()
        .enumerate()
        .filter(|&(i, l)| !braced_struct || i == 0 || l.trim_start().starts_with("pub "));
    seen.flat_map(|(_, l)| words(l)).collect()
}

/// What a trait impl for a type adds to it: the words of its associated
/// `type` lines, if `lines[0]` opens `impl … for Type`.
fn impl_exposes<'a>(lines: &[&'a str]) -> Option<(&'a str, BTreeSet<&'a str>)> {
    let head = lines[0].trim_start();
    if !head.starts_with("impl") || !head.contains(" for ") {
        return None;
    }
    let target = words(head.rsplit(" for ").next()?).next()?;
    let body = item_lines(lines, "impl");
    let types = body.iter().filter(|l| l.trim_start().starts_with("type "));
    Some((target, types.flat_map(|l| words(l)).collect()))
}

/// `(crate, name) -> (kind, first declaration, what its declarations
/// expose to a caller)`.
type Declared<'a> = BTreeMap<(&'a str, &'a str), (&'a str, String, BTreeSet<&'a str>)>;

/// `(crate, type, what a trait impl for it exposes)`.
type Impls<'a> = Vec<(&'a str, &'a str, BTreeSet<&'a str>)>;

/// The declared items `named` holds as named, then, to a fixed point, any
/// non-function item named in what a reached item's declarations (or
/// trait impls) expose.
fn reach<'a>(
    declared: &Declared<'a>,
    impls: &Impls<'a>,
    named: impl Fn(&str, &str) -> bool,
) -> BTreeSet<(&'a str, &'a str)> {
    let mut used: BTreeSet<(&str, &str)> =
        declared.keys().filter(|&&(k, n)| named(k, n)).copied().collect();
    loop {
        let mut reached: BTreeSet<(&str, &str)> = BTreeSet::new();
        for &(k, n) in &used {
            reached.extend(declared[&(k, n)].2.iter().map(|&w| (k, w)));
        }
        for (k, target, exposed) in impls {
            if used.contains(&(*k, *target)) {
                reached.extend(exposed.iter().map(|&w| (*k, w)));
            }
        }
        let before = used.len();
        used.extend(
            reached
                .into_iter()
                .filter(|key| declared.get(key).is_some_and(|(kind, _, _)| *kind != "fn")),
        );
        if used.len() == before {
            return used;
        }
    }
}

/// The words of `text` (comments and test items already stripped) that
/// use an item: a declaration's own name and `impl` header lines are left
/// out.
fn uses(text: &str) -> impl Iterator<Item = &str> {
    let impl_header = |l: &str| ["impl ", "impl<"].iter().any(|p| l.trim_start().starts_with(p));
    text.lines().filter(move |l| !impl_header(l)).flat_map(|line| {
        let mut own = pub_item(line).map(|(_, name)| name);
        words(line).filter(move |&w| {
            let declares = own == Some(w);
            if declares {
                own = None;
            }
            !declares
        })
    })
}

/// The problems with one list of exempted items: an entry without a
/// reason, and one that names no item `flagged` holds.
fn list_problems(
    list: &str,
    entries: &[(&str, &str, &str)],
    flagged: &BTreeSet<(&str, &str)>,
    holds: &str,
) -> Vec<String> {
    let mut problems = Vec::new();
    for &(krate, name, why) in entries {
        if why.trim().is_empty() {
            problems.push(format!("{list} entry {krate}::{name} needs a reason"));
        }
        if !flagged.contains(&(krate, name)) {
            problems.push(format!(
                "{list} entry {krate}::{name} is stale: it is no longer {holds} \
                 in crates/{krate}/src — remove it"
            ));
        }
    }
    problems
}

/// Every problem the two rules find in `sources` under `allowlist` and
/// `hooks`: one line per unused public item that is not allowlisted, one
/// per public item only tests use that is not a hook, and one per entry
/// of either list that is stale or has no reason.
fn surface_problems(
    sources: &[Source],
    allowlist: &[(&str, &str, &str)],
    hooks: &[(&str, &str, &str)],
) -> Vec<String> {
    let mut declared: Declared = BTreeMap::new();
    let mut impls: Impls = Vec::new();
    let stripped: Vec<String> = sources.iter().map(|s| strip_comments(&s.text)).collect();
    let untested: Vec<String> = stripped.iter().map(|s| strip_test_items(s)).collect();
    for (source, text) in sources.iter().zip(&untested) {
        let Some(krate) = source.owner.as_deref() else { continue };
        let lines: Vec<&str> = text.lines().collect();
        for i in 0..lines.len() {
            if let Some((target, exposed)) = impl_exposes(&lines[i..]) {
                impls.push((krate, target, exposed));
            }
            let Some((kind, name)) = pub_item(lines[i]) else { continue };
            let at = format!("{}:{}", source.path, i + 1);
            let entry = declared.entry((krate, name)).or_insert((kind, at, BTreeSet::new()));
            entry.2.extend(declaration(&lines[i..], kind));
        }
    }
    let crates: BTreeSet<&str> = declared.keys().map(|&(k, _)| k).collect();
    let used_outside: BTreeMap<&str, BTreeSet<&str>> = crates
        .iter()
        .map(|&k| {
            let outside =
                sources.iter().zip(&stripped).filter(|(s, _)| s.owner.as_deref() != Some(k));
            (k, outside.flat_map(|(_, text)| words(text)).collect())
        })
        .collect();
    let production: BTreeSet<&str> = sources
        .iter()
        .zip(&untested)
        .filter(|(s, _)| s.production)
        .flat_map(|(_, text)| uses(text))
        .collect();
    let used = reach(&declared, &impls, |k, n| used_outside[k].contains(n));
    let in_production = reach(&declared, &impls, |_, n| production.contains(n));

    let allowed: BTreeSet<(&str, &str)> = allowlist.iter().map(|&(k, n, _)| (k, n)).collect();
    let hooked: BTreeSet<(&str, &str)> = hooks.iter().map(|&(k, n, _)| (k, n)).collect();
    let mut problems = Vec::new();
    let (mut unused, mut test_only) = (BTreeSet::new(), BTreeSet::new());
    for (&key @ (krate, name), (kind, at, _)) in &declared {
        if !used.contains(&key) {
            unused.insert(key);
            if !allowed.contains(&key) {
                problems.push(format!(
                    "{at}: `pub {kind} {name}` has no user outside crates/{krate}/src — \
                     narrow it to pub(crate), delete it, or allowlist it with a reason"
                ));
            }
        } else if !in_production.contains(&key) {
            test_only.insert(key);
            if !hooked.contains(&key) {
                problems.push(format!(
                    "{at}: `pub {kind} {name}` is used only by tests — delete it if a test \
                     can reach the same behaviour through public code, or list it on \
                     TEST_HOOKS with a reason"
                ));
            }
        }
    }
    problems.extend(list_problems("allowlist", allowlist, &unused, "an unused public item"));
    problems.extend(list_problems("TEST_HOOKS", hooks, &test_only, "a public item only tests use"));
    problems
}

#[test]
fn every_public_item_has_a_user_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "tests", "src", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    // This file names allowlisted items and plants sources; that is not
    // a use.
    files.retain(|f| f != &root.join(file!()));
    // A library's own sources: crates/<name>/src, minus its bin targets.
    // Production: every src/ directory (bins included); tests/ is not.
    let library_of = |path: &Path| -> Option<String> {
        let rel = path.strip_prefix(root.join("crates")).ok()?;
        let mut parts = rel.iter().map(|p| p.to_str().unwrap());
        let krate = parts.next()?;
        (parts.next() == Some("src") && parts.next() != Some("bin")).then(|| krate.to_owned())
    };
    let sources: Vec<Source> = files
        .iter()
        .map(|path| Source {
            path: path.strip_prefix(root).unwrap().display().to_string(),
            owner: library_of(path),
            production: !path.strip_prefix(root).unwrap().iter().any(|p| p == "tests"),
            text: fs::read_to_string(path).unwrap(),
        })
        .collect();
    // The scan's own check: a test item it leaves in production source
    // would count test-only names as production uses.
    for source in sources.iter().filter(|s| s.production) {
        let untested = strip_test_items(&strip_comments(&source.text));
        assert!(!untested.contains("#[test]"), "{}: a test item survives", source.path);
    }
    let problems = surface_problems(&sources, ALLOWLIST, TEST_HOOKS);
    assert!(problems.is_empty(), "public surface:\n{}", problems.join("\n"));
}

/// A library file of crate `a` and one file of crate `b`.
fn planted(lib: &str, other: &str) -> Vec<Source> {
    let source = |path: &str, owner: &str, text: &str| Source {
        path: path.to_owned(),
        owner: Some(owner.to_owned()),
        production: true,
        text: text.to_owned(),
    };
    vec![source("crates/a/src/lib.rs", "a", lib), source("crates/b/src/lib.rs", "b", other)]
}

/// `sources` plus one file that is not a library's: `path`, production or
/// not.
fn plus_file(mut sources: Vec<Source>, path: &str, production: bool, text: &str) -> Vec<Source> {
    let (path, text) = (path.to_owned(), text.to_owned());
    sources.push(Source { path, owner: None, production, text });
    sources
}

/// The names the rules flag in `sources` with both lists empty.
fn flagged(sources: &[Source]) -> Vec<String> {
    let names = surface_problems(sources, &[], &[]).into_iter().map(|p| {
        let decl = p.split('`').nth(1).unwrap().to_owned();
        decl.rsplit(' ').next().unwrap().to_owned()
    });
    names.collect()
}

#[test]
fn unused_struct_and_const_are_flagged() {
    let lib = "pub struct Unused;\npub const LIMIT: u32 = 3;\npub enum Used {}\n";
    assert_eq!(flagged(&planted(lib, "fn f(_: a::Used) {}")), ["LIMIT", "Unused"]);
    let lib = "pub static COUNT: u32 = 0;\npub trait Unused {}\npub type Alias = u8;\n";
    assert_eq!(flagged(&planted(lib, "")), ["Alias", "COUNT", "Unused"]);
}

#[test]
fn a_name_in_a_comment_is_not_a_use() {
    let other = "// a::Unused is documented here\n/// and here: [`a::Unused`]\nfn f() {}\n";
    assert_eq!(flagged(&planted("pub struct Unused;", other)), ["Unused"]);
}

#[test]
fn a_name_in_another_crate_is_a_use() {
    let lib = "pub struct Used;\npub const LIMIT: u32 = 3;\n";
    assert!(flagged(&planted(lib, "fn f(_: a::Used) -> u32 { a::LIMIT }")).is_empty());
    // A file of the crate itself does not count.
    assert_eq!(flagged(&planted("pub struct Own;\nfn f(_: Own) {}", "")), ["Own"]);
}

#[test]
fn a_type_in_a_called_functions_signature_is_a_use() {
    let lib = "pub struct Report { pub n: u32 }\npub enum Error {}\n\
               pub fn serve(\n    n: u32,\n) -> Result<Report, Error> {\n    todo!()\n}\n";
    assert!(flagged(&planted(lib, "fn f() { let _ = a::serve(1); }")).is_empty());
    // The signature of an uncalled function reaches nothing, and a name
    // in a called function's body is not in its signature.
    assert_eq!(flagged(&planted(lib, "")), ["Error", "Report", "serve"]);
    let lib = "pub struct Hidden;\npub fn run() -> u32 {\n    let _ = Hidden;\n    0\n}\n";
    assert_eq!(flagged(&planted(lib, "fn f() { a::run(); }")), ["Hidden"]);
}

#[test]
fn a_type_behind_a_used_field_alias_trait_or_impl_is_a_use() {
    let lib = "pub struct Model {\n    pub gsl: Params,\n    hidden: Secret,\n}\n\
               pub struct Params;\npub struct Secret;\n\
               pub type Map = Table<Builder>;\npub struct Table<B>(B);\npub struct Builder;\n\
               impl Make for Builder {\n    type Made = Made;\n}\npub struct Made;\n\
               pub trait Io {\n    fn open(&self) -> Box<dyn File>;\n}\npub trait File {}\n";
    let other = "fn f(m: a::Model, _: a::Map, _: &dyn a::Io) {}";
    assert_eq!(flagged(&planted(lib, other)), ["Secret"]);
}

#[test]
fn a_stale_allowlist_entry_fails() {
    let sources = planted("pub struct Used;\npub struct Kept;", "fn f(_: a::Used) {}");
    assert!(surface_problems(&sources, &[("a", "Kept", "a reason")], &[]).is_empty());
    let stale = surface_problems(&sources, &[("a", "Kept", "a reason"), ("a", "Used", "why")], &[]);
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert!(stale[0].contains("allowlist entry a::Used is stale"), "{stale:?}");
    let unreasoned = surface_problems(&sources, &[("a", "Kept", " ")], &[]);
    assert_eq!(unreasoned.len(), 1, "{unreasoned:?}");
}

/// The names the second rule flags in `sources` with both lists empty.
fn test_only(sources: &[Source]) -> Vec<String> {
    let problems = surface_problems(sources, &[], &[]);
    let second = problems.iter().filter(|p| p.contains("used only by tests"));
    second.map(|p| p.split('`').nth(1).unwrap().rsplit(' ').next().unwrap().to_owned()).collect()
}

/// Crate `a` declaring `hook`, crate `b`'s source `other`, and one more
/// file at `path` (production or not) that calls `a::hook`.
fn hook_named_in(other: &str, path: &str, production: bool) -> Vec<Source> {
    let sources = planted("pub fn hook() {}\n", other);
    plus_file(sources, path, production, "fn t() { a::hook(); }")
}

#[test]
fn a_name_only_tests_use_is_flagged() {
    let in_tests_mod =
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        a::hook();\n    }\n}\n";
    assert_eq!(test_only(&planted("pub fn hook() {}", in_tests_mod)), ["hook"]);
    assert_eq!(test_only(&hook_named_in("", "crates/x/tests/props.rs", false)), ["hook"]);
    let in_test_fn = "#[cfg(test)]\nfn helper() -> u32 {\n    a::hook();\n    0\n}\nfn f() {}\n";
    assert_eq!(test_only(&planted("pub fn hook() {}", in_test_fn)), ["hook"]);
    // Its own declaration and a test in its own crate are not uses either.
    let own = "pub fn hook() {}\n\
               #[cfg(test)]\nmod tests {\n    fn t() {\n        super::hook();\n    }\n}\n";
    let sources = plus_file(planted(own, ""), "tests/t.rs", false, "fn t() { a::hook(); }");
    assert_eq!(flagged(&sources), ["hook"]);
    assert_eq!(test_only(&sources), ["hook"]);
}

#[test]
fn a_name_production_uses_passes_the_second_rule() {
    assert!(flagged(&hook_named_in("fn f() { a::hook(); }", "tests/t.rs", false)).is_empty());
    assert!(flagged(&hook_named_in("", "benchmark/src/layers.rs", true)).is_empty());
    // Production code after a test module still counts.
    let after = "#[cfg(test)]\nmod tests {}\nfn f() {\n    a::hook();\n}\n";
    assert!(flagged(&hook_named_in(after, "tests/t.rs", false)).is_empty());
}

#[test]
fn a_stale_or_unreasoned_test_hook_fails() {
    let sources = planted("pub fn hook() {}\npub fn used() {}", "fn f() { a::used(); }");
    let sources = plus_file(sources, "tests/t.rs", false, "fn t() { a::hook(); a::used(); }");
    assert!(surface_problems(&sources, &[], &[("a", "hook", "a reference")]).is_empty());
    let stale =
        surface_problems(&sources, &[], &[("a", "hook", "a reference"), ("a", "used", "why")]);
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert!(stale[0].contains("TEST_HOOKS entry a::used is stale"), "{stale:?}");
    let unreasoned = surface_problems(&sources, &[], &[("a", "hook", "")]);
    assert_eq!(unreasoned.len(), 1, "{unreasoned:?}");
    assert!(unreasoned[0].contains("needs a reason"), "{unreasoned:?}");
}
