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
//! The rule works on names, so it is a lower bound on what the compiler
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

/// One `.rs` file: its path for messages, the library crate whose
/// sources it belongs to (`None` for anything else) and its text.
struct Source {
    path: String,
    owner: Option<String>,
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

/// Every problem the rule finds in `sources` under `allowlist`: one line
/// per unused public item that is not allowlisted, and one per
/// allowlist entry that names no unused public item.
fn surface_problems(sources: &[Source], allowlist: &[(&str, &str, &str)]) -> Vec<String> {
    // (crate, name) -> (kind, first declaration, what its declarations
    // expose to a caller).
    type Declared<'a> = BTreeMap<(&'a str, &'a str), (&'a str, String, BTreeSet<&'a str>)>;
    let mut declared: Declared = BTreeMap::new();
    let mut impls: Vec<(&str, &str, BTreeSet<&str>)> = Vec::new();
    let stripped: Vec<String> = sources.iter().map(|s| strip_comments(&s.text)).collect();
    for (source, text) in sources.iter().zip(&stripped) {
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
    // Used: named outside; then, to a fixed point, any non-function item
    // named in what a used item's declarations (or trait impls) expose.
    let mut used: BTreeSet<(&str, &str)> =
        declared.keys().filter(|&&(k, n)| used_outside[k].contains(n)).copied().collect();
    loop {
        let mut reached: BTreeSet<(&str, &str)> = BTreeSet::new();
        for &(k, n) in &used {
            reached.extend(declared[&(k, n)].2.iter().map(|&w| (k, w)));
        }
        for (k, target, exposed) in &impls {
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
            break;
        }
    }

    let allowed: BTreeMap<(&str, &str), &str> =
        allowlist.iter().map(|&(k, n, why)| ((k, n), why)).collect();
    let mut problems = Vec::new();
    let mut flagged = BTreeSet::new();
    for (&(krate, name), (kind, at, _)) in &declared {
        if used.contains(&(krate, name)) {
            continue;
        }
        flagged.insert((krate, name));
        if !allowed.contains_key(&(krate, name)) {
            problems.push(format!(
                "{at}: `pub {kind} {name}` has no user outside crates/{krate}/src — \
                 narrow it to pub(crate), delete it, or allowlist it with a reason"
            ));
        }
    }
    for (&(krate, name), why) in &allowed {
        if why.trim().is_empty() {
            problems.push(format!("allowlist entry {krate}::{name} needs a reason"));
        }
        if !flagged.contains(&(krate, name)) {
            problems.push(format!(
                "allowlist entry {krate}::{name} is stale: it is no longer an unused \
                 public item in crates/{krate}/src — remove it"
            ));
        }
    }
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
            text: fs::read_to_string(path).unwrap(),
        })
        .collect();
    let problems = surface_problems(&sources, ALLOWLIST);
    assert!(problems.is_empty(), "public surface:\n{}", problems.join("\n"));
}

/// A library file of crate `a` and one file of crate `b`.
fn planted(lib: &str, other: &str) -> Vec<Source> {
    let source = |path: &str, owner: &str, text: &str| Source {
        path: path.to_owned(),
        owner: Some(owner.to_owned()),
        text: text.to_owned(),
    };
    vec![source("crates/a/src/lib.rs", "a", lib), source("crates/b/src/lib.rs", "b", other)]
}

/// The names the rule flags in `sources` with an empty allowlist.
fn flagged(sources: &[Source]) -> Vec<String> {
    let names = surface_problems(sources, &[]).into_iter().map(|p| {
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
    assert!(surface_problems(&sources, &[("a", "Kept", "a reason")]).is_empty());
    let stale = surface_problems(&sources, &[("a", "Kept", "a reason"), ("a", "Used", "why")]);
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert!(stale[0].contains("allowlist entry a::Used is stale"), "{stale:?}");
    let unreasoned = surface_problems(&sources, &[("a", "Kept", " ")]);
    assert_eq!(unreasoned.len(), 1, "{unreasoned:?}");
}
