//! Determinism + parallel-safety source lint (v2, lexer-based).
//!
//! The golden traces from PR 1 are only meaningful if a simulation is a
//! pure function of `(spec, seed)`, and the planned parallel engine
//! (ROADMAP) additionally requires that no source construct smuggles
//! scheduler- or thread-order dependence into sim state. This pass scans
//! `crates/*/src` for such constructs and reports each occurrence unless
//! an allowlist entry vouches for it.
//!
//! Unlike the v1 token-grep, the scan runs a real (lightweight) Rust
//! lexer: line comments, nested block comments, string literals, raw and
//! byte strings, and char literals are tokenized and *skipped*, so a
//! `HashMap` mentioned in a doc comment or error message is never a
//! finding. `#[cfg(test)]` items are skipped with balanced-brace
//! tracking (only the annotated item, not the rest of the file) — test
//! code may use wall clocks, hash containers, and threads freely.
//!
//! Hazard classes:
//!
//! - **hash-order**: `HashMap`/`HashSet`/`RandomState`/`DefaultHasher` —
//!   iteration order depends on hasher state.
//! - **wall-clock**: `SystemTime`/`Instant` — real time leaking into
//!   simulated state.
//! - **unseeded-rng**: `thread_rng`.
//! - **interior-mutability**: `RefCell`/`Cell`/`UnsafeCell`/`static mut`
//!   — writes the borrow checker cannot see; sim state must be
//!   single-owner so shard hand-off is explicit.
//! - **threading**: `thread::spawn` / `thread::scope` / `mpsc` —
//!   threads and channels have scheduler-dependent orderings; only the
//!   certified epoch driver may own thread spawn/join order, and it must
//!   say so in the allowlist.
//! - **float-accum**: `+=` of a float quantity inside a `for` loop over
//!   `.keys()`/`.values()` — rounding accumulates in iteration order,
//!   and a sharded engine merges partial sums in a different order.
//!
//! Allowlist format, one entry per line:
//!
//! ```text
//! # comment
//! crates/testkit/src/bench.rs Instant   # benchmarking needs a wall clock
//! ```
//!
//! An entry is `path-suffix token` where `token` is one of the hazard
//! tokens or `*` for all. The path may be *module-granular*: a suffix of
//! the form `file.rs::mod::path` excuses the token only inside that
//! `mod` (and its nested modules) of that file —
//!
//! ```text
//! crates/simcore/src/epoch.rs::pool thread::scope  # the certified epoch driver
//! ```
//!
//! so an exemption granted to one certified module cannot silently leak
//! to the rest of the file. Entries that match nothing are reported so
//! the allowlist cannot rot; duplicate entries and entries shadowed by a
//! same-path `*` wildcard are hard parse errors.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Identifier tokens whose presence in sim-visible source indicates a
/// hazard. Matched on lexed identifiers, never inside comments/strings.
const HAZARD_IDENTS: &[(&str, &str)] = &[
    (
        "HashMap",
        "iteration order depends on hasher state; use BTreeMap",
    ),
    (
        "HashSet",
        "iteration order depends on hasher state; use BTreeSet",
    ),
    (
        "SystemTime",
        "wall clock; derive time from the simulator clock",
    ),
    (
        "Instant",
        "wall clock; derive time from the simulator clock",
    ),
    ("thread_rng", "unseeded randomness; use the seeded sim RNG"),
    ("RandomState", "randomized hasher state"),
    ("DefaultHasher", "randomized hasher state"),
    (
        "RefCell",
        "interior mutability; sim state must be single-owner for shard hand-off",
    ),
    (
        "Cell",
        "interior mutability; sim state must be single-owner for shard hand-off",
    ),
    (
        "UnsafeCell",
        "interior mutability; sim state must be single-owner for shard hand-off",
    ),
    (
        "mpsc",
        "channel recv order across threads is scheduler-dependent",
    ),
];

/// Why for the `static mut` two-token hazard.
const WHY_STATIC_MUT: &str = "mutable global state; racy and replay-hostile";
/// Why for the `thread::spawn` sequence hazard.
const WHY_THREAD_SPAWN: &str =
    "unmanaged thread; the parallel engine must own all spawn/join order";
/// Why for the `thread::scope` sequence hazard.
const WHY_THREAD_SCOPE: &str = "scoped threads interleave nondeterministically; only the \
     certified epoch driver may use them (allowlist its module)";
/// Why for float accumulation in keyed-iteration loops.
const WHY_FLOAT_ACCUM: &str = "float `+=` over keyed iteration accumulates rounding in \
     iteration order; a sharded engine merges in a different order";

/// One hazard occurrence the lint could not excuse.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SourceFinding {
    /// Path of the file, relative to the scan root, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The hazard token found (e.g. `HashMap`, `static mut`, `float-accum`).
    pub token: String,
    /// Why the token is a hazard.
    pub why: String,
}

impl fmt::Display for SourceFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: determinism hazard `{}` ({})",
            self.path, self.line, self.token, self.why
        )
    }
}

/// Error from [`Allowlist::parse`] / [`Allowlist::load`]. The allowlist
/// is itself policed: duplicate entries and entries made dead by a
/// same-path `*` wildcard are configuration rot and fail hard.
#[derive(Debug)]
pub enum AllowlistError {
    /// Underlying file read failed.
    Io(io::Error),
    /// The same `path token` pair appears twice (lines are 1-based).
    Duplicate {
        /// 1-based line of the second occurrence.
        line: usize,
        /// The repeated `path token` entry.
        entry: String,
    },
    /// A specific-token entry is shadowed by a `*` wildcard on the same
    /// path suffix, so it can never be the excusing entry.
    Shadowed {
        /// 1-based line of the shadowed (specific) entry.
        line: usize,
        /// The specific `path token` entry that can never match first.
        entry: String,
        /// The `path *` wildcard that swallows it.
        wildcard: String,
    },
}

impl fmt::Display for AllowlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllowlistError::Io(e) => write!(f, "allowlist read failed: {e}"),
            AllowlistError::Duplicate { line, entry } => {
                write!(f, "allowlist line {line}: duplicate entry `{entry}`")
            }
            AllowlistError::Shadowed {
                line,
                entry,
                wildcard,
            } => write!(
                f,
                "allowlist line {line}: entry `{entry}` is shadowed by wildcard `{wildcard}`"
            ),
        }
    }
}

impl std::error::Error for AllowlistError {}

/// Parsed allowlist; tracks which entries actually matched so stale
/// entries can be reported.
#[derive(Debug, Clone)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

#[derive(Debug, Clone)]
struct AllowEntry {
    /// File-path suffix (the part before any `::`-module qualifier).
    path_suffix: String,
    /// `Some("a::b")` restricts the entry to module `a::b` (and its
    /// nested modules) of the file; `None` covers the whole file.
    mod_path: Option<String>,
    token: String, // "*" allows every token
    used: bool,
}

impl AllowEntry {
    /// The entry as written: `file.rs[::mod::path]`.
    fn display_path(&self) -> String {
        match &self.mod_path {
            Some(m) => format!("{}::{m}", self.path_suffix),
            None => self.path_suffix.clone(),
        }
    }

    /// Whether this entry covers a finding of `token` in module
    /// `mod_path` of file `path`. Module entries match the named module
    /// and everything nested inside it.
    fn covers(&self, path: &str, mod_path: &str, token: &str) -> bool {
        if !path.ends_with(&self.path_suffix) || (self.token != "*" && self.token != token) {
            return false;
        }
        match &self.mod_path {
            None => true,
            Some(m) => {
                mod_path == m
                    || mod_path
                        .strip_prefix(m.as_str())
                        .is_some_and(|r| r.starts_with("::"))
            }
        }
    }
}

impl Allowlist {
    /// An allowlist that excuses nothing.
    pub fn empty() -> Self {
        Allowlist {
            entries: Vec::new(),
        }
    }

    /// Parses the `path-suffix token # comment` format. Unknown tokens
    /// are accepted (they simply never match and surface as unused), but
    /// duplicate entries and specific entries shadowed by a same-path
    /// `*` wildcard are hard errors.
    pub fn parse(text: &str) -> Result<Self, AllowlistError> {
        let mut entries: Vec<(usize, AllowEntry)> = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(path_field), Some(token)) = (parts.next(), parts.next()) else {
                continue;
            };
            // `file.rs::mod::path` → module-granular entry. Split on the
            // first `.rs::` so module names containing `.rs` cannot
            // confuse the parse.
            let (path_suffix, mod_path) = match path_field.split_once(".rs::") {
                Some((file, m)) if !m.is_empty() => (format!("{file}.rs"), Some(m.to_string())),
                _ => (path_field.to_string(), None),
            };
            if entries.iter().any(|(_, e)| {
                e.path_suffix == path_suffix && e.mod_path == mod_path && e.token == token
            }) {
                return Err(AllowlistError::Duplicate {
                    line: idx + 1,
                    entry: format!("{path_field} {token}"),
                });
            }
            entries.push((
                idx + 1,
                AllowEntry {
                    path_suffix,
                    mod_path,
                    token: token.to_string(),
                    used: false,
                },
            ));
        }
        // A `path *` wildcard makes every specific entry it covers dead
        // weight, regardless of which line came first: a whole-file
        // wildcard swallows that file's module-granular entries too.
        for (line, e) in &entries {
            if e.token == "*" {
                continue;
            }
            let covered_mod = |w: &AllowEntry| match (&w.mod_path, &e.mod_path) {
                (None, _) => true,
                (Some(wm), Some(em)) => {
                    em == wm
                        || em
                            .strip_prefix(wm.as_str())
                            .is_some_and(|r| r.starts_with("::"))
                }
                (Some(_), None) => false,
            };
            if let Some((_, w)) = entries
                .iter()
                .find(|(_, w)| w.token == "*" && w.path_suffix == e.path_suffix && covered_mod(w))
            {
                return Err(AllowlistError::Shadowed {
                    line: *line,
                    entry: format!("{} {}", e.display_path(), e.token),
                    wildcard: format!("{} *", w.display_path()),
                });
            }
        }
        Ok(Allowlist {
            entries: entries.into_iter().map(|(_, e)| e).collect(),
        })
    }

    /// Loads an allowlist file; a missing file is an empty allowlist.
    pub fn load(path: &Path) -> Result<Self, AllowlistError> {
        match fs::read_to_string(path) {
            Ok(text) => Self::parse(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Self::empty()),
            Err(e) => Err(AllowlistError::Io(e)),
        }
    }

    fn allows(&mut self, path: &str, mod_path: &str, token: &str) -> bool {
        let mut hit = false;
        for e in &mut self.entries {
            if e.covers(path, mod_path, token) {
                e.used = true;
                hit = true;
            }
        }
        hit
    }

    /// Entries that never matched a finding — stale excuses to delete.
    /// A module-granular entry goes stale both when the hazard
    /// disappears and when the code moves to a different module, so
    /// exemptions track the code they were granted for.
    pub fn unused(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| !e.used)
            .map(|e| format!("{} {}", e.display_path(), e.token))
            .collect()
    }
}

/// Lints every `.rs` file under each of `dirs` (paths relative to
/// `root`, scanned recursively), excusing findings via `allow`. Paths in
/// findings are relative to `root`. Directories named `tests`,
/// `benches`, or `examples` are skipped, as is every
/// `#[cfg(test)]`-annotated item.
pub fn lint_sources(
    root: &Path,
    dirs: &[&str],
    allow: &mut Allowlist,
) -> io::Result<Vec<SourceFinding>> {
    let mut findings = Vec::new();
    for dir in dirs {
        walk(root, &root.join(dir), allow, &mut findings)?;
    }
    findings.sort();
    Ok(findings)
}

fn walk(
    root: &Path,
    dir: &Path,
    allow: &mut Allowlist,
    out: &mut Vec<SourceFinding>,
) -> io::Result<()> {
    let mut names: Vec<_> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.file_name()))
        .collect::<io::Result<_>>()?;
    names.sort(); // deterministic scan order regardless of readdir order
    for name in names {
        let path = dir.join(&name);
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.')
                || matches!(name.as_ref(), "tests" | "benches" | "examples" | "target")
            {
                continue;
            }
            walk(root, &path, allow, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let text = fs::read_to_string(&path)?;
            scan_text(&rel, &text, allow, out);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// One lexed token. Comments, whitespace, string/char literal *contents*
/// and lifetimes produce no tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok<'a> {
    /// Identifier or keyword.
    Ident(&'a str, usize),
    /// Single punctuation character.
    Punct(char, usize),
    /// Compound `+=` operator.
    PlusEq(usize),
    /// Numeric literal; `float` when it lexes as f32/f64.
    Num { float: bool, line: usize },
    /// A string/char/byte literal (contents dropped).
    Lit(usize),
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes `text` into a token stream, skipping everything that cannot
/// carry a hazard: whitespace, comments (line + nested block), string
/// and char literal contents (plain, raw, byte), and lifetimes.
fn lex(text: &str) -> Vec<Tok<'_>> {
    let b = text.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let start_line = line;
                i = skip_string(b, i + 1, &mut line);
                toks.push(Tok::Lit(start_line));
            }
            b'\'' => {
                let start_line = line;
                i += 1;
                if i < b.len() && b[i] == b'\\' {
                    // Escaped char literal: skip escape + closing quote.
                    i += 2;
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                    toks.push(Tok::Lit(start_line));
                } else if i < b.len() && is_ident_start(b[i]) {
                    let mut j = i + 1;
                    while j < b.len() && is_ident_continue(b[j]) {
                        j += 1;
                    }
                    if b.get(j) == Some(&b'\'') {
                        i = j + 1; // char literal like 'a'
                        toks.push(Tok::Lit(start_line));
                    } else {
                        i = j; // lifetime like 'a — no token
                    }
                } else {
                    // Non-ident char literal like '%' or '\n' raw byte.
                    while i < b.len() && b[i] != b'\'' {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i += 1;
                    toks.push(Tok::Lit(start_line));
                }
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                let mut float = false;
                if c == b'0' && matches!(b.get(i + 1), Some(b'x' | b'o' | b'b')) {
                    i += 2;
                    while i < b.len() && (is_ident_continue(b[i])) {
                        i += 1;
                    }
                } else {
                    while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                        i += 1;
                    }
                    if b.get(i) == Some(&b'.') && b.get(i + 1).is_some_and(|d| d.is_ascii_digit()) {
                        float = true;
                        i += 1;
                        while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                            i += 1;
                        }
                    }
                    if matches!(b.get(i), Some(b'e' | b'E'))
                        && b.get(i + 1)
                            .is_some_and(|d| d.is_ascii_digit() || *d == b'+' || *d == b'-')
                    {
                        float = true;
                        i += 2;
                        while i < b.len() && b[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                    // Type suffix (1f64, 3u32, …).
                    let sfx = i;
                    while i < b.len() && is_ident_continue(b[i]) {
                        i += 1;
                    }
                    if text[sfx..i].starts_with('f') {
                        float = true;
                    }
                }
                let _ = start;
                toks.push(Tok::Num { float, line });
            }
            _ if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                let ident = &text[start..i];
                // Raw strings / byte strings / raw identifiers.
                match ident {
                    "r" | "br" | "b" if matches!(b.get(i), Some(b'"' | b'#')) => {
                        if ident == "b" && b.get(i) == Some(&b'"') {
                            let start_line = line;
                            i = skip_string(b, i + 1, &mut line);
                            toks.push(Tok::Lit(start_line));
                        } else {
                            // Count hashes, then a quote starts a raw string.
                            let mut hashes = 0;
                            let mut j = i;
                            while b.get(j) == Some(&b'#') {
                                hashes += 1;
                                j += 1;
                            }
                            if b.get(j) == Some(&b'"') {
                                let start_line = line;
                                i = skip_raw_string(b, j + 1, hashes, &mut line);
                                toks.push(Tok::Lit(start_line));
                            } else if ident == "r"
                                && hashes == 1
                                && b.get(j).is_some_and(|d| is_ident_start(*d))
                            {
                                // Raw identifier r#foo.
                                let rs = j;
                                let mut k = j + 1;
                                while k < b.len() && is_ident_continue(b[k]) {
                                    k += 1;
                                }
                                toks.push(Tok::Ident(&text[rs..k], line));
                                i = k;
                            } else {
                                toks.push(Tok::Ident(ident, line));
                            }
                        }
                    }
                    _ => toks.push(Tok::Ident(ident, line)),
                }
            }
            b'+' if b.get(i + 1) == Some(&b'=') => {
                toks.push(Tok::PlusEq(line));
                i += 2;
            }
            _ => {
                if c.is_ascii() {
                    toks.push(Tok::Punct(c as char, line));
                }
                i += 1;
            }
        }
    }
    toks
}

/// Skips a plain (escape-aware) string body starting just after the
/// opening quote; returns the index just past the closing quote.
fn skip_string(b: &[u8], mut i: usize, line: &mut usize) -> usize {
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw string body (`hashes` trailing `#`s close it); returns
/// the index just past the closing delimiter.
fn skip_raw_string(b: &[u8], mut i: usize, hashes: usize, line: &mut usize) -> usize {
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if b[i] == b'"' {
            let mut ok = true;
            for k in 0..hashes {
                if b.get(i + 1 + k) != Some(&b'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

/// Removes every `#[cfg(test)]`-annotated item from the token stream:
/// the attribute, any further attributes, and the item through its
/// balanced `{…}` body (or trailing `;`, whichever comes first).
fn strip_cfg_test<'a>(toks: &[Tok<'a>]) -> Vec<Tok<'a>> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test_at(toks, i) {
            i += 7; // consume `# [ cfg ( test ) ]`
                    // Skip any further attributes on the same item.
            while matches!(toks.get(i), Some(Tok::Punct('#', _)))
                && matches!(toks.get(i + 1), Some(Tok::Punct('[', _)))
            {
                let mut depth = 0;
                i += 1;
                loop {
                    match toks.get(i) {
                        Some(Tok::Punct('[', _)) => depth += 1,
                        Some(Tok::Punct(']', _)) => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        None => break,
                        _ => {}
                    }
                    i += 1;
                }
            }
            // Skip the item: to a `;` before any brace, or through the
            // balanced `{…}` body.
            let mut depth = 0usize;
            while i < toks.len() {
                match toks[i] {
                    Tok::Punct(';', _) if depth == 0 => {
                        i += 1;
                        break;
                    }
                    Tok::Punct('{', _) => depth += 1,
                    Tok::Punct('}', _) => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        } else {
            out.push(toks[i].clone());
            i += 1;
        }
    }
    out
}

fn is_cfg_test_at(toks: &[Tok<'_>], i: usize) -> bool {
    matches!(toks.get(i), Some(Tok::Punct('#', _)))
        && matches!(toks.get(i + 1), Some(Tok::Punct('[', _)))
        && matches!(toks.get(i + 2), Some(Tok::Ident("cfg", _)))
        && matches!(toks.get(i + 3), Some(Tok::Punct('(', _)))
        && matches!(toks.get(i + 4), Some(Tok::Ident("test", _)))
        && matches!(toks.get(i + 5), Some(Tok::Punct(')', _)))
        && matches!(toks.get(i + 6), Some(Tok::Punct(']', _)))
}

/// For each token, the `::`-joined path of inline `mod` items enclosing
/// it (`""` at file root). Tracks `mod name { … }` via balanced braces;
/// `mod name;` declarations contribute nothing. Returns the interned
/// path table plus a per-token index into it.
fn module_paths(toks: &[Tok<'_>]) -> (Vec<String>, Vec<usize>) {
    let mut paths: Vec<String> = vec![String::new()];
    let mut per_tok = Vec::with_capacity(toks.len());
    // (index into `paths`, brace depth the module body opened at).
    let mut stack: Vec<(usize, usize)> = Vec::new();
    let mut cur = 0usize;
    let mut depth = 0usize;
    let mut pending_mod: Option<&str> = None;
    for (i, t) in toks.iter().enumerate() {
        per_tok.push(cur);
        match t {
            Tok::Ident("mod", _) => {
                if let Some(Tok::Ident(name, _)) = toks.get(i + 1) {
                    pending_mod = Some(name);
                }
            }
            Tok::Punct('{', _) => {
                depth += 1;
                if let Some(name) = pending_mod.take() {
                    let p = if paths[cur].is_empty() {
                        name.to_string()
                    } else {
                        format!("{}::{name}", paths[cur])
                    };
                    cur = match paths.iter().position(|x| *x == p) {
                        Some(i) => i,
                        None => {
                            paths.push(p);
                            paths.len() - 1
                        }
                    };
                    stack.push((cur, depth));
                }
            }
            Tok::Punct(';', _) => pending_mod = None,
            Tok::Punct('}', _) => {
                if stack.last().is_some_and(|&(_, d)| d == depth) {
                    stack.pop();
                    cur = stack.last().map_or(0, |&(p, _)| p);
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
    }
    (paths, per_tok)
}

/// Scans one file's text. Crate-visible so unit tests can lint synthetic
/// sources without touching the filesystem.
fn scan_text(rel_path: &str, text: &str, allow: &mut Allowlist, out: &mut Vec<SourceFinding>) {
    let toks = lex(text);
    let toks = strip_cfg_test(&toks);
    let (mod_paths, mods) = module_paths(&toks);
    let mut push = |i: usize, line: usize, token: &str, why: &str, allow: &mut Allowlist| {
        if !allow.allows(rel_path, &mod_paths[mods[i]], token) {
            out.push(SourceFinding {
                path: rel_path.to_string(),
                line,
                token: token.to_string(),
                why: why.to_string(),
            });
        }
    };
    for (i, t) in toks.iter().enumerate() {
        if let Tok::Ident(name, line) = *t {
            // `static mut` two-token hazard.
            if name == "static" && matches!(toks.get(i + 1), Some(Tok::Ident("mut", _))) {
                push(i, line, "static mut", WHY_STATIC_MUT, allow);
                continue;
            }
            // `thread::spawn` / `thread::scope` call paths.
            if name == "thread"
                && matches!(toks.get(i + 1), Some(Tok::Punct(':', _)))
                && matches!(toks.get(i + 2), Some(Tok::Punct(':', _)))
            {
                match toks.get(i + 3) {
                    Some(Tok::Ident("spawn", _)) => {
                        push(i, line, "thread::spawn", WHY_THREAD_SPAWN, allow);
                        continue;
                    }
                    Some(Tok::Ident("scope", _)) => {
                        push(i, line, "thread::scope", WHY_THREAD_SCOPE, allow);
                        continue;
                    }
                    _ => {}
                }
            }
            for &(token, why) in HAZARD_IDENTS {
                if name == token {
                    push(i, line, token, why, allow);
                }
            }
        }
    }
    scan_float_accum(&toks, &mod_paths, &mods, rel_path, allow, out);
}

/// Flags `+=` of a float quantity inside a `for` loop whose iterator
/// expression contains `.keys()` or `.values()`. The float quantity is
/// recognized lexically: the `+=` statement contains a float literal or
/// an `f32`/`f64` token.
fn scan_float_accum(
    toks: &[Tok<'_>],
    mod_paths: &[String],
    mods: &[usize],
    rel_path: &str,
    allow: &mut Allowlist,
    out: &mut Vec<SourceFinding>,
) {
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident("for", _) = t else { continue };
        // Loop header runs to the first `{` outside parens/brackets.
        let mut j = i + 1;
        let mut nest = 0i32;
        let mut keyed = false;
        while j < toks.len() {
            match &toks[j] {
                Tok::Punct('(' | '[', _) => nest += 1,
                Tok::Punct(')' | ']', _) => nest -= 1,
                Tok::Punct('{', _) if nest == 0 => break,
                Tok::Punct('.', _) => {
                    if let Some(Tok::Ident(m, _)) = toks.get(j + 1) {
                        if (*m == "keys" || *m == "values")
                            && matches!(toks.get(j + 2), Some(Tok::Punct('(', _)))
                        {
                            keyed = true;
                        }
                    }
                }
                Tok::Punct(';', _) if nest == 0 => break, // not a loop header
                _ => {}
            }
            j += 1;
        }
        if !keyed || j >= toks.len() {
            continue;
        }
        // Body: balanced braces from `j`.
        let body_start = j;
        let mut depth = 0i32;
        let mut end = j;
        while end < toks.len() {
            match &toks[end] {
                Tok::Punct('{', _) => depth += 1,
                Tok::Punct('}', _) => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        // Each `+=` in the body: examine its statement for a float token.
        for k in body_start..end {
            let Tok::PlusEq(line) = toks[k] else { continue };
            let stmt_start = (body_start..k)
                .rev()
                .find(|&s| matches!(toks[s], Tok::Punct(';' | '{' | '}', _)))
                .map_or(body_start, |s| s + 1);
            let stmt_end = (k..end)
                .find(|&s| matches!(toks[s], Tok::Punct(';', _)))
                .unwrap_or(end);
            let floaty = toks[stmt_start..stmt_end].iter().any(|t| {
                matches!(t, Tok::Num { float: true, .. })
                    || matches!(t, Tok::Ident("f32" | "f64", _))
            });
            if floaty && !allow.allows(rel_path, &mod_paths[mods[k]], "float-accum") {
                out.push(SourceFinding {
                    path: rel_path.to_string(),
                    line,
                    token: "float-accum".to_string(),
                    why: WHY_FLOAT_ACCUM.to_string(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, text: &str, allow: &mut Allowlist) -> Vec<SourceFinding> {
        let mut out = Vec::new();
        scan_text(path, text, allow, &mut out);
        out.sort();
        out
    }

    fn tokens(src: &str) -> Vec<String> {
        scan("crates/x/src/lib.rs", src, &mut Allowlist::empty())
            .into_iter()
            .map(|f| f.token)
            .collect()
    }

    #[test]
    fn flags_hazards_with_line_numbers() {
        let src = "use std::collections::HashMap;\nlet t = Instant::now();\n";
        let f = scan("crates/x/src/lib.rs", src, &mut Allowlist::empty());
        assert_eq!(f.len(), 2);
        assert_eq!((f[0].line, f[0].token.as_str()), (1, "HashMap"));
        assert_eq!((f[1].line, f[1].token.as_str()), (2, "Instant"));
        assert!(f[0].to_string().contains("crates/x/src/lib.rs:1"));
    }

    #[test]
    fn matches_identifier_boundaries_only() {
        assert!(tokens("let m: HashMap<u32, u32> = x;").contains(&"HashMap".to_string()));
        assert!(tokens("let m = MyHashMapLike::new();").is_empty());
        assert!(tokens("let instant_rate = 3;").is_empty());
        assert!(tokens("foo(Instant::now())") == vec!["Instant"]);
    }

    #[test]
    fn skips_line_and_block_comments() {
        let src = "\
// HashMap in a line comment is fine\n\
/// Doc: uses SystemTime conceptually\n\
/* block Instant comment /* nested thread_rng */ still RefCell comment */\n\
fn ok() {}\n";
        assert!(tokens(src).is_empty());
    }

    #[test]
    fn skips_string_and_char_literals() {
        let src = r#"
fn ok() {
    let a = "HashMap inside a string";
    let b = "escaped \" quote then Instant";
    let c = 'I';
    let d = b"byte SystemTime string";
    println!("uses {} DefaultHasher", a);
}
"#;
        assert!(tokens(src).is_empty(), "{:?}", tokens(src));
    }

    #[test]
    fn skips_raw_string_literals() {
        let src = "\
fn ok() {\n\
    let a = r\"raw HashMap\";\n\
    let b = r#\"hash # RefCell \"quoted\" thread_rng\"#;\n\
    let c = br##\"byte raw Cell\"##;\n\
    let lt: &'static str = a;\n\
}\n";
        assert!(tokens(src).is_empty(), "{:?}", tokens(src));
    }

    #[test]
    fn hazard_after_string_on_same_line_is_still_found() {
        let src = "let x = (\"label\", Instant::now());\n";
        assert_eq!(tokens(src), vec!["Instant"]);
    }

    #[test]
    fn cfg_test_skips_only_the_annotated_item() {
        let src = "\
#[cfg(test)]\n\
mod tests {\n\
    use std::collections::HashSet;\n\
    fn t() { let _ = Instant::now(); }\n\
}\n\
fn after_tests() { let m: HashMap<u8, u8> = make(); }\n";
        // v1 skipped the rest of the file; v2 resumes after the item.
        assert_eq!(tokens(src), vec!["HashMap"]);
    }

    #[test]
    fn cfg_test_with_extra_attributes_and_semicolon_items() {
        let src = "\
#[cfg(test)]\n\
#[allow(dead_code)]\n\
fn helper() { thread_rng(); }\n\
#[cfg(test)]\n\
mod tests;\n\
fn live() { let c = RefCell::new(0); }\n";
        assert_eq!(tokens(src), vec!["RefCell"]);
    }

    #[test]
    fn flags_interior_mutability_and_threading() {
        assert_eq!(tokens("let c = RefCell::new(0);"), vec!["RefCell"]);
        assert_eq!(tokens("let c = Cell::new(0);"), vec!["Cell"]);
        assert_eq!(tokens("struct S(UnsafeCell<u32>);"), vec!["UnsafeCell"]);
        assert_eq!(tokens("static mut COUNTER: u32 = 0;"), vec!["static mut"]);
        assert_eq!(
            tokens("let h = thread::spawn(move || {});"),
            vec!["thread::spawn"]
        );
        assert_eq!(tokens("use std::sync::mpsc;"), vec!["mpsc"]);
        // `static` without `mut` is fine; `spawn` without `thread::` too.
        assert!(tokens("static OK: u32 = 0;").is_empty());
        assert!(tokens("pool.spawn(job);").is_empty());
    }

    #[test]
    fn flags_float_accumulation_in_keyed_loops() {
        let bad = "\
fn sum(m: &BTreeMap<u32, f64>) -> f64 {\n\
    let mut total = 0.0;\n\
    for v in m.values() {\n\
        total += v * 2.0;\n\
    }\n\
    total\n\
}\n";
        let f = scan("crates/x/src/lib.rs", bad, &mut Allowlist::empty());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].token.as_str(), f[0].line), ("float-accum", 4));

        // Integer accumulation over values() is fine.
        let ok_int = "\
fn sum(m: &BTreeMap<u32, u64>) -> u64 {\n\
    let mut total = 0;\n\
    for v in m.values() {\n\
        total += v + 1;\n\
    }\n\
    total\n\
}\n";
        assert!(tokens(ok_int).is_empty());

        // Float accumulation over a Vec (positional order) is fine.
        let ok_vec = "\
fn sum(v: &[f64]) -> f64 {\n\
    let mut total = 0.0;\n\
    for x in v.iter() {\n\
        total += x * 2.0;\n\
    }\n\
    total\n\
}\n";
        assert!(tokens(ok_vec).is_empty());
    }

    #[test]
    fn allowlist_excuses_and_tracks_usage() {
        let mut allow = Allowlist::parse(
            "# reasons inline\n\
             crates/x/src/lib.rs Instant  # wall-clock progress\n\
             crates/y/src/lib.rs *\n\
             crates/z/src/lib.rs HashMap\n",
        )
        .unwrap();
        let f = scan(
            "crates/x/src/lib.rs",
            "let t = Instant::now();\nuse std::collections::HashMap;\n",
            &mut allow,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].token, "HashMap");
        let f = scan("crates/y/src/lib.rs", "let s: HashSet<u8> = x;", &mut allow);
        assert!(f.is_empty());
        assert_eq!(allow.unused(), vec!["crates/z/src/lib.rs HashMap"]);
    }

    #[test]
    fn allowlist_rejects_duplicates_and_shadowed_entries() {
        let err = Allowlist::parse(
            "crates/x/src/lib.rs Instant\n\
             crates/x/src/lib.rs Instant\n",
        )
        .unwrap_err();
        assert!(
            matches!(err, AllowlistError::Duplicate { line: 2, .. }),
            "{err}"
        );

        let err = Allowlist::parse(
            "crates/x/src/lib.rs *\n\
             crates/x/src/lib.rs HashMap\n",
        )
        .unwrap_err();
        assert!(
            matches!(err, AllowlistError::Shadowed { line: 2, .. }),
            "{err}"
        );
        // Shadowing is order-independent.
        let err = Allowlist::parse(
            "crates/x/src/lib.rs HashMap\n\
             crates/x/src/lib.rs *\n",
        )
        .unwrap_err();
        assert!(matches!(err, AllowlistError::Shadowed { line: 1, .. }));

        // Distinct paths do not shadow each other.
        assert!(Allowlist::parse(
            "crates/x/src/lib.rs *\n\
             crates/y/src/lib.rs HashMap\n",
        )
        .is_ok());
    }

    #[test]
    fn findings_sort_stably() {
        let mut v = vec![
            SourceFinding {
                path: "b.rs".into(),
                line: 3,
                token: "Instant".into(),
                why: String::new(),
            },
            SourceFinding {
                path: "a.rs".into(),
                line: 9,
                token: "HashMap".into(),
                why: String::new(),
            },
        ];
        v.sort();
        assert_eq!(v[0].path, "a.rs");
    }

    #[test]
    fn flags_thread_scope() {
        assert_eq!(
            tokens("std::thread::scope(|s| { s.spawn(|| {}); });"),
            vec!["thread::scope"]
        );
        // `scope` alone (e.g. a rayon scope variable) is not the hazard.
        assert!(tokens("let scope = tracker.scope();").is_empty());
    }

    #[test]
    fn module_entry_excuses_only_its_module() {
        let src = "\
fn outer() { thread::scope(|s| {}); }\n\
mod pool {\n\
    fn run() { thread::scope(|s| {}); }\n\
    mod inner {\n\
        fn deep() { thread::scope(|s| {}); }\n\
    }\n\
}\n\
mod other {\n\
    fn run() { thread::scope(|s| {}); }\n\
}\n";
        let mut allow =
            Allowlist::parse("crates/x/src/lib.rs::pool thread::scope  # certified driver\n")
                .unwrap();
        let f = scan("crates/x/src/lib.rs", src, &mut allow);
        // The file-root use and `mod other` are flagged; `mod pool` and
        // its nested `mod inner` are excused.
        assert_eq!(f.len(), 2, "{f:?}");
        assert_eq!((f[0].line, f[0].token.as_str()), (1, "thread::scope"));
        assert_eq!((f[1].line, f[1].token.as_str()), (9, "thread::scope"));
        assert!(allow.unused().is_empty());
    }

    #[test]
    fn module_entry_does_not_match_prefix_named_sibling() {
        // `mod pooling` must not be covered by an entry for `pool`.
        let src = "mod pooling { fn run() { thread::scope(|s| {}); } }\n";
        let mut allow = Allowlist::parse("crates/x/src/lib.rs::pool thread::scope\n").unwrap();
        let f = scan("crates/x/src/lib.rs", src, &mut allow);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(
            allow.unused(),
            vec!["crates/x/src/lib.rs::pool thread::scope"]
        );
    }

    #[test]
    fn stale_module_entry_surfaces_as_unused() {
        // The hazard moved out of the named module: the entry no longer
        // covers anything and must be reported so it gets deleted.
        let src = "mod elsewhere { fn run() { thread::scope(|s| {}); } }\n";
        let mut allow = Allowlist::parse("crates/x/src/lib.rs::pool thread::scope\n").unwrap();
        let f = scan("crates/x/src/lib.rs", src, &mut allow);
        assert_eq!(f.len(), 1);
        assert_eq!(
            allow.unused(),
            vec!["crates/x/src/lib.rs::pool thread::scope"]
        );
    }

    #[test]
    fn module_entries_duplicate_and_shadow_rules() {
        // Same file+module+token twice is a duplicate.
        let err = Allowlist::parse(
            "crates/x/src/lib.rs::pool thread::scope\n\
             crates/x/src/lib.rs::pool thread::scope\n",
        )
        .unwrap_err();
        assert!(matches!(err, AllowlistError::Duplicate { line: 2, .. }));

        // A whole-file wildcard shadows a module-scoped entry.
        let err = Allowlist::parse(
            "crates/x/src/lib.rs *\n\
             crates/x/src/lib.rs::pool thread::scope\n",
        )
        .unwrap_err();
        assert!(
            matches!(err, AllowlistError::Shadowed { line: 2, .. }),
            "{err}"
        );

        // A parent-module wildcard shadows a child-module entry.
        let err = Allowlist::parse(
            "crates/x/src/lib.rs::pool *\n\
             crates/x/src/lib.rs::pool::inner thread::scope\n",
        )
        .unwrap_err();
        assert!(
            matches!(err, AllowlistError::Shadowed { line: 2, .. }),
            "{err}"
        );

        // Sibling modules coexist; a module wildcard does not shadow a
        // whole-file entry for a different token.
        assert!(Allowlist::parse(
            "crates/x/src/lib.rs::pool thread::scope\n\
                 crates/x/src/lib.rs::metrics thread::scope\n\
                 crates/x/src/lib.rs Instant\n",
        )
        .is_ok());
    }

    #[test]
    fn module_tracking_handles_mod_declarations_and_braces() {
        // `mod name;` opens nothing; unrelated braces do not end a module.
        let src = "\
mod decl_only;\n\
mod pool {\n\
    fn a() { if x { y(); } thread::scope(|s| {}); }\n\
}\n\
fn after() { thread::scope(|s| {}); }\n";
        let mut allow = Allowlist::parse("crates/x/src/lib.rs::pool thread::scope\n").unwrap();
        let f = scan("crates/x/src/lib.rs", src, &mut allow);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
    }
}
