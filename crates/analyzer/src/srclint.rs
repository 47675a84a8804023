//! Float-accumulation source lint.
//!
//! The golden traces are only meaningful if a simulation is a pure
//! function of `(spec, seed)`, and the sharded engine must reproduce the
//! serial one byte for byte. Most constructs that would break that are
//! banned by path in the workspace's `clippy.toml` (hash containers, wall
//! clocks, interior mutability, channels, threads, unseeded randomness)
//! and by `-F unsafe-code` (`static mut`), both enforced by `ci.sh`'s
//! clippy step. This pass covers the one rule no path ban can express:
//!
//! - **float-accum**: `+=` of a float quantity inside a `for` loop over
//!   `.keys()`/`.values()` — rounding accumulates in iteration order,
//!   and a sharded engine merges partial sums in a different order.
//!
//! The scan runs a real (lightweight) Rust lexer: line comments, nested
//! block comments, string literals, raw and byte strings, and char
//! literals are tokenized and *skipped*, so a loop quoted in a doc comment
//! or error message is never a finding. `#[cfg(test)]` items are skipped
//! with balanced-brace tracking (only the annotated item, not the rest of
//! the file). There is no exemption mechanism.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// One float `+=` inside a `for` loop over keyed iteration.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SourceFinding {
    /// Path of the file, relative to the scan root, `/`-separated.
    pub path: String,
    /// 1-based line number of the `+=`.
    pub line: usize,
}

impl fmt::Display for SourceFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: determinism hazard `float-accum` (float `+=` over keyed iteration \
             accumulates rounding in iteration order; a sharded engine merges in a \
             different order)",
            self.path, self.line
        )
    }
}

/// Lints every `.rs` file under each of `dirs` (paths relative to
/// `root`, scanned recursively). Paths in findings are relative to
/// `root`. Directories named `tests`, `benches`, or `examples` are
/// skipped, as is every `#[cfg(test)]`-annotated item.
pub fn lint_sources(root: &Path, dirs: &[&str]) -> io::Result<Vec<SourceFinding>> {
    let mut findings = Vec::new();
    for dir in dirs {
        walk(root, &root.join(dir), &mut findings)?;
    }
    findings.sort();
    Ok(findings)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFinding>) -> io::Result<()> {
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
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let text = fs::read_to_string(&path)?;
            scan_text(&rel, &text, out);
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
/// carry a finding: whitespace, comments (line + nested block), string
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

/// Scans one file's text. Separate from [`walk`] so unit tests can lint
/// synthetic sources without touching the filesystem.
fn scan_text(rel_path: &str, text: &str, out: &mut Vec<SourceFinding>) {
    scan_float_accum(&strip_cfg_test(&lex(text)), rel_path, out);
}

/// Flags `+=` of a float quantity inside a `for` loop whose iterator
/// expression contains `.keys()` or `.values()`. The float quantity is
/// recognized lexically: the `+=` statement contains a float literal or
/// an `f32`/`f64` token.
fn scan_float_accum(toks: &[Tok<'_>], rel_path: &str, out: &mut Vec<SourceFinding>) {
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
            if floaty {
                out.push(SourceFinding {
                    path: rel_path.to_string(),
                    line,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lines of the findings in `src`, in order.
    fn lines(src: &str) -> Vec<usize> {
        let mut out = Vec::new();
        scan_text("crates/x/src/lib.rs", src, &mut out);
        out.sort();
        out.into_iter().map(|f| f.line).collect()
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
        let mut f = Vec::new();
        scan_text("crates/x/src/lib.rs", bad, &mut f);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].to_string()
                .starts_with("crates/x/src/lib.rs:4: determinism hazard `float-accum`"),
            "{}",
            f[0]
        );
        assert_eq!(lines("for k in m.keys() { t += k as f64; }"), [1]);

        // Integer accumulation over values() is fine.
        let ok_int = "\
fn sum(m: &BTreeMap<u32, u64>) -> u64 {\n\
    let mut total = 0;\n\
    for v in m.values() {\n\
        total += v + 1;\n\
    }\n\
    total\n\
}\n";
        assert!(lines(ok_int).is_empty());

        // Float accumulation over a Vec (positional order) is fine.
        let ok_vec = "\
fn sum(v: &[f64]) -> f64 {\n\
    let mut total = 0.0;\n\
    for x in v.iter() {\n\
        total += x * 2.0;\n\
    }\n\
    total\n\
}\n";
        assert!(lines(ok_vec).is_empty());
    }

    #[test]
    fn skips_line_and_block_comments() {
        // A lexer that ended a block comment at its first `*/` would
        // read the loop after the nested comment as code.
        let src = "\
fn sum(m: &BTreeMap<u32, f64>) -> f64 {\n\
    let mut t = 0.0;\n\
    // for v in m.values() { t += 1.0; }\n\
    /// for v in m.values() { t += 1.0; }\n\
    /* outer /* nested */ for v in m.values() { t += 1.0; }\n\
       still outer */\n\
    for v in m.values() { t += v * 2.0; }\n\
    t\n\
}\n";
        assert_eq!(lines(src), [7]);
    }

    #[test]
    fn skips_string_and_char_literals() {
        // Line 7: a `'}'` read as a brace would close the loop body
        // before the `+=`. Line 8: a loop after a string on the same
        // line is still found.
        let src = r#"
fn sum(m: &BTreeMap<u32, f64>, c: char) -> f64 {
    let a = "for v in m.values() { t += 1.0; }";
    let b = "escaped \" quote, for v in m.values() { t += 1.0; }";
    let q = ['"', '\'', '}', 'x'];
    let mut t = 0.0;
    for v in m.values() { if c == '}' { t += v * 2.0; } }
    let l = "label"; for v in m.values() { t += v * 2.0; }
    println!("{} for v in m.values() {{ t += 1.0; }}", a);
    t
}
"#;
        assert_eq!(lines(src), [7, 8]);
    }

    #[test]
    fn skips_raw_and_byte_strings() {
        // Each loop sits after a quote a lexer would stop at if it
        // ignored the raw string's hashes or the byte string's escape.
        let src = r###"
fn ok() {
    let a = r"for v in m.values() { t += 1.0; }";
    let b = r#"a " for v in m.values() { t += 1.0; } " b"#;
    let c = br##"a "# for v in m.values() { t += 1.0; } "# b"##;
    let d = b"a \" for v in m.values() { t += 1.0; } ";
}
"###;
        assert!(lines(src).is_empty(), "{:?}", lines(src));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // One lifetime and one char literal: reading either as the other
        // leaves an unclosed quote that swallows the loop.
        let src = "\
fn sum(m: &'static BTreeMap<u32, f64>) -> f64 {\n\
    let c = 'a';\n\
    let mut t = 0.0;\n\
    for v in m.values() { t += v * 2.0; }\n\
    t\n\
}\n";
        assert_eq!(lines(src), [4]);
    }

    #[test]
    fn cfg_test_skips_only_the_annotated_item() {
        let src = "\
#[cfg(test)]\n\
mod tests {\n\
    fn t(m: &BTreeMap<u32, f64>) { for v in m.values() { t += v * 2.0; } }\n\
}\n\
fn after(m: &BTreeMap<u32, f64>) { for v in m.values() { t += v * 2.0; } }\n";
        assert_eq!(lines(src), [5]);
    }

    #[test]
    fn cfg_test_with_extra_attributes_and_semicolon_items() {
        let src = "\
#[cfg(test)]\n\
#[allow(dead_code)]\n\
fn helper(m: &BTreeMap<u32, f64>) { for v in m.values() { t += 1.0; } }\n\
#[cfg(test)]\n\
mod tests;\n\
fn live(m: &BTreeMap<u32, f64>) { for v in m.values() { t += 1.0; } }\n";
        assert_eq!(lines(src), [6]);
    }

    #[test]
    fn findings_sort_stably() {
        let mut v = [
            SourceFinding {
                path: "b.rs".into(),
                line: 3,
            },
            SourceFinding {
                path: "a.rs".into(),
                line: 9,
            },
        ];
        v.sort();
        assert_eq!(v[0].path, "a.rs");
    }
}
