//! The analyzer's lexer, and what it reads straight off the token stream:
//! `#[cfg(test)]` masking, the clippy expectations that justify a site and
//! suppression pragmas; plus the walk that finds the workspace's files and
//! crate names.
//!
//! A small hand-rolled tokenizer (no `syn`, no registry dependencies: the
//! build is offline) that knows just enough Rust to keep strings, comments,
//! char literals and lifetimes from being read as code.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    Ident(String),
    Punct(char),
    /// A string literal's contents (escapes left as written). Kept in the
    /// stream so expression-aware passes can inspect format strings; the
    /// token-pattern rules simply never match on it.
    Str(String),
}

#[derive(Debug, Clone)]
pub struct Sp {
    pub line: usize,
    pub col: usize,
    pub tok: Tok,
}

/// Tokenize `src`, returning the token stream and the line comments
/// (pragmas live in line comments only). Positions are 1-based.
pub fn tokenize(src: &str) -> (Vec<Sp>, Vec<(usize, String)>) {
    let b: Vec<char> = src.chars().collect();
    // line_starts[k] = char index where line k+1 begins.
    let mut line_starts = vec![0usize];
    for (i, &c) in b.iter().enumerate() {
        if c == '\n' {
            line_starts.push(i + 1);
        }
    }
    let pos = |i: usize| -> (usize, usize) {
        let line = line_starts.partition_point(|&s| s <= i);
        (line, i - line_starts[line - 1] + 1)
    };

    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        if c.is_whitespace() {
            i += 1;
        } else if c == '/' && b.get(i + 1) == Some(&'/') {
            let start = i + 2;
            let mut j = start;
            while j < b.len() && b[j] != '\n' {
                j += 1;
            }
            comments.push((pos(i).0, b[start..j].iter().collect()));
            i = j;
        } else if c == '/' && b.get(i + 1) == Some(&'*') {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < b.len() && depth > 0 {
                if b[j] == '/' && b.get(j + 1) == Some(&'*') {
                    depth += 1;
                    j += 2;
                } else if b[j] == '*' && b.get(j + 1) == Some(&'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            i = j;
        } else if c == '"' {
            let (line, col) = pos(i);
            let end = skip_plain_string(&b, i);
            toks.push(Sp {
                line,
                col,
                tok: Tok::Str(b[i + 1..end.saturating_sub(1).max(i + 1)].iter().collect()),
            });
            i = end;
        } else if (c == 'r' || c == 'b') && string_prefix(&b, i).is_some() {
            let (quote, hashes, raw) = string_prefix(&b, i).unwrap();
            let (line, col) = pos(i);
            let end = if raw {
                skip_raw_string(&b, quote, hashes)
            } else {
                skip_plain_string(&b, quote)
            };
            let content_end = if raw {
                end.saturating_sub(1 + hashes)
            } else {
                end.saturating_sub(1)
            };
            toks.push(Sp {
                line,
                col,
                tok: Tok::Str(
                    b[(quote + 1).min(content_end)..content_end]
                        .iter()
                        .collect(),
                ),
            });
            i = end;
        } else if c == 'b' && b.get(i + 1) == Some(&'\'') {
            i = skip_char_or_lifetime(&b, i + 1);
        } else if c == '\'' {
            i = skip_char_or_lifetime(&b, i);
        } else if c.is_alphanumeric() || c == '_' {
            let mut j = i;
            while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                j += 1;
            }
            let (line, col) = pos(i);
            toks.push(Sp {
                line,
                col,
                tok: Tok::Ident(b[i..j].iter().collect()),
            });
            i = j;
        } else {
            let (line, col) = pos(i);
            toks.push(Sp {
                line,
                col,
                tok: Tok::Punct(c),
            });
            i += 1;
        }
    }
    (toks, comments)
}

/// If `b[i]` starts a raw/byte string prefix (`r"`, `r#"`, `br"`, `b"`),
/// return (index of the opening quote, hash count, is_raw).
fn string_prefix(b: &[char], i: usize) -> Option<(usize, usize, bool)> {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    if j < b.len() && b[j] == 'r' {
        let mut k = j + 1;
        let mut hashes = 0usize;
        while k < b.len() && b[k] == '#' {
            hashes += 1;
            k += 1;
        }
        if k < b.len() && b[k] == '"' {
            return Some((k, hashes, true));
        }
        None
    } else if b[i] == 'b' && j < b.len() && b[j] == '"' {
        Some((j, 0, false))
    } else {
        None
    }
}

/// Skip a `"..."` string starting at the opening quote; returns the index
/// one past the closing quote.
fn skip_plain_string(b: &[char], open: usize) -> usize {
    let mut j = open + 1;
    while j < b.len() {
        match b[j] {
            '\\' => j += 2,
            '"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Skip a raw string whose opening quote is at `open` with `hashes` hashes.
fn skip_raw_string(b: &[char], open: usize, hashes: usize) -> usize {
    let mut j = open + 1;
    while j < b.len() {
        if b[j] == '"'
            && b[j + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == '#')
                .count()
                == hashes
        {
            return j + 1 + hashes;
        }
        j += 1;
    }
    j
}

/// At a `'`: either a char literal (`'x'`, `'\n'`, `'\u{1F600}'`) or a
/// lifetime (`'a`). Returns the index one past the literal.
fn skip_char_or_lifetime(b: &[char], quote: usize) -> usize {
    if b.get(quote + 1) == Some(&'\\') {
        let mut j = quote + 2;
        while j < b.len() && b[j] != '\'' {
            j += 1;
        }
        j + 1
    } else if b.get(quote + 2) == Some(&'\'') {
        quote + 3
    } else {
        let mut j = quote + 1;
        while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
            j += 1;
        }
        j
    }
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

/// The identifier at `i`, if the token there is one.
pub fn ident_at(toks: &[Sp], i: usize) -> Option<&str> {
    match toks.get(i).map(|s| &s.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Is the token at `i` the punctuation `c`?
pub fn punct_at(toks: &[Sp], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|s| &s.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Index of the bracket closing the `(`, `[` or `{` at `open` (the last
/// token when it is unclosed).
pub fn close_of(toks: &[Sp], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, sp) in toks.iter().enumerate().skip(open) {
        match sp.tok {
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(')' | ']' | '}') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

// ---------------------------------------------------------------------------
// Attribute scopes
// ---------------------------------------------------------------------------

/// One past the last token of the statement, match arm or item decorated
/// by the attributes starting at `start` — the scope rustc gives an outer
/// attribute:
///
/// * an item (`fn`, `impl`, `mod`, `struct`, …) ends with its body's `}`,
///   or its `;` when it has none; `let`, `use`, `const`, `static` and `type`
///   end with their `;`;
/// * a match arm ends with its block body's `}`, or at the `,` (or the
///   match's closing `}`) after an expression body;
/// * an expression statement ends with its `;`, or with the `}` of a
///   block-like statement (`if`, `match`, `for`, `while`, `loop`).
pub fn decorated_end(toks: &[Sp], start: usize) -> usize {
    let mut i = start;
    while punct_at(toks, i, '#') && punct_at(toks, i + 1, '[') {
        i = close_of(toks, i + 1) + 1;
    }
    // Visibility and qualifiers before an item keyword.
    let mut k = i;
    if ident_at(toks, k) == Some("pub") {
        k += 1;
        if punct_at(toks, k, '(') {
            k = close_of(toks, k) + 1;
        }
    }
    loop {
        match ident_at(toks, k) {
            Some("async" | "unsafe") if !punct_at(toks, k + 1, '{') => k += 1,
            Some("const") if matches!(ident_at(toks, k + 1), Some("fn" | "async" | "unsafe")) => {
                k += 1
            }
            _ => break,
        }
    }
    let head = ident_at(toks, k);
    let to_semi = matches!(head, Some("let" | "use" | "const" | "static" | "type"));
    let item = matches!(
        head,
        Some("fn" | "impl" | "mod" | "trait" | "struct" | "enum" | "union" | "macro_rules")
    );
    let block_like = punct_at(toks, i, '{')
        || matches!(
            ident_at(toks, i),
            Some("if" | "match" | "for" | "while" | "loop" | "unsafe")
        );
    let mut depth = 0usize;
    let mut j = i;
    while j < toks.len() {
        match toks[j].tok {
            Tok::Punct('{') if item && depth == 0 => return close_of(toks, j) + 1,
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(')' | ']' | '}') => {
                if depth == 0 {
                    return j; // the enclosing block or match closes
                }
                depth -= 1;
                if depth == 0
                    && block_like
                    && punct_at(toks, j, '}')
                    && ident_at(toks, j + 1) != Some("else")
                {
                    return j + 1;
                }
            }
            Tok::Punct(';') if depth == 0 => return j + 1,
            Tok::Punct(',') if depth == 0 && !to_semi && !item => return j,
            Tok::Punct('=') if depth == 0 && !to_semi && !item && punct_at(toks, j + 1, '>') => {
                if punct_at(toks, j + 2, '{') {
                    return close_of(toks, j + 2) + 1;
                }
                j += 1;
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// Mark every token covered by a `#[cfg(test)]` item, attribute included.
pub fn cfg_test_mask(toks: &[Sp]) -> Vec<bool> {
    let mut ex = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        let cfg_test = punct_at(toks, i, '#')
            && punct_at(toks, i + 1, '[')
            && ident_at(toks, i + 2) == Some("cfg")
            && punct_at(toks, i + 3, '(')
            && ident_at(toks, i + 4) == Some("test")
            && punct_at(toks, i + 5, ')')
            && punct_at(toks, i + 6, ']');
        if !cfg_test {
            i += 1;
            continue;
        }
        let end = decorated_end(toks, i);
        ex[i..end].fill(true);
        i = end;
    }
    ex
}

/// An `#[expect(clippy::…, reason = "…")]`: the clippy lints it names and
/// the token range `start..end` of the attribute and the statement, match
/// arm or item it decorates, which is the scope clippy checks it over.
#[derive(Debug, Clone)]
pub struct Expectation {
    pub lints: Vec<String>,
    pub start: usize,
    pub end: usize,
}

impl Expectation {
    /// Does this expectation justify `lint` at token `tok`?
    pub fn covers(&self, tok: usize, lint: &str) -> bool {
        (self.start..self.end).contains(&tok) && self.lints.iter().any(|l| l == lint)
    }
}

/// Every `#[expect(...)]` naming at least one clippy lint, in source order.
pub fn expectations(toks: &[Sp]) -> Vec<Expectation> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(punct_at(toks, i, '#')
            && punct_at(toks, i + 1, '[')
            && ident_at(toks, i + 2) == Some("expect")
            && punct_at(toks, i + 3, '('))
        {
            continue;
        }
        let lints: Vec<String> = (i + 4..close_of(toks, i + 3))
            .filter(|&k| {
                ident_at(toks, k) == Some("clippy")
                    && punct_at(toks, k + 1, ':')
                    && punct_at(toks, k + 2, ':')
            })
            .filter_map(|k| ident_at(toks, k + 3).map(str::to_string))
            .collect();
        if !lints.is_empty() {
            out.push(Expectation {
                lints,
                start: i,
                end: decorated_end(toks, i),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Pragmas
// ---------------------------------------------------------------------------

/// A suppression pragma, `// grouter-analyze: allow(<pass>): <why>`. The
/// justification after `):` is mandatory; a pragma without one (or naming a
/// pass outside `known`) carries `parse_error`/`justified` state the caller
/// reports as `bad-pragma`.
#[derive(Debug, Clone)]
pub struct Pragma {
    pub line: usize,
    pub passes: Vec<String>,
    pub justified: bool,
    pub parse_error: Option<String>,
}

/// The `grouter-analyze:` pragmas among a file's line comments.
pub fn parse_pragmas(comments: &[(usize, String)], known: &[&str]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for (line, text) in comments {
        let Some(rest) = text.trim().strip_prefix("grouter-analyze:") else {
            continue;
        };
        let rest = rest.trim();
        let Some(inner) = rest.strip_prefix("allow(") else {
            out.push(Pragma {
                line: *line,
                passes: Vec::new(),
                justified: false,
                parse_error: Some(format!("expected `allow(<pass>)`, got `{rest}`")),
            });
            continue;
        };
        let Some(close) = inner.find(')') else {
            out.push(Pragma {
                line: *line,
                passes: Vec::new(),
                justified: false,
                parse_error: Some("unterminated `allow(` pragma".to_string()),
            });
            continue;
        };
        let passes: Vec<String> = inner[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let mut err = None;
        for r in &passes {
            if !known.contains(&r.as_str()) {
                err = Some(format!("unknown pass `{r}` in allow pragma"));
            }
        }
        if passes.is_empty() {
            err = Some("empty allow pragma".to_string());
        }
        // Justification: non-empty text after the closing paren, typically
        // introduced by `:`.
        let tail = inner[close + 1..]
            .trim_start_matches([':', '-', ' '])
            .trim();
        out.push(Pragma {
            line: *line,
            passes,
            justified: !tail.is_empty(),
            parse_error: err,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Workspace files
// ---------------------------------------------------------------------------

fn walk_dir(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk_dir(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Collect every `.rs` file under the given roots (files are accepted
/// verbatim), sorted for deterministic traversal. `target/` and dotted
/// directories are skipped. Returns `Err` for a root that does not exist.
pub fn walk_rs_files(roots: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    for root in roots {
        let p = Path::new(root);
        if p.is_file() {
            files.push(p.to_path_buf());
        } else if p.is_dir() {
            walk_dir(p, &mut files);
        } else {
            return Err(format!("no such path: {root}"));
        }
    }
    files.sort();
    Ok(files)
}

/// Map each directory under a `crates/`-style root to its crate identifier
/// by reading `name = "..."` from its Cargo.toml (e.g. `core` → `grouter`).
pub fn crate_names(roots: &[String]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for root in roots {
        let Ok(entries) = std::fs::read_dir(root) else {
            continue;
        };
        for entry in entries.flatten() {
            let dir = entry.path();
            if !dir.is_dir() {
                continue;
            }
            let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
                continue;
            };
            for line in manifest.lines() {
                let line = line.trim();
                if let Some(rest) = line.strip_prefix("name") {
                    let rest = rest.trim_start().trim_start_matches('=').trim();
                    let name = rest.trim_matches('"');
                    if !name.is_empty() {
                        out.insert(
                            entry.file_name().to_string_lossy().to_string(),
                            name.replace('-', "_"),
                        );
                    }
                    break;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .0
            .into_iter()
            .filter_map(|s| match s.tok {
                Tok::Ident(name) => Some(name),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn columns_are_one_based_char_positions() {
        let (toks, _) = tokenize("let x = foo();\n  bar();\n");
        let foo = toks.iter().position(|s| s.tok == Tok::Ident("foo".into()));
        let foo = &toks[foo.expect("foo is lexed")];
        assert_eq!((foo.line, foo.col), (1, 9));
        let bar = toks.iter().position(|s| s.tok == Tok::Ident("bar".into()));
        let bar = &toks[bar.expect("bar is lexed")];
        assert_eq!((bar.line, bar.col), (2, 3));
    }

    #[test]
    fn tokenizer_skips_strings_and_comments() {
        let src = format!(
            "// panic! in a comment\n\
             /* .unwrap() in a /* nested */ block comment */\n\
             let s = \"panic!() .unwrap()\";\n\
             let r = r{h}\"unreachable!()\"{h};\n\
             let c = '\\'';\n",
            h = "#"
        );
        assert_eq!(idents(&src), ["let", "s", "let", "r", "let", "c"]);
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x.unwrap() }\n";
        assert_eq!(idents(src), ["fn", "f", "x", "str", "str", "x", "unwrap"]);
    }

    #[test]
    fn string_literals_become_str_tokens() {
        let (toks, _) = tokenize("f(\"a{:p}b\", r#\"raw\"#);");
        let strs: Vec<&str> = toks
            .iter()
            .filter_map(|s| match &s.tok {
                Tok::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec!["a{:p}b", "raw"]);
    }

    #[test]
    fn multiline_strings_keep_line_accounting() {
        let (toks, _) = tokenize("let s = \"a\nb\";\nfn after() {}\n");
        let after = toks
            .iter()
            .position(|s| s.tok == Tok::Ident("after".into()));
        assert_eq!(toks[after.expect("after is lexed")].line, 3);
    }

    #[test]
    fn only_analyzer_pragmas_parse() {
        let comments = vec![
            (
                1,
                " grouter-analyze: allow(panic-reachable): why".to_string(),
            ),
            (
                2,
                " some-other-tool: allow(panic-reachable): why".to_string(),
            ),
        ];
        let p = parse_pragmas(&comments, &["panic-reachable"]);
        assert_eq!(p.len(), 1);
        assert!(p[0].line == 1 && p[0].justified && p[0].parse_error.is_none());
    }
}
