//! Handwritten Rust token lexer shared by the line rules (R1–R4) and the
//! semantic fact extractor (R5, R7).
//!
//! Comments, string/char literal contents, and lifetimes are discarded; what
//! remains is a flat stream of identifier / punctuation / literal tokens with
//! 1-based line numbers — enough for pattern rules and the lightweight
//! item/function parser in [`crate::facts`], without pulling in `syn`.

/// Token category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokKind {
    Ident,
    Punct(char),
    Literal,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub(crate) struct Tok {
    pub(crate) kind: TokKind,
    pub(crate) text: String,
    pub(crate) line: usize,
}

/// Lex `src` into identifier / punctuation / literal tokens, discarding
/// whitespace, comments, and the contents of string-ish literals.
pub(crate) fn scan(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    let n = chars.len();

    let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
    let is_ident_cont = |c: char| c.is_alphanumeric() || c == '_';

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                // Line comment (incl. doc comments) — skip to end of line.
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                // Block comment, possibly nested.
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let start_line = line;
                i += 1;
                while i < n {
                    match chars[i] {
                        '\\' => i += 2,
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line: start_line,
                });
            }
            'r' | 'b' if raw_string_hashes(&chars, i).is_some() => {
                // Raw / byte / raw-byte string: r"..", br#".."#, etc.
                let (prefix_len, hashes) = raw_string_hashes(&chars, i).unwrap_or((0, 0));
                let start_line = line;
                i += prefix_len + hashes + 1; // past prefix, hashes, opening quote
                let closer: String = std::iter::once('"')
                    .chain(std::iter::repeat_n('#', hashes))
                    .collect();
                let closer: Vec<char> = closer.chars().collect();
                while i < n {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i..].starts_with(&closer[..]) {
                        i += closer.len();
                        break;
                    } else {
                        i += 1;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line: start_line,
                });
            }
            '\'' => {
                // Char literal or lifetime.
                if chars.get(i + 1) == Some(&'\\') {
                    // Escaped char literal: skip to the closing quote.
                    i += 2;
                    while i < n && chars[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                    toks.push(Tok {
                        kind: TokKind::Literal,
                        text: String::new(),
                        line,
                    });
                } else if chars.get(i + 2) == Some(&'\'') {
                    // Plain char literal 'x'.
                    i += 3;
                    toks.push(Tok {
                        kind: TokKind::Literal,
                        text: String::new(),
                        line,
                    });
                } else {
                    // Lifetime: consume the tick and its identifier.
                    i += 1;
                    while i < n && is_ident_cont(chars[i]) {
                        i += 1;
                    }
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < n
                    && (is_ident_cont(chars[i])
                        || (chars[i] == '.'
                            && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                            && chars.get(i.wrapping_sub(1)) != Some(&'.')))
                {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < n && is_ident_cont(chars[i]) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            c => {
                toks.push(Tok {
                    kind: TokKind::Punct(c),
                    text: String::new(),
                    line,
                });
                i += 1;
            }
        }
    }
    toks
}

/// If position `i` starts a raw/byte string literal, return
/// `(prefix_len, hash_count)`; `None` otherwise.
fn raw_string_hashes(chars: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    // Optional b, then optional r (b"..", r"..", br"..").
    let mut prefix = 0usize;
    if chars.get(j) == Some(&'b') {
        j += 1;
        prefix += 1;
    }
    let raw = chars.get(j) == Some(&'r');
    if raw {
        j += 1;
        prefix += 1;
    }
    if prefix == 0 {
        return None;
    }
    let mut hashes = 0usize;
    if raw {
        while chars.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
    }
    if chars.get(j) == Some(&'"') {
        Some((prefix, hashes))
    } else {
        None
    }
}

/// Index of the `}` matching the `{` at `open` (or the last token).
pub(crate) fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// Index of the closing delimiter matching the opener at `open`.
pub(crate) fn skip_delimited(toks: &[Tok], open: usize, o: char, c: char) -> usize {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct(o) {
            depth += 1;
        } else if t.kind == TokKind::Punct(c) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Token-index ranges belonging to `#[cfg(test)]` or `#[test]` items.
pub(crate) fn test_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if is_test_attr(toks, i) {
            // Find the body: the first `{` before any top-level `;`.
            let mut j = i;
            // Skip past the attribute's closing `]`.
            while j < toks.len() && toks[j].kind != TokKind::Punct(']') {
                j += 1;
            }
            j += 1;
            let mut body = None;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct('{') => {
                        body = Some(j);
                        break;
                    }
                    TokKind::Punct(';') => break,
                    _ => j += 1,
                }
            }
            if let Some(open) = body {
                let close = matching_brace(toks, open);
                regions.push((i, close));
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    regions
}

fn is_test_attr(toks: &[Tok], i: usize) -> bool {
    let ident = |k: usize, s: &str| {
        toks.get(k)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
    };
    let punct = |k: usize, c: char| toks.get(k).is_some_and(|t| t.kind == TokKind::Punct(c));
    // #[test]
    if punct(i, '#') && punct(i + 1, '[') && ident(i + 2, "test") && punct(i + 3, ']') {
        return true;
    }
    // #[cfg(test)]
    punct(i, '#')
        && punct(i + 1, '[')
        && ident(i + 2, "cfg")
        && punct(i + 3, '(')
        && ident(i + 4, "test")
        && punct(i + 5, ')')
        && punct(i + 6, ']')
}

/// Keywords after which `[` opens a slice/array type, pattern or
/// expression (`&mut [T]`, `return [..]`, `if let [a, rest @ ..] = x`) —
/// never an indexing operation. R1 and R7 both ask.
pub(crate) fn is_non_index_keyword(word: &str) -> bool {
    matches!(
        word,
        "mut"
            | "dyn"
            | "impl"
            | "ref"
            | "as"
            | "in"
            | "let"
            | "return"
            | "break"
            | "else"
            | "match"
            | "if"
            | "move"
            | "const"
            | "static"
            | "where"
            | "yield"
            | "box"
    )
}

/// Macros that panic when reached (`name!`). R1 and R7 both ask.
/// `debug_assert*` is not one: release builds compile it out.
pub(crate) fn is_panic_macro(word: &str) -> bool {
    matches!(
        word,
        "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq" | "assert_ne"
    )
}

/// Whether token index `idx` falls inside any of `regions`.
pub(crate) fn in_regions(regions: &[(usize, usize)], idx: usize) -> bool {
    regions.iter().any(|&(s, e)| idx >= s && idx <= e)
}
