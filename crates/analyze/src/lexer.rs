//! A hand-rolled Rust lexer, just deep enough for lint analysis.
//!
//! Produces a flat token stream (identifiers, punctuation, literals)
//! and drops comments. The lexer's one job is to make the
//! lint passes immune to the classic grep failure modes: `.iter()`
//! inside a string literal, `unsafe` inside a doc comment, `'a` the
//! lifetime versus `'a'` the char, nested `/* /* */ */` blocks, and
//! raw strings `r#"..."#` with arbitrary hash fences. It does **not**
//! parse — the lint passes work on token shapes and brace depths.

/// Kind of one lexed token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`for`, `unsafe`, `HashMap`, ...).
    Ident,
    /// Punctuation, longest-match (`==`, `::`, `->`, `{`, ...).
    Punct,
    /// Integer literal (including tuple indices after `.`).
    Int,
    /// Float literal (`1.0`, `1e-9`, `2.5f64`).
    Float,
    /// String / byte-string / raw-string literal (content dropped).
    Str,
    /// Char literal (`'x'`, `'\n'`).
    Char,
    /// Lifetime (`'a`) — kept distinct so char detection stays honest.
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// Multi-character punctuation, longest first so `==` never lexes as
/// `=` `=`. Only the operators the lints look at need to be exact;
/// everything else may fall through to single characters.
const PUNCTS: &[&str] = &[
    "..=", "...", "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "::", "->", "=>", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

/// Lex `src` into tokens, in source order.
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut tokens = Vec::new();

    macro_rules! bump_lines {
        ($s:expr) => {
            for &c in $s {
                if c == b'\n' {
                    line += 1;
                }
            }
        };
    }

    while i < b.len() {
        let c = b[i];
        // newline / whitespace
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // line comment (doc comments included — they are comments too)
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // block comment, nested
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            i += 2;
            let mut depth = 1usize;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            continue;
        }
        // raw / byte strings: r"...", r#"..."#, br"...", b"..."
        if c == b'r' || c == b'b' {
            let mut j = i;
            if b[j] == b'b' && j + 1 < b.len() && (b[j + 1] == b'r' || b[j + 1] == b'"') {
                j += 1;
            }
            if b[j] == b'r' && j + 1 < b.len() && (b[j + 1] == b'#' || b[j + 1] == b'"') {
                // raw string: count hashes, then scan to `"` + hashes
                let mut k = j + 1;
                let mut hashes = 0usize;
                while k < b.len() && b[k] == b'#' {
                    hashes += 1;
                    k += 1;
                }
                if k < b.len() && b[k] == b'"' {
                    let tok_line = line;
                    k += 1;
                    let content_start = k;
                    'raw: while k < b.len() {
                        if b[k] == b'"' {
                            let mut h = 0usize;
                            while k + 1 + h < b.len() && b[k + 1 + h] == b'#' && h < hashes {
                                h += 1;
                            }
                            if h == hashes {
                                break 'raw;
                            }
                        }
                        k += 1;
                    }
                    bump_lines!(&b[content_start..k.min(b.len())]);
                    i = (k + 1 + hashes).min(b.len());
                    tokens.push(Token {
                        kind: TokKind::Str,
                        text: String::new(),
                        line: tok_line,
                    });
                    continue;
                }
            }
            if j > i && b[j] == b'"' {
                // plain byte string b"..." — fall through to the string
                // scanner from the quote
                i = j;
            }
        }
        // plain string
        if b[i] == b'"' {
            let tok_line = line;
            let mut k = i + 1;
            while k < b.len() {
                match b[k] {
                    b'\\' => k += 2,
                    b'"' => break,
                    b'\n' => {
                        line += 1;
                        k += 1;
                    }
                    _ => k += 1,
                }
            }
            i = (k + 1).min(b.len());
            tokens.push(Token {
                kind: TokKind::Str,
                text: String::new(),
                line: tok_line,
            });
            continue;
        }
        // char literal vs lifetime
        if c == b'\'' {
            // a char literal closes with a quote shortly after; a
            // lifetime is `'` + ident with no closing quote
            let mut k = i + 1;
            if k < b.len() && b[k] == b'\\' {
                k += 2;
                while k < b.len() && b[k] != b'\'' {
                    k += 1;
                }
                i = (k + 1).min(b.len());
                tokens.push(Token {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                });
                continue;
            }
            // unescaped: 'x' (char) or 'ident (lifetime)
            let ident_start = k;
            while k < b.len() && (b[k].is_ascii_alphanumeric() || b[k] == b'_') {
                k += 1;
            }
            if k < b.len() && b[k] == b'\'' && k > ident_start {
                i = k + 1;
                tokens.push(Token {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                });
            } else if k == ident_start && k < b.len() && b[k + 1..].first() == Some(&b'\'') {
                // non-alphanumeric single char like '('
                i = k + 2;
                tokens.push(Token {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                });
            } else {
                tokens.push(Token {
                    kind: TokKind::Lifetime,
                    text: src[ident_start..k].to_string(),
                    line,
                });
                i = k;
            }
            continue;
        }
        // number
        if c.is_ascii_digit() {
            let start = i;
            let mut kind = TokKind::Int;
            if c == b'0' && i + 1 < b.len() && matches!(b[i + 1], b'x' | b'o' | b'b') {
                i += 2;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
            } else {
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                    i += 1;
                }
                // fractional part: digit '.' digit (never `..` ranges,
                // never `.method()` / `.0` tuple access)
                if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
                    kind = TokKind::Float;
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                        i += 1;
                    }
                }
                // exponent
                if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
                    let mut k = i + 1;
                    if k < b.len() && (b[k] == b'+' || b[k] == b'-') {
                        k += 1;
                    }
                    if k < b.len() && b[k].is_ascii_digit() {
                        kind = TokKind::Float;
                        i = k;
                        while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                            i += 1;
                        }
                    }
                }
                // suffix
                for suf in ["f64", "f32"] {
                    if src[i..].starts_with(suf) {
                        kind = TokKind::Float;
                        i += suf.len();
                        break;
                    }
                }
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1; // integer suffixes like u64, usize
                }
            }
            tokens.push(Token {
                kind,
                text: src[start..i].to_string(),
                line,
            });
            continue;
        }
        // identifier / keyword (incl. raw idents r#type)
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            tokens.push(Token {
                kind: TokKind::Ident,
                text: src[start..i].to_string(),
                line,
            });
            continue;
        }
        // punctuation, longest match first
        let rest = &src[i..];
        let mut matched = None;
        for p in PUNCTS {
            if rest.starts_with(p) {
                matched = Some(*p);
                break;
            }
        }
        let p = matched.map(|p| p.to_string()).unwrap_or_else(|| {
            let ch = rest.chars().next().unwrap();
            ch.to_string()
        });
        i += p.len();
        tokens.push(Token {
            kind: TokKind::Punct,
            text: p,
            line,
        });
    }

    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        let l = lex("let s = \".iter() unsafe\"; x.get(0)");
        assert!(l.iter().all(|t| t.text != "iter"));
        assert!(l.iter().any(|t| t.text == "get"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let l = lex("let s = r#\"for x in map \"quoted\" more\"#; y");
        assert!(l.iter().all(|t| t.text != "for"));
        assert!(l.iter().any(|t| t.text == "y"));
    }

    #[test]
    fn char_vs_lifetime() {
        let ks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes = ks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count();
        let chars = ks.iter().filter(|(k, _)| *k == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still comment */ real");
        assert_eq!(l.len(), 1);
        assert_eq!(l[0].text, "real");
    }

    #[test]
    fn floats_ints_and_ranges() {
        let ks = kinds("1.5 2 0..10 1e-9 3f64 x.0");
        assert_eq!(ks[0].0, TokKind::Float);
        assert_eq!(ks[1].0, TokKind::Int);
        assert_eq!(ks[2].0, TokKind::Int); // 0
        assert_eq!(ks[3].1, ".."); // not a float dot
        assert_eq!(ks[5].0, TokKind::Float); // 1e-9
        assert_eq!(ks[6].0, TokKind::Float); // 3f64
                                             // tuple index stays an Int after the dot
        let last = ks.last().unwrap();
        assert_eq!(last.0, TokKind::Int);
        assert_eq!(last.1, "0");
    }

    #[test]
    fn multichar_punct_is_atomic() {
        let ks = kinds("a == b != c <= d :: e -> f");
        let puncts: Vec<&str> = ks
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, vec!["==", "!=", "<=", "::", "->"]);
    }
}
