//! Token lexer over [`sanitize`](crate::sanitize)d source text.
//!
//! The sanitizer has already erased every comment and literal (quote
//! characters included), so the lexer sees only residual code: words,
//! numbers and punctuation. That lets it stay tiny — no string states,
//! no comment states — while still giving the token-tree layer exact
//! 1-based line numbers for every token.

/// Lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword: `[A-Za-z_][A-Za-z0-9_]*`.
    Ident,
    /// Numeric literal, including suffixed (`0u32`) and decimal
    /// (`0.5f32`) forms.
    Num,
    /// Punctuation, with the compound operators the rules care about
    /// (`::`, `->`, `+=`, `..=`, …) glued into one token.
    Punct,
}

/// One token of sanitized source.
#[derive(Debug, Clone)]
pub struct Tok {
    /// The token text, verbatim from the sanitized source.
    pub text: String,
    /// 1-based source line (sanitization preserves line structure).
    pub line: usize,
    /// Lexical class.
    pub kind: TokKind,
}

impl Tok {
    /// Does this token spell exactly `s`?
    pub fn is(&self, s: &str) -> bool {
        self.text == s
    }
}

/// Compound operators glued into single tokens, longest first. `..=` and
/// `==`-family operators matter most: gluing them keeps a bare `=` token
/// meaning *assignment*, which the lock-order rule's binding detection
/// relies on.
const PUNCT3: [&str; 3] = ["..=", "<<=", ">>="];
const PUNCT2: [&str; 18] = [
    "::", "->", "=>", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=", "^=", "|=", "&=",
    "&&", "||", "..",
];

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Tokenize sanitized source. Whitespace separates tokens and is
/// otherwise dropped; newlines advance the line counter.
pub fn lex(san: &str) -> Vec<Tok> {
    let chars: Vec<char> = san.chars().collect();
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_digit() {
            // Number: digits, suffix letters and underscores; a `.` only
            // when a digit follows, so `0..n` stays three tokens while
            // `0.5f32` stays one.
            let start = i;
            i += 1;
            while i < chars.len() {
                let d = chars[i];
                let fraction = d == '.'
                    && chars.get(i + 1).is_some_and(|n| n.is_ascii_digit())
                    && !chars[start..i].contains(&'.');
                if is_ident_char(d) || fraction {
                    i += 1;
                } else {
                    break;
                }
            }
            toks.push(Tok { text: chars[start..i].iter().collect(), line, kind: TokKind::Num });
            continue;
        }
        if is_ident_char(c) {
            let start = i;
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            toks.push(Tok { text: chars[start..i].iter().collect(), line, kind: TokKind::Ident });
            continue;
        }
        // Punctuation: longest compound match first.
        let rest: String = chars[i..chars.len().min(i + 3)].iter().collect();
        let glued = PUNCT3
            .iter()
            .find(|p| rest.starts_with(**p))
            .or_else(|| PUNCT2.iter().find(|p| rest.starts_with(**p)));
        let text = match glued {
            Some(p) => (*p).to_string(),
            None => c.to_string(),
        };
        i += text.chars().count();
        toks.push(Tok { text, line, kind: TokKind::Punct });
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn compound_operators_glue() {
        assert_eq!(texts("a += b"), ["a", "+=", "b"]);
        assert_eq!(texts("x::y->z"), ["x", "::", "y", "->", "z"]);
        assert_eq!(texts("0..=n"), ["0", "..=", "n"]);
        assert_eq!(texts("a == b = c"), ["a", "==", "b", "=", "c"]);
    }

    #[test]
    fn numbers_keep_suffixes_and_decimals() {
        assert_eq!(texts("0.5f32 + 1u64"), ["0.5f32", "+", "1u64"]);
        assert_eq!(texts("0..n"), ["0", "..", "n"]);
        assert_eq!(lex("2.5")[0].kind, TokKind::Num);
    }

    #[test]
    fn lines_are_tracked() {
        let toks = lex("a\nb as\nu32");
        assert_eq!(toks.iter().map(|t| t.line).collect::<Vec<_>>(), [1, 2, 2, 3]);
    }
}
