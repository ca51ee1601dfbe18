//! Source scrubbing: the lexical front end of the analyzer.
//!
//! [`scrub`] replaces every comment, string literal, and char literal
//! in a Rust source file with spaces, preserving byte length and
//! newlines exactly. Rules then scan the scrubbed text with plain
//! substring matching, knowing that a match is *code* — a doc comment
//! mentioning `Instant::now` or a lint message quoting `.unwrap()`
//! can never trip a rule. Line numbers computed on the scrubbed text
//! are valid for the original.
//!
//! The scrubber is a small state machine, not a full lexer: it only
//! has to recognize the token classes whose *contents* must not be
//! scanned. It handles line comments, nested block comments, plain and
//! raw strings (any `#` count, `b`/`r`/`br` prefixes), char and
//! byte-char literals, and distinguishes lifetimes (`'a`) from char
//! literals (`'a'`).

/// Replaces comments and literal contents (delimiters included) with
/// spaces. The output has the same byte length and the same newline
/// positions as the input.
#[must_use]
pub fn scrub(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out: Vec<u8> = bytes.to_vec();
    let mut i = 0usize;

    // Blanks out[from..to], keeping newlines so line numbers survive.
    let blank = |out: &mut Vec<u8>, from: usize, to: usize| {
        for slot in &mut out[from..to] {
            if *slot != b'\n' {
                *slot = b' ';
            }
        }
    };

    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = memchr(bytes, i, b'\n').unwrap_or(bytes.len());
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i, j.min(bytes.len()));
                i = j;
            }
            b'"' => {
                // A plain (or byte) string: the prefix byte, if any,
                // was already emitted as code, which is harmless.
                let end = string_end(bytes, i + 1);
                blank(&mut out, i, end);
                i = end;
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                let (hashes, quote) = raw_prefix(bytes, i);
                let end = raw_string_end(bytes, quote + 1, hashes);
                blank(&mut out, i, end);
                i = end;
            }
            b'\'' if !prev_is_ident(bytes, i) || prev_is_byte_prefix(bytes, i) => {
                if let Some(end) = char_literal_end(bytes, i) {
                    blank(&mut out, i, end);
                    i = end;
                } else {
                    i += 1; // a lifetime: leave it in place
                }
            }
            _ => i += 1,
        }
    }
    // Scrubbing only ever replaces whole code points with ASCII
    // spaces, so the bytes stay valid UTF-8; the lossy path exists to
    // keep this total rather than panicking on a broken invariant.
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// First index >= `from` holding `needle`.
fn memchr(bytes: &[u8], from: usize, needle: u8) -> Option<usize> {
    bytes[from..]
        .iter()
        .position(|&b| b == needle)
        .map(|p| from + p)
}

/// End index (exclusive, past the closing quote) of a plain string
/// whose contents start at `from`, honoring `\` escapes.
fn string_end(bytes: &[u8], from: usize) -> usize {
    let mut j = from;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    bytes.len()
}

/// Whether the bytes at `i` begin a raw or byte string literal
/// (`r"`, `r#"`, `br"`, `b"`, ... with any `#` count), and `i` is not
/// the tail of a longer identifier (`var"` cannot occur in valid
/// Rust, but `for r in ...` must not be misread).
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    if prev_is_ident(bytes, i) {
        return false;
    }
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) == Some(&b'r') {
        j += 1;
        while bytes.get(j) == Some(&b'#') {
            j += 1;
        }
    }
    j > i && bytes.get(j) == Some(&b'"')
}

/// For a raw/byte string starting at `i`, the `#` count and the index
/// of the opening quote.
fn raw_prefix(bytes: &[u8], i: usize) -> (usize, usize) {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) == Some(&b'r') {
        j += 1;
    }
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    (hashes, j)
}

/// End index (exclusive) of a raw string whose contents start at
/// `from`, closed by a quote followed by `hashes` `#`s.
fn raw_string_end(bytes: &[u8], from: usize, hashes: usize) -> usize {
    let mut j = from;
    while j < bytes.len() {
        if bytes[j] == b'"'
            && bytes[j + 1..]
                .iter()
                .take(hashes)
                .filter(|&&b| b == b'#')
                .count()
                == hashes
        {
            return j + 1 + hashes;
        }
        j += 1;
    }
    bytes.len()
}

/// Whether the byte before `i` continues an identifier.
pub(crate) fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')
}

/// Whether `i` points at the quote of a byte-char literal `b'x'`.
fn prev_is_byte_prefix(bytes: &[u8], i: usize) -> bool {
    i > 0 && bytes[i - 1] == b'b' && !prev_is_ident(bytes, i - 1)
}

/// If a char literal starts at the quote at `i`, its end index
/// (exclusive); `None` when the quote introduces a lifetime.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    match bytes.get(i + 1) {
        Some(b'\\') => {
            // Escaped char: consume to the next unescaped quote.
            let mut j = i + 2;
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'\'' => return Some(j + 1),
                    _ => j += 1,
                }
            }
            Some(bytes.len())
        }
        Some(_) => {
            // `'x'` is a char literal; `'a>` or `'a,` is a lifetime.
            // An unescaped char literal is exactly one code point, so
            // the closing quote must sit immediately after it — that
            // is what separates `'y'` from the lifetime in `<'a>`.
            let width = match std::str::from_utf8(&bytes[i + 1..]) {
                Ok(rest) => rest.chars().next().map_or(1, char::len_utf8),
                Err(_) => 1,
            };
            let close = i + 1 + width;
            if bytes.get(close) == Some(&b'\'') {
                Some(close + 1)
            } else {
                None
            }
        }
        None => None,
    }
}

/// 1-based line number of byte offset `idx` in `text`.
#[must_use]
pub fn line_of(text: &str, idx: usize) -> usize {
    // A plain byte scan; the `bytecount` crate clippy suggests is not
    // available in the sealed build environment.
    #[allow(clippy::naive_bytecount)]
    let newlines = text.as_bytes()[..idx.min(text.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count();
    newlines + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_blanked_and_lines_survive() {
        let src =
            "let a = 1; // thread_rng() here\n/* Instant::now()\n spans lines */ let b = 2;\n";
        let out = scrub(src);
        assert_eq!(out.len(), src.len());
        assert!(!out.contains("thread_rng"));
        assert!(!out.contains("Instant::now"));
        assert!(out.contains("let a = 1;"));
        assert!(out.contains("let b = 2;"));
        assert_eq!(out.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let src = "/* outer /* inner */ still comment */ let x = 3;";
        let out = scrub(src);
        assert!(!out.contains("outer"));
        assert!(!out.contains("still"));
        assert!(out.contains("let x = 3;"));
    }

    #[test]
    fn string_contents_are_blanked() {
        let src = r#"let msg = "call .unwrap() and Instant::now"; f(msg);"#;
        let out = scrub(src);
        assert!(!out.contains("unwrap"));
        assert!(!out.contains("Instant"));
        assert!(out.contains("let msg ="));
        assert!(out.contains("f(msg);"));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let src = r#"let s = "he said \"Instant::now\" loudly"; g();"#;
        let out = scrub(src);
        assert!(!out.contains("Instant"));
        assert!(out.contains("g();"));
    }

    #[test]
    fn raw_strings_with_hashes_are_blanked() {
        let src = r##"let s = r#"raw "quoted" thread_rng"#; h();"##;
        let out = scrub(src);
        assert!(!out.contains("thread_rng"));
        assert!(out.contains("h();"));
    }

    #[test]
    fn byte_strings_and_byte_chars_are_blanked() {
        let src = r#"let b = b"SystemTime::now"; let c = b'x'; k();"#;
        let out = scrub(src);
        assert!(!out.contains("SystemTime"));
        assert!(!out.contains("b'x'"));
        assert!(out.contains("k();"));
    }

    #[test]
    fn lifetimes_survive_but_char_literals_are_blanked() {
        let src = "fn f<'a>(x: &'a str) -> char { 'y' }";
        let out = scrub(src);
        assert!(out.contains("<'a>"));
        assert!(out.contains("&'a str"));
        assert!(!out.contains("'y'"));
    }

    #[test]
    fn escaped_char_literals_are_blanked() {
        let src = r"let nl = '\n'; let q = '\''; m();";
        let out = scrub(src);
        assert!(!out.contains("\\n"));
        assert!(out.contains("m();"));
    }

    #[test]
    fn line_of_counts_from_one() {
        let text = "a\nb\nc";
        assert_eq!(line_of(text, 0), 1);
        assert_eq!(line_of(text, 2), 2);
        assert_eq!(line_of(text, 4), 3);
    }
}
