//! Shared source scanner for `tag-lint` and `tag-audit`.
//!
//! No parser dependency: sources are scanned byte-by-byte, blanking
//! comments and string/char literals (and, via brace tracking,
//! `#[cfg(test)]` items) so rules match real code only. Blanked bytes
//! become spaces, never removing newlines, so byte offsets and line
//! numbers are preserved across every derived view.
//!
//! On top of the blanked text this module layers the lightweight
//! structure the audit passes need — function spans, statement/block
//! extents, enclosing-scope openers, and receiver-chain extraction —
//! all computed by brace/paren tracking over the blanked bytes. The
//! scanner understands the full Rust literal surface that matters for
//! blanking: nested block comments, raw strings (`r"…"`,
//! `r#"…"#` at any hash depth), byte and raw byte strings, char and
//! byte-char literals, and lifetimes.

/// Source text with comments and strings blanked.
pub struct ScannedSource {
    /// Comments, strings, and char literals blanked. String and
    /// raw-string delimiters are kept so literal boundaries stay
    /// visible.
    pub code: String,
}

/// Blank comments and literals.
pub fn scan_source(src: &str) -> ScannedSource {
    let bytes = src.as_bytes();
    let mut code: Vec<u8> = bytes.to_vec();
    let blank = |buf: &mut [u8], from: usize, to: usize| {
        for b in buf.iter_mut().take(to).skip(from) {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                blank(&mut code, start, i);
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Rust block comments nest: `/* a /* b */ c */` is one
                // comment, and an unbalanced inner open extends to EOF
                // exactly as rustc would treat it.
                let start = i;
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut code, start, i);
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                // Keep the quotes so literal boundaries stay visible.
                blank(&mut code, start + 1, i.saturating_sub(1).min(bytes.len()));
            }
            b'r' if !ident_char_before(bytes, i)
                && (bytes.get(i + 1) == Some(&b'"') || bytes.get(i + 1) == Some(&b'#')) =>
            {
                // Raw string: r"..." or r#"..."# (any # depth). A lone
                // `r#ident` raw identifier has no opening quote and
                // falls through untouched.
                let mut j = i + 1;
                let mut hashes = 0;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) == Some(&b'"') {
                    let content = j + 1;
                    j += 1;
                    let mut content_end = bytes.len();
                    'outer: while j < bytes.len() {
                        if bytes[j] == b'"' {
                            let mut k = j + 1;
                            let mut seen = 0;
                            while seen < hashes && bytes.get(k) == Some(&b'#') {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                content_end = j;
                                j = k;
                                break 'outer;
                            }
                        }
                        j += 1;
                    }
                    // Blank the interior only: `r#"` and `"#` stay, so
                    // the blanked code never grows an unbalanced quote.
                    blank(&mut code, content, content_end);
                    i = j;
                } else {
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal vs lifetime (or loop label): a literal
                // closes within a few bytes ('x', '\n', '\u{..}'); a
                // lifetime doesn't.
                let start = i;
                let close = if bytes.get(i + 1) == Some(&b'\\') {
                    bytes[i + 2..]
                        .iter()
                        .take(8)
                        .position(|&b| b == b'\'')
                        .map(|p| i + 2 + p)
                } else if bytes.get(i + 2) == Some(&b'\'') && bytes.get(i + 1) != Some(&b'\'') {
                    Some(i + 2)
                } else {
                    None
                };
                match close {
                    Some(end) => {
                        blank(&mut code, start + 1, end);
                        i = end + 1;
                    }
                    None => i += 1, // lifetime
                }
            }
            _ => i += 1,
        }
    }
    ScannedSource {
        code: String::from_utf8_lossy(&code).into_owned(),
    }
}

/// Is the byte before `i` part of an identifier? Guards the raw-string
/// arm against identifiers that merely end in `r` (`var"` never starts
/// a raw string; `br"…"` does — the `b` prefix is a literal prefix, not
/// an identifier).
fn ident_char_before(bytes: &[u8], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let b = bytes[i - 1];
    // `b` immediately before `r` is the byte-string prefix `br"…"`,
    // unless that `b` is itself preceded by an identifier char.
    if b == b'b' {
        return ident_char_before(bytes, i - 1);
    }
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte ranges of `#[cfg(test)]`-gated items (modules or functions),
/// found on the blanked code via brace tracking.
pub fn test_ranges(code: &str) -> Vec<(usize, usize)> {
    let bytes = code.as_bytes();
    let needle = b"#[cfg(test)]";
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + needle.len() <= bytes.len() {
        if &bytes[i..i + needle.len()] == needle {
            // Skip to the item's opening brace, then to its match.
            let mut j = i + needle.len();
            while j < bytes.len() && bytes[j] != b'{' {
                j += 1;
            }
            let mut depth = 0;
            while j < bytes.len() {
                match bytes[j] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            ranges.push((i, (j + 1).min(bytes.len())));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    ranges
}

/// Blank the given byte ranges (newlines preserved).
pub fn blank_ranges(text: &str, ranges: &[(usize, usize)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(from, to) in ranges {
        for b in bytes.iter_mut().take(to).skip(from) {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// 1-based line number of a byte offset.
pub fn line_of(text: &str, offset: usize) -> usize {
    text.as_bytes()[..offset.min(text.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// Occurrences of `pattern` in `code` (already blanked), as offsets.
pub fn find_all(code: &str, pattern: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(pattern) {
        out.push(from + pos);
        from += pos + pattern.len();
    }
    out
}

/// Occurrences of `word` as a whole identifier (neither side touches an
/// identifier character).
pub fn find_word(code: &str, word: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    find_all(code, word)
        .into_iter()
        .filter(|&pos| {
            let before_ok = pos == 0 || {
                let b = bytes[pos - 1];
                !(b.is_ascii_alphanumeric() || b == b'_')
            };
            let after = pos + word.len();
            let after_ok = after >= bytes.len() || {
                let b = bytes[after];
                !(b.is_ascii_alphanumeric() || b == b'_')
            };
            before_ok && after_ok
        })
        .collect()
}

/// One `fn` item's span in a blanked source: name plus the byte range
/// of its brace-delimited body (`body_start` is the offset of `{`,
/// `body_end` one past the matching `}`). Trait-method declarations
/// without bodies are skipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Offset of the body's opening `{`.
    pub body_start: usize,
    /// One past the body's closing `}`.
    pub body_end: usize,
}

/// Extract every function span from blanked code. Nested functions get
/// their own (inner) spans; [`enclosing_fn`] resolves to the innermost.
pub fn fn_spans(code: &str) -> Vec<FnSpan> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for pos in find_word(code, "fn") {
        let mut j = pos + 2;
        while j < bytes.len() && (bytes[j] as char).is_whitespace() {
            j += 1;
        }
        let name_start = j;
        while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
            j += 1;
        }
        if j == name_start {
            continue; // `fn` in `Fn()` position already excluded by find_word; stray otherwise
        }
        let name = code[name_start..j].to_owned();
        // Scan to the body `{` or a `;` (bodiless trait method). Types
        // in the signature carry no braces, so the first `{` opens the
        // body.
        let mut k = j;
        while k < bytes.len() && bytes[k] != b'{' && bytes[k] != b';' {
            k += 1;
        }
        if k >= bytes.len() || bytes[k] == b';' {
            continue;
        }
        let body_start = k;
        let mut depth = 0;
        while k < bytes.len() {
            match bytes[k] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        out.push(FnSpan {
            name,
            body_start,
            body_end: (k + 1).min(bytes.len()),
        });
    }
    out
}

/// The innermost function span containing `pos`, if any.
pub fn enclosing_fn(spans: &[FnSpan], pos: usize) -> Option<&FnSpan> {
    spans
        .iter()
        .filter(|s| s.body_start <= pos && pos < s.body_end)
        .min_by_key(|s| s.body_end - s.body_start)
}

/// End of the statement containing `pos`: the offset one past the
/// first `;` at the statement's own nesting, one past the `}` that
/// closes a block-terminated statement (`for … { … }`, `match … { … }`),
/// or one past the `}` closing the enclosing block. This is the
/// lifetime of a statement temporary — a lock guard not bound by `let`
/// lives exactly this long, including through the body of a `for`
/// whose head created it and through every later link of a method
/// chain (`.field(&a.lock()).field(&b.lock())` holds both). Paren and
/// brace depth are tracked separately so a `)` closing an enclosing
/// call does not end the statement, while a closure body's `}` inside
/// an argument list does not either.
pub fn statement_end(code: &str, pos: usize) -> usize {
    let bytes = code.as_bytes();
    let mut parens: i32 = 0;
    let mut braces: i32 = 0;
    let mut k = pos;
    while k < bytes.len() {
        match bytes[k] {
            b'(' | b'[' => parens += 1,
            b')' | b']' => parens -= 1,
            b'{' => braces += 1,
            b'}' => {
                braces -= 1;
                if braces < 0 {
                    return k + 1; // enclosing block closed
                }
                if braces == 0 && parens <= 0 {
                    return k + 1; // block-terminated statement
                }
            }
            b';' if braces == 0 && parens <= 0 => return k + 1,
            _ => {}
        }
        k += 1;
    }
    bytes.len()
}

/// End of the innermost brace block containing `pos`: one past the `}`
/// that drops the brace depth below its value at `pos`. The lifetime of
/// a `let`-bound guard.
pub fn block_end(code: &str, pos: usize) -> usize {
    let bytes = code.as_bytes();
    let mut depth: i32 = 0;
    let mut k = pos;
    while k < bytes.len() {
        match bytes[k] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
        k += 1;
    }
    bytes.len()
}

/// Keywords of the brace scopes enclosing `pos`, innermost last,
/// scanning from `from` (a function body's `{`). Each `{` is tagged
/// with the most recent control keyword seen since the last statement
/// boundary (`;`, `{`, `}`) — `while`, `loop`, `for`, `if`, `else`,
/// `match` — or `""` for plain/struct-literal/closure blocks.
pub fn scope_openers(code: &str, from: usize, pos: usize) -> Vec<String> {
    const KEYWORDS: &[&str] = &["loop", "while", "for", "if", "else", "match", "unsafe"];
    let bytes = code.as_bytes();
    let mut stack: Vec<String> = Vec::new();
    let mut last_kw = String::new();
    let mut k = from;
    while k < pos.min(bytes.len()) {
        let b = bytes[k];
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = k;
            while k < bytes.len() && (bytes[k].is_ascii_alphanumeric() || bytes[k] == b'_') {
                k += 1;
            }
            let word = &code[start..k];
            if KEYWORDS.contains(&word) {
                last_kw = word.to_owned();
            }
            continue;
        }
        match b {
            b'{' => {
                stack.push(std::mem::take(&mut last_kw));
            }
            b'}' => {
                stack.pop();
                last_kw.clear();
            }
            b';' => last_kw.clear(),
            _ => {}
        }
        k += 1;
    }
    stack
}

/// The receiver name of a `.method(` call whose `.` sits at `dot`:
/// walking left over whitespace and `?`, a `]`- or `)`-group collapses
/// to the identifier before it (index base or method name), and the
/// nearest plain identifier (or tuple index like `0`) is the answer.
/// `self.shard_for(&key).entries.lock()` → `entries`;
/// `results[i].lock()` → `results`; `self.0.lock()` → `0`;
/// `pool.lock()` → `pool`.
pub fn receiver_ident(code: &str, dot: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut k = dot;
    loop {
        // Step left over whitespace and `?`.
        while k > 0 && ((bytes[k - 1] as char).is_whitespace() || bytes[k - 1] == b'?') {
            k -= 1;
        }
        if k == 0 {
            return None;
        }
        match bytes[k - 1] {
            b']' | b')' => {
                let close = bytes[k - 1];
                let open = if close == b']' { b'[' } else { b'(' };
                let mut depth = 0;
                let mut j = k - 1;
                loop {
                    if bytes[j] == close {
                        depth += 1;
                    } else if bytes[j] == open {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if j == 0 {
                        return None;
                    }
                    j -= 1;
                }
                k = j;
                // An index expression (`results[i]`) names its base; a
                // call group names the method before it. Either way the
                // identifier left of the opener is the answer — fall
                // through and read it next iteration.
            }
            c if c.is_ascii_alphanumeric() || c == b'_' => {
                let end = k;
                let mut j = k;
                while j > 0 && (bytes[j - 1].is_ascii_alphanumeric() || bytes[j - 1] == b'_') {
                    j -= 1;
                }
                return Some(code[j..end].to_owned());
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unwraps(code: &str) -> usize {
        find_all(code, ".unwrap()").len()
    }

    #[test]
    fn raw_strings_blank_interior_and_keep_delimiters() {
        // Rule patterns inside raw strings at several hash depths must
        // never count; the delimiters survive so the blanked code keeps
        // balanced quotes.
        let src = r####"
let a = r".unwrap()";
let b = r#"x.unwrap() and "quoted" text"#;
let c = r###"deep ".unwrap()"# still inside"###;
let real = v.unwrap();
"####;
        let s = scan_source(src);
        assert_eq!(unwraps(&s.code), 1, "{}", s.code);
        // Delimiters survive blanking.
        assert!(s.code.contains(r##"r#""##));
        assert!(s.code.contains(r##""#"##));
    }

    #[test]
    fn raw_string_mismatched_hash_runs_stay_inside() {
        // A `"#` run shorter than the opener must not close the string.
        let src = r###"let p = r##"contains "# inside"##; q.unwrap();"###;
        let s = scan_source(src);
        assert_eq!(unwraps(&s.code), 1);
        assert!(!s.code.contains("inside"));
    }

    #[test]
    fn identifiers_ending_in_r_do_not_open_raw_strings() {
        // `ptr` then a normal string: the string arm must handle it; if
        // the raw arm fired, the escape `\"` would be treated literally
        // and the scan would mis-scope the rest of the line.
        let src = "let x = matcher\"a\\\".unwrap()\"; y.unwrap();";
        let s = scan_source(src);
        assert_eq!(unwraps(&s.code), 1);
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        let src = "let r#type = a.unwrap(); let r#fn = b.unwrap();";
        let s = scan_source(src);
        assert_eq!(unwraps(&s.code), 2);
    }

    #[test]
    fn byte_and_raw_byte_strings_are_blanked() {
        let src = "let a = b\".unwrap()\"; let b2 = br#\".unwrap()\"#; c.unwrap();";
        let s = scan_source(src);
        assert_eq!(unwraps(&s.code), 1, "{}", s.code);
    }

    #[test]
    fn nested_block_comments_blank_to_the_outer_close() {
        let src = "/* a /* b.unwrap() */ c.unwrap() */ let x = d.unwrap();";
        let s = scan_source(src);
        assert_eq!(unwraps(&s.code), 1);
    }

    #[test]
    fn unbalanced_inner_comment_extends_to_eof() {
        // rustc treats `/* /* */` as unterminated; the scanner must
        // blank to EOF rather than resurrecting the tail as code.
        let src = "/* outer /* inner */ x.unwrap()";
        let s = scan_source(src);
        assert_eq!(unwraps(&s.code), 0);
    }

    #[test]
    fn comment_markers_inside_strings_do_not_open_comments() {
        let src = "let p = \"/*\"; let q = r#\"/*\"#; r.unwrap(); // */ tail.unwrap()";
        let s = scan_source(src);
        assert_eq!(unwraps(&s.code), 1);
    }

    #[test]
    fn fn_spans_and_enclosing_fn() {
        let src = "fn outer(a: usize) -> usize {\n    let x = 1;\n    fn inner() { body(); }\n    x\n}\nfn second() { two(); }";
        let s = scan_source(src);
        let spans = fn_spans(&s.code);
        let names: Vec<&str> = spans.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "second"]);
        let body_pos = s.code.find("body").unwrap();
        assert_eq!(enclosing_fn(&spans, body_pos).unwrap().name, "inner");
        let x_pos = s.code.find("let x").unwrap();
        assert_eq!(enclosing_fn(&spans, x_pos).unwrap().name, "outer");
    }

    #[test]
    fn statement_end_spans_for_loop_bodies() {
        // A temporary created in a `for` head lives through the body.
        let src = "fn f() {\n    for c in list.lock().iter() {\n        use_it(c);\n    }\n    after.lock();\n}";
        let s = scan_source(src);
        let pos = s.code.find("list.lock()").unwrap();
        let end = statement_end(&s.code, pos);
        assert!(s.code[pos..end].contains("use_it"));
        assert!(!s.code[pos..end].contains("after"));
        // A plain statement ends at its semicolon.
        let p2 = s.code.find("after.lock()").unwrap();
        let e2 = statement_end(&s.code, p2);
        assert_eq!(&s.code[p2..e2], "after.lock();");
    }

    #[test]
    fn scope_openers_find_predicate_loops() {
        let src = "fn f() { loop { if done() { return; } cv.wait(&mut g); } }";
        let s = scan_source(src);
        let body = s.code.find('{').unwrap();
        let wait = s.code.find("cv.wait").unwrap();
        let scopes = scope_openers(&s.code, body, wait);
        assert!(scopes.iter().any(|k| k == "loop"), "{scopes:?}");

        let src2 = "fn g() { if !done() { cv.wait(&mut g); } }";
        let s2 = scan_source(src2);
        let wait2 = s2.code.find("cv.wait").unwrap();
        let scopes2 = scope_openers(&s2.code, s2.code.find('{').unwrap(), wait2);
        assert!(!scopes2.iter().any(|k| k == "loop" || k == "while"));
    }

    #[test]
    fn receiver_idents_collapse_chains() {
        let cases = [
            ("self.state.lock()", "state"),
            ("self.shard_for(&key).entries.lock()", "entries"),
            ("results[i].lock()", "results"),
            ("self.0.lock()", "0"),
            ("pool.lock()", "pool"),
            ("self.submit(req)?.wait()", "submit"),
        ];
        for (src, want) in cases {
            let dot = src.rfind('.').unwrap();
            assert_eq!(receiver_ident(src, dot).as_deref(), Some(want), "for {src}");
        }
    }
}
